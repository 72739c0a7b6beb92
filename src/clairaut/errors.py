"""Exception types shared across the engine.

Every failure mode callers are expected to handle gets its own class, and
each class holds the CLI's exit code for it in ``exit_code``: 3 for a
numeric failure unless the class sets 2, a usage or input error.
"""


class ClairautError(Exception):
    """Base class for all engine errors."""

    exit_code = 3


class ExprSyntaxError(ClairautError):
    """Raised by the expression and model parsers on malformed input."""

    exit_code = 2

    def __init__(self, message, line, column, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        detail = f"{message} (line {line}, column {column})"
        if self.expected:
            detail += "; expected one of: " + ", ".join(self.expected)
        super().__init__(detail)


class UnboundSymbolError(ClairautError):
    """Evaluation hit a symbol with no value bound."""

    exit_code = 2

    def __init__(self, name):
        self.name = name
        super().__init__(f"unbound symbol: {name}")


class DomainError(ClairautError):
    """Evaluation left the real domain (division by zero, log/sqrt of a negative)."""


class ArgumentError(ClairautError, ValueError):
    """A function was handed a value it does not take: an unknown function
    name, a non-matrix, an integrator setting out of range; or the CLI a
    flag or binding it does not take.  Also a ValueError, so callers that
    catch that keep working."""

    exit_code = 2


class ModelError(ClairautError):
    """Model file failed validation (undeclared coordinate, duplicates, ...)."""

    exit_code = 2


class RankVariationError(ClairautError):
    """The rank of a probed matrix (the velocity Hessian or the field
    strength) disagreed between probe points."""

    def __init__(self, ranks, matrix="velocity Hessian"):
        # ranks: list of (probe_index, rank)
        self.ranks = list(ranks)
        seen = sorted({r for _, r in self.ranks})
        detail = ", ".join(f"probe {i}: rank {r}" for i, r in self.ranks)
        super().__init__(f"{matrix} rank varies across probes (ranks {seen}): {detail}")


class NewtonError(ClairautError):
    """Damped Newton iteration failed to converge."""

    def __init__(self, message, residual=None, iterations=None):
        self.residual = residual
        self.iterations = iterations
        super().__init__(message)


class FenchelError(ClairautError):
    """Numeric Legendre-Fenchel supremum search found no maximizer."""


class IntegrabilityError(ClairautError):
    """Degenerate-sector consistency residual exceeded tolerance mid-run.

    Carries the trajectory integrated so far in ``trajectory``.
    """

    def __init__(self, message, trajectory=None):
        self.trajectory = trajectory
        super().__init__(message)


class RankDeficiencyError(ClairautError):
    """Envelope construction requires an invertible Hessian block and did not get one."""


class GaugeInputError(ClairautError):
    """Gauge velocity assignment does not match the model's classification."""

    exit_code = 2
