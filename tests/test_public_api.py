"""The public contract: the names ``clairaut`` exports."""

import clairaut

PUBLIC_NAMES = [
    "BObservable", "BUNDLED", "Call", "ClairautError", "ClairautProblem",
    "ClairautTransform", "Const", "DiracReport", "DomainError", "Expr",
    "ExprObservable", "ExprSyntaxError", "FenchelError",
    "FiniteDifferenceObservable", "GaugeClassification", "GaugeInput",
    "GaugeInputError", "IntegrabilityError", "IntegrabilityReport",
    "IntegratorConfig", "LagrangianModel", "ManyTimeSystem", "ModelError",
    "Neg", "NewtonConfig", "NewtonError", "PhasePoint", "Pow", "Prod", "Quot",
    "RankDeficiencyError", "RankVariationError", "Resolution", "Sum", "Sym",
    "Trajectory", "UnboundSymbolError", "VariableSplit", "bianchi_residual",
    "bracket_gauge", "bracket_new", "bundled_model_path", "bundled_model_text",
    "calibrate_sigma", "check_rank_constancy", "classify", "compile_evaluator",
    "d_alpha_h", "damped_newton", "default_probes", "degenerate_velocities",
    "delta_b", "differentiate", "dirac_report", "el_residual",
    "envelope_solution", "evaluate", "evolve_observable", "fenchel_conjugate",
    "field_strength", "free_symbols", "g_matrix", "gauge_input",
    "general_solution", "hessian_matrix", "integrability_report", "integrate",
    "load_bundled", "load_model", "long_derivative", "map_to_manytime",
    "maxwell_current", "mixed_solution", "momentum_name",
    "newton_with_restarts", "parse_expression", "parse_model", "pde_residual",
    "phase_probes", "poisson_phys", "rank_and_pivots", "render_report",
    "run_verification", "simplify", "split_variables", "substitute",
    "velocity_name",
]


def test_all_is_the_public_contract():
    assert clairaut.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(clairaut, name) is not None, name
