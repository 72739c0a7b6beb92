"""numerics.Rng against numpy.random.default_rng: the same doubles and ints,
bit for bit, in every draw the package makes (uniform, scalar and vector,
and integers), and the probes drawn from either."""

import os
import random
import runpy

import numpy as np
import pytest

from clairaut import default_probes, load_bundled
from clairaut.numerics import Rng

CHECK_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "scripts", "check_numpy_free.py")

SEEDS = [0, 1, 42, 42003, 129007, 2**32 - 1, 2**32, 2**64 + 7, 10**20, 10**40 + 3]
BOUNDS = [1, 2, 3, 7, 100, 2**31 + 11, 2**32 - 1, 2**32]


@pytest.mark.parametrize("seed", SEEDS)
def test_bit_equal_to_numpy_on_interleaved_draws(seed):
    # integers between uniform draws: numpy keeps the high half of a 64-bit
    # draw for the next 32-bit one, and a double does not clear it
    want, got = np.random.default_rng(seed), Rng(seed)
    pick = random.Random(seed)
    for _ in range(600):
        kind = pick.randrange(3)
        if kind == 0:
            lo, hi = pick.choice([(-1.0, 1.0), (-1.5, 1.5), (0.7, 1.7)])
            x, y = want.uniform(lo, hi), got.uniform(lo, hi)
            assert type(y) is float and x.hex() == y.hex()
        elif kind == 1:
            size = pick.randrange(9)
            x, y = want.uniform(-2.0, 2.0, size=size), got.uniform(-2.0, 2.0, size=size)
            assert [v.hex() for v in x.tolist()] == [v.hex() for v in y]
        else:
            k = pick.choice(BOUNDS)
            assert int(want.integers(k)) == got.integers(k)


def test_probes_from_a_numpy_generator_equal_the_seeded_ones():
    model = load_bundled("particle")
    count = 9
    from_numpy = default_probes(model, count, seed=np.random.default_rng(7))
    assert from_numpy == default_probes(model, count, 7)


def test_probe_bindings_are_plain_floats():
    model = load_bundled("cawley")
    for bindings in default_probes(model, 5, 3):
        assert all(type(v) is float for v in bindings.values())


def test_no_seed_draws_afresh():
    model = load_bundled("oscillator")
    assert default_probes(model, 4, None) != default_probes(model, 4, None)
    assert Rng().uniform(size=4) != Rng().uniform(size=4)


def test_negative_seed_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        Rng(-1)


@pytest.mark.parametrize("k", [0, -3, 2**32 + 1])
def test_integers_refuses_bounds_it_does_not_draw(k):
    with pytest.raises(ValueError):
        Rng(1).integers(k)


def test_pinned_draws_of_the_numpy_free_check_are_numpys():
    draws = np.random.default_rng(42).uniform(-1.0, 1.0, size=4).tolist()
    assert tuple(x.hex() for x in draws) == runpy.run_path(CHECK_SCRIPT)["PINNED_UNIFORM_42"]
