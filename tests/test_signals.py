import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaborlab.grid import COORD_BOUND, TFGrid
from gaborlab.signals import (
    GaussianAtom,
    GaussianSum,
    gaussian,
    phase_equivalent,
    signal_norm,
    signal_phase_distance,
)

from oracles import evaluate, signal_inner


def test_atom_rejects_zero_coeff_and_nonfinite():
    with pytest.raises(ValueError):
        GaussianAtom(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GaussianAtom(1.0, math.inf, 0.0)
    with pytest.raises(ValueError):
        GaussianAtom(1.0, 0.0, math.nan)


def test_atom_positions_and_grid_extents_stay_within_the_coordinate_bound():
    # every square of a coordinate up to the bound is finite
    GaussianAtom(1.0, COORD_BOUND, -COORD_BOUND)
    TFGrid(-COORD_BOUND, COORD_BOUND, -COORD_BOUND, COORD_BOUND, 2, 2)
    for bad in (math.nextafter(COORD_BOUND, math.inf), -math.inf, math.nan):
        with pytest.raises(ValueError, match="atom modulation"):
            GaussianAtom(1.0, 0.0, bad)
        with pytest.raises(ValueError, match="grid extent w_min"):
            TFGrid(-1.0, 1.0, bad, 1.0, 2, 2)


def test_duplicate_atoms_merge_and_cancel():
    f = gaussian() - gaussian()
    assert f.is_zero
    g = GaussianSum([(1.0, 0.5, 0.0), (2.0, 0.5, 0.0), (1j, 0.0, 1.0)])
    assert len(g) == 2
    merged = {(a.shift, a.modulation): a.coeff for a in g.atoms}
    assert merged[(0.5, 0.0)] == 3.0


def test_zero_signal_evaluates_to_zero():
    assert evaluate(GaussianSum(), 0.3) == 0
    assert np.all(evaluate(GaussianSum(), np.linspace(-1, 1, 5)) == 0)


def test_inner_product_matches_quadrature():
    rng = np.random.default_rng(3)
    t = np.arange(-12.0, 12.0, 1e-3)
    for _ in range(5):
        f = GaussianSum(
            (rng.normal() + 1j * rng.normal(), rng.uniform(-2, 2), rng.uniform(-2, 2))
            for _ in range(3)
        )
        g = GaussianSum(
            (rng.normal() + 1j * rng.normal(), rng.uniform(-2, 2), rng.uniform(-2, 2))
            for _ in range(2)
        )
        quad = np.trapezoid(np.conj(evaluate(f, t)) * evaluate(g, t), dx=1e-3)
        assert abs(signal_inner(f, g) - quad) < 1e-9


def test_gaussian_is_normalized():
    assert abs(signal_norm(gaussian()) - 1.0) < 1e-15


def test_phase_distance_exact_cases():
    f = gaussian()
    assert signal_phase_distance(f, f) == 0.0
    g = gaussian(coeff=np.exp(0.4j))
    assert signal_phase_distance(f, g) < 1e-15
    # tiny perturbations must not cancel away (the naive closed form does)
    eps = 3e-9
    h = GaussianSum([(1.0, 0.0, 0.0), (1j * eps, 2.0, 0.0)])
    d = signal_phase_distance(f, h)
    assert abs(d - eps) < 1e-3 * eps


def test_phase_equivalent_is_algebraic():
    f = GaussianSum([(1.0, 0.0, 0.0), (2j, 1.0, -1.0)])
    assert phase_equivalent(f, f * np.exp(1.3j))
    assert not phase_equivalent(f, f * 2.0)
    assert not phase_equivalent(f, gaussian())
    tiny = 1e-12
    g = GaussianSum([(1.0, 0.0, 0.0), (1j * tiny, 2.0, 0.0)])
    h = GaussianSum([(1.0, 0.0, 0.0), (-1j * tiny, 2.0, 0.0)])
    assert not phase_equivalent(g, h)


def test_translation_moves_atoms():
    f = gaussian().translated(1.5)
    assert f.atoms[0].shift == 1.5
    t = np.linspace(-2, 2, 9)
    assert np.allclose(evaluate(f, t), evaluate(gaussian(), t - 1.5))


# ---------------------------------------------------------------------------
# properties of the Gaussian-sum algebra
# ---------------------------------------------------------------------------

# moduli in [0.1, 2]; shifts and modulations on a 1/8 grid, so that no
# translation by a bounded amount can merge two distinct atoms
COEFFS = st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)),
                   st.floats(0.1, 2.0), st.floats(-math.pi, math.pi))
NODES = st.integers(-24, 24).map(lambda i: i / 8)
ATOMS = st.tuples(COEFFS, NODES, NODES)
SUMS = st.lists(ATOMS, min_size=1, max_size=4,
                unique_by=lambda atom: atom[1:]).map(GaussianSum)


@settings(deadline=None)
@given(SUMS, SUMS, st.integers(-900, 900))
def test_phase_distance_is_exactly_scale_covariant(f, g, k):
    # scaling by a power of two is exact, so the distance must scale with
    # it bit for bit, even where the squared coefficients leave the double range
    s = 2.0**k
    assert signal_phase_distance(s * f, s * g) == s * signal_phase_distance(f, g)


@settings(deadline=None)
@given(SUMS, COEFFS)
def test_duplicates_merge_and_cancelled_atoms_vanish(f, c):
    doubled = GaussianSum(f.atoms + f.atoms)
    assert [(a.shift, a.modulation) for a in doubled.atoms] == [
        (a.shift, a.modulation) for a in f.atoms]
    assert [a.coeff for a in doubled.atoms] == [2 * a.coeff for a in f.atoms]
    assert (f - f).is_zero
    extra = GaussianSum([(c, 9.0, 9.0)])  # off the node grid of SUMS
    assert ((f + extra) - extra).atoms == f.atoms


@settings(deadline=None)
@given(SUMS, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_translations_compose(f, u, v):
    two_steps = f.translated(u).translated(v)
    one_step = f.translated(u + v)
    assert len(two_steps) == len(one_step) == len(f)
    for a, b in zip(two_steps.atoms, one_step.atoms):
        assert a.modulation == b.modulation
        assert abs(a.shift - b.shift) <= 1e-12
        assert abs(a.coeff - b.coeff) <= 1e-12 * abs(b.coeff)


@settings(deadline=None)
@given(SUMS, st.floats(-math.pi, math.pi), ATOMS)
def test_phase_equivalence_under_unimodular_factors(f, beta, atom):
    g = f * complex(math.cos(beta), math.sin(beta))
    assert phase_equivalent(f, g)
    # an atom on a new (u, b) is linearly independent of f's atoms
    assume(atom[1:] not in {(a.shift, a.modulation) for a in f.atoms})
    assert not phase_equivalent(f, g + GaussianSum([atom]))
