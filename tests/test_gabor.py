import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaborlab.counterexamples import make_hpm
from gaborlab.gabor import gabor_eval, gabor_evals, gabor_field, gabor_fields
from gaborlab.grid import TFGrid
from gaborlab.signals import GaussianSum, gaussian

from oracles import (
    bargmann_derivative,
    bargmann_eval,
    bargmann_modulus,
    cr_gradient_check,
    gabor_quadrature_oracle,
)


def random_sum(rng, max_atoms=5):
    n = rng.integers(1, max_atoms + 1)
    return GaussianSum(
        (
            rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2),
            rng.uniform(-3, 3),
            rng.uniform(-3, 3),
        )
        for _ in range(n)
    )


def test_window_values():
    phi = gaussian()
    assert gabor_eval(phi, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert gabor_eval(phi, 1.0, 0.0) == pytest.approx(math.exp(-math.pi / 2), abs=1e-15)


def test_atom_closed_form_against_oracle():
    f = gaussian(shift=0.7, modulation=-1.3)
    closed = gabor_eval(f, 0.2, 0.4)
    quad = gabor_quadrature_oracle(f, 0.2, 0.4)
    assert abs(closed - quad) <= 1e-10 * max(1.0, abs(closed))


def test_oracle_unit_integral_and_zero_signal():
    assert abs(gabor_quadrature_oracle(gaussian(), 0.0, 0.0) - 1.0) < 1e-10
    assert gabor_quadrature_oracle(gaussian() - gaussian(), 1.0, 2.0) == 0
    with pytest.raises(ValueError):
        gabor_quadrature_oracle(gaussian(), 0.0, 0.0, step=0.0)


def test_covariance_peak_shift():
    # T_{1/a} phi with a = 1/2 peaks at x = 2 with unit modulus
    f = gaussian(shift=2.0)
    assert abs(abs(gabor_quadrature_oracle(f, 2.0, 0.0)) - 1.0) < 1e-10
    assert abs(abs(gabor_eval(f, 2.0, 0.0)) - 1.0) < 1e-14


def test_field_values_of_window():
    grid = TFGrid(-1, 1, -1, 1, 3, 3)
    F = gabor_field(gaussian(), grid)
    assert F.values[1, 1] == pytest.approx(1.0, abs=1e-15)
    for i, j in ((0, 0), (0, 2), (2, 0), (2, 2)):
        assert abs(F.values[i, j]) == pytest.approx(math.exp(-math.pi), rel=1e-12)


def test_field_closed_vs_quadrature():
    f = GaussianSum([(1.0, 0.0, 0.0), (0.1j, 1.0, 0.0)])  # f_plus at a=1, gamma=0.1
    grid = TFGrid(-2, 3, -2, 3, 21, 21)
    Fc = gabor_field(f, grid)
    Fq = np.array([[gabor_quadrature_oracle(f, x, w) for w in grid.w_nodes()]
                   for x in grid.x_nodes()])
    rel = np.abs(Fc.values - Fq) / np.maximum(np.abs(Fc.values), 1.0)
    assert rel.max() <= 1e-8


def test_oracle_default_step_matches_a_tenfold_finer_step():
    # the trapezoid rule converges exponentially for this entire, Gaussian-
    # decaying integrand, so step 1e-2 and step 1e-3 agree to rounding
    rng = np.random.default_rng(12)
    for _ in range(20):
        f = random_sum(rng, 3)
        x, w = rng.uniform(-3, 3, 2)
        coarse = gabor_quadrature_oracle(f, x, w)
        fine = gabor_quadrature_oracle(f, x, w, step=1e-3)
        assert abs(coarse - fine) <= 1e-12 * max(1.0, abs(fine))


def test_gabor_bits_do_not_depend_on_input_size():
    # numpy's temporary elision once turned coeff * exp(...) into
    # exp(...) * coeff only above 16,384 points, and the two products differ
    # in the last bit where complex multiply uses FMA
    pair = make_hpm(1.0 / 6.0)
    rng = np.random.default_rng(6)
    x, w = rng.uniform(-4.0, 4.0, (2, 40_000))
    for sig in (pair.plus, pair.minus):
        full = gabor_eval(sig, x, w)
        head = gabor_eval(sig, x[:1000], w[:1000])
        assert head.tobytes() == full[:1000].tobytes()


def test_field_equals_eval_on_mesh_bit_for_bit():
    grid = TFGrid(-4, 4, -3, 5, 201, 161)
    pair = make_hpm(1.0 / 6.0)
    for sig in (pair.plus, pair.minus, random_sum(np.random.default_rng(3))):
        field = gabor_field(sig, grid).values
        assert field.tobytes() == gabor_eval(sig, *grid.mesh()).tobytes()


def test_field_memo_returns_the_same_field_for_an_equal_grid():
    sig = random_sum(np.random.default_rng(5))
    first = gabor_field(sig, TFGrid(-2, 2, -1, 3, 21, 17))
    assert gabor_field(sig, TFGrid(-2.0, 2.0, -1.0, 3.0, 21, 17)) is first


def test_field_memo_holds_only_the_last_grid():
    sig = random_sum(np.random.default_rng(8))
    grid, other = TFGrid(-2, 2, -2, 2, 21, 17), TFGrid(-2, 2, -2, 2, 21, 19)
    first = gabor_field(sig, grid)
    second = gabor_field(sig, other)
    assert second.grid == other and second.values.shape == (21, 19)
    assert gabor_field(sig, other) is second
    again = gabor_field(sig, grid)
    assert again is not first
    assert again.values.tobytes() == first.values.tobytes()


def test_field_values_are_read_only():
    field = gabor_field(gaussian(), TFGrid(-1, 1, -1, 1, 5, 5))
    with pytest.raises(ValueError):
        field.values[0, 0] = 0.0
    with pytest.raises(ValueError):
        field.values *= 2.0


@st.composite
def small_grids(draw):
    x0, w0 = draw(st.floats(-4.0, 3.0)), draw(st.floats(-4.0, 3.0))
    return TFGrid(x0, x0 + draw(st.floats(0.1, 4.0)), w0, w0 + draw(st.floats(0.1, 4.0)),
                  draw(st.integers(2, 25)), draw(st.integers(2, 25)))


ATOMS = st.lists(st.tuples(st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0),
                           st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                 min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(ATOMS, small_grids(), small_grids(), st.lists(st.integers(0, 1), min_size=2, max_size=6))
def test_memoized_field_equals_eval_on_the_nodes(atoms, grid_a, grid_b, order):
    sig, grids = GaussianSum(atoms), (grid_a, grid_b)
    prev = None
    for i in order:
        field = gabor_field(sig, grids[i])
        assert field.values.tobytes() == gabor_eval(sig, *grids[i].mesh()).tobytes()
        if prev is not None and prev.grid == grids[i]:
            assert field is prev
        prev = field


@st.composite
def signal_tuples(draw):
    """Tuples of sums on one pool of atom positions, so that two sums share
    all, some or none of their positions, with coefficients up to 1e300;
    or an hpm pair near make_hpm's smallest a.  Points more than 21.3 from
    an atom take the e^{z + log c} branch."""
    if draw(st.booleans()):
        pair = make_hpm(draw(st.floats(0.034, 0.05)))
        return (pair.plus, pair.minus)
    pool = draw(st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
                         min_size=1, max_size=5, unique=True))
    coeffs = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e300)
    sums = []
    for _ in range(draw(st.integers(1, 4))):
        positions = draw(st.lists(st.sampled_from(pool), max_size=len(pool), unique=True))
        sums.append(GaussianSum((draw(coeffs), u, b) for u, b in positions))
    return tuple(sums)


@st.composite
def point_sets(draw):
    """(x, w): two scalars, two vectors, or a column and a row that broadcast."""
    coords = st.floats(-30.0, 30.0)
    shapes = draw(st.sampled_from([((), ()), ((7,), (7,)), ((5, 1), (1, 4)), ((3, 1), (6,))]))
    x, w = (draw(arrays(float, shape, elements=coords)) for shape in shapes)
    return (float(x), float(w)) if x.shape == () else (x, w)


@settings(max_examples=120, deadline=None)
@given(signal_tuples(), point_sets())
def test_joint_evaluation_keeps_each_signals_bits(sums, points):
    joint = gabor_evals(sums, *points)
    assert len(joint) == len(sums)
    for sig, vals in zip(sums, joint):
        alone = gabor_eval(sig, *points)
        assert type(vals) is type(alone)
        assert np.asarray(vals).tobytes() == np.asarray(alone).tobytes()


def test_joint_fields_fill_each_memo():
    grid = TFGrid(-3, 3, -2, 2, 31, 21)
    pair = make_hpm(0.4)
    warm = random_sum(np.random.default_rng(9))
    first = gabor_field(warm, grid)
    fields = gabor_fields((pair.plus, warm, pair.minus), grid)
    assert fields[1] is first
    for sig, field in zip((pair.plus, warm, pair.minus), fields):
        assert gabor_field(sig, grid) is field
        assert field.values.tobytes() == gabor_eval(sig, *grid.mesh()).tobytes()
        assert not field.values.flags.writeable


def test_empty_signal_field():
    grid = TFGrid(-1, 1, -1, 1, 4, 4)
    assert np.all(gabor_field(GaussianSum(), grid).values == 0)


def test_linearity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        f, g = random_sum(rng, 3), random_sum(rng, 3)
        al = rng.normal() + 1j * rng.normal()
        be = rng.normal() + 1j * rng.normal()
        x, w = rng.uniform(-3, 3, 2)
        lhs = gabor_eval(al * f + be * g, x, w)
        rhs = al * gabor_eval(f, x, w) + be * gabor_eval(g, x, w)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_shift_covariance_of_magnitude():
    rng = np.random.default_rng(12)
    for _ in range(10):
        f = random_sum(rng, 3)
        u = rng.uniform(-2, 2)
        x, w = rng.uniform(-3, 3, 2)
        lhs = abs(gabor_eval(f.translated(u), x, w))
        rhs = abs(gabor_eval(f, x - u, w))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


def test_bargmann_modulus_of_window_is_one():
    rng = np.random.default_rng(13)
    phi = gaussian()
    assert bargmann_modulus(phi, 0.0, 0.0) == 1.0
    for _ in range(20):
        x, w = rng.uniform(-3.5, 3.5, 2)
        if x * x + w * w <= 25.0:
            assert abs(bargmann_modulus(phi, x, w) - 1.0) <= 1e-9


def test_bargmann_modulus_shifted_window():
    f = gaussian(shift=1.0)
    assert bargmann_modulus(f, 0.0, 0.0) == pytest.approx(math.exp(-math.pi / 2), rel=1e-12)


def test_bargmann_gabor_identity():
    rng = np.random.default_rng(14)
    for _ in range(10):
        f = random_sum(rng, 4)
        x, w = rng.uniform(-2, 2, 2)
        lhs = bargmann_modulus(f, x, w)
        rhs = abs(gabor_eval(f, x, -w)) * math.exp(math.pi * (x * x + w * w) / 2)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


def test_bargmann_overflow_flag():
    # |B phi| is identically 1, so overflow needs a shifted atom
    assert bargmann_modulus(gaussian(), 30.0, 30.0) == 1.0
    assert bargmann_modulus(gaussian(shift=3.0), 90.0, 0.0) == math.inf
    assert bargmann_modulus(GaussianSum(), 30.0, 30.0) == 0.0


def complex_step_derivative(f, z, h=1e-6):
    """(B f)'(z) by complex-step differentiation of the closed form.

    Re F and Im F along the real direction are continued analytically
    through the companion function F~(w) = conj(F(conj w)), the transform of
    the sum with conjugated coefficients and negated modulations, so Re F'
    and Im F' are read off imaginary parts of F(z + ih) and F~(z* + ih) with
    no subtractive step in h."""
    conj_f = GaussianSum((np.conj(a.coeff), a.shift, -a.modulation) for a in f.atoms)
    A = bargmann_eval(f, z + 1j * h)
    B = bargmann_eval(conj_f, np.conj(z) + 1j * h)
    return complex((np.imag(A) + np.imag(B)) / (2.0 * h), (np.real(B) - np.real(A)) / (2.0 * h))


def test_complex_step_matches_analytic_derivative():
    rng = np.random.default_rng(15)
    for _ in range(10):
        f = random_sum(rng, 4)
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        d_cs = complex_step_derivative(f, z)
        d_an = bargmann_derivative(f, z)
        assert abs(d_cs - d_an) <= 1e-7 * max(1.0, abs(d_an))
        # derivative consistent with a coarse finite difference of B f
        h = 1e-5
        d_fd = (bargmann_eval(f, z + h) - bargmann_eval(f, z - h)) / (2 * h)
        assert abs(d_fd - d_an) <= 1e-3 * max(1.0, abs(d_an))


def test_bargmann_of_the_zero_signal_is_zero():
    zero = GaussianSum()
    zs = np.array([[0.0, 1.5 - 2j], [-3j, 40.0 + 40j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (bargmann_eval, bargmann_derivative):
            assert fn(zero, 0.5 - 1j) == 0
            out = fn(zero, zs)
            assert out.shape == zs.shape and not out.any()
        assert bargmann_modulus(zero, 0.5, -1.0) == 0.0
        assert bargmann_modulus(zero, 40.0, 40.0) == 0.0


def test_cr_check_reads_the_analytic_derivative():
    rng = np.random.default_rng(16)
    f = make_hpm(0.5).plus
    pts = rng.uniform(-1.0, 1.0, (6, 2))
    rep = cr_gradient_check(f, pts)
    expect = [abs(bargmann_derivative(f, complex(x, w))) for x, w in pts]
    np.testing.assert_array_equal(rep.derivative_modulus, expect)
