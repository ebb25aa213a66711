import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborlab.counterexamples import (
    AGREEMENT,
    Lattice,
    LatticeMismatchError,
    fpm_magnitude_closed,
    gamma_threshold,
    make_fpm,
    make_gpm,
    make_hpm,
    pair_magnitude,
    root_set_fpm,
    root_set_pair,
    tilt_magnitude,
    verify_pair,
)
from gaborlab.gabor import gabor_eval
from gaborlab.grid import TFGrid
from gaborlab.signals import gaussian, signal_phase_distance


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_hpm_matches_cosh_sinh_form():
    a = 1.0
    pair = make_hpm(a)
    t = np.linspace(-2.0, 2.0, 41)
    phi = gaussian().evaluate(t)
    direct_plus = phi * (np.cosh(np.pi * t / a) + 1j * np.sinh(np.pi * t / a))
    assert np.max(np.abs(pair.plus.evaluate(t) - direct_plus)) <= 1e-12 * np.max(np.abs(direct_plus))
    assert abs(pair.plus.evaluate(0.0) - 2**0.25) <= 1e-12


def test_hpm_lattice_agreement_tight():
    a = 1 / 6
    pair = make_hpm(a)
    lat = Lattice("horizontal_lines", a, line_sample_count=201, line_extent=4.0,
                  k_max=12)
    rep = verify_pair(pair, lat, tol=1e-9, noneq_floor=0.1)
    assert rep.passed
    assert rep.max_rel_dev <= 1e-9
    assert rep.d_X2 > 0.1


def test_fpm_atoms_and_small_gamma_limit():
    pair = make_fpm(0.5, math.exp(-5 * math.pi))
    shifts = sorted(a.shift for a in pair.plus.atoms)
    assert shifts == [0.0, 2.0]
    # gamma -> 0: the pair collapses onto the window
    small = make_fpm(0.5, 1e-6)
    assert signal_phase_distance(small.plus, gaussian()) <= 2e-6


def test_root_sets_disjoint_for_all_kinds():
    for pair in (make_fpm(1.0, 0.3), make_hpm(0.5), make_gpm(0.5, 0.2)):
        rp, rm = root_set_pair(pair, -4, 4)
        dists = np.sqrt(((rp[:, None, :] - rm[None, :, :]) ** 2).sum(-1))
        assert dists.min() >= pair.a - 1e-12


def test_gpm_real_valued_and_sine_form():
    a, gamma = 0.5, 0.2
    pair = make_gpm(a, gamma)
    t = np.linspace(-3.0, 3.0, 101)
    vals = pair.plus.evaluate(t)
    assert np.max(np.abs(vals.imag)) <= 1e-14
    direct = gaussian().evaluate(t).real * (1.0 - 2.0 * gamma * np.sin(2 * np.pi * t / a))
    assert np.max(np.abs(vals.real - direct)) <= 1e-12


def test_gpm_vertical_lattice_agreement():
    a = 0.5
    pair = make_gpm(a, 0.2)
    lat = Lattice("vertical_lines", a, line_sample_count=201, line_extent=4.0,
                  k_max=6)
    rep = verify_pair(pair, lat, tol=1e-9, noneq_floor=1e-9)
    assert rep.passed and rep.max_rel_dev <= 1e-9 and rep.d_X2 > 0


def test_constructor_validation():
    # tiny a overflows the complete-the-square coefficient; refuse loudly
    with pytest.raises(ValueError):
        make_hpm(0.02)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            make_hpm(bad)
        with pytest.raises(ValueError):
            make_fpm(bad, 0.1)
        with pytest.raises(ValueError):
            make_fpm(0.5, bad)
        with pytest.raises(ValueError):
            make_gpm(0.5, bad)


# ---------------------------------------------------------------------------
# closed magnitude / roots / thresholds
# ---------------------------------------------------------------------------


def test_fpm_magnitude_closed_origin():
    val = fpm_magnitude_closed(1.0, 0.5, +1, 0.0, 0.0)
    assert val == pytest.approx(math.sqrt(1 + 0.25 * math.exp(-math.pi)), rel=1e-14)


def test_fpm_magnitude_closed_matches_transform():
    rng = np.random.default_rng(21)
    a, gamma = 0.7, 0.3
    pair = make_fpm(a, gamma)
    for _ in range(25):
        x, w = rng.uniform(-3, 4, 2)
        for sign, sig in ((+1, pair.plus), (-1, pair.minus)):
            closed = fpm_magnitude_closed(a, gamma, sign, x, w)
            ref = abs(gabor_eval(sig, x, w))
            assert abs(closed - ref) <= 1e-12 * max(ref, 1e-300)


def test_fpm_magnitude_closed_no_overflow():
    assert fpm_magnitude_closed(0.1, 0.5, +1, 300.0, 0.0) == 0.0
    assert np.isfinite(fpm_magnitude_closed(0.05, 1e-8, -1, 50.0, 2.0))


def test_root_set_figure_coordinates():
    a, gamma = 0.5, math.exp(-5 * math.pi)
    rp = root_set_fpm(a, gamma, +1, -3, 3)
    rm = root_set_fpm(a, gamma, -1, -3, 3)
    assert np.allclose(rp[:, 0], 3.5, atol=1e-12)
    assert np.allclose(rm[:, 0], 3.5, atol=1e-12)
    # two branches offset by +-a/2 with spacing 2a = 1
    assert np.allclose(np.diff(rp[:, 1]), 1.0, atol=1e-12)
    assert np.allclose(np.diff(rm[:, 1]), 1.0, atol=1e-12)
    offsets = {round(float(np.min(np.abs(rp[:, 1]))), 6),
               round(float(np.min(np.abs(rm[:, 1]))), 6)}
    assert offsets == {0.25}
    with pytest.raises(ValueError):
        root_set_fpm(a, gamma, +1, 3, -3)


def test_root_x_at_gamma_one():
    pts = root_set_fpm(1.0, 1.0, +1, 0, 0)
    assert pts[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_roots_are_zeros_and_local_minima():
    a, gamma = 0.5, math.exp(-5 * math.pi)
    for sign in (+1, -1):
        for x, w in root_set_fpm(a, gamma, sign, -2, 2):
            v0 = fpm_magnitude_closed(a, gamma, sign, x, w)
            assert v0 <= 1e-13
            for dx, dw in ((1e-3, 0), (-1e-3, 0), (0, 1e-3), (0, -1e-3)):
                assert fpm_magnitude_closed(a, gamma, sign, x + dx, w + dw) > v0


def test_hpm_gpm_root_formulas_vanish():
    hp = make_hpm(0.5)
    rp, rm = root_set_pair(hp, -2, 2)
    for pts, sig in ((rp, hp.plus), (rm, hp.minus)):
        mags = np.abs(gabor_eval(sig, pts[:, 0], pts[:, 1]))
        scale = abs(gabor_eval(sig, 0.25, 0.0))
        assert mags.max() <= 1e-12 * scale
    gp = make_gpm(0.5, 0.2)
    rp, rm = root_set_pair(gp, -1, 1)
    for pts, sig in ((rp, gp.plus), (rm, gp.minus)):
        mags = np.abs(gabor_eval(sig, pts[:, 0], pts[:, 1]))
        assert mags.max() <= 1e-12


def test_gamma_threshold_values():
    assert gamma_threshold(0.5, 3.0, 1.0) == math.exp(-4 * math.pi)
    # R = 1/(2a): exponent vanishes, min{1, 1} = 1
    assert gamma_threshold(0.5, 1.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        gamma_threshold(0.5, 3.0, 0.0)
    with pytest.raises(ValueError):
        gamma_threshold(-1.0, 3.0)


def test_gamma_threshold_clamps_before_exp():
    # at a = 1e-3 the unclamped e^{...} overflows a double; the min is 1
    assert gamma_threshold(1e-3, 3.0) == 1.0
    assert gamma_threshold(1e-3, 3.0, 0.25) == 0.25
    assert gamma_threshold(5e-324, 3.0) == 1.0
    with pytest.raises(ValueError):
        gamma_threshold(math.nan, 3.0)


def test_threshold_keeps_strip_root_free():
    a, R = 0.5, 3.0
    gamma = 0.99 * gamma_threshold(a, R, 1.0)
    xs = np.linspace(-R + 1e-9, R - 1e-9, 401)
    ws = np.linspace(-5 * R, 5 * R, 401)
    X, W = np.meshgrid(xs, ws, indexing="ij")
    vals = fpm_magnitude_closed(a, gamma, +1, X, W)
    assert vals.min() > 0.0
    # and the predicted root line sits outside the strip
    assert root_set_fpm(a, gamma, +1, 0, 0)[0, 0] > R


def test_past_threshold_zero_appears_in_strip():
    # gamma = 1.01 * gamma_0 moves the root line just inside |x| < R; align
    # the scan grid so one node sits on a root, else no finite grid can see
    # the 1e-10-deep zero
    a, R = 0.5, 3.0
    gamma = 1.01 * gamma_threshold(a, R, 1.0)
    root = root_set_fpm(a, gamma, +1, 0, 0)[0]
    assert abs(root[0]) < R
    xs = np.linspace(-R, root[0], 401)
    ws = np.linspace(root[1] - 5 * R, root[1] + 5 * R, 401)
    X, W = np.meshgrid(xs, ws, indexing="ij")
    vals = fpm_magnitude_closed(a, gamma, +1, X, W)
    peak = vals.max()
    assert vals.min() <= 1e-10 * peak


def test_magnitude_sandwich():
    a, R, delta = 0.5, 3.0, 0.5
    gamma = 0.9 * gamma_threshold(a, R, delta)
    grid = TFGrid(-R + 1e-6, R - 1e-6, -6.0, 6.0, 101, 101)
    X, W = grid.mesh()
    env = np.abs(gabor_eval(gaussian(), X, W))
    for sign in (+1, -1):
        m = fpm_magnitude_closed(a, gamma, sign, X, W)
        p = 2.0
        assert np.all((1 - delta) ** p * env**p <= m**p + 1e-300)
        assert np.all(m**p <= (1 + delta) ** p * env**p * (1 + 1e-12))


def test_distance_to_gaussian_bounded_by_2gamma():
    for a, gamma in ((0.5, 0.3), (1.0, 1e-3), (1 / 6, 0.05)):
        pair = make_fpm(a, gamma)
        assert signal_phase_distance(pair.plus, gaussian()) <= 2 * gamma
        assert signal_phase_distance(pair.minus, gaussian()) <= 2 * gamma


# ---------------------------------------------------------------------------
# tilt and rotation
# ---------------------------------------------------------------------------


def test_tilt_zero_is_identity():
    pair = make_hpm(0.5)
    grid = TFGrid(-3, 3, -3, 3, 41, 41)
    tp, tm = tilt_magnitude(pair, 0.0, grid)
    X, W = grid.mesh()
    assert np.array_equal(tp.values, pair_magnitude(pair, +1, X, W))
    assert np.array_equal(tm.values, pair_magnitude(pair, -1, X, W))


def test_tilt_breaks_bump_symmetry():
    # |G h_pm| has equal bumps at x = -+3; multiplying by e^{pi tau x} with
    # tau > 0 shrinks the left one (the spec example names the right bump,
    # but e^{pi tau x} grows with x; see the decisions ledger)
    a, tau = 1 / 6, 0.1
    pair = make_hpm(a)
    grid = TFGrid(-4, 4, -4, 4, 161, 161)
    tp, _ = tilt_magnitude(pair, tau, grid)
    half = grid.nx // 2
    left_peak = tp.values[:half, :].max()
    right_peak = tp.values[half:, :].max()
    assert right_peak > left_peak * 1.5
    # untilted bumps are equal to rounding
    base = pair_magnitude(pair, +1, *grid.mesh())
    assert abs(base[:half, :].max() - base[half:, :].max()) <= 1e-9 * base.max()


def test_tilt_preserves_lattice_agreement():
    a, tau = 1 / 6, 0.1
    pair = make_hpm(a)
    ks = np.arange(-6, 7)
    xs = np.linspace(-4, 4, 161)
    X, W = np.meshgrid(xs, a * ks, indexing="ij")
    mp = pair_magnitude(pair, +1, X, W) * np.exp(np.pi * tau * X)
    mm = pair_magnitude(pair, -1, X, W) * np.exp(np.pi * tau * X)
    rel = np.abs(mp - mm) / np.maximum(np.maximum(mp, mm), 1e-300)
    assert rel.max() <= 1e-9


def test_tilt_stays_finite_on_wide_grids():
    # the Gaussian envelope decays faster than the tilt grows, so even an
    # aggressive tilt on a wide grid must stay finite
    pair = make_hpm(0.5)
    grid = TFGrid(-2000, 2000, -1, 1, 101, 3)
    tp, tm = tilt_magnitude(pair, 5.0, grid)
    assert np.all(np.isfinite(tp.values))
    assert np.all(np.isfinite(tm.values))
    with pytest.raises(ValueError):
        tilt_magnitude(pair, -0.1, grid)


def test_rotation_identity_and_root_rotation():
    pair = make_fpm(0.5, 0.1)
    unrotated = dataclasses.replace(pair, theta=0.0)
    mp = pair_magnitude(unrotated, +1, 0.7, -0.3)
    mm = pair_magnitude(unrotated, -1, 0.7, -0.3)
    assert mp == pytest.approx(pair_magnitude(pair, +1, 0.7, -0.3), rel=1e-14)
    assert mm == pytest.approx(pair_magnitude(pair, -1, 0.7, -0.3), rel=1e-14)
    theta = np.pi / 4
    base = root_set_fpm(0.5, 0.1, +1, -2, 2)
    rot = root_set_fpm(0.5, 0.1, +1, -2, 2, theta=theta)
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s], [s, c]])
    assert np.max(np.abs(rot - base @ R.T)) <= 1e-12


def test_rotated_lattice_agreement():
    theta = np.pi / 4
    pair = make_fpm(0.5, 0.1, theta=theta)
    lat = Lattice("horizontal_lines", 0.5, theta=theta, line_sample_count=101,
                  line_extent=4.0)
    rep = verify_pair(pair, lat, tol=1e-9, noneq_floor=1e-6)
    assert rep.passed and rep.max_rel_dev <= 1e-9


# ---------------------------------------------------------------------------
# verify_pair behavior
# ---------------------------------------------------------------------------


def test_verify_showcase_pair_passes():
    pair = make_fpm(0.5, math.exp(-5 * math.pi))
    rep = verify_pair(pair, Lattice("horizontal_lines", 0.5), tol=1e-9,
                      noneq_floor=1e-9)
    assert rep.passed
    assert rep.max_rel_dev <= 1e-10


def test_verify_off_lattice_disagrees():
    a, gamma = 0.5, 0.1
    pair = make_fpm(a, gamma)
    lat = Lattice("horizontal_lines", a, offset=a / 2, line_extent=4.0)
    rep = verify_pair(pair, lat)
    # on the half-offset lines the magnitudes genuinely differ; lower-bound
    # the deviation by the closed forms near the + branch
    x_probe = 1.0
    vp = fpm_magnitude_closed(a, gamma, +1, x_probe, a / 2)
    vm = fpm_magnitude_closed(a, gamma, -1, x_probe, a / 2)
    floor = abs(vp - vm) / max(vp, vm)
    assert floor > 1e-3
    assert rep.max_rel_dev >= floor - 1e-12
    assert not rep.passed


def test_verify_rejects_mismatched_lattice():
    pair = make_gpm(0.5, 0.2)
    with pytest.raises(LatticeMismatchError):
        verify_pair(pair, Lattice("horizontal_lines", 0.5))
    with pytest.raises(LatticeMismatchError):
        verify_pair(make_fpm(0.5, 0.1), Lattice("vertical_lines", 0.5))
    with pytest.raises(LatticeMismatchError):
        verify_pair(make_fpm(0.5, 0.1), Lattice("horizontal_lines", 0.25))


def test_verify_rectangular_lattice():
    pair = make_fpm(0.5, 0.1)
    # k_max bounds both index ranges, and offset shifts both axes off the
    # agreement lines: (k_max, offset, rows, passed)
    for k_max, offset, rows, passed in [(None, 0.0, 13, True), (2, 0.0, 5, True),
                                        (None, 0.25, 11, False)]:
        lattice = Lattice("rectangular", 0.5, line_extent=3.0, offset=offset,
                          k_max=k_max)
        rep = verify_pair(pair, lattice)
        assert rep.passed == passed
        assert rep.n_lines == rows and rep.n_samples == rows**2
        assert passed or rep.max_rel_dev > 0.1


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice("diagonal", 0.5)
    with pytest.raises(ValueError):
        Lattice("horizontal_lines", -0.5)
    with pytest.raises(ValueError):
        Lattice("horizontal_lines", 0.5, line_sample_count=2)


def test_sweep_all_kinds():
    # reduced sweep here; the full 3x3 grid runs in the acceptance suite
    for a in (0.5, 1.0):
        lat_kw = dict(line_sample_count=201, line_extent=max(4.0, 2 / a + 2))
        rep = verify_pair(make_hpm(a), Lattice("horizontal_lines", a, **lat_kw),
                          tol=1e-9, noneq_floor=1e-6)
        assert rep.passed
        for gamma in (1e-3, 1.0):
            rep = verify_pair(make_fpm(a, gamma),
                              Lattice("horizontal_lines", a, **lat_kw),
                              tol=1e-9, noneq_floor=1e-6)
            assert rep.passed
            rep = verify_pair(make_gpm(a, gamma),
                              Lattice("vertical_lines", a, **lat_kw),
                              tol=1e-9, noneq_floor=1e-6)
            assert rep.passed


# the smallest a whose hpm coefficient e^{pi/(4a^2)} make_hpm accepts, and
# the log of the smallest normal double
HPM_A_MIN = math.sqrt(math.pi / (4.0 * 0.99 * math.log(sys.float_info.max)))
LOG_TINY = math.log(sys.float_info.min)


def test_make_hpm_refuses_a_below_its_overflow_guard():
    make_hpm(HPM_A_MIN)
    with pytest.raises(ValueError, match="overflows"):
        make_hpm(HPM_A_MIN * (1.0 - 1e-9))


# the documented range: hpm from its overflow guard up, fpm and gpm from
# a = 0.05, gamma down to 1e-200.  Besides the central lines, each pair is
# sampled on the lines through the band where an atom's e^{-pi r^2/2} is
# subnormal, which hpm's large coefficient scales back to normal values
@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.tuples(st.just("hpm"), st.floats(HPM_A_MIN, 1.0)),
              st.tuples(st.sampled_from(["fpm", "gpm"]), st.floats(0.05, 1.0))),
    st.floats(-200.0, 0.0).map(lambda e: 10.0**e),
    st.floats(0.0, math.pi, exclude_max=True),
)
def test_verify_pair_passes_on_random_pairs_and_rotations(kind_a, gamma, theta):
    kind, a = kind_a
    pair = {"hpm": lambda: make_hpm(a, theta),
            "fpm": lambda: make_fpm(a, gamma, theta),
            "gpm": lambda: make_gpm(a, gamma, theta)}[kind]()
    # the atoms nearest the origin sit at distance 1/(2a) (hpm) or 0
    shift = 1.0 / (2.0 * a) if kind == "hpm" else 0.0
    band = math.sqrt(max(-2.0 * LOG_TINY / math.pi - shift * shift, 0.0))
    for offset in (0.0, a * round(band / a)):
        lattice = Lattice(AGREEMENT[kind], a, theta, line_sample_count=401,
                          offset=offset, k_max=12)
        rep = verify_pair(pair, lattice, tol=1e-9, noneq_floor=0.0)
        assert rep.max_rel_dev <= 1e-9
        assert math.isfinite(rep.d_X2) and rep.d_X2 > 0.0
        assert rep.passed
