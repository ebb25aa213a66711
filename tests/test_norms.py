import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaborlab.gabor import gabor_field, gabor_magnitude_field
from gaborlab.grid import ComplexField, MagnitudeField, TFGrid, disk_mask
from gaborlab import norms
from gaborlab.norms import (
    _aligned_phase_min,
    global_phase_distance,
    lp_field_norm,
    measurement_norm_D,
    stability_probe,
)
from gaborlab.counterexamples import gamma_threshold, make_fpm, make_gpm, make_hpm
from gaborlab.signals import GaussianSum, gaussian, signal_norm


def test_ball_complement_mass():
    # int_{r>R} e^{-pi r^2} dA = e^{-pi R^2}
    grid = TFGrid(-5, 5, -5, 5, 401, 401)
    mag = gabor_magnitude_field(gaussian(), grid)
    R = 1.0
    outside = ~disk_mask(grid, R)
    val = lp_field_norm(mag, 2.0, mask=outside)
    assert val == pytest.approx(math.sqrt(math.exp(-math.pi * R * R)), rel=0.02)


def test_zero_field_norm_and_validation():
    grid = TFGrid(-1, 1, -1, 1, 8, 8)
    zero = MagnitudeField(grid, np.zeros(grid.shape))
    assert lp_field_norm(zero, 1.5) == 0.0
    with pytest.raises(ValueError):
        lp_field_norm(zero, 0.5)
    other = MagnitudeField(TFGrid(-1, 1, -1, 1, 9, 9), np.zeros((9, 9)))
    with pytest.raises(ValueError):
        lp_field_norm(zero, 2.0, weight=other)


def test_full_plane_l2_norm_is_signal_norm():
    grid = TFGrid(-6, 6, -6, 6, 481, 481)
    mag = gabor_magnitude_field(gaussian(), grid)
    assert lp_field_norm(mag, 2.0) == pytest.approx(1.0, abs=1e-3)
    # a nontrivial sum for the expanding-grid consistency
    f = GaussianSum([(1.0, 0.0, 0.0), (0.5j, 1.0, -0.5)])
    magf = gabor_magnitude_field(f, grid)
    assert lp_field_norm(magf, 2.0) == pytest.approx(signal_norm(f), abs=1e-3)


def test_global_phase_distance_trivial_and_phase():
    grid = TFGrid(-4, 4, -4, 4, 81, 81)
    f = gaussian()
    alpha, dist = global_phase_distance(f, f, grid, 2.0)
    assert dist == 0.0 and abs(alpha) <= 1e-12
    g = gaussian(coeff=np.exp(1j * np.pi / 3))
    alpha, dist = global_phase_distance(f, g, grid, 2.0)
    assert dist <= 1e-10
    assert alpha == pytest.approx(np.pi / 3, abs=1e-8)


def test_global_phase_invariance():
    grid = TFGrid(-4, 4, -4, 4, 81, 81)
    f = GaussianSum([(1.0, 0.0, 0.0), (0.4j, 1.0, 0.3)])
    for beta in np.linspace(0.0, 2 * np.pi, 7):
        g = f * np.exp(1j * beta)
        _, dist = global_phase_distance(f, g, grid, 2.0)
        assert dist <= 1e-10


def test_fpm_distance_closed_form_and_alpha_sweep():
    a, gamma = 1.0, 0.5
    pair = make_fpm(a, gamma)
    grid = TFGrid(-4, 5, -4, 5, 161, 161)
    _, dist = global_phase_distance(pair.plus, pair.minus, grid, 2.0)
    s = math.exp(-math.pi / (2 * a * a))
    expect = math.sqrt(2 * (1 + gamma**2) - 2 * abs(1 - gamma**2 + 2j * gamma * s))
    assert dist == pytest.approx(expect, rel=1e-12)
    # brute-force alpha sweep on the sampled fields as an independent check
    Fp = gabor_field(pair.plus, grid)
    Fm = gabor_field(pair.minus, grid)
    sweep = min(
        math.sqrt(float(np.sum(np.abs(Fp.values - np.exp(-1j * al) * Fm.values) ** 2))
                  * grid.cell_area)
        for al in np.linspace(0, 2 * np.pi, 3001)
    )
    assert dist == pytest.approx(sweep, abs=2e-3)


def test_global_phase_distance_general_p_agrees_with_sweep():
    pair = make_fpm(1.0, 0.5)
    grid = TFGrid(-3, 4, -3, 4, 71, 71)
    p = 1.5
    _, dist = global_phase_distance(pair.plus, pair.minus, grid, p)
    Fp = gabor_field(pair.plus, grid)
    Fm = gabor_field(pair.minus, grid)
    sweep = min(
        (float(np.sum(np.abs(Fp.values - np.exp(-1j * al) * Fm.values) ** p))
         * grid.cell_area) ** (1 / p)
        for al in np.linspace(0, 2 * np.pi, 2001)
    )
    # the alignment refines its phase to 1e-10, far finer than the sweep
    # grid, so the found minimum may undercut the sweep but only slightly
    assert dist <= sweep + 1e-9
    assert dist == pytest.approx(sweep, abs=1e-5)


def circular_gap(x, y):
    return abs((x - y + math.pi) % (2 * math.pi) - math.pi)


def dense_scan_min(a, b, p, area, n=2001):
    return min(float(np.sum(np.abs(a - np.exp(-1j * al) * b) ** p)) * area
               for al in np.linspace(0, 2 * np.pi, n))


@settings(max_examples=60, deadline=None)
@given(
    arrays(np.complex128, st.integers(1, 40),
           elements=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3)),
    st.floats(0.0, 2 * math.pi, exclude_max=True),
    st.floats(1.0, 2.0),
    st.floats(1e-3, 1.0),
)
def test_alignment_recovers_a_global_phase(a, beta, p, area):
    alpha, val = _aligned_phase_min(a, np.exp(1j * beta) * a, p, area)
    assert 0.0 <= alpha < 2 * math.pi
    assert circular_gap(alpha, beta) <= 1e-8
    assert val <= 1e-8 * float(np.sum(np.abs(a) ** p)) * area


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.floats(1.0, 2.0))
def test_alignment_undercuts_a_dense_scan_on_random_pairs(seed, n, p):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    _, val = _aligned_phase_min(a, b, p, 0.1)
    assert val <= (1 + 1e-12) * dense_scan_min(a, b, p, 0.1)


def test_alignment_finds_a_minimum_hidden_between_samples():
    # the deeper minimum, at alpha = 4.47, lies between the samples at 4.19
    # and 4.71; only the shallower one, at 5.23, has a sample lower than both
    # its neighbours next to it
    rng = np.random.default_rng(724359)
    a, b = rng.standard_normal((2, 21)) + 1j * rng.standard_normal((2, 21))
    alpha, val = _aligned_phase_min(a, b, 1.125, 0.1)
    assert abs(alpha - 4.4705) <= 1e-3
    assert val <= (1 + 1e-12) * dense_scan_min(a, b, 1.125, 0.1)


def test_alignment_undercuts_a_dense_scan_on_two_minima():
    # the two-bump pair's objective has two local minima in alpha, neither
    # of them on one of the 12 scan phases
    grid = TFGrid(-3, 3, -3, 3, 41, 41)
    pair = make_hpm(0.75)
    a = gabor_field(pair.plus, grid).values
    b = gabor_field(pair.minus, grid).values
    p, area = 1.5, grid.cell_area
    scan = np.array([float(np.sum(np.abs(a - np.exp(-1j * al) * b) ** p))
                     for al in np.linspace(0, 2 * np.pi, 2000, endpoint=False)])
    assert np.sum((scan <= np.roll(scan, 1)) & (scan <= np.roll(scan, -1))) == 2
    _, val = _aligned_phase_min(a, b, p, area)
    assert val <= (1 + 1e-12) * dense_scan_min(a, b, p, area)


@pytest.mark.parametrize("make", [lambda: make_fpm(0.5, 0.1), lambda: make_hpm(0.75)])
def test_probe_and_distance_do_not_depend_on_a_warm_memo(make):
    grid = TFGrid(-3, 3, -3, 3, 41, 41)
    mask = disk_mask(grid, 3.0)
    analyses = (
        lambda pair: stability_probe(pair.plus, pair.minus, mask, grid, 1.5, 4.0),
        lambda pair: global_phase_distance(pair.plus, pair.minus, grid, 1.5),
        lambda pair: global_phase_distance(pair.plus, pair.minus, grid, 2.0),
    )
    for analysis in analyses:
        cold = analysis(make())
        # warm on the same grid, and on another grid whose field must be replaced
        for warm_grid in (grid, TFGrid(-3, 3, -3, 3, 31, 31)):
            pair = make()
            for sig in (pair.plus, pair.minus):
                gabor_field(sig, warm_grid)
            assert analysis(pair) == cold


def allocating_aligned_phase_min(a, b, p, area, tol=1e-10):
    """The alignment as it was before its objective reused work arrays: a
    fresh complex and a fresh real temporary per evaluation.  The search is
    the library's own, so only the objective differs."""
    step = 2.0 * math.pi / norms._SCAN

    def objective(alpha):
        diff = np.abs(a - np.exp(-1j * alpha) * b)
        return float(np.sum(diff**p)) * area

    vals = [objective(k * step) for k in range(norms._SCAN)]
    k_best = min(range(norms._SCAN), key=vals.__getitem__)
    best = (k_best * step, vals[k_best])
    low = [vals[k] <= vals[k - 1] and vals[k] <= vals[(k + 1) % norms._SCAN]
           for k in range(norms._SCAN)]
    brackets = [(k - 1, k + 1, k) for k in range(norms._SCAN) if low[k]]
    for k in filter(low.__getitem__, range(norms._SCAN)):
        for side in (-1, 1):
            j, far = (k + side) % norms._SCAN, (k + 2 * side) % norms._SCAN
            if (not low[far] and vals[far] > vals[j]
                    and side * (objective(j * step + 1e-6) - vals[j]) < 0):
                brackets.append((min(j, j + side), max(j, j + side), j))
    for lo, hi, k in brackets:
        x, v = norms._brent_min(objective, lo * step, hi * step, k * step, vals[k],
                                vals[lo % norms._SCAN], vals[hi % norms._SCAN], tol)
        if v < best[1]:
            best = (x % (2.0 * math.pi), v)
    return best


@settings(max_examples=80, deadline=None)
@given(
    arrays(np.complex128, st.shared(st.integers(1, 60), key="n"),
           elements=st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                       allow_infinity=False)),
    arrays(np.complex128, st.shared(st.integers(1, 60), key="n"),
           elements=st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                       allow_infinity=False)),
    st.sampled_from([1.0, 2.0]) | st.floats(1.0, 2.0),
    st.floats(1e-3, 1.0),
)
def test_buffered_alignment_keeps_every_bit(a, b, p, area):
    assert _aligned_phase_min(a, b, p, area) == allocating_aligned_phase_min(a, b, p, area)


def test_buffered_alignment_keeps_every_bit_on_a_probe_case():
    grid = TFGrid(-3, 3, -3, 3, 61, 61)
    mask = disk_mask(grid, 3.0)
    pair = make_hpm(0.4)
    a = gabor_field(pair.plus, grid).values[mask]
    b = gabor_field(pair.minus, grid).values[mask]
    for p in (1.0, 1.37, 2.0):
        assert (_aligned_phase_min(a, b, p, grid.cell_area)
                == allocating_aligned_phase_min(a, b, p, grid.cell_area))


def test_probe_alignment_evaluation_budget(monkeypatch):
    # the default probe case; each objective evaluation takes one scalar
    # np.exp, while the field evaluations take array ones
    pair = make_fpm(0.5, math.exp(-5 * math.pi))
    grid = TFGrid(-3, 3, -3, 3, 121, 121)
    mask = disk_mask(grid, 3.0)
    calls = []
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        if np.ndim(x) == 0:
            calls.append(x)
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(norms.np, "exp", counting_exp)
    stability_probe(pair.plus, pair.minus, mask, grid, 1.0, 4.0)
    assert 0 < len(calls) <= 60


def test_sweep_alignments_stop_at_the_rounding_floor(monkeypatch):
    # cases drawn like the benchmark's pair analyses: a stability probe and
    # a phase distance at p on the 121^2 probe grid per case; each objective
    # evaluation takes one scalar np.exp
    rng = np.random.default_rng(0)
    grid = TFGrid(-3, 3, -3, 3, 121, 121)
    mask = disk_mask(grid, 3.0)
    evaluations, alignments = [], []
    exp, align = np.exp, norms._aligned_phase_min

    def counting_exp(x, *args, **kwargs):
        if np.ndim(x) == 0:
            evaluations.append(x)
        return exp(x, *args, **kwargs)

    def counting_align(*args, **kwargs):
        alignments.append(args[2])
        return align(*args, **kwargs)

    monkeypatch.setattr(norms.np, "exp", counting_exp)
    monkeypatch.setattr(norms, "_aligned_phase_min", counting_align)
    for make in (make_hpm, make_fpm, make_gpm):
        for _ in range(8):
            a, gamma, p = rng.uniform(1 / 6, 1), 10 ** rng.uniform(-3, 0), rng.uniform(1, 2)
            pair = make(a) if make is make_hpm else make(a, gamma)
            stability_probe(pair.plus, pair.minus, mask, grid, p, 4.0)
            global_phase_distance(pair.plus, pair.minus, grid, p)
    assert len(alignments) == 48
    assert len(evaluations) / len(alignments) <= 26


def test_measurement_norm_zero_field():
    grid = TFGrid(-1, 1, -1, 1, 11, 11)
    zero = ComplexField(grid, np.zeros(grid.shape, dtype=complex))
    w = MagnitudeField(grid, np.ones(grid.shape))
    assert measurement_norm_D(zero, 1.0, 4.0, 1, w) == 0.0


def test_measurement_norm_constant_field_bookkeeping():
    # F = 1 on [0,1]^2 with p=1, k=0, s=0, w=1: every term equals the raw
    # cell quadrature of 1, so the norm is exactly 3 of them
    grid = TFGrid(0, 1, 0, 1, 21, 21)
    ones = ComplexField(grid, np.ones(grid.shape, dtype=complex))
    w = np.ones(grid.shape)
    cell_sum = grid.nx * grid.nw * grid.cell_area
    val = measurement_norm_D(ones, 1.0, 0.0, 0, w)
    assert val == pytest.approx(3.0 * cell_sum, rel=1e-12)


def test_measurement_norm_linear_moment_is_exact():
    # midpoint quadrature integrates the linear moment (|x|+|w|) exactly on
    # a cell-centered grid: int_{[0,1]^2} (x+w) = 1, so the norm is 1+1+1
    grid = TFGrid.cell_centered(0.0, 1.0, 0.0, 1.0, 16, 16)
    ones = ComplexField(grid, np.ones(grid.shape, dtype=complex))
    val = measurement_norm_D(ones, 1.0, 1.0, 0, np.ones(grid.shape))
    assert val == pytest.approx(3.0, rel=1e-13)


def test_measurement_norm_grid_refinement_consistency():
    vals = []
    for n in (161, 321):
        grid = TFGrid(-4, 4, -4, 4, n, n)
        mag = gabor_magnitude_field(gaussian(), grid)
        F = ComplexField(grid, mag.values.astype(complex))
        vals.append(measurement_norm_D(F, 1.0, 4.0, 1, mag.values))
    assert vals[0] > 0
    assert abs(vals[1] - vals[0]) / vals[0] <= 0.01


def test_measurement_norm_consistent_powers_switch():
    grid = TFGrid(-3, 3, -3, 3, 61, 61)
    mag = gabor_magnitude_field(gaussian(), grid)
    F = ComplexField(grid, mag.values.astype(complex))
    raw = measurement_norm_D(F, 2.0, 1.0, 0, mag.values, consistent_powers=False)
    fixed = measurement_norm_D(F, 2.0, 1.0, 0, mag.values, consistent_powers=True)
    assert raw != fixed
    # they differ exactly by replacing the third term t with t^{1/p}
    lp = lp_field_norm(mag, 2.0)
    third_raw = raw - 2 * lp
    third_fixed = fixed - 2 * lp
    assert third_fixed == pytest.approx(third_raw ** (1 / 2.0), rel=1e-9)


def complex_dnorm(field, p, s, k, weight, consistent_powers=False):
    """measurement_norm_D as it was in complex arithmetic, the oracle for the
    real-valued version: every term of a complex-typed field."""
    grid, vals = field.grid, field.values.astype(complex)

    def cell_lp(arr, w=None):
        integrand = np.abs(arr) ** p if w is None else np.abs(arr) ** p * w
        return float(np.sum(integrand)) * grid.cell_area

    lp_pow = cell_lp(vals)
    if k == 0:
        sobolev = lp_pow ** (1.0 / p)
    else:
        fx, fw = np.gradient(vals, grid.dx, grid.dw, edge_order=2)
        sobolev = (lp_pow + cell_lp(fx) + cell_lp(fw)) ** (1.0 / p)
    X, W = grid.mesh()
    moment_pow = cell_lp((np.abs(X) + np.abs(W)) ** s * vals, weight)
    moment = moment_pow ** (1.0 / p) if consistent_powers else moment_pow
    return sobolev + lp_pow ** (1.0 / p) + moment


def magnitude_difference(kind, n):
    grid = TFGrid(-3, 3, -3, 3, n, n)
    pair = make_hpm(0.5) if kind == "hpm" else make_fpm(0.5, 0.1)
    fp, fm = gabor_field(pair.plus, grid), gabor_field(pair.minus, grid)
    diff = np.abs(fp.values) - np.abs(fm.values)
    return grid, diff, np.abs(fp.values)


@pytest.mark.parametrize("kind", ["hpm", "fpm"])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_real_measurement_norm_matches_the_complex_formula(kind, p):
    grid, diff, mag = magnitude_difference(kind, 61)
    field = ComplexField(grid, diff.astype(complex))
    for consistent in (False, True):
        # k = 0 has no difference quotient: |x + 0i| = |x| keeps every bit
        assert (measurement_norm_D(field, p, 4.0, 0, mag**p, consistent_powers=consistent)
                == complex_dnorm(field, p, 4.0, 0, mag**p, consistent))
        # k = 1 divides by the spacing in real instead of complex arithmetic
        expect = complex_dnorm(field, p, 4.0, 1, mag**p, consistent)
        got = measurement_norm_D(field, p, 4.0, 1, mag**p, consistent_powers=consistent)
        assert abs(got - expect) <= 1e-14 * expect


def test_measurement_norm_real_field_equals_its_complex_copy():
    grid, diff, mag = magnitude_difference("fpm", 41)
    real = MagnitudeField(grid, mag)
    copy = ComplexField(grid, mag.astype(complex))
    for k in (0, 1):
        assert (measurement_norm_D(real, 1.5, 4.0, k, mag)
                == measurement_norm_D(copy, 1.5, 4.0, k, mag))


def test_measurement_norm_rejects_a_nonzero_imaginary_part():
    grid, diff, mag = magnitude_difference("fpm", 21)
    values = diff.astype(complex)
    values[3, 4] += 1e-300j
    with pytest.raises(ValueError, match="imaginary"):
        measurement_norm_D(ComplexField(grid, values), 1.0, 4.0, 1, mag)


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_probe_denominator_is_the_public_norm_of_the_complex_copy(p):
    # the probe hands its real magnitude difference to the norm's real core;
    # the value is the public norm of that difference as a complex field
    pair = make_fpm(0.5, 0.1)
    grid = TFGrid(-3, 3, -3, 3, 61, 61)
    mask = disk_mask(grid, 2.5)
    rep = stability_probe(pair.plus, pair.minus, mask, grid, p, 4.0)
    mag = np.abs(gabor_field(pair.plus, grid).values)
    diff = mag - np.abs(gabor_field(pair.minus, grid).values)
    assert rep.denominator == measurement_norm_D(
        ComplexField(grid, diff.astype(complex)), p, 4.0, 1, mag**p, mask=mask)


def test_probe_trivial_and_validation():
    grid = TFGrid(-3, 3, -3, 3, 61, 61)
    mask = disk_mask(grid, 3.0)
    rep = stability_probe(gaussian(), gaussian(), mask, grid, 1.0, 4.0)
    assert rep.numerator == 0.0 and rep.ratio == 0.0 and not rep.infinite_ratio
    with pytest.raises(ValueError):
        stability_probe(gaussian(), gaussian(), mask, grid, 2.0, 4.0)
    with pytest.raises(ValueError):
        stability_probe(gaussian(), gaussian(), np.zeros(grid.shape, bool), grid, 1.0, 4.0)


def test_probe_triangle_inequality_bound():
    a, gamma = 0.5, math.exp(-5 * math.pi)
    pair = make_fpm(a, gamma)
    grid = TFGrid(-3, 3, -3, 3, 121, 121)
    mask = disk_mask(grid, 3.0)
    rep = stability_probe(pair.plus, pair.minus, mask, grid, 1.0, 4.0)
    shifted = gabor_magnitude_field(gaussian(shift=1 / a), grid)
    bound = 2 * gamma * lp_field_norm(shifted, 1.0, mask=mask)
    assert rep.numerator <= bound * (1 + 1e-9)


def test_probe_hpm_less_stable_than_fpm():
    # the two-bump pair is the unstable one: its probe ratio must exceed the
    # near-Gaussian pair's on the same domain
    a, R = 1 / 6, 4.0
    grid = TFGrid(-R, R, -R, R, 81, 81)
    mask = disk_mask(grid, R)
    hp = make_hpm(a)
    rep_h = stability_probe(hp.plus, hp.minus, mask, grid, 1.0, 4.0)
    fp = make_fpm(a, gamma_threshold(a, R, 0.5))
    rep_f = stability_probe(fp.plus, fp.minus, mask, grid, 1.0, 4.0)
    assert rep_h.ratio > rep_f.ratio


def test_probe_ratio_monotone_under_denominator_shrink():
    pair = make_fpm(0.5, math.exp(-5 * math.pi))
    grid = TFGrid(-3, 3, -3, 3, 121, 121)
    mask = disk_mask(grid, 3.0)
    ratios = [
        stability_probe(pair.plus, pair.minus, mask, grid, 1.0, 4.0,
                        denominator_mask=disk_mask(grid, r)).ratio
        for r in (3.0, 2.0, 1.0)
    ]
    assert ratios[0] <= ratios[1] <= ratios[2]
