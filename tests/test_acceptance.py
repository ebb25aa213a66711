"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines alongside timings.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from gaborlab.cheeger import (
    cheeger_upper_bound,
    dumbbell_weight,
    vertical_cut_family,
)
from gaborlab.cheeger import _vertical_side_masses
from gaborlab.cli import main
from gaborlab.counterexamples import (
    Lattice,
    fpm_magnitude_closed,
    gamma_threshold,
    make_fpm,
    make_gpm,
    make_hpm,
    root_set_fpm,
    verify_pair,
)
from gaborlab.gabor import (
    bargmann_eval,
    gabor_eval,
    gabor_magnitude_field,
    gabor_quadrature_oracle,
)
from gaborlab.grid import TFGrid, disk_mask
from gaborlab.signals import GaussianSum, gaussian
from gaborlab.spectral import (
    assemble_operators,
    build_weighted_domain,
    cr_gradient_check,
    poincare_estimate,
    refinement_check,
    solve_spectrum,
    variation_bound_check,
    weighted_domain_from_values,
)

TWO_PI = 2.0 * math.pi


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def gaussian_disk_domain(n, R, floor_rel=1e-30):
    grid = TFGrid(-R, R, -R, R, n, n)
    mag = gabor_magnitude_field(gaussian(), grid)
    return build_weighted_domain(mag, 2.0, disk_mask(grid, R), floor_rel)


def fpm_disk_domain(a, gamma, R, n, floor_rel):
    grid = TFGrid(-R, R, -R, R, n, n)
    mag = gabor_magnitude_field(make_fpm(a, gamma).plus, grid)
    return build_weighted_domain(mag, 2.0, disk_mask(grid, R), floor_rel)


def test_criterion_01_closed_form_fidelity():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        f = GaussianSum(
            (
                rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2),
                rng.uniform(-3, 3),
                rng.uniform(-3, 3),
            )
            for _ in range(rng.integers(1, 6))
        )
        for _ in range(20):
            x, w = rng.uniform(-4, 4, 2)
            closed = gabor_eval(f, x, w)
            quad = gabor_quadrature_oracle(f, x, w)
            worst = max(worst, abs(closed - quad) / max(1.0, abs(closed)))
    elapsed = time.monotonic() - start
    report(1, worst <= 1e-8 and elapsed <= 60.0,
           f"max rel err {worst:.2e} over 100 sums x 20 points in {elapsed:.1f}s")


def test_criterion_02_lattice_agreement_sweep():
    start = time.monotonic()
    worst_dev, worst_d = 0.0, math.inf
    n_checks = 0
    for a in (1 / 6, 0.5, 1.0):
        configs = [("hpm", None)]
        configs += [("fpm", g) for g in (1e-3, 0.1, 1.0)]
        configs += [("gpm", g) for g in (1e-3, 0.1, 1.0)]
        for kind, gamma in configs:
            if kind == "hpm":
                pair = make_hpm(a)
                lat_kind = "horizontal_lines"
            elif kind == "fpm":
                pair = make_fpm(a, gamma)
                lat_kind = "horizontal_lines"
            else:
                pair = make_gpm(a, gamma)
                lat_kind = "vertical_lines"
            lat = Lattice(lat_kind, a, line_sample_count=401, k_max=12)
            assert lat.n_lines >= 25
            rep = verify_pair(pair, lat, tol=1e-9, noneq_floor=1e-6)
            assert rep.passed, (kind, a, gamma, rep.max_rel_dev, rep.d_X2)
            worst_dev = max(worst_dev, rep.max_rel_dev)
            worst_d = min(worst_d, rep.d_X2)
            n_checks += 1
    elapsed = time.monotonic() - start
    report(2, worst_dev <= 1e-9 and worst_d > 1e-6 and elapsed <= 120.0,
           f"{n_checks} configs: max rel dev {worst_dev:.2e}, "
           f"min d_X2 {worst_d:.2e}, {elapsed:.1f}s")


def test_criterion_03_roots_and_thresholds():
    a, gamma = 0.5, math.exp(-5 * math.pi)
    rp = root_set_fpm(a, gamma, +1, -3, 3)
    rm = root_set_fpm(a, gamma, -1, -3, 3)
    ok = bool(
        np.allclose(rp[:, 0], 3.5, atol=1e-12)
        and np.allclose(rm[:, 0], 3.5, atol=1e-12)
        and np.allclose(np.diff(rp[:, 1]), 1.0, atol=1e-12)
        and {round(float(np.min(np.abs(b[:, 1]))), 9) for b in (rp, rm)} == {0.25}
    )
    worst_root_mag = max(
        float(fpm_magnitude_closed(a, gamma, sgn, x, w))
        for sgn, pts in ((+1, rp), (-1, rm))
        for x, w in pts
    )
    ok = ok and worst_root_mag <= 1e-13
    ok = ok and gamma_threshold(0.5, 3.0, 1.0) == math.exp(-4 * math.pi)
    g_safe = 0.99 * gamma_threshold(0.5, 3.0, 1.0)
    xs = np.linspace(-3 + 1e-9, 3 - 1e-9, 401)
    ws = np.linspace(-15.0, 15.0, 401)
    X, W = np.meshgrid(xs, ws, indexing="ij")
    strip_min = float(fpm_magnitude_closed(0.5, g_safe, +1, X, W).min())
    ok = ok and strip_min > 0.0
    report(3, ok,
           f"x=3.5, offsets +-0.25, spacing 1.0; root magnitude {worst_root_mag:.1e}; "
           f"gamma_0 exact; strip min {strip_min:.1e} > 0")


def test_criterion_04_gaussian_spectral_oracle():
    errors = {}
    for n, tol in ((121, 0.05), (241, 0.03)):
        dec = solve_spectrum(gaussian_disk_domain(n, 4.0), 2)
        lam_err = abs(dec.eigenvalues[1] - TWO_PI) / TWO_PI
        poin_err = abs(poincare_estimate(dec) - 1 / math.sqrt(TWO_PI)) * math.sqrt(TWO_PI)
        errors[n] = (lam_err, tol)
        assert lam_err <= tol, (n, lam_err)
        assert poin_err <= tol, (n, poin_err)
    plateau = []
    for R in (4.0, 5.0):
        n = int(round(2 * R / 0.1)) + 1
        plateau.append(poincare_estimate(gaussian_disk_domain(n, R, 1e-45)))
    drift = abs(plateau[1] - plateau[0]) / plateau[0]
    report(4, drift <= 0.05,
           f"lambda_1 errors {errors[121][0]:.2%} @121^2, {errors[241][0]:.2%} @241^2; "
           f"R-plateau drift {drift:.2%}")


def test_criterion_05_variation_lemma():
    start = time.monotonic()
    n = 101
    dom = gaussian_disk_domain(n, 3.0, floor_rel=1e-14)
    scaled = weighted_domain_from_values(dom.grid, 3.0 * dom.weight, dom.mask,
                                         floor_rel=1e-14)
    rep_scale = variation_bound_check(dom, scaled)
    ok = abs(rep_scale.ratio - 1.0) <= 1e-8

    a, R, delta = 0.5, 3.0, 0.5
    gamma = 0.9 * gamma_threshold(a, R, delta)
    dom_f = fpm_disk_domain(a, gamma, R, n, floor_rel=1e-14)
    rep_f = variation_bound_check(dom, dom_f)
    envelope = 2.0 * math.sqrt(rep_f.ratio_max / rep_f.ratio_min)
    ok = ok and (1 / 3 <= rep_f.ratio <= 3.0) and rep_f.ratio <= envelope
    ok = ok and rep_f.paper_ok and rep_f.spectral_ok
    elapsed = time.monotonic() - start
    report(5, ok and elapsed <= 300.0,
           f"w'=3w ratio {rep_scale.ratio:.10f}; counterexample ratio "
           f"{rep_f.ratio:.4f} in [1/3, 3] and under envelope {envelope:.2f}; "
           f"{elapsed:.1f}s at 101^2")


def _refinement_battery(dom, rng):
    dec = solve_spectrum(dom, 4)
    worst = 0.0
    for _ in range(50):
        h = rng.standard_normal(dom.n_nodes)
        for k in (1, 2, 3):
            rep = refinement_check(dec, h, k)
            worst = min(worst, rep.slack / max(rep.lhs, 1e-300))
    # equality cases
    rep_u1 = refinement_check(dec, dec.eigenvectors[:, 1], 2)
    assert rep_u1.lhs == pytest.approx(1.0, rel=1e-8)
    assert rep_u1.mid_term == pytest.approx(rep_u1.lhs, rel=1e-8)
    assert abs(rep_u1.mean_term) <= 1e-12
    rep_u0 = refinement_check(dec, dec.eigenvectors[:, 0], 1)
    assert rep_u0.lhs == pytest.approx(rep_u0.mean_term, rel=1e-10)
    return worst


def test_criterion_06_refinement_proposition():
    rng = np.random.default_rng(106)
    grid = TFGrid(-2.6, 2.6, -1.0, 1.0, 59, 41)  # 2419 nodes: shift-invert Lanczos
    worst_dumbbell = _refinement_battery(dumbbell_weight(3.0, 0.05, 0.35, grid), rng)
    dom_f = fpm_disk_domain(0.5, 1.0, 4.0, 55, floor_rel=1e-14)
    worst_fpm = _refinement_battery(dom_f, rng)

    # full-basis Parseval on a <= 900-node domain
    small = TFGrid(-2.0, 2.0, -1.0, 1.0, 29, 31)  # 899 nodes
    X, W = small.mesh()
    dom_small = weighted_domain_from_values(small, np.exp(-(X**2 + W**2)))
    dec = solve_spectrum(dom_small, dom_small.n_nodes - 1)
    _, m = assemble_operators(dom_small)
    parseval_err = 0.0
    for _ in range(5):
        h = rng.standard_normal(dom_small.n_nodes)
        coeffs = dec.eigenvectors.T @ (m * h)
        lhs = float(h @ (m * h))
        parseval_err = max(parseval_err, abs(np.sum(coeffs**2) - lhs) / lhs)
    ok = (worst_dumbbell >= -1e-9 and worst_fpm >= -1e-9
          and parseval_err <= 1e-6)
    report(6, ok,
           f"min relative slack {min(worst_dumbbell, worst_fpm):.2e} "
           f"(dumbbell and counterexample domains); Parseval err {parseval_err:.2e}")


def test_criterion_07_instability_narrative():
    grid = TFGrid(-2.6, 2.6, -1.0, 1.0, 105, 41)
    lams = {}
    for b in (0.5, 0.1, 0.05):
        lams[b] = solve_spectrum(dumbbell_weight(3.0, b, 0.35, grid), 2).eigenvalues
    ok = lams[0.05][1] < lams[0.1][1] < lams[0.5][1]
    ratio_gap = lams[0.05][2] / lams[0.05][1]
    ok = ok and ratio_gap >= 10.0

    dom = dumbbell_weight(3.0, 0.05, 0.35, grid)
    dec = solve_spectrum(dom, 2)
    u1 = dec.eigenvectors[:, 1]
    X, W = grid.mesh()
    xs, ws = X[dom.mask], W[dom.mask]
    masses = dom.masses()
    sign_fracs = []
    for cx in (-1.5, 1.5):
        bump = (xs - cx) ** 2 + ws**2 <= 0.7**2
        frac = masses[bump][u1[bump] > 0].sum() / masses[bump].sum()
        sign_fracs.append(frac)
    ok = ok and {round(min(sign_fracs)), round(max(sign_fracs))} == {0, 1}
    ok = ok and min(max(f, 1 - f) for f in sign_fracs) >= 0.95

    # counterexample weight: gamma = 1 degrades the constant by > 10x over
    # the window baseline; gamma = gamma_0 restores it to within 2x
    a, R, n = 1 / 3, 4.5, 121
    c_phi = poincare_estimate(gaussian_disk_domain(n, R))
    c_deg = poincare_estimate(fpm_disk_domain(a, 1.0, R, n, 1e-14))
    g0 = gamma_threshold(a, R, 1.0)
    c_res = poincare_estimate(fpm_disk_domain(a, g0, R, n, 1e-30))
    ok = ok and c_deg > 10.0 * c_phi
    ok = ok and c_res <= 2.0 * c_phi and c_res >= 0.5 * c_phi
    report(7, ok,
           f"lambda_1 decreasing over bridges, lambda_2/lambda_1 = {ratio_gap:.0f}; "
           f"u_1 sign separation {min(max(f, 1-f) for f in sign_fracs):.3f}; "
           f"degraded/base = {c_deg / c_phi:.1f}x, restored/base = {c_res / c_phi:.3f}x")


def test_criterion_08_cheeger_chain():
    a, R, n = 1 / 3, 4.5, 101
    g0 = gamma_threshold(a, R, 1.0)
    cuts = vertical_cut_family(-3.5, 4.2, 101)
    poincs, inv_hs = [], []
    for gamma in (1.0, 0.1, g0):
        dom = fpm_disk_domain(a, gamma, R, n,
                              1e-14 if gamma > 1e-6 else 1e-30)
        dec = solve_spectrum(dom, 2)
        rep = cheeger_upper_bound(dom, cuts, decomposition=dec)
        poincs.append(poincare_estimate(dec))
        inv_hs.append(rep.inverse_h)
    rho = spearmanr(poincs, inv_hs).statistic
    ok = rho == 1.0

    grid = TFGrid(-3, 3, -1.5, 1.5, 241, 121)
    dom = dumbbell_weight(3.0, 0.1, 0.35, grid)
    lo, hi = _vertical_side_masses(dom, 0.0)
    halving = abs(lo / (lo + hi) - 0.5)
    ok = ok and halving <= 1e-10
    report(8, ok,
           f"Spearman(poincare, 1/h) = {rho:.1f} over gamma sweep; "
           f"midpoint halving error {halving:.1e}")


def test_criterion_09_cauchy_riemann_check():
    rng = np.random.default_rng(109)
    f = make_fpm(1.0, 0.5).plus
    pts = []
    while len(pts) < 20:
        x, w = rng.uniform(-2, 2, 2)
        if x * x + w * w <= 4.0 and abs(bargmann_eval(f, complex(x, w))) > 0.1:
            pts.append((x, w))
    rep = cr_gradient_check(f, pts, step=1e-4)
    err_coarse = cr_gradient_check(f, pts, step=2e-4).rel_errors
    ratios = err_coarse / np.maximum(rep.rel_errors, 1e-300)
    order_ok = 2.5 <= float(np.median(ratios)) <= 6.0
    report(9, rep.max_rel_error <= 1e-5 and order_ok,
           f"max rel err {rep.max_rel_error:.2e} at 20 points; halving the "
           f"step scales the error by {float(np.median(ratios)):.2f}")


def test_criterion_10_figure_determinism(tmp_path):
    identical = True
    for preset in ("figure1a", "figure1b", "figure2"):
        d1, d2 = tmp_path / f"{preset}-1", tmp_path / f"{preset}-2"
        assert main([preset, "--out-dir", str(d1)]) == 0
        assert main([preset, "--out-dir", str(d2)]) == 0
        for f1 in sorted(d1.iterdir()):
            if f1.suffix == ".json":
                continue  # the report embeds a timestamp by design
            identical &= f1.read_bytes() == (d2 / f1.name).read_bytes()
    report(10, identical, "figure1a/figure1b/figure2 CSV+PGM byte-identical")
