import math

import numpy as np
import pytest
from scipy.linalg import eigh

from gaborlab.counterexamples import gamma_threshold, make_fpm, root_set_fpm
from gaborlab.gabor import gabor_magnitude_field
from gaborlab.grid import TFGrid, disk_mask
from gaborlab.signals import gaussian
from gaborlab.spectral import (
    assemble_operators,
    build_weighted_domain,
    cr_gradient_check,
    poincare_estimate,
    rayleigh,
    refinement_check,
    solve_spectrum,
    variation_bound_check,
    weighted_domain_from_values,
)

TWO_PI = 2.0 * math.pi


def gaussian_disk_domain(n, R, floor_rel=1e-30):
    grid = TFGrid(-R, R, -R, R, n, n)
    mag = gabor_magnitude_field(gaussian(), grid)
    return build_weighted_domain(mag, 2.0, disk_mask(grid, R), floor_rel)


def floored_fpm_disk_domain():
    # a = 0.5, gamma = 1 puts roots inside the disk, so the 1e-14 floor
    # engages and the node masses span ~14 decades
    grid = TFGrid(-4.0, 4.0, -4.0, 4.0, 55, 55)
    mag = gabor_magnitude_field(make_fpm(0.5, 1.0).plus, grid)
    return build_weighted_domain(mag, 2.0, disk_mask(grid, 4.0), 1e-14)


SOLVER_DOMAINS = {
    "gaussian61": lambda: gaussian_disk_domain(61, 3.0),
    "fpm55_floored": floored_fpm_disk_domain,
}


def uniform_square_domain(n, side=1.0):
    # nodes at cell midpoints so the quadrature cells tile the square exactly
    grid = TFGrid.cell_centered(0.0, side, 0.0, side, n, n)
    return weighted_domain_from_values(grid, np.ones(grid.shape))


# ---------------------------------------------------------------------------
# domain construction
# ---------------------------------------------------------------------------


def test_build_weighted_domain_weights_and_floor():
    grid = TFGrid(-3, 3, -3, 3, 61, 61)
    mag = gabor_magnitude_field(gaussian(), grid)
    dom = build_weighted_domain(mag, 2.0, disk_mask(grid, 3.0), 1e-14)
    X, W = grid.mesh()
    expect = np.maximum(np.exp(-np.pi * (X**2 + W**2)), 1e-14)
    sel = dom.mask
    assert np.max(np.abs(dom.weight[sel] - expect[sel])) <= 1e-12
    assert dom.floor_applied == pytest.approx(1e-14, rel=1e-10)


def test_constant_magnitude_gives_uniform_weight():
    grid = TFGrid(0, 1, 0, 1, 11, 11)
    from gaborlab.grid import MagnitudeField

    dom = build_weighted_domain(MagnitudeField(grid, np.ones(grid.shape)), 2.0,
                                np.ones(grid.shape, bool))
    assert np.all(dom.weight == 1.0)


def test_floor_engages_exactly_at_root_nodes():
    # gamma past threshold puts roots inside the domain; align the grid so
    # the roots are nodes, then the floored nodes are exactly those
    a, gamma = 0.5, 1.0
    grid = TFGrid(-1, 3, -2, 2, 81, 81)  # nodes at (1, +-0.25): dx = dw = 0.05
    mask = disk_mask(grid, 2.0, center=(1.0, 0.0))
    mag = gabor_magnitude_field(make_fpm(a, gamma).plus, grid)
    dom = build_weighted_domain(mag, 2.0, mask, 1e-14)
    floored = dom.mask & (dom.weight <= dom.floor_applied)
    assert floored.sum() > 0
    roots = root_set_fpm(a, gamma, +1, -8, 8)
    X, W = grid.mesh()
    for i, j in zip(*np.nonzero(floored)):
        d = np.min(np.hypot(roots[:, 0] - X[i, j], roots[:, 1] - W[i, j]))
        assert d <= math.hypot(grid.dx, grid.dw)


def test_domain_validation():
    grid = TFGrid(0, 1, 0, 1, 8, 8)
    far_apart = np.zeros(grid.shape, bool)
    far_apart[0, 0] = far_apart[7, 7] = True
    # cells touching only at a corner are not 4-connected
    diagonal = np.zeros(grid.shape, bool)
    diagonal[3, 3] = diagonal[4, 4] = True
    for disconnected in (far_apart, diagonal):
        with pytest.raises(ValueError):
            weighted_domain_from_values(grid, np.ones(grid.shape), disconnected)
    with pytest.raises(ValueError):
        weighted_domain_from_values(grid, np.ones(grid.shape),
                                    np.zeros(grid.shape, bool))
    with pytest.raises(ValueError):
        weighted_domain_from_values(grid, np.ones(grid.shape), floor_rel=1e-3)


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------


def test_constant_vector_in_null_space():
    # null space holds up to one rounding ulp per row (float addition is
    # not associative, so literal zeros only occur for 2-entry rows)
    dom = gaussian_disk_domain(41, 3.0)
    S, _ = assemble_operators(dom)
    ones = np.ones(dom.n_nodes)
    assert np.max(np.abs(S @ ones)) <= 1e-14 * S.diagonal().max()


def test_two_node_pencil_eigenvalue():
    grid = TFGrid(0.0, 0.3, 0.0, 1.0, 2, 2)  # spacing d = 0.3 along x
    mask = np.zeros(grid.shape, bool)
    mask[0, 0] = mask[1, 0] = True
    dom = weighted_domain_from_values(grid, np.ones(grid.shape), mask)
    S, m = assemble_operators(dom)
    A = (S.toarray() / np.sqrt(m)).T / np.sqrt(m)
    lam = np.linalg.eigvalsh(A)
    assert lam[0] == pytest.approx(0.0, abs=1e-14)
    assert lam[1] == pytest.approx(2.0 / grid.dx**2, rel=1e-12)


def test_uniform_square_first_eigenvalue():
    dom = uniform_square_domain(101)
    dec = solve_spectrum(dom, 2)
    assert dec.eigenvalues[1] == pytest.approx(math.pi**2, rel=0.01)
    assert poincare_estimate(dec) == pytest.approx(1.0 / math.pi, rel=0.02)


def test_stiffness_symmetric_positive():
    rng = np.random.default_rng(31)
    dom = gaussian_disk_domain(31, 2.5)
    S, m = assemble_operators(dom)
    assert (S != S.T).nnz == 0
    assert np.all(m > 0)
    for _ in range(100):
        h = rng.standard_normal(dom.n_nodes)
        assert h @ (S @ h) >= -1e-12


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("domain", SOLVER_DOMAINS)
def test_neumann_kernel_and_orthonormality(domain):
    dom = SOLVER_DOMAINS[domain]()
    dec = solve_spectrum(dom, 4)
    lam, U = dec.eigenvalues, dec.eigenvectors
    assert abs(lam[0]) <= 1e-10 * lam[1]
    u0 = U[:, 0]
    assert np.ptp(u0) <= 1e-8 * abs(u0.mean())
    _, m = assemble_operators(dom)
    G = (U.T * m) @ U
    assert np.max(np.abs(G - np.eye(G.shape[0]))) <= 1e-8


def test_gaussian_disk_eigenvalue_oracle():
    dec = solve_spectrum(gaussian_disk_domain(121, 4.0), 3)
    assert dec.eigenvalues[1] == pytest.approx(TWO_PI, rel=0.05)
    assert poincare_estimate(dec) == pytest.approx(1 / math.sqrt(TWO_PI), rel=0.05)


@pytest.mark.parametrize("domain", SOLVER_DOMAINS)
def test_eigenpair_residuals(domain):
    dom = SOLVER_DOMAINS[domain]()
    dec = solve_spectrum(dom, 4)
    S, m = assemble_operators(dom)
    for k in range(len(dec.eigenvalues)):
        u = dec.eigenvectors[:, k]
        r = S @ u - dec.eigenvalues[k] * (m * u)
        assert np.linalg.norm(r) / np.linalg.norm(m * u) <= 1e-8


def test_dense_and_iterative_paths_agree():
    dom = gaussian_disk_domain(51, 3.0)  # 2009 nodes: shift-invert Lanczos
    iterative = solve_spectrum(dom, 3).eigenvalues
    S, m = assemble_operators(dom)
    dense = eigh(S.toarray(), np.diag(m), eigvals_only=True, subset_by_index=(0, 3))
    assert np.max(np.abs(dense - iterative)) <= 1e-8 * max(dense.max(), 1.0)


def test_shift_invert_solve_is_reproducible():
    dom = gaussian_disk_domain(51, 3.0)  # shift-invert Lanczos path
    first, second = solve_spectrum(dom, 3), solve_spectrum(dom, 3)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def test_solver_argument_validation():
    dom = gaussian_disk_domain(21, 2.0)
    with pytest.raises(ValueError):
        solve_spectrum(dom, 1)
    with pytest.raises(ValueError):
        solve_spectrum(dom, dom.n_nodes)


# ---------------------------------------------------------------------------
# poincare / rayleigh
# ---------------------------------------------------------------------------


def test_poincare_accepts_domain_or_decomposition():
    dom = gaussian_disk_domain(61, 3.0)
    a = poincare_estimate(dom)
    b = poincare_estimate(solve_spectrum(dom, 2))
    assert a == pytest.approx(b, rel=1e-9)


def test_poincare_gap_between_counterexample_and_window():
    # the gamma = 1 pair weight is dumbbell-like; its constant must exceed
    # the window's by a wide margin (the spec example's仕 a=1/2 claim of 10x
    # does not hold numerically; the gap is ~4.7x there and >10x at a=1/3)
    R, n = 4.0, 81
    grid = TFGrid(-R, R, -R, R, n, n)
    mask = disk_mask(grid, R)
    mag_f = gabor_magnitude_field(make_fpm(0.5, 1.0).plus, grid)
    dom_f = build_weighted_domain(mag_f, 2.0, mask, 1e-14)
    c_f = poincare_estimate(dom_f)
    c_phi = poincare_estimate(gaussian_disk_domain(n, R))
    assert c_f > 3.0 * c_phi


def test_rayleigh_attains_eigenvalues():
    dom = gaussian_disk_domain(61, 3.0)
    dec = solve_spectrum(dom, 3)
    assert rayleigh(dom, dec.eigenvectors[:, 1]) == pytest.approx(
        dec.eigenvalues[1], rel=1e-8)
    assert rayleigh(dom, dec.eigenvectors[:, 2]) == pytest.approx(
        dec.eigenvalues[2], rel=1e-8)
    with pytest.raises(ValueError):
        rayleigh(dom, np.ones(dom.n_nodes))


def test_rayleigh_dumbbell_indicator_profile():
    # +-1 on the bumps with a linear ramp across the bridge: the classical
    # test function whose quotient tracks lambda_1 on a thin-bridge dumbbell
    dom = small_dumbbell_domain()
    dec = solve_spectrum(dom, 2)
    X, _ = dom.grid.mesh()
    xs = X[dom.mask]
    ramp_half = 0.5
    h = np.clip(xs / ramp_half, -1.0, 1.0)
    quotient = rayleigh(dom, h)
    lam1 = dec.eigenvalues[1]
    assert lam1 <= quotient <= 3.0 * lam1


def test_rayleigh_lower_bound_and_mean_bound():
    rng = np.random.default_rng(32)
    dom = gaussian_disk_domain(41, 3.0)
    dec = solve_spectrum(dom, 2)
    S, m = assemble_operators(dom)
    lam1 = dec.eigenvalues[1]
    for _ in range(20):
        h = rng.standard_normal(dom.n_nodes)
        assert rayleigh(dom, h) >= lam1 * (1 - 1e-10)
        # two-sided mean bound: the mu-mean is the L2 minimizer, and the
        # mean-free norm is within a factor 2 of the inf over constants
        mean = float((m * h).sum() / m.sum())
        mean_free = math.sqrt(float((h - mean) @ (m * (h - mean))))
        best = min(
            math.sqrt(float((h - c) @ (m * (h - c))))
            for c in np.linspace(mean - 1.0, mean + 1.0, 41)
        )
        assert best <= mean_free * (1 + 1e-12)
        assert mean_free <= 2.0 * best
        # Poincare usage: min_c ||h-c||^2 <= (1/lam1) h^T S h
        assert mean_free**2 <= (1 / lam1) * float(h @ (S @ h)) * (1 + 1e-9)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def small_dumbbell_domain():
    from gaborlab.cheeger import dumbbell_weight

    grid = TFGrid(-2.6, 2.6, -1.0, 1.0, 53, 21)
    return dumbbell_weight(3.0, 0.05, 0.35, grid)


def test_refinement_eigenfunction_equalities():
    dom = small_dumbbell_domain()
    dec = solve_spectrum(dom, 4)
    rep = refinement_check(dec, dec.eigenvectors[:, 1], 2)
    assert rep.lhs == pytest.approx(1.0, rel=1e-8)
    assert abs(rep.mean_term) <= 1e-12
    assert rep.mid_term == pytest.approx(rep.lhs, rel=1e-8)
    assert rep.slack >= -1e-9 * rep.lhs
    rep0 = refinement_check(dec, dec.eigenvectors[:, 0], 1)
    assert rep0.lhs == pytest.approx(rep0.mean_term, rel=1e-10)


def test_refinement_random_fields_nonnegative_slack():
    rng = np.random.default_rng(33)
    dom = small_dumbbell_domain()
    dec = solve_spectrum(dom, 4)
    tighter = 0
    for _ in range(50):
        h = rng.standard_normal(dom.n_nodes)
        for k in (1, 2, 3):
            rep = refinement_check(dec, h, k)
            assert rep.slack >= -1e-9 * rep.lhs
        # compare k=1 refinement with the plain Poincare bound
        S, m = assemble_operators(dom)
        rep1 = refinement_check(dec, h, 1)
        plain = rep1.mean_term + float(h @ (S @ h)) / dec.eigenvalues[1]
        if rep1.mean_term + rep1.mid_term + rep1.tail_term < plain:
            tighter += 1
    assert tighter > 40  # refinement is strictly tighter almost always


def test_refinement_k_range_validated():
    dom = small_dumbbell_domain()
    dec = solve_spectrum(dom, 3)
    h = np.ones(dom.n_nodes)
    with pytest.raises(ValueError):
        refinement_check(dec, h, 0)
    with pytest.raises(ValueError):
        refinement_check(dec, h, 3)


def test_full_basis_parseval():
    grid = TFGrid(-2.0, 2.0, -1.0, 1.0, 29, 15)  # 435 nodes
    X, W = grid.mesh()
    vals = np.exp(-(X**2 + W**2))
    dom = weighted_domain_from_values(grid, vals)
    n = dom.n_nodes
    dec = solve_spectrum(dom, n - 1)
    _, m = assemble_operators(dom)
    rng = np.random.default_rng(34)
    for _ in range(5):
        h = rng.standard_normal(n)
        coeffs = dec.eigenvectors.T @ (m * h)
        assert np.sum(coeffs**2) == pytest.approx(float(h @ (m * h)), rel=1e-6)


# ---------------------------------------------------------------------------
# variation of the weight
# ---------------------------------------------------------------------------


def test_variation_scaling_invariance():
    dom = gaussian_disk_domain(61, 3.0, floor_rel=1e-14)
    scaled = weighted_domain_from_values(dom.grid, 3.0 * dom.weight, dom.mask,
                                         floor_rel=1e-14, p_exponent=2.0)
    rep = variation_bound_check(dom, scaled, 2.0)
    assert rep.ratio == pytest.approx(1.0, abs=1e-8)
    assert rep.paper_ok and rep.spectral_ok
    assert rep.ratio_min == pytest.approx(3.0, rel=1e-12)


def test_variation_counterexample_weight_in_envelope():
    a, R, delta = 0.5, 3.0, 0.5
    gamma = 0.9 * gamma_threshold(a, R, delta)
    n = 101
    grid = TFGrid(-R, R, -R, R, n, n)
    mask = disk_mask(grid, R)
    dom_phi = build_weighted_domain(gabor_magnitude_field(gaussian(), grid),
                                    2.0, mask, 1e-14)
    dom_f = build_weighted_domain(
        gabor_magnitude_field(make_fpm(a, gamma).plus, grid), 2.0, mask, 1e-14)
    rep = variation_bound_check(dom_phi, dom_f, 2.0)
    assert rep.paper_ok and rep.spectral_ok
    assert 1 / 3 <= rep.ratio <= 3.0
    assert rep.ratio <= 2.0 * math.sqrt(rep.ratio_max / rep.ratio_min)


def test_variation_sinusoidal_weight():
    dom = gaussian_disk_domain(61, 3.0, floor_rel=1e-14)
    X, _ = dom.grid.mesh()
    varied = weighted_domain_from_values(dom.grid,
                                         dom.weight * (1 + 0.1 * np.sin(X)),
                                         dom.mask, floor_rel=1e-14)
    rep = variation_bound_check(dom, varied, 2.0)
    assert math.sqrt(0.9 / 1.1) - 1e-9 <= rep.ratio <= math.sqrt(1.1 / 0.9) + 1e-9
    with pytest.raises(ValueError):
        variation_bound_check(dom, varied, 1.5)


# ---------------------------------------------------------------------------
# plateau and mesh convergence
# ---------------------------------------------------------------------------


def test_gaussian_poincare_plateau_in_radius():
    values = []
    for R in (2.0, 3.0, 4.0, 5.0):
        n = int(round(2 * R / 0.1)) + 1
        values.append(poincare_estimate(gaussian_disk_domain(n, R, 1e-45)))
    for a, b in zip(values, values[1:]):
        assert b <= a * 1.05
    assert abs(values[3] - values[2]) / values[2] <= 0.05


def test_mesh_convergence_of_lambda1():
    lam = [solve_spectrum(gaussian_disk_domain(n, 4.0), 2).eigenvalues[1]
           for n in (61, 121)]
    assert abs(lam[1] - lam[0]) / lam[1] <= 0.03
    from gaborlab.cheeger import dumbbell_weight

    lam_d = []
    for nx, nw in ((53, 21), (105, 41)):
        grid = TFGrid(-2.6, 2.6, -1.0, 1.0, nx, nw)
        lam_d.append(solve_spectrum(dumbbell_weight(3.0, 0.1, 0.35, grid),
                                    2).eigenvalues[1])
    assert abs(lam_d[1] - lam_d[0]) / lam_d[1] <= 0.03


# ---------------------------------------------------------------------------
# Cauchy-Riemann gradient check
# ---------------------------------------------------------------------------


def test_cr_check_window_is_flat():
    rep = cr_gradient_check(gaussian(), [(0.0, 0.0), (0.5, -0.3), (1.0, 1.0)])
    assert rep.max_abs_error <= 1e-8
    assert np.all(rep.derivative_modulus <= 1e-12)


def test_cr_check_counterexample_points():
    rng = np.random.default_rng(35)
    from gaborlab.gabor import bargmann_eval

    f = make_fpm(1.0, 0.5).plus
    pts = []
    while len(pts) < 20:
        x, w = rng.uniform(-2, 2, 2)
        if x * x + w * w <= 4.0 and abs(bargmann_eval(f, complex(x, w))) > 0.1:
            pts.append((x, w))
    rep = cr_gradient_check(f, pts, step=1e-4)
    assert rep.max_rel_error <= 1e-5


def test_cr_check_second_order_convergence():
    rng = np.random.default_rng(36)
    from gaborlab.gabor import bargmann_eval

    f = make_fpm(1.0, 0.5).plus
    pts = []
    while len(pts) < 10:
        x, w = rng.uniform(-1.5, 1.5, 2)
        if abs(bargmann_eval(f, complex(x, w))) > 0.2:
            pts.append((x, w))
    err_h = cr_gradient_check(f, pts, step=2e-4).rel_errors
    err_h2 = cr_gradient_check(f, pts, step=1e-4).rel_errors
    ratios = err_h / np.maximum(err_h2, 1e-300)
    assert 2.5 <= np.median(ratios) <= 6.0


def test_cr_check_rejects_near_zero_points():
    # spectrogram roots sit at (x, w); the entire transform vanishes at the
    # conjugate point (x, -w)
    f = make_fpm(0.5, math.exp(-5 * math.pi)).plus
    root = root_set_fpm(0.5, math.exp(-5 * math.pi), +1, 0, 0)[0]
    with pytest.raises(ValueError):
        cr_gradient_check(f, [(root[0], -root[1])])
