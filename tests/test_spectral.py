import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from gaborlab.cli import main
from gaborlab.counterexamples import gamma_threshold, make_fpm, root_set_fpm
from gaborlab.gabor import gabor_magnitude_field
from gaborlab.grid import TFGrid, disk_mask
from gaborlab.signals import gaussian
from gaborlab.spectral import (
    RESIDUAL_CONTRACT,
    SolverConvergenceError,
    _residual_norms,
    assemble_operators,
    build_weighted_domain,
    poincare_estimate,
    refinement_check,
    solve_spectrum,
    variation_bound_check,
    weighted_domain_from_values,
)

from oracles import (
    bargmann_eval,
    cell_centered,
    cr_gradient_check,
    node_masses,
    rayleigh,
)

TWO_PI = 2.0 * math.pi


def gaussian_disk_domain(n, R, floor_rel=1e-30):
    grid = TFGrid(-R, R, -R, R, n, n)
    mag = gabor_magnitude_field(gaussian(), grid)
    return build_weighted_domain(mag, 2.0, disk_mask(grid, R), floor_rel)


def floored_fpm_disk_domain():
    # a = 0.5, gamma = 1 puts roots inside the disk: the 1e-14 level trims
    # the nodes next to them, and the kept node masses still span ~14 decades
    grid = TFGrid(-4.0, 4.0, -4.0, 4.0, 55, 55)
    mag = gabor_magnitude_field(make_fpm(0.5, 1.0).plus, grid)
    return build_weighted_domain(mag, 2.0, disk_mask(grid, 4.0), 1e-14)


SOLVER_DOMAINS = {
    "gaussian61": lambda: gaussian_disk_domain(61, 3.0),
    "fpm55_floored": floored_fpm_disk_domain,
}


def full_basis_domain():
    grid = TFGrid(-2.0, 2.0, -1.0, 1.0, 29, 15)  # 435 nodes
    X, W = grid.mesh()
    return weighted_domain_from_values(grid, np.exp(-(X**2 + W**2)))


def uniform_square_domain(n, side=1.0):
    # nodes at cell midpoints so the quadrature cells tile the square exactly
    grid = cell_centered(0.0, side, 0.0, side, n, n)
    return weighted_domain_from_values(grid, np.ones(grid.shape))


# ---------------------------------------------------------------------------
# domain construction
# ---------------------------------------------------------------------------


def test_build_weighted_domain_weights_and_trim():
    grid = TFGrid(-4, 4, -4, 4, 81, 81)
    disk = disk_mask(grid, 4.0)
    mag = gabor_magnitude_field(gaussian(), grid)
    dom = build_weighted_domain(mag, 2.0, disk, 1e-14)
    X, W = grid.mesh()
    w = np.exp(-np.pi * (X**2 + W**2))
    assert np.max(np.abs(dom.weight[dom.mask] - w[dom.mask])) <= 1e-12
    # the weight is |G f|^2 as given; only the mask shrinks, to the rim's
    # super-level set
    np.testing.assert_array_equal(dom.weight, mag.values ** 2)
    np.testing.assert_array_equal(dom.mask, disk & (w >= 1e-14))
    np.testing.assert_array_equal(dom.trimmed, disk & ~dom.mask)
    assert 0 < dom.trimmed.sum() < dom.n_nodes


def test_constant_magnitude_gives_uniform_weight():
    grid = TFGrid(0, 1, 0, 1, 11, 11)
    from gaborlab.grid import MagnitudeField

    dom = build_weighted_domain(MagnitudeField(grid, np.ones(grid.shape)), 2.0,
                                np.ones(grid.shape, bool))
    assert np.all(dom.weight == 1.0)
    assert dom.mask.all() and not dom.trimmed.any()


def test_trim_removes_the_root_nodes():
    # gamma past threshold puts roots inside the domain; align the grid so
    # the roots are nodes: the level trims each of them and nothing farther
    # than a grid diagonal from one
    a, gamma = 0.5, 1.0
    grid = TFGrid(-1, 3, -2, 2, 81, 81)  # nodes at (1, +-0.25): dx = dw = 0.05
    X, W = grid.mesh()
    mask = (X - 1.0) ** 2 + W**2 <= 2.0**2  # the disk of radius 2 about (1, 0)
    mag = gabor_magnitude_field(make_fpm(a, gamma).plus, grid)
    dom = build_weighted_domain(mag, 2.0, mask, 1e-14)
    np.testing.assert_array_equal(dom.trimmed, mask & ~dom.mask)
    roots = root_set_fpm(a, gamma, +1, -8, 8)
    diagonal = math.hypot(grid.dx, grid.dw)
    for i, j in zip(*np.nonzero(dom.trimmed)):
        d = np.min(np.hypot(roots[:, 0] - X[i, j], roots[:, 1] - W[i, j]))
        assert d <= diagonal
    inside = roots[np.hypot(roots[:, 0] - 1.0, roots[:, 1]) <= 2.0]
    assert len(inside) > 0
    for x, w in inside:
        i = int(round((x - grid.x_min) / grid.dx))
        j = int(round((w - grid.w_min) / grid.dw))
        assert math.hypot(X[i, j] - x, W[i, j] - w) <= 1e-9
        assert dom.trimmed[i, j] and not dom.mask[i, j]


def test_domain_validation():
    grid = TFGrid(0, 1, 0, 1, 8, 8)
    far_apart = np.zeros(grid.shape, bool)
    far_apart[0, 0] = far_apart[7, 7] = True
    # cells touching only at a corner are not 4-connected
    diagonal = np.zeros(grid.shape, bool)
    diagonal[3, 3] = diagonal[4, 4] = True
    for disconnected in (far_apart, diagonal):
        with pytest.raises(ValueError, match="^mask must be a single 4-connected component$"):
            weighted_domain_from_values(grid, np.ones(grid.shape), disconnected)
    with pytest.raises(ValueError):
        weighted_domain_from_values(grid, np.ones(grid.shape),
                                    np.zeros(grid.shape, bool))
    with pytest.raises(ValueError):
        weighted_domain_from_values(grid, np.ones(grid.shape), floor_rel=1e-3)
    # a zero weight keeps every node at its zero level, and zero weights are
    # rejected
    with pytest.raises(ValueError, match="strictly positive"):
        weighted_domain_from_values(grid, np.zeros(grid.shape))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 9), st.integers(2, 9), st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.0), st.floats(-14.0, -6.0))
def test_domain_is_the_mask_trimmed_to_the_super_level_set(nx, nw, seed, density,
                                                           log_rel):
    from scipy.ndimage import label

    grid = TFGrid(0.0, 1.0, 0.0, 1.0, nx, nw)
    rng = np.random.default_rng(seed)
    # weights over 16 decades around the level, one node other than the
    # maximum exactly at it
    values = 10.0 ** rng.uniform(-16.0, 0.0, grid.shape)
    floor_rel = 10.0 ** log_rel
    level = floor_rel * values.max()
    tie = rng.integers(values.size - 1)
    values.flat[tie + (tie >= values.argmax())] = level
    mask = rng.random(grid.shape) < density
    expected = mask & (values >= level)
    # label's default structure in 2D is the 4-neighbour cross
    if label(expected)[1] != 1:
        with pytest.raises(ValueError):
            weighted_domain_from_values(grid, values.copy(), mask, floor_rel)
        return
    dom = weighted_domain_from_values(grid, values.copy(), mask, floor_rel)
    np.testing.assert_array_equal(dom.mask, expected)
    np.testing.assert_array_equal(dom.trimmed, mask & ~expected)
    np.testing.assert_array_equal(dom.weight, values)


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


def reference_refinement(dec, h, k):
    # the refinement formula with every coefficient (h, u_j)_mu formed
    S, mass = assemble_operators(dec.domain)
    lhs = float(h @ (mass * h))
    coeffs = dec.eigenvectors.T @ (mass * h)
    mean_term = float(coeffs[0] ** 2)
    proj = dec.eigenvectors[:, 1 : k + 1] @ coeffs[1 : k + 1]
    mid_term = float(proj @ (S @ proj)) / dec.eigenvalues[1]
    tail_term = float(h @ (S @ h)) / dec.eigenvalues[k + 1]
    return lhs, mean_term, mid_term, tail_term, mean_term + mid_term + tail_term - lhs


def test_dense_branch_matches_shift_invert_and_meets_contract():
    dom = full_basis_domain()
    n = dom.n_nodes
    dense, iterative = solve_spectrum(dom, n - 1), solve_spectrum(dom, 5)
    assert (dense.path, iterative.path) == ("dense", "shift-invert")
    lam, U = dense.eigenvalues, dense.eigenvectors
    assert np.all(np.abs(lam[:6] - iterative.eigenvalues)
                  <= 1e-8 * np.maximum(lam[:6], 1.0))
    S, m = assemble_operators(dom)
    per_pair = np.array([
        np.linalg.norm(S @ U[:, j] - lam[j] * (m * U[:, j])) / np.linalg.norm(m * U[:, j])
        for j in range(n)
    ])
    assert per_pair.max() <= RESIDUAL_CONTRACT
    # 435 columns cross six 64-column block edges
    blocked = _residual_norms(S, m, lam, U)
    np.testing.assert_allclose(blocked, per_pair, rtol=1e-12)
    np.testing.assert_array_equal(dense.residuals, blocked)
    assert np.max(np.abs((U.T * m) @ U - np.eye(n))) <= 1e-8
    rng = np.random.default_rng(37)
    for k in (1, 2, 3, n - 2):
        h = rng.standard_normal(n)
        rep = refinement_check(dense, h, k)
        ref = reference_refinement(dense, h, k)
        got = (rep.lhs, rep.mean_term, rep.mid_term, rep.tail_term, rep.slack)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12 * ref[0])


@pytest.mark.parametrize("n, floor_rel", [(7, 1e-9), (5, 1e-13)])
def test_dense_branch_solves_graded_coarse_disks(n, floor_rel):
    # coarse disks of R = 4 whose weights, raised to floor_rel of their
    # maximum, span 1e9 and 1e13, inside the range of the CLI's default
    # 1e-14 level: syevr meets the contract on both (max residual 6e-10 and
    # 1.1e-9), while divide-and-conquer syevd on the same D S D misses it
    # (1.8e-7 and 3.5e-8).  The level below the raised weights trims nothing.
    grid = TFGrid(-4.0, 4.0, -4.0, 4.0, n, n)
    w = gabor_magnitude_field(gaussian(), grid).values ** 2
    dom = weighted_domain_from_values(grid, np.maximum(w, floor_rel * w.max()),
                                      disk_mask(grid, 4.0), floor_rel=1e-30)
    assert not dom.trimmed.any()
    w = dom.node_weights()
    assert w.max() / w.min() == pytest.approx(1.0 / floor_rel)
    dec = solve_spectrum(dom, 4)
    assert dec.path == "dense"
    assert dec.residuals.max() <= RESIDUAL_CONTRACT
    U, m = dec.eigenvectors, dom.operators()[1]
    assert np.max(np.abs((U.T * m) @ U - np.eye(5))) <= 1e-8


@pytest.mark.parametrize("m", range(2, 9))
def test_arpack_is_asked_for_the_wanted_pairs_only(monkeypatch, m):
    asked, columns = [], []
    eigsh, splu = spla.eigsh, spla.splu

    def recording_eigsh(A, *args, **kwargs):
        asked.append((kwargs["k"], kwargs["ncv"]))
        return eigsh(A, *args, **kwargs)

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            columns.append(1 if b.ndim == 1 else b.shape[1])
            return self.lu.solve(b)

    monkeypatch.setattr(spla, "eigsh", recording_eigsh)
    monkeypatch.setattr(spla, "splu",
                        lambda *args, **kwargs: CountingLU(splu(*args, **kwargs)))
    dec = solve_spectrum(gaussian_disk_domain(21, 2.0), m)
    assert dec.path == "shift-invert"
    assert asked == [(m + 1, max(20, 4 * (m + 1)))]
    # every ARPACK solve and every inverse-iteration column is counted
    assert dec.lu_solves == sum(columns) > 2 * (m + 1)


def strip_domain(n_nodes):
    # the first n_nodes of an 8 x 8 grid in row order: 4-connected
    grid = TFGrid(-1.0, 1.0, -1.0, 1.0, 8, 8)
    mask = np.zeros(grid.shape, bool)
    mask.ravel()[:n_nodes] = True
    X, W = grid.mesh()
    return weighted_domain_from_values(grid, np.exp(-(X**2 + W**2)), mask)


@pytest.mark.parametrize("m", range(2, 9))
def test_dense_branch_ends_at_the_buffered_krylov_size(m):
    # up to max(20, 4 (m + 4)) nodes go dense, one node more goes to ARPACK
    edge = max(20, 4 * (m + 4))
    for n_nodes, path in ((edge, "dense"), (edge + 1, "shift-invert")):
        dom = strip_domain(n_nodes)
        assert dom.n_nodes == n_nodes
        dec = solve_spectrum(dom, m)
        assert dec.path == path
        assert (dec.lu_solves > 0) == (path == "shift-invert")
        assert dec.residuals.max() <= RESIDUAL_CONTRACT


def test_gaussian_disk_splits_no_cluster_at_m5():
    # the 121^2 disk of the stability benchmark: lambda_1 = lambda_2 = 2 pi
    # is a pair by the grid's symmetry, and ARPACK is asked for 6 pairs only
    dec = solve_spectrum(gaussian_disk_domain(121, 4.0), 5)
    lam = dec.eigenvalues
    assert dec.path == "shift-invert"
    assert dec.residuals.max() <= RESIDUAL_CONTRACT
    assert lam[2] == pytest.approx(lam[1], rel=1e-10)
    assert lam[1] == pytest.approx(TWO_PI, rel=0.05)


def test_shift_invert_solve_is_reproducible():
    dom = gaussian_disk_domain(51, 3.0)  # shift-invert Lanczos path
    first, second = solve_spectrum(dom, 3), solve_spectrum(dom, 3)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def test_arpack_failure_is_a_solver_error(monkeypatch, tmp_path):
    def no_convergence(A, *args, **kwargs):
        n = A.shape[0]
        raise spla.ArpackNoConvergence("forced", np.ones(1), np.ones((n, 1)))

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    dom = gaussian_disk_domain(21, 2.0)  # shift-invert Lanczos path
    with pytest.raises(SolverConvergenceError, match="1 converged") as info:
        solve_spectrum(dom, 3)
    assert info.value.residuals is None
    assert main(["spectrum", "-n", "21", "-R", "2.0", "-m", "3",
                 "--out-dir", str(tmp_path)]) == 4
    payload = json.loads((tmp_path / "spectrum.json").read_text())["payload"]
    assert payload["status"] == "solver_failure"
    assert "1 converged" in payload["message"]
    assert payload["residuals"] is None


def test_import_loads_no_scipy_until_a_solve():
    src = Path(__file__).resolve().parents[1] / "src"
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import gaborlab as gl, gaborlab.cli

        def scipy_loaded():
            return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')[:5]

        assert not scipy_loaded(), scipy_loaded()
        # a cut scan of the benchmark's sweep: its 101 x 61 dumbbell domain
        # and 101 cuts of each family
        grid = gl.TFGrid(-2.55, 2.55, -1.5, 1.5, 101, 61)
        dom = gl.dumbbell_weight(3.0, 0.05, 0.35, grid)
        assert not scipy_loaded(), scipy_loaded()
        cuts = [*gl.vertical_cut_family(grid.x_min + grid.dx, grid.x_max - grid.dx, 101),
                *gl.circle_cut_family(1.5 / 101, 0.98 * 1.5, 101)]
        for cut in cuts:
            try:
                gl.cut_ratio(dom, cut)
            except gl.InadmissibleCutError:
                pass
        assert not scipy_loaded(), scipy_loaded()
        # two bumps whose corridor lies below the trim level
        try:
            gl.dumbbell_weight(6.0, 1e-15, 0.35, gl.TFGrid(-4.5, 4.5, -1.5, 1.5, 101, 61))
        except ValueError as exc:
            assert "splits" in str(exc), exc
        else:
            raise AssertionError("the trimmed dumbbell did not split")
        assert not scipy_loaded(), scipy_loaded()
        grid = gl.TFGrid(-1.0, 1.0, -1.0, 1.0, 9, 9)
        dom = gl.weighted_domain_from_values(grid, np.ones(grid.shape))
        assert not scipy_loaded(), scipy_loaded()
        assert gl.solve_spectrum(dom, 2).eigenvalues[1] > 0
        assert scipy_loaded()
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_solver_argument_validation():
    dom = gaussian_disk_domain(21, 2.0)
    with pytest.raises(ValueError):
        solve_spectrum(dom, 1)
    with pytest.raises(ValueError):
        solve_spectrum(dom, dom.n_nodes)


# ---------------------------------------------------------------------------
# poincare / rayleigh
# ---------------------------------------------------------------------------


def test_poincare_gap_between_counterexample_and_window():
    # the gamma = 1 pair weight is dumbbell-like; its constant must exceed
    # the window's by a wide margin (the spec example's a=1/2 claim of 10x
    # does not hold numerically; the gap is ~4.7x there and >10x at a=1/3)
    R, n = 4.0, 81
    grid = TFGrid(-R, R, -R, R, n, n)
    mask = disk_mask(grid, R)
    mag_f = gabor_magnitude_field(make_fpm(0.5, 1.0).plus, grid)
    dom_f = build_weighted_domain(mag_f, 2.0, mask, 1e-14)
    c_f = poincare_estimate(solve_spectrum(dom_f, 2))
    c_phi = poincare_estimate(solve_spectrum(gaussian_disk_domain(n, R), 2))
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
    dom = full_basis_domain()
    n = dom.n_nodes
    dec = solve_spectrum(dom, n - 1)
    _, m = assemble_operators(dom)
    rng = np.random.default_rng(34)
    for _ in range(5):
        h = rng.standard_normal(n)
        coeffs = dec.eigenvectors.T @ (m * h)
        assert np.sum(coeffs**2) == pytest.approx(float(h @ (m * h)), rel=1e-6)


# ---------------------------------------------------------------------------
# solver invariants on random small domains
# ---------------------------------------------------------------------------

# node-weight spread max w / min w up to which a solve must meet the
# contract, per branch; beyond it a SolverConvergenceError is the accepted
# outcome.  Each sits below the smallest spread at which that branch was
# seen to fail on domains drawn like small_domains: 6.4e8 over 40,000
# dense solves, 4.3e12 over 9,000 draws of both (CHANGES.md, FOUND).
SOLVABLE_SPREAD = {"dense": 1e8, "shift-invert": 1e12}
# a trim level below every node of small_domains, also after a weight change
# by a factor within [0.1, 1.9] (its floor_rel is at least 1e-45): domains
# rebuilt from its weights keep every node
KEEP_EVERY_NODE = 1e-47


def graded_domain(nx, nw, step, seed, size, centre, sharpness, floor_rel):
    """4-connected mask of up to size nodes on a symmetric nx x nw grid of the
    given step, grown from a seed (the generator seeded with seed picks it
    and each node added) through the super-level set of one Gaussian bump
    at floor_rel of its maximum, and weighted by that bump: the trim keeps
    every node."""
    half_x, half_w = step * (nx - 1) / 2.0, step * (nw - 1) / 2.0
    grid = TFGrid(-half_x, half_x, -half_w, half_w, nx, nw)
    rng = np.random.default_rng(seed)
    X, W = grid.mesh()
    cx, cw = centre
    values = np.exp(-math.pi * sharpness * ((X - cx) ** 2 + (W - cw) ** 2))
    above = values >= floor_rel * values.max()
    seeds = np.argwhere(above)
    mask = np.zeros(grid.shape, bool)
    mask[tuple(seeds[rng.integers(len(seeds))])] = True
    while mask.sum() < size:
        grow = np.zeros_like(mask)
        grow[1:] |= mask[:-1]
        grow[:-1] |= mask[1:]
        grow[:, 1:] |= mask[:, :-1]
        grow[:, :-1] |= mask[:, 1:]
        frontier = np.argwhere(grow & above & ~mask)
        if not len(frontier):
            break
        mask[tuple(frontier[rng.integers(len(frontier))])] = True
    return weighted_domain_from_values(grid, values, mask, floor_rel)


@st.composite
def small_domains(draw):
    """graded_domain of 3 to 300 nodes at a step of 0.1 to 0.3, trimmed at
    1e-45 to 1e-6 of the bump's maximum."""
    nx, nw = draw(st.integers(2, 20)), draw(st.integers(2, 20))
    step = draw(st.floats(0.1, 0.3))
    half_x, half_w = step * (nx - 1) / 2.0, step * (nw - 1) / 2.0
    seed = draw(st.integers(0, 2**32 - 1))
    size = draw(st.integers(3, min(nx * nw, 300)))
    centre = draw(st.floats(-half_x, half_x)), draw(st.floats(-half_w, half_w))
    return graded_domain(nx, nw, step, seed, size, centre, draw(st.floats(0.1, 2.0)),
                         10.0 ** draw(st.floats(-45.0, -6.0)))


def test_graded_domain_within_contract_only_through_the_polish():
    # a small_domains draw: 73 nodes with a weight spread of 1.7e17.  The
    # solve meets the contract at 5.3e-10; without the two inverse-iteration
    # steps after Lanczos it raises SolverConvergenceError
    dom = graded_domain(20, 10, 0.25396333303295804, 3252015380, 73,
                        (-1.9356211308959501, 0.9608513608778928), 0.738172644321045,
                        10.0 ** -39.56811624393487)
    weight = dom.node_weights()
    assert dom.n_nodes == 73 and weight.max() / weight.min() > 1e17
    dec = solve_spectrum(dom, 4)
    assert dec.path == "shift-invert"
    assert np.all(dec.residuals <= RESIDUAL_CONTRACT)


def test_domain_assembles_its_pencil_on_first_use():
    dom = full_basis_domain()
    assert dom._ops is None
    S, _ = dom.operators()
    assert dom._ops is not None and dom.operators()[0] is S


@st.composite
def corner_touching_masks(draw):
    """(grid, mask, weight) with a random mask thinned to one colour of a
    checkerboard in a random window, where its cells meet only at corners."""
    nx, nw = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    grid = TFGrid(0.0, 1.0, 0.0, 1.0, nx, nw)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(grid.shape) < draw(st.floats(0.3, 1.0))
    i, j = np.indices(grid.shape)
    lo_i, lo_j = draw(st.integers(0, nx - 1)), draw(st.integers(0, nw - 1))
    window = (i >= lo_i) & (j >= lo_j)
    mask &= ~window | ((i + j) % 2 == draw(st.integers(0, 1)))
    return grid, mask, rng.uniform(0.5, 2.0, grid.shape)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_domains().map(lambda d: (d.grid, d.mask, d.weight)),
                 corner_touching_masks()))
def test_mask_graph_check_agrees_with_the_assembled_stiffness(case):
    from scipy.sparse.csgraph import connected_components

    from gaborlab.spectral import WeightedDomain

    grid, mask, weight = case
    assume(mask.any())
    # the pencil of any mask, past the connectivity check
    unchecked = object.__new__(WeightedDomain)
    unchecked.grid, unchecked.mask, unchecked.weight = grid, mask, weight
    S, _ = assemble_operators(unchecked)
    connected = connected_components(S, directed=False)[0] == 1
    try:
        WeightedDomain(grid, mask, weight)
    except ValueError as exc:
        assert str(exc) == "mask must be a single 4-connected component"
        assert not connected
    else:
        assert connected


def spiral_mask(nx, nw):
    """A one-node-wide clockwise spiral from the corner (0, 0): it turns
    wherever going on would leave the grid or come next to its own path."""
    mask = np.zeros((nx, nw), bool)

    def inside(i, j):
        return 0 <= i < nx and 0 <= j < nw

    i = j = 0
    di, dj = 0, 1
    mask[i, j] = True
    while True:
        for _ in range(2):  # straight on, else after a right turn
            if (inside(i + di, j + dj) and not mask[i + di, j + dj]
                    and not (inside(i + 2 * di, j + 2 * dj) and mask[i + 2 * di, j + 2 * dj])):
                i, j = i + di, j + dj
                mask[i, j] = True
                break
            di, dj = dj, -di
        else:
            return mask


def snake_mask(nx, nw):
    """Every other x row in full, joined at alternate ends along w."""
    mask = np.zeros((nx, nw), bool)
    mask[::2] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


def comb_mask(nx, nw):
    """A spine along w in the last x row and every other w column as a
    tooth: every run of the rows above it meets the others only there."""
    mask = np.zeros((nx, nw), bool)
    mask[:, ::2] = True
    mask[-1] = True
    return mask


def checkerboard_mask(nx, nw):
    """One colour of a checkerboard: cells that meet only at corners."""
    i, j = np.indices((nx, nw))
    return (i + j) % 2 == 0


@st.composite
def adversarial_masks(draw):
    """(grid, mask, weight) up to 64 x 64: a spiral, comb, snake or
    checkerboard, in a random window of a random mask, mirrored or
    transposed, with a few nodes cut out of it or added to it."""
    nx, nw = draw(st.integers(2, 64)), draw(st.integers(2, 64))
    grid = TFGrid(0.0, 1.0, 0.0, 1.0, nx, nw)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(grid.shape) < draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    lo_i, lo_j = draw(st.integers(0, nx - 1)), draw(st.integers(0, nw - 1))
    hi_i, hi_j = draw(st.integers(lo_i + 1, nx)), draw(st.integers(lo_j + 1, nw))
    shape = draw(st.sampled_from([spiral_mask, comb_mask, snake_mask, checkerboard_mask]))
    rows, cols = hi_i - lo_i, hi_j - lo_j
    pattern = shape(cols, rows).T if draw(st.booleans()) else shape(rows, cols)
    if draw(st.booleans()):
        pattern = pattern[::-1]
    if draw(st.booleans()):
        pattern = pattern[:, ::-1]
    mask[lo_i:hi_i, lo_j:hi_j] = pattern
    for _ in range(draw(st.integers(0, 3))):
        mask[rng.integers(nx), rng.integers(nw)] ^= True
    return grid, mask, rng.uniform(0.5, 2.0, grid.shape)


@settings(max_examples=200, deadline=None)
@given(adversarial_masks())
def test_connectivity_check_agrees_with_the_stiffness_on_adversarial_masks(case):
    from scipy.sparse.csgraph import connected_components

    from gaborlab.spectral import WeightedDomain

    grid, mask, weight = case
    assume(mask.any())
    unchecked = object.__new__(WeightedDomain)
    unchecked.grid, unchecked.mask, unchecked.weight = grid, mask, weight
    connected = connected_components(assemble_operators(unchecked)[0], directed=False)[0] == 1
    try:
        WeightedDomain(grid, mask, weight)
    except ValueError as exc:
        assert str(exc) == "mask must be a single 4-connected component"
        assert not connected
    else:
        assert connected


def pair_count(dom, m):
    return min(m, dom.n_nodes - 1)


def solver_branch(dom, m):
    # up to max(20, 4 (m + 4)) nodes take the dense branch: 24 at m = 2, 48 at m = 8
    return "dense" if max(20, 4 * (m + 4)) >= dom.n_nodes else "shift-invert"


def solve_or_none(dom, m):
    try:
        dec = solve_spectrum(dom, m)
    except SolverConvergenceError:
        w = dom.node_weights()
        assert w.max() / w.min() > SOLVABLE_SPREAD[solver_branch(dom, m)]
        return None
    assert dec.path == solver_branch(dom, m)
    return dec


def assert_same_spectrum(dec_a, dec_b):
    a, b = dec_a.eigenvalues, dec_b.eigenvalues
    assert np.all(np.abs(a - b) <= 1e-8 * np.maximum(np.abs(a), 1.0))


@settings(max_examples=60, deadline=None)
@given(small_domains(), st.integers(2, 8))
def test_solver_pairs_are_ordered_orthonormal_and_within_contract(dom, m):
    m = pair_count(dom, m)
    dec = solve_or_none(dom, m)
    assume(dec is not None)
    lam, U = dec.eigenvalues, dec.eigenvectors
    S, mass = assemble_operators(dom)
    MU = mass[:, None] * U
    residuals = np.linalg.norm(S @ U - MU * lam, axis=0) / np.linalg.norm(MU, axis=0)
    assert np.all(np.diff(lam) >= 0)
    assert residuals.max() <= RESIDUAL_CONTRACT
    assert np.max(np.abs(U.T @ MU - np.eye(m + 1))) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(small_domains(), st.integers(2, 8), st.integers(-300, 300))
def test_spectrum_is_invariant_under_power_of_two_weight_scaling(dom, m, k):
    m = pair_count(dom, m)
    scaled = weighted_domain_from_values(dom.grid, np.ldexp(dom.weight, k), dom.mask,
                                         floor_rel=KEEP_EVERY_NODE)
    a, b = solve_or_none(dom, m), solve_or_none(scaled, m)
    assume(a is not None and b is not None)
    assert_same_spectrum(a, b)


@settings(max_examples=40, deadline=None)
@given(small_domains(), st.integers(2, 8), st.sampled_from([0, 1]))
def test_spectrum_is_invariant_under_mirroring(dom, m, axis):
    m = pair_count(dom, m)
    mirrored = weighted_domain_from_values(dom.grid, np.flip(dom.weight, axis),
                                           np.flip(dom.mask, axis), floor_rel=KEEP_EVERY_NODE)
    a, b = solve_or_none(dom, m), solve_or_none(mirrored, m)
    assume(a is not None and b is not None)
    assert_same_spectrum(a, b)


@settings(max_examples=40, deadline=None)
@given(small_domains(), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
def test_poincare_ratio_within_weight_ratio_bounds(dom, eps, seed):
    wobble = np.random.default_rng(seed).uniform(-1.0, 1.0, dom.grid.shape)
    varied = weighted_domain_from_values(dom.grid, dom.weight * (1.0 + eps * wobble),
                                         dom.mask, floor_rel=KEEP_EVERY_NODE)
    dec, dec_varied = solve_or_none(dom, 2), solve_or_none(varied, 2)
    assume(dec is not None and dec_varied is not None)
    rep = variation_bound_check(dec, dec_varied)
    assert rep.spectral_ok and rep.paper_ok


@settings(max_examples=40, deadline=None)
@given(small_domains(), st.integers(2, 8),
       st.lists(st.integers(0, 6), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
def test_refinement_mid_term_from_the_cached_gram_block(dom, m, ks, seed):
    m = pair_count(dom, m)
    dec, other = solve_or_none(dom, m), solve_or_none(dom, m)
    assume(dec is not None)
    S, _ = assemble_operators(dom)
    rng = np.random.default_rng(seed)
    largest = 0
    for k in (1 + k % (m - 1) for k in ks):
        before = dec._gram
        h = rng.standard_normal(dom.n_nodes)
        rep = refinement_check(dec, h, k)
        U = dec.eigenvectors[:, 1 : k + 1]
        c = U.T @ (node_masses(dom) * h)
        proj = U @ c
        direct = float(proj @ (S @ proj)) / dec.eigenvalues[1]
        # either evaluation rounds by up to about eps |U||c|^T |S| |U||c| / lambda_1;
        # on graded weights that exceeds 1e-12 of the value (seen: 1.3e-11, with
        # the direct form itself 9.6e-12 off a long-double sum over the edges)
        bound = np.abs(U) @ np.abs(c)
        scale = float(bound @ (abs(S) @ bound)) / dec.eigenvalues[1]
        assert rep.mid_term == pytest.approx(direct, rel=1e-12, abs=1e-12 * scale)
        # the block grows to the largest k asked for and is reused below it
        assert (dec._gram is before) == (k <= largest)
        largest = max(largest, k)
        assert dec._gram.shape == (largest + 1, largest + 1)
    assert other._gram is None
    refinement_check(other, h, 1)
    assert other._gram is not dec._gram


# ---------------------------------------------------------------------------
# variation of the weight
# ---------------------------------------------------------------------------


def test_variation_scaling_invariance():
    dom = gaussian_disk_domain(61, 3.0, floor_rel=1e-14)
    scaled = weighted_domain_from_values(dom.grid, 3.0 * dom.weight, dom.mask,
                                         floor_rel=1e-14)
    rep = variation_bound_check(solve_spectrum(dom, 2), solve_spectrum(scaled, 2))
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
    rep = variation_bound_check(solve_spectrum(dom_phi, 2), solve_spectrum(dom_f, 2))
    assert rep.paper_ok and rep.spectral_ok
    assert 1 / 3 <= rep.ratio <= 3.0
    assert rep.ratio <= 2.0 * math.sqrt(rep.ratio_max / rep.ratio_min)


def test_variation_sinusoidal_weight():
    dom = gaussian_disk_domain(61, 3.0, floor_rel=1e-14)
    X, _ = dom.grid.mesh()
    varied = weighted_domain_from_values(dom.grid,
                                         dom.weight * (1 + 0.1 * np.sin(X)),
                                         dom.mask, floor_rel=1e-14)
    rep = variation_bound_check(solve_spectrum(dom, 2), solve_spectrum(varied, 2))
    assert math.sqrt(0.9 / 1.1) - 1e-9 <= rep.ratio <= math.sqrt(1.1 / 0.9) + 1e-9


# ---------------------------------------------------------------------------
# plateau and mesh convergence
# ---------------------------------------------------------------------------


def test_gaussian_poincare_plateau_in_radius():
    values = []
    for R in (2.0, 3.0, 4.0, 5.0):
        n = int(round(2 * R / 0.1)) + 1
        values.append(poincare_estimate(solve_spectrum(gaussian_disk_domain(n, R, 1e-45), 2)))
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
