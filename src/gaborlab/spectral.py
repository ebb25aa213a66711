"""Discrete weighted Neumann Laplacian on spectrogram-weighted domains.

The masked grid nodes carry the measure d mu = w dx dw.  A 5-point stencil
with edge conductances (mean of the endpoint weights, scaled by transverse
over longitudinal spacing) discretizes the Dirichlet energy
int |grad h|^2 d mu; the diagonal mass matrix discretizes int h^2 d mu.
Edges leaving the mask or the grid are simply absent, which is the discrete
Neumann condition.  The first nontrivial eigenvalue of the pencil (S, M)
gives the weighted Poincare constant 1/sqrt(lambda_1) at p = 2.

scipy is imported only inside the functions that assemble or solve the
pencil.  Importing the package, building a domain (its connectivity check
is plain numpy) and scanning cuts on it do not load scipy, nor does any
command that solves no spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import TFGrid

DEFAULT_FLOOR_REL = 1e-14
# bound on ||S u - lambda M u|| / ||M u|| for every pair solve_spectrum returns
RESIDUAL_CONTRACT = 1e-8
# shift-invert Lanczos: the relative Ritz residual bound at which it stops,
# the LU solves it may spend before the solve fails, the basis size at which
# it restarts (at least 2 k + 8 for k pairs), and the basis rows allocated
# together
_LANCZOS_TOL = 1e-13
_LANCZOS_STEP_CAP = 500
_LANCZOS_NCV = 30
_LANCZOS_BLOCK = 8


class SolverConvergenceError(RuntimeError):
    """Eigensolver failed to converge; carries the residual norms seen.

    residuals is None when the failure came before any pair was checked
    (the shift-invert Lanczos reached its step cap).
    """

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


@dataclass(eq=False)
class WeightedDomain:
    """Masked grid with strictly positive node weights (the discrete (Omega, mu))."""

    grid: TFGrid
    mask: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)
    # the input-mask nodes below weighted_domain_from_values' trim level
    trimmed: np.ndarray | None = field(default=None, repr=False)
    _ops: tuple | None = field(default=None, repr=False, compare=False)
    _cuts: object | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        self.weight = np.asarray(self.weight, dtype=float)
        self.trimmed = np.zeros(self.grid.shape, bool) if self.trimmed is None else self.trimmed
        if any(a.shape != self.grid.shape for a in (self.mask, self.weight, self.trimmed)):
            raise ValueError("mask/weight/trimmed shape must match the grid")
        if not self.mask.any():
            raise ValueError("mask is empty")
        node_w = self.weight[self.mask]
        if np.any(node_w <= 0):
            raise ValueError("weights on the mask must be strictly positive")
        if not np.all(np.isfinite(node_w)):
            raise ValueError("weights on the mask must be finite")
        # a subnormal or zero node mass w dx dw leaves the mass matrix, and
        # the factorization of S + c M, without a usable pivot
        tiny = np.finfo(float).tiny
        if node_w.min() * self.grid.cell_area < tiny:
            raise ValueError(f"node masses w dx dw must be at least {tiny:.3g}, the"
                             " smallest normal double")
        # the stiffness graph is the 4-neighbour graph of the mask, so the
        # mask's runs decide connectivity in numpy; scipy and the pencil wait
        # for operators()
        if not _is_4_connected(self.mask):
            raise ValueError("mask must be a single 4-connected component")

    @property
    def n_nodes(self):
        return int(self.mask.sum())

    def node_weights(self):
        return self.weight[self.mask]

    def operators(self):
        if self._ops is None:
            self._ops = assemble_operators(self)
        return self._ops


def build_weighted_domain(mag, p, mask, floor_rel=DEFAULT_FLOOR_REL) -> WeightedDomain:
    """Domain with weight |G f|^p on the mask, trimmed to |G f|^p >= floor_rel * max."""
    # a power past the double range is inf, which WeightedDomain refuses
    with np.errstate(over="ignore"):
        values = mag.values ** p
    return weighted_domain_from_values(mag.grid, values, mask, floor_rel)


def weighted_domain_from_values(grid, values, mask=None,
                                floor_rel=DEFAULT_FLOOR_REL) -> WeightedDomain:
    """Domain from a synthetic weight array (already the measure density), on
    the mask's nodes where it reaches floor_rel * its maximum, the trim level."""
    if not (0.0 < floor_rel <= 1e-6):
        raise ValueError("floor_rel must lie in (0, 1e-6]")
    values = np.asarray(values, dtype=float)
    mask = np.ones(grid.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    level = floor_rel * float(values.max())
    kept = mask & (values >= level)
    try:
        return WeightedDomain(grid, kept, values, mask & ~kept)
    except ValueError as exc:
        # the level splits the mask only where the set it keeps falls apart
        if not kept.any() or np.array_equal(kept, mask) or _is_4_connected(kept):
            raise
        raise ValueError(f"the weight's super-level set at the trim level {level:.3g}"
                         f" (floor_rel {floor_rel:g} of its maximum) splits") from exc


def _is_4_connected(mask):
    """Whether the nonempty mask's nodes form one 4-connected component.

    Each x row splits into runs of consecutive nodes along w.  With a run's
    ends [start, end) as row-major positions over rows one node longer than
    the grid's, run j of the next row touches run i exactly when
    start_j < end_i + width and end_j > start_i + width, a contiguous range
    of j that two sorted searches find.  A union-find with path halving
    joins the touching runs.
    """
    width = mask.shape[1] + 1
    rows, cols = np.nonzero(np.diff(mask, axis=1, prepend=False, append=False))
    edge = rows * width + cols  # a row's run ends alternate: start, end, ...
    start, end = edge[0::2], edge[1::2]
    lo = np.searchsorted(end, start + width, side="right").tolist()
    hi = np.searchsorted(start, end + width, side="left").tolist()
    parent = list(range(len(start)))

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    components = len(parent)
    for i in range(len(parent)):
        for j in range(lo[i], hi[i]):
            a, b = root(i), root(j)
            if a != b:
                parent[b] = a
                components -= 1
    return components == 1


def _stencil(mask):
    """Node count and, along x then along w, the (lower end, upper end) node
    indices of the mask's 4-neighbour edges; nodes are the masked grid points
    in C order."""
    n = int(np.count_nonzero(mask))
    index = np.full(mask.shape, -1, dtype=np.int64)
    index[mask] = np.arange(n)
    ex = mask[:-1, :] & mask[1:, :]
    ew = mask[:, :-1] & mask[:, 1:]
    return n, ((index[:-1, :][ex], index[1:, :][ex]), (index[:, :-1][ew], index[:, 1:][ew]))


def assemble_operators(domain: WeightedDomain):
    """(stiffness, mass): sparse SPSD stiffness and the diagonal of the mass.

    Edge conductance between adjacent masked nodes is the arithmetic mean of
    the endpoint weights times (transverse spacing / longitudinal spacing);
    the quadratic form h^T S h then equals the midpoint-cell quadrature of
    int |grad h|^2 d mu with one-sided differences along edges.
    """
    import scipy.sparse as sp

    grid = domain.grid
    n, edges = _stencil(domain.mask)
    node_w = domain.node_weights()
    rows, cols, vals = [], [], []
    for (a, b), scale in zip(edges, (grid.dw / grid.dx, grid.dx / grid.dw)):
        g = 0.5 * (node_w[a] + node_w[b]) * scale
        rows.extend((a, b, a, b))
        cols.extend((a, b, b, a))
        vals.extend((g, g, -g, -g))
    S = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    return S, node_w * grid.cell_area


@dataclass(eq=False)
class SpectralDecomposition:
    """Leading eigenpairs of the weighted Neumann pencil, mu-orthonormal."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns u_0 .. u_m on the masked nodes
    domain: WeightedDomain
    residuals: np.ndarray  # ||S u - lambda M u|| / ||M u|| per pair
    path: str  # "dense" or "shift-invert"
    lu_solves: int  # solves with the LU of S + c M; 0 on the dense branch


def solve_spectrum(domain: WeightedDomain, m: int) -> SpectralDecomposition:
    """Smallest m+1 eigenpairs of (S, M), mu-orthonormal, residual-checked.

    One LU of S + c M (c from _shift_scale) drives shift-invert Lanczos and
    then two block inverse-iteration steps; a Rayleigh-Ritz projection of the
    pencil onto that block gives the pairs.  On at most max(20, 4 (m + 4))
    nodes the pencil is solved densely instead: with D = M^-1/2, the scaled
    matrix D S D is assembled sparsely and handed to LAPACK's relatively
    robust representation eigensolver (syevr), and
    u = D c maps its orthonormal eigenvectors back to mu-orthonormal ones.
    syevr rather than the faster divide-and-conquer syevd: on strongly
    graded weights syevd misses the residual contract where syevr meets it.
    """
    from scipy.linalg import eigh

    n = domain.n_nodes
    if m < 2:
        raise ValueError("m must be >= 2")
    if m >= n:
        raise ValueError("m must be below the node count")
    S, mass = domain.operators()
    if n <= max(20, 4 * (m + 4)):
        # small enough to solve outright; Fortran order lets LAPACK
        # overwrite A instead of copying it
        path, lu_solves = "dense", 0
        d = 1.0 / np.sqrt(mass)
        A = S.multiply(d[None, :]).multiply(d[:, None]).toarray(order="F")
        lam, C = eigh(A, overwrite_a=True, driver="evr")
        U = np.multiply(d[:, None], C[:, : m + 1], order="C")
    else:
        path = "shift-invert"
        basis, lu_solves = _shift_invert_basis(domain, S, mass, m + 1)
        gram = (basis.T * mass) @ basis
        lam, C = eigh(basis.T @ (S @ basis), gram, overwrite_a=True)
        U = basis @ C
    lam = lam[: m + 1]
    if U[:, 0].sum() < 0:
        U[:, 0] = -U[:, 0]

    residuals = _residual_norms(S, mass, lam, U)
    if np.any(residuals > RESIDUAL_CONTRACT):
        raise SolverConvergenceError(
            "eigenpair residuals exceed tolerance", residuals
        )
    return SpectralDecomposition(np.asarray(lam, dtype=float), U, domain,
                                 residuals, path, lu_solves)


def _shift_invert_basis(domain, S, mass, k):
    """k Ritz vectors of (S, M) near the bottom of the spectrum, refined,
    and the number of LU solves spent on them.

    S + c M with c near the lambda_1 scale is SPD and well conditioned, and
    shift-invert at -c orders the smallest pencil eigenvalues first.  SPD
    needs no pivoting, so a symmetric fill-reducing ordering holds the LU to
    about half the fill of the default column ordering.  The fixed start
    block makes the solve the same from run to run, and the LU is freed on
    return, before the caller allocates the eigenvectors it keeps.

    Lanczos runs on A = (S + c M)^-1 M, self-adjoint in the M inner product,
    from a block of two start vectors (band Lanczos, Ruhe 1979): each step
    is one LU solve on the oldest basis vector not yet mapped, two classical
    Gram-Schmidt passes against every stored vector, and the remainder,
    normalized, as the next basis vector.  A single start vector holds one
    copy of a degenerate pair, and the other enters only through rounding,
    so a single-vector Lanczos can stop before it does and skip an
    eigenvalue; a block of two holds both from the start.  The iteration
    stops once each of the k largest Ritz values theta_i has the residual
    bound ||r_i|| <= _LANCZOS_TOL theta_i, or on an invariant subspace
    (Ericsson and Ruhe 1980; Grimes, Lewis and Simon 1994).  A full basis
    of ncv vectors restarts thick (Wu and Simon 2000): it keeps the Ritz
    vectors of its largest Ritz values and the vectors not yet mapped.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    from scipy.linalg import eigh

    n = len(mass)
    shift = _shift_scale(domain, S, mass)
    # one-column panels and no relaxed supernodes: SuperLU's default wide
    # panels need a workspace that, on the 34,590-node fpm disk, took the
    # factorization's peak from 16 MB to 27 MB for the same factor
    lu = spla.splu((S + shift * sp.diags(mass)).tocsc(),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                   relax=1, panel_size=1, options={"SymmetricMode": True})
    # the basis: at most ncv mu-orthonormal rows in blocks of _LANCZOS_BLOCK,
    # grown as the steps need them and never copied whole; H[i, j], i >= j,
    # is the coefficient of basis vector i in A v_j
    ncv = min(n, max(_LANCZOS_NCV, 2 * k + 8))
    blocks, H = [], np.zeros((ncv, ncv))

    def row(i):
        return blocks[i // _LANCZOS_BLOCK][i % _LANCZOS_BLOCK]

    def rows(count):
        full, part = divmod(count, _LANCZOS_BLOCK)
        return blocks[:full] + ([blocks[full][:part]] if part else [])

    def orthogonalize(w, count):
        # w less its M-projection on the first count basis vectors, and the
        # projection's coefficients
        coeffs = np.zeros(count)
        for _ in range(2):
            mw = mass * w
            for lo, blk in zip(range(0, count, _LANCZOS_BLOCK), rows(count)):
                h = blk @ mw
                w -= h @ blk
                coeffs[lo:lo + len(h)] += h
        return w, coeffs

    def append(w, count):
        if count == len(blocks) * _LANCZOS_BLOCK:
            blocks.append(np.empty((_LANCZOS_BLOCK, n)))
        row(count)[:] = w / math.sqrt(w @ (mass * w))

    def ritz(count):
        # the count largest Ritz values of the mapped vectors, and their
        # coordinates
        return eigh(H[:mapped, :mapped], lower=True, check_finite=False,
                    subset_by_index=[mapped - count, mapped - 1])

    stored = mapped = 0
    for x in np.random.default_rng(0).standard_normal((2, n)):
        append(orthogonalize(x, stored)[0], stored)
        stored += 1
    converged = False
    for steps in range(1, _LANCZOS_STEP_CAP + 1):
        if stored == ncv < n:
            # the kept Ritz vectors overwrite the first rows, 512 nodes at a
            # time so that the temporaries stay small, and the vectors not
            # yet mapped follow them; the blocks stay for the rows to come
            keep = k + (ncv - k) // 2
            theta, Y = ritz(keep)
            for lo in range(0, n, 512):
                nodes = slice(lo, lo + 512)
                new = Y.T @ np.concatenate([blk[:, nodes] for blk in rows(mapped)])
                for i, blk in zip(range(0, keep, _LANCZOS_BLOCK), rows(keep)):
                    blk[:, nodes] = new[i:i + len(blk)]
            for i in range(mapped, stored):
                row(keep + i - mapped)[:] = row(i)
            coupling = H[mapped:stored, :mapped] @ Y
            H[:] = 0.0
            H[range(keep), range(keep)] = theta
            H[keep:keep + stored - mapped, :keep] = coupling
            stored, mapped = keep + stored - mapped, keep
        w, coeffs = orthogonalize(lu.solve(mass * row(mapped)), stored)
        H[mapped:stored, mapped] = coeffs[mapped:]
        rho = math.sqrt(w @ (mass * w))
        if rho > 0.0 and stored < n:
            H[stored, mapped] = rho
            append(w, stored)
            stored += 1
        mapped += 1
        if mapped >= k:
            theta, Y = ritz(k)
            # each Ritz residual lies on the basis vectors not yet mapped
            res = np.linalg.norm(H[mapped:stored, :mapped] @ Y, axis=0)
            converged = bool(np.all(res <= _LANCZOS_TOL * theta))
        if converged or stored == mapped:
            break
    if not converged:
        raise SolverConvergenceError(
            f"shift-invert Lanczos did not converge for {k} pairs on {n} nodes"
            f" in {steps} steps (step cap {_LANCZOS_STEP_CAP})"
        )
    # Ritz vectors block by block, then two block inverse-iteration steps
    # with the same LU: trimmed weights still span up to 1/floor_rel, and
    # the refinement brings the block's residuals under the contract
    basis = np.zeros((n, k))
    for lo, blk in zip(range(0, mapped, _LANCZOS_BLOCK), rows(mapped)):
        basis += blk.T @ Y[lo:lo + len(blk)]
    del blocks
    for _ in range(2):
        basis = lu.solve(mass[:, None] * basis)
    return basis, steps + 2 * k


def _shift_scale(domain, S, mass):
    # Rayleigh quotient of the mean-free x-coordinate: an O(lambda_1)-scale
    # upper bound that keeps the shifted factorization well conditioned
    X, _ = domain.grid.mesh()
    h = X[domain.mask]
    c = float((mass * h).sum() / mass.sum())
    h = h - c
    denom = float((h * mass * h).sum())
    if denom <= 0:
        return 1.0
    return max(0.1 * float(h @ (S @ h)) / denom, 1e-12)


def _residual_norms(S, mass, lam, U):
    # a block of columns at a time: one sparse product per block, while the
    # temporaries stay at n x block however many pairs there are
    block = 64
    res = np.empty(len(lam))
    for lo in range(0, len(lam), block):
        cols = slice(lo, lo + block)
        MU = mass[:, None] * U[:, cols]
        R = S @ U[:, cols] - MU * lam[cols]
        res[cols] = (np.linalg.norm(R, axis=0)
                     / np.maximum(np.linalg.norm(MU, axis=0), 1e-300))
    return res


def poincare_estimate(dec: SpectralDecomposition) -> float:
    """1/sqrt(lambda_1): the p=2 weighted Poincare constant of dec.domain,
    from the caller's solve (solve_spectrum(domain, 2) is the smallest)."""
    lam1 = dec.eigenvalues[1]
    if lam1 <= 0:
        raise ValueError("degenerate domain: lambda_1 <= 0")
    return 1.0 / math.sqrt(lam1)


@dataclass(frozen=True)
class RefinementReport:
    lhs: float
    mean_term: float
    mid_term: float
    tail_term: float
    slack: float


def refinement_check(dec: SpectralDecomposition, h, k: int) -> RefinementReport:
    """Three-term spectral refinement of the Poincare inequality.

    lhs = int h^2 dmu; rhs = (h, u_0)^2 + (1/lambda_1) ||grad pi_k h||^2
    + (1/lambda_{k+1}) int |grad h|^2 dmu; slack = rhs - lhs must be
    nonnegative up to rounding.  h holds one value per masked node.  Only
    the coefficients c_j = (h, u_j)_mu for j <= k are formed, however many
    pairs dec holds.  ||grad pi_k h||^2 = sum_{j=1..k} lambda_j c_j^2: the
    dense and the Rayleigh-Ritz solve both leave U^T S U = diag(lambda) to
    rounding, so the Gram block of the pairs is their eigenvalues.
    A k that splits an exactly degenerate pair (lambda_k = lambda_{k+1},
    as lambda_1 = lambda_2 on a symmetric Gaussian disk) makes the mid term
    depend on which basis of that eigenspace the solver returned.
    """
    if not (1 <= k < len(dec.eigenvalues) - 1):
        raise ValueError("k must satisfy 1 <= k < m")
    S, mass = dec.domain.operators()
    h = np.asarray(h, dtype=float)
    mh = mass * h
    lhs = float(h @ mh)
    lam, c = dec.eigenvalues, dec.eigenvectors[:, : k + 1].T @ mh
    mean_term = float(c[0] ** 2)
    mid_term = float(lam[1 : k + 1] @ (c[1:] * c[1:])) / lam[1]
    tail_term = float(h @ (S @ h)) / lam[k + 1]
    slack = mean_term + mid_term + tail_term - lhs
    return RefinementReport(lhs, mean_term, mid_term, tail_term, slack)


@dataclass(frozen=True)
class VariationReport:
    """Two-sided bounds on the Poincare-constant ratio under weight change."""

    A: float  # min w'/w on the mask
    B: float  # max w'/w on the mask
    constant_base: float
    constant_varied: float
    ratio: float  # constant_varied / constant_base
    paper_bounds: tuple[float, float]
    spectral_bounds: tuple[float, float]
    paper_ok: bool
    spectral_ok: bool


def variation_bound_check(dec_a: SpectralDecomposition,
                          dec_b: SpectralDecomposition) -> VariationReport:
    """Compare the Poincare constants of two solved weights on the same
    masked grid, dec_a's the base and dec_b's the varied one.

    Asserts the two-sided factor-2 bound (A/B)^{1/p}/2 <= C'/C <=
    2 (B/A)^{1/p} and the sharper pencil bound sqrt(A/B) <= C'/C <=
    sqrt(B/A), at p = 2, the only exponent the spectral route computes.
    """
    dA, dB = dec_a.domain, dec_b.domain
    if dA.grid != dB.grid or not np.array_equal(dA.mask, dB.mask):
        raise ValueError("domains must share grid and mask")
    r = dB.node_weights() / dA.node_weights()
    A, B = float(r.min()), float(r.max())
    Ca, Cb = poincare_estimate(dec_a), poincare_estimate(dec_b)
    ratio = Cb / Ca
    paper = ((A / B) ** 0.5 / 2.0, 2.0 * (B / A) ** 0.5)
    spectral = (math.sqrt(A / B), math.sqrt(B / A))
    tol = 1e-9
    return VariationReport(
        A, B, Ca, Cb, ratio, paper, spectral,
        paper_ok=bool(paper[0] * (1 - tol) <= ratio <= paper[1] * (1 + tol)),
        spectral_ok=bool(spectral[0] * (1 - tol) <= ratio <= spectral[1] * (1 + tol)),
    )
