"""Discrete weighted Neumann Laplacian on spectrogram-weighted domains.

The masked grid nodes carry the measure d mu = w dx dw.  A 5-point stencil
with edge conductances (mean of the endpoint weights, scaled by transverse
over longitudinal spacing) discretizes the Dirichlet energy
int |grad h|^2 d mu; the diagonal mass matrix discretizes int h^2 d mu.
Edges leaving the mask or the grid are simply absent, which is the discrete
Neumann condition.  The first nontrivial eigenvalue of the pencil (S, M)
gives the weighted Poincare constant 1/sqrt(lambda_1) at p = 2.

scipy is imported inside the functions that use it, so that importing the
package, and every command that solves no spectrum, does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gabor import bargmann_cs_derivative, bargmann_eval, bargmann_modulus
from .grid import TFGrid

DEFAULT_FLOOR_REL = 1e-14
# bound on ||S u - lambda M u|| / ||M u|| for every pair solve_spectrum returns
RESIDUAL_CONTRACT = 1e-8


class SolverConvergenceError(RuntimeError):
    """Eigensolver failed to converge; carries the residual norms seen.

    residuals is None when the failure came before any pair was checked
    (ARPACK did not converge).
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
        from scipy.sparse.csgraph import connected_components

        self.mask = np.asarray(self.mask, dtype=bool)
        self.weight = np.asarray(self.weight, dtype=float)
        self.trimmed = np.zeros(self.grid.shape, bool) if self.trimmed is None else self.trimmed
        if any(a.shape != self.grid.shape for a in (self.mask, self.weight, self.trimmed)):
            raise ValueError("mask/weight/trimmed shape must match the grid")
        if not self.mask.any():
            raise ValueError("mask is empty")
        if np.any(self.weight[self.mask] <= 0):
            raise ValueError("weights on the mask must be strictly positive")
        # the stiffness graph is the 4-neighbour graph of the mask
        if connected_components(self.operators()[0], directed=False)[0] != 1:
            raise ValueError("mask must be a single 4-connected component")

    @property
    def n_nodes(self):
        return int(self.mask.sum())

    def node_weights(self):
        return self.weight[self.mask]

    def masses(self):
        return self.node_weights() * self.grid.cell_area

    def operators(self):
        if self._ops is None:
            self._ops = assemble_operators(self)
        return self._ops


def build_weighted_domain(mag, p, mask, floor_rel=DEFAULT_FLOOR_REL) -> WeightedDomain:
    """Domain with weight |G f|^p on the mask, trimmed to |G f|^p >= floor_rel * max."""
    return weighted_domain_from_values(mag.grid, mag.values ** p, mask, floor_rel)


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
        if not kept.any() or np.array_equal(kept, mask):
            raise
        raise ValueError(f"the weight's super-level set at the trim level {level:.3g}"
                         f" (floor_rel {floor_rel:g} of its maximum) splits") from exc


def assemble_operators(domain: WeightedDomain):
    """(stiffness, mass): sparse SPSD stiffness and the diagonal of the mass.

    Edge conductance between adjacent masked nodes is the arithmetic mean of
    the endpoint weights times (transverse spacing / longitudinal spacing);
    the quadratic form h^T S h then equals the midpoint-cell quadrature of
    int |grad h|^2 d mu with one-sided differences along edges.
    """
    import scipy.sparse as sp

    grid, mask, weight = domain.grid, domain.mask, domain.weight
    dx, dw = grid.dx, grid.dw
    index = -np.ones(grid.shape, dtype=np.int64)
    flat_ids = np.flatnonzero(mask.ravel())
    index.ravel()[flat_ids] = np.arange(len(flat_ids))
    n = len(flat_ids)

    rows, cols, vals = [], [], []

    def add_edges(pair_mask, i_a, i_b, conductance):
        g = conductance[pair_mask]
        a = i_a[pair_mask]
        b = i_b[pair_mask]
        rows.extend((a, b, a, b))
        cols.extend((a, b, b, a))
        vals.extend((g, g, -g, -g))

    ex = mask[:-1, :] & mask[1:, :]
    gx = 0.5 * (weight[:-1, :] + weight[1:, :]) * (dw / dx)
    add_edges(ex, index[:-1, :], index[1:, :], gx)

    ew = mask[:, :-1] & mask[:, 1:]
    gw = 0.5 * (weight[:, :-1] + weight[:, 1:]) * (dx / dw)
    add_edges(ew, index[:, :-1], index[:, 1:], gw)

    S = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    m = weight.ravel()[flat_ids] * grid.cell_area
    return S, m


@dataclass(eq=False)
class SpectralDecomposition:
    """Leading eigenpairs of the weighted Neumann pencil, mu-orthonormal."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns u_0 .. u_m on the masked nodes
    domain: WeightedDomain
    residuals: np.ndarray  # ||S u - lambda M u|| / ||M u|| per pair
    path: str  # "dense" or "shift-invert"
    lu_solves: int  # solves with the LU of S + c M; 0 on the dense branch
    # U^T S U over the leading columns, grown on demand by refinement_check
    _gram: np.ndarray | None = field(default=None, repr=False, compare=False)


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
    vector makes the solve the same from run to run, and the LU is freed on
    return, before the caller allocates the eigenvectors it keeps.

    ARPACK is asked for exactly the k wanted pairs: buffer pairs beyond them
    must converge too at tol = 0, and the inverse-iteration steps already
    carry the last wanted pairs under the contract.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = len(mass)
    shift = _shift_scale(domain, S, mass)
    lu = spla.splu((S + shift * sp.diags(mass)).tocsc(),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                   options={"SymmetricMode": True})
    calls = 0

    def solve(b):
        nonlocal calls
        calls += 1
        return lu.solve(b)

    try:
        _, basis = spla.eigsh(
            S, k=k, M=sp.diags(mass), sigma=-shift, which="LM", tol=0,
            ncv=min(max(20, 4 * k), n),
            OPinv=spla.LinearOperator((n, n), solve, dtype=float),
            v0=np.random.default_rng(0).standard_normal(n),
        )
    except spla.ArpackNoConvergence as exc:
        raise SolverConvergenceError(
            f"ARPACK did not converge for {k} pairs on {n} nodes"
            f" ({len(exc.eigenvalues)} converged)"
        ) from exc
    # trimmed weights still span up to 1/floor_rel; inverse iteration with
    # the same LU brings the Ritz block's residuals under the contract
    for _ in range(2):
        basis = lu.solve(mass[:, None] * basis)
    return basis, calls + 2 * k


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


def poincare_estimate(obj) -> float:
    """1/sqrt(lambda_1): the p=2 weighted Poincare constant of the domain.

    Accepts a WeightedDomain (solves a small spectrum on demand) or an
    existing SpectralDecomposition.
    """
    dec = obj if isinstance(obj, SpectralDecomposition) else solve_spectrum(obj, 2)
    lam1 = dec.eigenvalues[1]
    if lam1 <= 0:
        raise ValueError("degenerate domain: lambda_1 <= 0")
    return 1.0 / math.sqrt(lam1)


def rayleigh(domain: WeightedDomain, h) -> float:
    """Mean-free Rayleigh quotient (h^T S h) / min_c ||h - c||_mu^2; >= lambda_1."""
    S, mass = domain.operators()
    h = np.asarray(h, dtype=float)
    if h.shape == domain.grid.shape:
        h = h[domain.mask]
    c = float((mass * h).sum() / mass.sum())
    centered = h - c
    denom = float(centered @ (mass * centered))
    scale = float(h @ (mass * h))
    if denom <= 1e-28 * max(scale, 1.0):
        raise ValueError("field is mu-a.e. constant")
    return float(h @ (S @ h)) / denom


@dataclass(frozen=True)
class RefinementReport:
    lhs: float
    mean_term: float
    mid_term: float
    tail_term: float
    k: int
    slack: float


def refinement_check(dec: SpectralDecomposition, h, k: int) -> RefinementReport:
    """Three-term spectral refinement of the Poincare inequality.

    lhs = int h^2 dmu; rhs = (h, u_0)^2 + (1/lambda_1) ||grad pi_k h||^2
    + (1/lambda_{k+1}) int |grad h|^2 dmu; slack = rhs - lhs must be
    nonnegative up to rounding.  Only the coefficients (h, u_j)_mu for
    j <= k are formed, however many pairs dec holds.  ||grad pi_k h||^2 is
    c^T G c for those coefficients c and the Gram block G = U^T S U of the
    first k+1 pairs, which dec caches and regrows only for a larger k.
    A k that splits an exactly degenerate pair (lambda_k = lambda_{k+1},
    as lambda_1 = lambda_2 on a symmetric Gaussian disk) makes the mid term
    depend on which basis of that eigenspace the solver returned.
    """
    if not (1 <= k < len(dec.eigenvalues) - 1):
        raise ValueError("k must satisfy 1 <= k < m")
    domain = dec.domain
    S, mass = domain.operators()
    h = np.asarray(h, dtype=float)
    if h.shape == domain.grid.shape:
        h = h[domain.mask]
    mh = mass * h
    lhs = float(h @ mh)
    U = dec.eigenvectors[:, : k + 1]
    coeffs = U.T @ mh
    mean_term = float(coeffs[0] ** 2)
    if dec._gram is None or len(dec._gram) <= k:
        dec._gram = U.T @ (S @ U)
    c = coeffs[1:]
    mid_term = float(c @ (dec._gram[1 : k + 1, 1 : k + 1] @ c)) / dec.eigenvalues[1]
    tail_term = float(h @ (S @ h)) / dec.eigenvalues[k + 1]
    slack = mean_term + mid_term + tail_term - lhs
    return RefinementReport(lhs, mean_term, mid_term, tail_term, k, slack)


@dataclass(frozen=True)
class VariationReport:
    """Two-sided bounds on the Poincare-constant ratio under weight change."""

    ratio_min: float  # A = min w'/w on the mask
    ratio_max: float  # B = max w'/w on the mask
    constant_a: float
    constant_b: float
    ratio: float
    paper_lower: float
    paper_upper: float
    spectral_lower: float
    spectral_upper: float
    paper_ok: bool
    spectral_ok: bool
    # the two solves behind constant_a and constant_b
    decomposition_a: SpectralDecomposition = field(repr=False)
    decomposition_b: SpectralDecomposition = field(repr=False)


def variation_bound_check(dA: WeightedDomain, dB: WeightedDomain) -> VariationReport:
    """Compare Poincare constants of two weights on the same masked grid.

    Asserts the two-sided factor-2 bound (A/B)^{1/p}/2 <= C'/C <=
    2 (B/A)^{1/p} and the sharper pencil bound sqrt(A/B) <= C'/C <=
    sqrt(B/A), at p = 2, the only exponent the spectral route computes.
    """
    if dA.grid != dB.grid or not np.array_equal(dA.mask, dB.mask):
        raise ValueError("domains must share grid and mask")
    r = dB.node_weights() / dA.node_weights()
    A, B = float(r.min()), float(r.max())
    dec_a, dec_b = solve_spectrum(dA, 2), solve_spectrum(dB, 2)
    Ca, Cb = poincare_estimate(dec_a), poincare_estimate(dec_b)
    ratio = Cb / Ca
    paper_lo = (A / B) ** 0.5 / 2.0
    paper_hi = 2.0 * (B / A) ** 0.5
    spec_lo = math.sqrt(A / B)
    spec_hi = math.sqrt(B / A)
    tol = 1e-9
    return VariationReport(
        A, B, Ca, Cb, ratio, paper_lo, paper_hi, spec_lo, spec_hi,
        paper_ok=bool(paper_lo * (1 - tol) <= ratio <= paper_hi * (1 + tol)),
        spectral_ok=bool(spec_lo * (1 - tol) <= ratio <= spec_hi * (1 + tol)),
        decomposition_a=dec_a, decomposition_b=dec_b,
    )


@dataclass(frozen=True)
class CRGradientReport:
    """Finite-difference |grad |F|| vs derivative-modulus |F'| per point."""

    points: np.ndarray
    fd_gradient: np.ndarray
    derivative_modulus: np.ndarray
    abs_errors: np.ndarray
    rel_errors: np.ndarray
    max_abs_error: float
    max_rel_error: float
    step: float


def cr_gradient_check(f, points, step=1e-4) -> CRGradientReport:
    """Check |grad |B f|| = |(B f)'| at the given points.

    The gradient of the modulus is taken by second-order central differences
    with the given step; the derivative modulus comes from complex-step
    differentiation of the entire closed form.  Points must keep |B f|
    above 1e-8.  Relative errors are reported where the oracle exceeds
    1e-8; absolute errors everywhere.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    fd = np.empty(len(pts))
    cs = np.empty(len(pts))
    for i, (x, w) in enumerate(pts):
        z = complex(x, w)
        if abs(bargmann_eval(f, z)) <= 1e-8:
            raise ValueError(f"point {(x, w)} is too close to a zero of the transform")
        gx = (bargmann_modulus(f, x + step, w) - bargmann_modulus(f, x - step, w)) / (2 * step)
        gw = (bargmann_modulus(f, x, w + step) - bargmann_modulus(f, x, w - step)) / (2 * step)
        fd[i] = math.hypot(gx, gw)
        cs[i] = abs(bargmann_cs_derivative(f, z))
    abs_err = np.abs(fd - cs)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(cs > 1e-8, abs_err / np.where(cs > 1e-8, cs, 1.0), 0.0)
    return CRGradientReport(
        pts, fd, cs, abs_err, rel,
        float(abs_err.max()), float(rel.max()), step,
    )
