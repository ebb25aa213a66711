"""Discrete weighted Neumann Laplacian on spectrogram-weighted domains.

The masked grid nodes carry the measure d mu = w dx dw.  A 5-point stencil
with edge conductances (mean of the endpoint weights, scaled by transverse
over longitudinal spacing) discretizes the Dirichlet energy
int |grad h|^2 d mu; the diagonal mass matrix discretizes int h^2 d mu.
Edges leaving the mask or the grid are simply absent, which is the discrete
Neumann condition.  The first nontrivial eigenvalue of the pencil (S, M)
gives the weighted Poincare constant 1/sqrt(lambda_1) at p = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh
from scipy.sparse.csgraph import connected_components

from .gabor import bargmann_cs_derivative, bargmann_eval, bargmann_modulus
from .grid import TFGrid, field_values

DEFAULT_FLOOR_REL = 1e-14
# bound on ||S u - lambda M u|| / ||M u|| for every pair solve_spectrum returns
RESIDUAL_CONTRACT = 1e-8


class SolverConvergenceError(RuntimeError):
    """Eigensolver failed to converge; carries the residual norms seen."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


@dataclass(eq=False)
class WeightedDomain:
    """Masked grid with strictly positive node weights (the discrete (Omega, mu))."""

    grid: TFGrid
    mask: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)
    p_exponent: float | None
    floor_applied: float
    _ops: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        self.weight = np.asarray(self.weight, dtype=float)
        if self.mask.shape != self.grid.shape or self.weight.shape != self.grid.shape:
            raise ValueError("mask/weight shape must match the grid")
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

    def total_mass(self):
        return float(self.masses().sum())

    def operators(self):
        if self._ops is None:
            self._ops = assemble_operators(self)
        return self._ops


def build_weighted_domain(mag, p, mask, floor_rel=DEFAULT_FLOOR_REL) -> WeightedDomain:
    """Domain with weight max(|G f|^p, floor_rel * max |G f|^p) on the mask."""
    if not (0.0 < floor_rel <= 1e-6):
        raise ValueError("floor_rel must lie in (0, 1e-6]")
    vals = field_values(mag) ** p
    floor = floor_rel * float(vals.max())
    if floor <= 0:
        raise ValueError("magnitude field is identically zero")
    return WeightedDomain(mag.grid, mask, np.maximum(vals, floor), float(p), floor)


def weighted_domain_from_values(grid, values, mask=None, floor_rel=DEFAULT_FLOOR_REL,
                                p_exponent=None) -> WeightedDomain:
    """Domain from a synthetic weight array (already the measure density)."""
    if not (0.0 < floor_rel <= 1e-6):
        raise ValueError("floor_rel must lie in (0, 1e-6]")
    values = np.asarray(values, dtype=float)
    if mask is None:
        mask = np.ones(grid.shape, dtype=bool)
    floor = floor_rel * float(values.max())
    return WeightedDomain(grid, mask, np.maximum(values, floor), p_exponent, floor)


def assemble_operators(domain: WeightedDomain):
    """(stiffness, mass): sparse SPSD stiffness and the diagonal of the mass.

    Edge conductance between adjacent masked nodes is the arithmetic mean of
    the endpoint weights times (transverse spacing / longitudinal spacing);
    the quadratic form h^T S h then equals the midpoint-cell quadrature of
    int |grad h|^2 d mu with one-sided differences along edges.
    """
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

    @property
    def m(self):
        return len(self.eigenvalues) - 1


def solve_spectrum(domain: WeightedDomain, m: int) -> SpectralDecomposition:
    """Smallest m+1 eigenpairs of (S, M), mu-orthonormal, residual-checked.

    One LU of S + c M (c from _shift_scale) drives shift-invert Lanczos and
    then two block inverse-iteration steps; a Rayleigh-Ritz projection of the
    pencil onto that block gives the pairs.  When the Lanczos subspace would
    span every node, the projection is onto all nodes instead: a dense solve.
    """
    n = domain.n_nodes
    if m < 2:
        raise ValueError("m must be >= 2")
    if m >= n:
        raise ValueError("m must be below the node count")
    S, mass = domain.operators()
    # a few buffer modes: the last Ritz pairs of a Krylov subspace converge worst
    k = m + 4
    ncv = min(max(20, 4 * k), n)
    if ncv == n:
        # the Krylov subspace would cover every node: project onto all of
        # them, mass-scaled so that the basis is mu-orthonormal and the
        # projected pencil is (M^-1/2 S M^-1/2, I), a standard problem
        basis, gram = np.diag(1.0 / np.sqrt(mass)), None
    else:
        basis = _shift_invert_basis(domain, S, mass, k, ncv)
        gram = (basis.T * mass) @ basis

    lam, C = eigh(basis.T @ (S @ basis), gram, overwrite_a=True)
    lam, U = lam[: m + 1], basis @ C[:, : m + 1]
    if U[:, 0].sum() < 0:
        U[:, 0] = -U[:, 0]

    residuals = _residual_norms(S, mass, lam, U)
    if np.any(residuals > RESIDUAL_CONTRACT):
        raise SolverConvergenceError(
            "eigenpair residuals exceed tolerance", residuals
        )
    return SpectralDecomposition(np.asarray(lam, dtype=float), U, domain)


def _shift_invert_basis(domain, S, mass, k, ncv):
    """k Ritz vectors of (S, M) near the bottom of the spectrum, refined.

    S + c M with c near the lambda_1 scale is SPD and well conditioned, and
    shift-invert at -c orders the smallest pencil eigenvalues first.  SPD
    needs no pivoting, so a symmetric fill-reducing ordering holds the LU to
    about half the fill of the default column ordering.  The fixed start
    vector makes the solve the same from run to run, and the LU is freed on
    return, before the caller allocates the eigenvectors it keeps.
    """
    n = len(mass)
    shift = _shift_scale(domain, S, mass)
    lu = spla.splu((S + shift * sp.diags(mass)).tocsc(),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                   options={"SymmetricMode": True})
    try:
        _, basis = spla.eigsh(
            S, k=k, M=sp.diags(mass), sigma=-shift, which="LM", tol=0,
            ncv=ncv, OPinv=spla.LinearOperator((n, n), lu.solve, dtype=float),
            v0=np.random.default_rng(0).standard_normal(n),
        )
    except spla.ArpackNoConvergence as exc:
        raise SolverConvergenceError(
            f"ARPACK did not converge for {k} pairs on {n} nodes",
            getattr(exc, "eigenvalues", None),
        ) from exc
    # floored weights span ~14 decades; inverse iteration with the same
    # LU brings the Ritz block's residuals under the contract
    for _ in range(2):
        basis = lu.solve(mass[:, None] * basis)
    return basis


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
    res = np.empty(len(lam))
    for k in range(len(lam)):
        u = U[:, k]
        r = S @ u - lam[k] * (mass * u)
        res[k] = np.linalg.norm(r) / max(np.linalg.norm(mass * u), 1e-300)
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
    nonnegative up to rounding.
    """
    if not (1 <= k < dec.m):
        raise ValueError("k must satisfy 1 <= k < m")
    domain = dec.domain
    S, mass = domain.operators()
    h = np.asarray(h, dtype=float)
    if h.shape == domain.grid.shape:
        h = h[domain.mask]
    lhs = float(h @ (mass * h))
    coeffs = dec.eigenvectors.T @ (mass * h)
    mean_term = float(coeffs[0] ** 2)
    proj = dec.eigenvectors[:, 1 : k + 1] @ coeffs[1 : k + 1]
    mid_term = float(proj @ (S @ proj)) / dec.eigenvalues[1]
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


def variation_bound_check(dA: WeightedDomain, dB: WeightedDomain, p=2.0,
                          m=2) -> VariationReport:
    """Compare Poincare constants of two weights on the same masked grid.

    Asserts the two-sided factor-2 bound (A/B)^{1/p}/2 <= C'/C <=
    2 (B/A)^{1/p} and the sharper pencil bound sqrt(A/B) <= C'/C <=
    sqrt(B/A).  Only the spectral route p = 2 is computable here.
    """
    if p != 2.0:
        raise ValueError("only p = 2 is spectrally computable")
    if dA.grid != dB.grid or not np.array_equal(dA.mask, dB.mask):
        raise ValueError("domains must share grid and mask")
    r = dB.node_weights() / dA.node_weights()
    A, B = float(r.min()), float(r.max())
    Ca = poincare_estimate(solve_spectrum(dA, m))
    Cb = poincare_estimate(solve_spectrum(dB, m))
    ratio = Cb / Ca
    paper_lo = (A / B) ** (1.0 / p) / 2.0
    paper_hi = 2.0 * (B / A) ** (1.0 / p)
    spec_lo = math.sqrt(A / B)
    spec_hi = math.sqrt(B / A)
    tol = 1e-9
    return VariationReport(
        A, B, Ca, Cb, ratio, paper_lo, paper_hi, spec_lo, spec_hi,
        paper_ok=bool(paper_lo * (1 - tol) <= ratio <= paper_hi * (1 + tol)),
        spectral_ok=bool(spec_lo * (1 - tol) <= ratio <= spec_hi * (1 + tol)),
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


def cr_gradient_check(f, points, step=1e-4, rel_floor=1e-8) -> CRGradientReport:
    """Check |grad |B f|| = |(B f)'| at the given points.

    The gradient of the modulus is taken by second-order central differences
    with the given step; the derivative modulus comes from complex-step
    differentiation of the entire closed form.  Points must keep |B f|
    above 1e-8.  Relative errors are reported where the oracle exceeds
    rel_floor; absolute errors everywhere.
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
        rel = np.where(cs > rel_floor, abs_err / np.where(cs > rel_floor, cs, 1.0), 0.0)
    return CRGradientReport(
        pts, fd, cs, abs_err, rel,
        float(abs_err.max()), float(rel.max()), step,
    )
