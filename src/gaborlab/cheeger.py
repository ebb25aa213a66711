"""Candidate-cut upper bounds for the Cheeger constant of weighted domains.

A cut splits the domain into D and its complement; its ratio is the
1D-quadrature weight mass along the cut boundary inside the domain divided
by the cell-quadrature mass of the lighter side (which automatically obeys
the half-mass constraint).  The minimum over a cut family upper-bounds the
Cheeger constant; the cut family is restricted to vertical lines and
origin-centered circles.  Cheeger's inequality lambda_1 >= h^2 / 4 bounds
the constant itself by 2 sqrt(lambda_1), so a family whose best ratio
exceeds that bound has missed the domain's bottleneck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import DEFAULT_FLOOR_REL, TFGrid
from .spectral import (
    SpectralDecomposition,
    WeightedDomain,
    weighted_domain_from_values,
)

CUT_KINDS = ("vertical_line", "circle")


class InadmissibleCutError(ValueError):
    """Cut misses the domain or fails to separate any mass."""


@dataclass(frozen=True)
class Cut:
    kind: str
    parameter: float  # x-position for vertical_line, radius for circle

    def __post_init__(self):
        if self.kind not in CUT_KINDS:
            raise ValueError(f"unknown cut kind {self.kind!r}")
        if not math.isfinite(self.parameter):
            raise ValueError(f"cut parameter must be finite, got {self.parameter!r}")
        if self.kind == "circle" and self.parameter <= 0:
            raise ValueError("circle radius must be positive")


@dataclass(frozen=True)
class CheegerReport:
    best_cut: Cut
    h_upper: float
    lambda_1: float
    cheeger_bound: float  # 2 sqrt(lambda_1), by Cheeger's inequality
    within_cheeger_bound: bool  # h_upper <= cheeger_bound


class _CutTable:
    """Per-domain sums that every cut reads; built once, cached on the domain."""

    def __init__(self, domain: WeightedDomain):
        grid, mask = domain.grid, domain.mask
        self.xs, self.ws = grid.x_nodes(), grid.w_nodes()
        self.dx, self.dw, self.area = grid.dx, grid.dw, grid.cell_area
        self.x_left = self.xs - self.dx / 2.0  # left edge of each node's cell
        w = np.where(mask, domain.weight, 0.0)
        self.col_mass = w.sum(axis=1) * self.area
        # both sides are summed directly: subtracting one side from the total
        # cancels catastrophically when that side carries almost all the mass
        self.left = np.concatenate(([0.0], np.cumsum(self.col_mass)))
        self.right = np.concatenate((np.cumsum(self.col_mass[::-1])[::-1], [0.0]))
        wt = self.weight = domain.weight
        self.cell_ok = mask[:-1, :-1] & mask[1:, :-1] & mask[:-1, 1:] & mask[1:, 1:]
        # the weight at each cell's four corners and the cell's flag, flat and
        # contiguous so that one cell index of a circle point reads all five
        self.corners = (wt[:-1, :-1].ravel(), wt[1:, :-1].ravel(),
                        wt[:-1, 1:].ravel(), wt[1:, 1:].ravel(), self.cell_ok.ravel())
        r2 = (self.xs[:, None] ** 2 + self.ws[None, :] ** 2)[mask]
        order = np.argsort(r2)
        self.r2, node_w = r2[order], domain.weight[mask][order]
        self.inner = np.concatenate(([0.0], np.cumsum(node_w)))
        self.outer = np.concatenate((np.cumsum(node_w[::-1])[::-1], [0.0]))


def _cut_table(domain: WeightedDomain) -> _CutTable:
    if domain._cuts is None:
        domain._cuts = _CutTable(domain)
    return domain._cuts


def _vertical_side_masses(domain: WeightedDomain, c):
    """(mass of {x < c}, mass of {x > c}) with boundary cells split by coverage."""
    t = _cut_table(domain)
    frac = (c - t.x_left) / t.dx
    # frac falls with x: full columns (>= 1), then the partly covered ones,
    # strictly inside (0, 1), then none (<= 0)
    full, some = int(np.count_nonzero(frac >= 1.0)), int(np.count_nonzero(frac > 0.0))
    part, cover = t.col_mass[full:some], frac[full:some]
    return (float(t.left[full] + (part * cover).sum()),
            float(t.right[some] + (part * (1.0 - cover)).sum()))


def _vertical_boundary_integral(domain: WeightedDomain, c):
    """Trapezoid of the bilinearly interpolated weight along x = c in Omega."""
    t = _cut_table(domain)
    xs = t.xs
    if not (xs[0] <= c <= xs[-1]):
        return 0.0
    i = min(int((c - xs[0]) / t.dx), len(xs) - 2)
    s = (c - xs[i]) / t.dx
    line_w = (1.0 - s) * t.weight[i] + s * t.weight[i + 1]
    seg = 0.5 * (line_w[:-1] + line_w[1:]) * t.dw
    return float(seg[t.cell_ok[i]].sum())


def _circle_side_masses(domain: WeightedDomain, r):
    t = _cut_table(domain)
    # side="right" counts the nodes with x^2 + w^2 <= r^2, as a mask would.
    # Python floats square a radius past sqrt(max double) to inf with no
    # error or warning: every node is then inside, and one side is empty
    k = int(np.searchsorted(t.r2, float(r) * float(r), side="right"))
    return float(t.inner[k]) * t.area, float(t.outer[k]) * t.area


def circle_point_count(r, dx, dw):
    """The angles that the circle of radius r samples on a grid of spacings dx, dw."""
    return max(512, int(8.0 * 2.0 * math.pi * r / min(dx, dw)))


def _circle_boundary_integral(domain: WeightedDomain, r):
    """Equal-angle sum of the bilinearly interpolated weight along the circle
    of radius r, over the points whose grid cell lies in Omega."""
    t = _cut_table(domain)
    xs, ws = t.xs, t.ws
    n_theta = circle_point_count(r, t.dx, t.dw)
    # the same bits as np.linspace(0, 2 pi, n_theta, endpoint=False)
    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    x = r * np.cos(theta)
    w = r * np.sin(theta)
    ix = ((x - xs[0]) / t.dx).astype(int)
    iw = ((w - ws[0]) / t.dw).astype(int)
    np.minimum(np.maximum(ix, 0, out=ix), len(xs) - 2, out=ix)
    np.minimum(np.maximum(iw, 0, out=iw), len(ws) - 2, out=iw)
    tx = (x - xs.take(ix)) / t.dx
    tw = (w - ws.take(iw)) / t.dw
    ux, uw = 1 - tx, 1 - tw
    w00, w10, w01, w11, cell_ok = t.corners
    cell = ix * (len(ws) - 1) + iw
    val = (w00.take(cell) * ux * uw + w10.take(cell) * tx * uw
           + w01.take(cell) * ux * tw + w11.take(cell) * tx * tw)
    ok = cell_ok.take(cell)
    # |fl(r cos theta)| <= r: when [-r, r]^2 lies in the grid, every point does
    if not (xs[0] <= -r and r <= xs[-1] and ws[0] <= -r and r <= ws[-1]):
        ok &= (x >= xs[0]) & (x <= xs[-1]) & (w >= ws[0]) & (w <= ws[-1])
    return float(val[ok].sum()) * r * (2.0 * math.pi / n_theta)


def cut_ratio(domain: WeightedDomain, cut: Cut) -> float:
    """Boundary-to-bulk weighted mass ratio of the admissible side of a cut.

    The domain weight is already the p-th power measure density, so the
    ratio needs no exponent.
    """
    if cut.kind == "vertical_line":
        side_masses, boundary_integral = _vertical_side_masses, _vertical_boundary_integral
    else:
        side_masses, boundary_integral = _circle_side_masses, _circle_boundary_integral
    side = min(side_masses(domain, cut.parameter))
    # an empty side is refused before the boundary is sampled: the circle
    # quadrature grows with r, and a circle with mass on both sides stays
    # within the mask's reach
    boundary = boundary_integral(domain, cut.parameter) if side > 0.0 else 0.0
    if boundary <= 0.0:
        raise InadmissibleCutError(f"{cut} does not separate the domain")
    return boundary / side


def cheeger_upper_bound(domain: WeightedDomain, family, *,
                        decomposition: SpectralDecomposition) -> CheegerReport:
    """Best (smallest) cut ratio over the family, against Cheeger's inequality.

    As in cut_ratio, the domain weight is already the measure density.
    decomposition is the caller's solve of this domain's pencil, which
    gives lambda_1; a solve of another domain is refused.  The Cheeger
    constant h obeys lambda_1 >= h^2 / 4 (Cheeger 1970), so h <= 2
    sqrt(lambda_1): within_cheeger_bound is false when the family's best
    ratio exceeds that bound, that is, when no cut of the family comes
    near the bottleneck.
    """
    if decomposition.domain is not domain:
        raise ValueError("decomposition is a solve of another domain")
    best = None
    for cut in family:
        try:
            ratio = cut_ratio(domain, cut)
        except InadmissibleCutError:
            continue
        if best is None or ratio < best[1]:
            best = (cut, ratio)
    if best is None:
        raise InadmissibleCutError("no admissible cut in the family")
    lam1 = float(decomposition.eigenvalues[1])
    bound = 2.0 * math.sqrt(lam1)
    return CheegerReport(
        best_cut=best[0],
        h_upper=best[1],
        lambda_1=lam1,
        cheeger_bound=bound,
        within_cheeger_bound=bool(best[1] <= bound),
    )


def vertical_cut_family(x_lo, x_hi, count):
    return [Cut("vertical_line", c) for c in np.linspace(x_lo, x_hi, count)]


def circle_cut_family(r_lo, r_hi, count):
    return [Cut("circle", r) for r in np.linspace(r_lo, r_hi, count)]


def dumbbell_weight(
    separation,
    bridge_height,
    bump_sigma,
    grid: TFGrid,
    corridor_sigma=None,
    floor_rel=DEFAULT_FLOOR_REL,
) -> WeightedDomain:
    """Two Gaussian bumps joined by a thin corridor along the x-axis.

    weight = bump(-separation/2) + bump(+separation/2)
           + bridge_height * exp(-w^2 / (2 corridor_sigma^2)) on |x| <= separation/2.

    The corridor is kept narrow by default (bump_sigma / 4) so its mass stays
    small against the bumps; pass corridor_sigma explicitly to widen it.
    """
    if separation <= 4.0 * bump_sigma:
        raise ValueError("separation must exceed 4 * bump_sigma")
    if not (0.0 < bridge_height <= 1.0):
        raise ValueError("bridge_height must lie in (0, 1]")
    if corridor_sigma is None:
        corridor_sigma = bump_sigma / 4.0
    # the Gaussians divide by 2 sigma^2
    for name, sigma in (("sigma", bump_sigma), ("corridor_sigma", corridor_sigma)):
        if not np.finfo(float).tiny <= 2.0 * sigma * sigma < math.inf:
            raise ValueError(f"{name}={sigma!r}: 2 {name}^2 is not a positive normal double")
    X, W = grid.mesh()
    s2 = 2.0 * bump_sigma**2
    vals = np.exp(-((X + separation / 2.0) ** 2 + W**2) / s2)
    vals += np.exp(-((X - separation / 2.0) ** 2 + W**2) / s2)
    corridor = bridge_height * np.exp(-(W**2) / (2.0 * corridor_sigma**2))
    vals += np.where(np.abs(X) <= separation / 2.0, corridor, 0.0)
    return weighted_domain_from_values(grid, vals, floor_rel=floor_rel)
