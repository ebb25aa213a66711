"""Weighted field norms, global-phase alignment, measurement norms, and the
local-stability probe.

All integrals are midpoint-cell quadratures on the field's grid: each node
contributes |F|^p * weight * dx * dw.  Restricting with a boolean mask gives
norms over a subdomain Omega (and, with the complementary mask, the
epsilon-concentration of a spectrogram outside Omega).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gabor import gabor_fields
from .signals import GaussianSum

_SCAN = 12  # phase samples of the alignment scan
_ULPS4 = 4.0 * np.finfo(float).eps  # the alignment objective's resolution
_PHASE_TOL = 1e-10  # Brent's bracket tolerance on the phase


def _cell_lp(vals, p, area, weight=None, mask=None):
    """sum_i |v_i|^p w_i dx dw over the nodes in mask, with no root taken:
    the one midpoint-cell quadrature of every L^p term here."""
    integrand = np.abs(vals) ** p if weight is None else np.abs(vals) ** p * weight
    if mask is not None:
        integrand = integrand[np.asarray(mask, dtype=bool)]
    return float(np.sum(integrand)) * area


def _brent_min(fn, lo, hi, x, fx, flo, fhi):
    """Brent's bounded minimizer of fn on [lo, hi] from the point x in it
    with value fx, where the bracket's ends have the known values flo and
    fhi; returns (x, fn(x)) for the best point found.

    Parabolic steps through the three best points so far, golden-section
    steps when a parabola is not trusted (Brent 1973, ch. 5).  The bracket's
    ends seed the two points besides x, and the first step may already be
    parabolic.  Stops when x lies within about _PHASE_TOL of the shrinking
    bracket's midpoint, or once a new point's value is within 4 ulps of the
    best: the objective resolves nothing finer."""
    c = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = lo, hi
    (fw, w), (fv, v) = sorted([(flo, lo), (fhi, hi)])
    d = e = hi - lo
    # |x| < 7, so Brent's relative term eps * |x| is far below _PHASE_TOL / 3
    tol1 = _PHASE_TOL / 3.0
    tol2 = 2.0 * tol1
    while True:
        m = (a + b) / 2.0
        if abs(x - m) <= tol2 - (b - a) / 2.0:
            return x, fx
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                if (x + d) - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if x < m else -tol1
                golden = False
        if golden:
            e = (b - x) if x < m else (a - x)
            d = c * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = fn(u)
        if abs(fu - fx) <= _ULPS4 * abs(fx):
            return (u, fu) if fu < fx else (x, fx)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _phase_search(objective):
    """(alpha, min_alpha objective(alpha)) for a 2pi-periodic objective.

    The objective can have two local minima.  It is sampled at _SCAN
    equispaced phases (alpha = 0, a common exact minimizer, among them);
    each sample no larger than its two periodic neighbours is refined by
    Brent's method between those neighbours.  A second minimum can hide
    just outside that bracket, so each gap beyond a neighbour that is lower
    than the sample past it, and where the objective descends away from the
    low sample, is refined too.  Each refinement starts from the scan values
    at its bracket's ends and stops at the objective's rounding floor (see
    _brent_min).  The best sample or refinement wins, the first found on
    ties."""
    step = 2.0 * math.pi / _SCAN
    vals = [objective(k * step) for k in range(_SCAN)]
    k_best = min(range(_SCAN), key=vals.__getitem__)
    best = (k_best * step, vals[k_best])
    low = [vals[k] <= vals[k - 1] and vals[k] <= vals[(k + 1) % _SCAN]
           for k in range(_SCAN)]
    # brackets (lo, hi, start) in steps, each low sample's first; a one-sided
    # difference gives the slope at a neighbour j
    brackets = [(k - 1, k + 1, k) for k in range(_SCAN) if low[k]]
    for k in filter(low.__getitem__, range(_SCAN)):
        for side in (-1, 1):
            j, far = (k + side) % _SCAN, (k + 2 * side) % _SCAN
            if (not low[far] and vals[far] > vals[j]
                    and side * (objective(j * step + 1e-6) - vals[j]) < 0):
                brackets.append((min(j, j + side), max(j, j + side), j))
    for lo, hi, k in brackets:
        x, v = _brent_min(objective, lo * step, hi * step, k * step, vals[k],
                          vals[lo % _SCAN], vals[hi % _SCAN])
        if v < best[1]:
            best = (x % (2.0 * math.pi), v)
    return best


def _aligned_phase_min(a, b, p, area):
    """(alpha, min_alpha sum |a - e^{-i alpha} b|^p * area) for value arrays
    a and b, found by _phase_search.

    Each evaluation reuses one complex and one real work array and applies
    the same ufuncs to the same operands as the plain expression
    sum(|a - e^{-i alpha} b|**p), so its value keeps every bit."""
    c = np.empty(a.shape, dtype=complex)
    r = np.empty(a.shape)

    def objective(alpha):
        np.multiply(np.exp(-1j * alpha), b, out=c)
        np.subtract(a, c, out=c)
        mag = np.abs(c, out=r)
        mag **= p  # ndarray.__pow__ keeps its scalar fast paths (p = 1, 2)
        return float(np.sum(mag)) * area

    return _phase_search(objective)


def global_phase_distance(f: GaussianSum, g: GaussianSum, grid, p=2.0):
    """(alpha_star, dist) for the metric min_alpha ||G f - e^{i alpha} G g||_p
    on the grid, by the cell quadrature, for every p >= 1.

    alpha_star is the phase of g relative to f (g ~ e^{i alpha_star} f at the
    minimum).  At p = 2 the objective is one sinusoid in alpha.  The
    whole-plane L^2 distance, exact at the signal level, is
    signals.signal_phase_distance.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    Ff, Fg = gabor_fields((f, g), grid)
    alpha, val = _aligned_phase_min(Ff.values, Fg.values, p, grid.cell_area)
    return alpha % (2.0 * math.pi), val ** (1.0 / p)


def measurement_norm_D(field, p, s, k, weight):
    """Measurement-space norm: W^{k,p} norm + L^p norm + weighted s-moment,
    over the whole grid of the field, with weight an array of the grid's
    shape.

    The first two terms are unweighted; the third is
    ||(|x|+|w|)^s F||_{L^p(w)} raised to the power p, transcribing the
    printed definition literally.  The stability probe takes the same norm
    over its mask through _measurement_norm_real.

    Derivatives (k = 1) use central differences, second-order one-sided at
    the grid boundary; k must be 0 or 1.

    The field must be real-valued: real-typed, or complex-typed with an
    imaginary part that is identically zero.  The norm is computed in real
    arithmetic.
    """
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    if p < 1:
        raise ValueError("p must be >= 1")
    if np.shape(weight) != field.grid.shape:
        raise ValueError(f"weight shape {np.shape(weight)} != grid shape {field.grid.shape}")
    vals = field.values
    if np.iscomplexobj(vals):
        if np.any(vals.imag):
            raise ValueError("measurement_norm_D needs a real-valued field; "
                             "this one has a nonzero imaginary part")
        vals = vals.real
    return _measurement_norm_real(vals, field.grid, p, s, k, weight, None)


@functools.lru_cache(maxsize=4)
def _moment_factor(grid, s):
    """(|x| + |w|)^s on the grid's nodes, read-only and kept per (grid, s);
    built from the node axes by broadcasting: no mesh arrays.  An s that
    makes it overflow, or a negative s on a grid with a node at the origin,
    is refused."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        factor = (np.abs(grid.x_nodes())[:, None] + np.abs(grid.w_nodes())) ** s
    if not np.all(np.isfinite(factor)):
        raise ValueError(f"moment exponent s={s!r}: (|x| + |w|)^s is not finite"
                         " on the grid")
    factor.flags.writeable = False
    return factor


def _measurement_norm_real(vals, grid, p, s, k, weight, mask):
    """measurement_norm_D of the real value array vals on grid, with weight
    an array; the arguments are taken as already checked."""
    area = grid.cell_area
    lp_pow = _cell_lp(vals, p, area, mask=mask)
    if k == 0:
        sobolev = lp_pow ** (1.0 / p)
    else:
        fx, fw = np.gradient(vals, grid.dx, grid.dw, edge_order=2)
        sobolev = (lp_pow + _cell_lp(fx, p, area, mask=mask)
                   + _cell_lp(fw, p, area, mask=mask)) ** (1.0 / p)
    factor = _moment_factor(grid, s)
    with np.errstate(over="ignore", invalid="ignore"):
        moment = _cell_lp(factor * vals, p, area, weight, mask)
    if not math.isfinite(moment):
        raise ValueError(f"moment exponent s={s!r}: the D-norm's s-moment is not finite")
    return sobolev + lp_pow ** (1.0 / p) + moment


@dataclass(frozen=True)
class ProbeReport:
    """Lower-bound probe of the local stability constant at f.

    ratio = numerator/denominator certifies a lower bound on the smallest
    Lipschitz constant of magnitude-only recovery on the masked domain;
    infinite_ratio flags exact magnitude agreement with distinct phases.
    """

    alpha_star: float
    numerator: float
    denominator: float
    ratio: float
    infinite_ratio: bool = False


def stability_probe(
    f: GaussianSum,
    g: GaussianSum,
    mask,
    grid,
    p,
    s,
):
    """Probe the local stability constant of f against the candidate g.

    numerator: inf_alpha ||G f - e^{i alpha} G g||_{L^p(Omega)} from a
    12-phase scan refined by Brent's method; denominator: measurement norm
    (k=1) of |G f| - |G g| with weight |G f|^p.  Requires p in [1, 2) and a
    nonempty mask.
    """
    if not (1.0 <= p < 2.0):
        raise ValueError("stability probe requires p in [1, 2)")
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("mask must be nonempty")

    Ff, Fg = gabor_fields((f, g), grid)
    area = grid.cell_area
    alpha, val = _aligned_phase_min(Ff.values[mask], Fg.values[mask], p, area)
    numerator = val ** (1.0 / p)

    mag_f = Ff.magnitude()
    # |G f| - |G g| is real: the norm's core takes it without a complex copy
    denominator = _measurement_norm_real(
        mag_f.values - np.abs(Fg.values), grid, p, s, 1, mag_f.values**p, mask,
    )

    alpha = alpha % (2 * math.pi)
    if denominator > 0.0:
        return ProbeReport(alpha, numerator, denominator, numerator / denominator)
    # denominator identically zero: same magnitudes on Omega to rounding
    scale = _cell_lp(Ff.values, p, area, mask=mask)
    if numerator <= 1e-12 * scale ** (1.0 / p):
        return ProbeReport(alpha, numerator, denominator, 0.0)
    return ProbeReport(alpha, numerator, denominator, math.inf, infinite_ratio=True)
