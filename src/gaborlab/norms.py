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
from .grid import field_values, require_same_grid
from .signals import GaussianSum, signal_phase_distance

_SCAN = 12  # phase samples of the alignment scan
_ULPS4 = 4.0 * np.finfo(float).eps  # the alignment objective's resolution


def lp_field_norm(field, p, weight=None, mask=None):
    """(sum_i |F_i|^p w_i dx dw)^(1/p) over unmasked nodes.

    weight and mask must live on the same grid as the field when given as
    field objects.  p >= 1.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    grid = field.grid
    vals = np.abs(field.values)
    if weight is not None:
        if hasattr(weight, "grid"):
            require_same_grid(field, weight)
        wv = field_values(weight)
        if wv.shape != grid.shape:
            raise ValueError("weight shape does not match the grid")
    else:
        wv = None
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != grid.shape:
            raise ValueError("mask shape does not match the grid")
    integrand = vals**p if wv is None else vals**p * wv
    if mask is not None:
        integrand = integrand[mask]
    total = float(np.sum(integrand)) * grid.cell_area
    return total ** (1.0 / p)


def _brent_min(fn, lo, hi, x, fx, flo, fhi, tol):
    """Brent's bounded minimizer of fn on [lo, hi] from the point x in it
    with value fx, where the bracket's ends have the known values flo and
    fhi; returns (x, fn(x)) for the best point found.

    Parabolic steps through the three best points so far, golden-section
    steps when a parabola is not trusted (Brent 1973, ch. 5).  The bracket's
    ends seed the two points besides x, and the first step may already be
    parabolic.  Stops when x lies within about tol of the shrinking
    bracket's midpoint, or once a new point's value is within 4 ulps of the
    best: the objective resolves nothing finer."""
    c = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = lo, hi
    (fw, w), (fv, v) = sorted([(flo, lo), (fhi, hi)])
    d = e = hi - lo
    # |x| < 7, so Brent's relative term eps * |x| is far below tol / 3
    tol1 = tol / 3.0
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


def _aligned_phase_min(a, b, p, area, tol=1e-10):
    """(alpha, min_alpha sum |a - e^{-i alpha} b|^p * area) for value arrays
    a and b.

    The objective is 2pi-periodic and can have two local minima.  It is
    sampled at _SCAN equispaced phases (alpha = 0, a common exact minimizer,
    among them); each sample no larger than its two periodic neighbours is
    refined by Brent's method between those neighbours.  A second minimum
    can hide just outside that bracket, so each gap beyond a neighbour that
    is lower than the sample past it, and where the objective descends away
    from the low sample, is refined too.  Each refinement starts from the
    scan values at its bracket's ends and stops at the objective's rounding
    floor (see _brent_min).  The best sample or refinement wins, the first
    found on ties.

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
                          vals[lo % _SCAN], vals[hi % _SCAN], tol)
        if v < best[1]:
            best = (x % (2.0 * math.pi), v)
    return best


def global_phase_distance(f: GaussianSum, g: GaussianSum, grid, p=2.0):
    """(alpha_star, dist) for the metric min_alpha ||G f - e^{i alpha} G g||_p.

    alpha_star is the phase of g relative to f (g ~ e^{i alpha_star} f at the
    minimum); for p = 2 it is the argument of the discrete inner product
    <G f, G g> (conjugate-linear in the first slot) and the distance comes
    from the exact signal-level closed form
    sqrt(||f||^2 + ||g||^2 - 2 |<f, g>|).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    Ff, Fg = gabor_fields((f, g), grid)
    if p == 2.0:
        ip = complex(np.sum(np.conj(Ff.values) * Fg.values)) * grid.cell_area
        alpha = math.atan2(ip.imag, ip.real) if ip != 0 else 0.0
        return alpha, signal_phase_distance(f, g)

    alpha, val = _aligned_phase_min(Ff.values, Fg.values, p, grid.cell_area)
    return alpha % (2.0 * math.pi), val ** (1.0 / p)


def measurement_norm_D(
    field,
    p,
    s,
    k,
    weight,
    mask=None,
    consistent_powers=False,
):
    """Measurement-space norm: W^{k,p} norm + L^p norm + weighted s-moment.

    The first two terms are unweighted; the third is
    ||(|x|+|w|)^s F||_{L^p(Omega, w)} raised to the power p, transcribing the
    printed definition literally.  consistent_powers=True applies the 1/p
    root to the third term instead (the likely-intended reading).

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
    if hasattr(weight, "grid"):
        require_same_grid(field, weight)
    vals = field.values
    if np.iscomplexobj(vals):
        if np.any(vals.imag):
            raise ValueError("measurement_norm_D needs a real-valued field; "
                             "this one has a nonzero imaginary part")
        vals = vals.real
    return _measurement_norm_real(vals, field.grid, p, s, k, field_values(weight),
                                  mask, consistent_powers)


@functools.lru_cache(maxsize=4)
def _moment_factor(grid, s):
    """(|x| + |w|)^s on the grid's nodes, read-only and kept per (grid, s);
    built from the node axes by broadcasting: no mesh arrays."""
    factor = (np.abs(grid.x_nodes())[:, None] + np.abs(grid.w_nodes())) ** s
    factor.flags.writeable = False
    return factor


def _measurement_norm_real(vals, grid, p, s, k, weight, mask, consistent_powers):
    """measurement_norm_D of the real value array vals on grid, with weight
    an array; the arguments are taken as already checked."""

    def cell_lp(arr, w=None):
        integrand = np.abs(arr) ** p if w is None else np.abs(arr) ** p * w
        if mask is not None:
            integrand = integrand[np.asarray(mask, dtype=bool)]
        return float(np.sum(integrand)) * grid.cell_area

    lp_pow = cell_lp(vals)
    if k == 0:
        sobolev = lp_pow ** (1.0 / p)
    else:
        fx, fw = np.gradient(vals, grid.dx, grid.dw, edge_order=2)
        sobolev = (lp_pow + cell_lp(fx) + cell_lp(fw)) ** (1.0 / p)

    moment_pow = cell_lp(_moment_factor(grid, s) * vals, weight)
    moment = moment_pow ** (1.0 / p) if consistent_powers else moment_pow

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
    denominator_mask=None,
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
    if denominator_mask is None:
        denominator_mask = mask
    else:
        denominator_mask = np.asarray(denominator_mask, dtype=bool)

    Ff, Fg = gabor_fields((f, g), grid)
    area = grid.cell_area
    alpha, val = _aligned_phase_min(Ff.values[mask], Fg.values[mask], p, area)
    numerator = val ** (1.0 / p)

    mag_f = Ff.magnitude()
    # |G f| - |G g| is real: the norm's core takes it without a complex copy
    denominator = _measurement_norm_real(
        mag_f.values - np.abs(Fg.values), grid, p, s, 1, mag_f.values**p,
        denominator_mask, consistent_powers=False,
    )

    alpha = alpha % (2 * math.pi)
    if denominator > 0.0:
        return ProbeReport(alpha, numerator, denominator, numerator / denominator)
    # denominator identically zero: same magnitudes on Omega to rounding
    scale = float(np.sum(np.abs(Ff.values[mask]) ** p)) * area
    if numerator <= 1e-12 * scale ** (1.0 / p):
        return ProbeReport(alpha, numerator, denominator, 0.0)
    return ProbeReport(alpha, numerator, denominator, math.inf, infinite_ratio=True)
