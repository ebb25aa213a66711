"""Weighted field norms, global-phase alignment, measurement norms, and the
local-stability probe.

All integrals are midpoint-cell quadratures on the field's grid: each node
contributes |F|^p * weight * dx * dw.  Restricting with a boolean mask gives
norms over a subdomain Omega (and, with the complementary mask, the
epsilon-concentration of a spectrogram outside Omega).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gabor import gabor_field
from .grid import ComplexField, field_values, require_same_grid
from .signals import GaussianSum, signal_phase_distance

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


def golden_section_min(fn, lo, hi, tol=1e-10, max_iter=200):
    """Golden-section minimum of a unimodal fn on [lo, hi]; returns (x, fn(x))."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    x = (a + b) / 2.0
    return x, fn(x)


def _aligned_phase_min(a, b, p, area, tol=1e-10):
    """(alpha, min_alpha sum |a - e^{-i alpha} b|^p * area) for value arrays
    a and b.

    The objective is smooth and 2pi-periodic; golden section is restarted on
    the three thirds of [0, 2pi) to dodge local minima.  The restart points
    themselves are also evaluated: golden section never lands exactly on a
    bracket endpoint, and alpha = 0 is a common exact minimizer."""

    def objective(alpha):
        diff = np.abs(a - np.exp(-1j * alpha) * b)
        return float(np.sum(diff**p)) * area

    best = (0.0, objective(0.0))
    third = 2.0 * math.pi / 3.0
    for k in range(3):
        lo = k * third
        x, v = golden_section_min(objective, lo, lo + third, tol=tol)
        if v < best[1]:
            best = (x, v)
        v_edge = objective(lo)
        if v_edge < best[1]:
            best = (lo, v_edge)
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
    Ff = gabor_field(f, grid)
    Fg = gabor_field(g, grid)
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
    q=None,
):
    """Measurement-space norm: W^{k,p} norm + L^p norm + weighted s-moment.

    The first two terms are unweighted; the third is
    ||(|x|+|w|)^s F||_{L^p(Omega, w)} raised to the power p, transcribing the
    printed definition literally.  consistent_powers=True applies the 1/p
    root to the third term instead (the likely-intended reading).  The
    parameter q is accepted for interface compatibility and ignored.

    Derivatives (k = 1) use central differences, second-order one-sided at
    the grid boundary; k must be 0 or 1.
    """
    del q  # recorded by callers, never used in the value
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    if p < 1:
        raise ValueError("p must be >= 1")
    grid = field.grid
    if hasattr(weight, "grid"):
        require_same_grid(field, weight)
    vals = field.values

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

    X, W = grid.mesh()
    moment_factor = (np.abs(X) + np.abs(W)) ** s
    moment_pow = cell_lp(moment_factor * vals, field_values(weight))
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
    consistent_powers=False,
):
    """Probe the local stability constant of f against the candidate g.

    numerator: inf_alpha ||G f - e^{i alpha} G g||_{L^p(Omega)} via golden
    section; denominator: measurement norm (k=1) of |G f| - |G g| with
    weight |G f|^p.  Requires p in [1, 2) and a nonempty mask.
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

    Ff = gabor_field(f, grid)
    Fg = gabor_field(g, grid)
    area = grid.cell_area
    alpha, val = _aligned_phase_min(Ff.values[mask], Fg.values[mask], p, area)
    numerator = val ** (1.0 / p)

    mag_f = Ff.magnitude()
    mag_diff_values = mag_f.values - np.abs(Fg.values)
    diff_field = ComplexField(grid, mag_diff_values.astype(complex))
    denominator = measurement_norm_D(
        diff_field,
        p,
        s,
        k=1,
        weight=mag_f.values**p,
        mask=denominator_mask,
        consistent_powers=consistent_powers,
    )

    alpha = alpha % (2 * math.pi)
    if denominator > 0.0:
        return ProbeReport(alpha, numerator, denominator, numerator / denominator)
    # denominator identically zero: same magnitudes on Omega to rounding
    scale = float(np.sum(np.abs(Ff.values[mask]) ** p)) * area
    if numerator <= 1e-12 * scale ** (1.0 / p):
        return ProbeReport(alpha, numerator, denominator, 0.0)
    return ProbeReport(alpha, numerator, denominator, math.inf, infinite_ratio=True)
