"""Independent references that the tests check the package against.

No command and no benchmark workload calls these, so they live with the
tests: the time-domain values of a Gaussian sum and the defining integral
that the Gabor closed form is checked against, the Bargmann transform and
the Cauchy-Riemann gradient identity of the closing argument, the fpm
closed-form magnitude, the L^p field norm, the node masses and Rayleigh
quotient of a weighted domain, the exact inner product, a CSV reader for
the written fields, and cell-centered grids for unit-square quadratures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gaborlab.grid import MagnitudeField, TFGrid
from gaborlab.norms import _cell_lp
from gaborlab.signals import GaussianSum, _scaled_inner
from gaborlab.spectral import WeightedDomain

GAUSSIAN_PEAK = 2.0 ** 0.25
_LOG_HUGE = math.log(np.finfo(float).max)


def cell_centered(x0, x1, w0, w1, nx, nw):
    """Grid whose nodes are the cell midpoints of an exact tiling of
    [x0, x1] x [w0, w1]; useful when the quadrature cells must cover a
    prescribed rectangle exactly (e.g. unit-square oracles)."""
    dx = (x1 - x0) / nx
    dw = (w1 - w0) / nw
    return TFGrid(x0 + dx / 2, x1 - dx / 2, w0 + dw / 2, w1 - dw / 2, nx, nw)


def evaluate(f: GaussianSum, t):
    """Time-domain values sum_j c_j e^{2 pi i b_j t} phi(t - u_j)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for a in f.atoms:
        out += (
            a.coeff
            * np.exp(2j * np.pi * a.modulation * t)
            * GAUSSIAN_PEAK
            * np.exp(-np.pi * (t - a.shift) ** 2)
        )
    return out if out.shape else complex(out)


def gabor_quadrature_oracle(f: GaussianSum, x, w, step=1e-2):
    """Trapezoid approximation of the defining integral.

    Parameters
    ----------
    f : GaussianSum
    x, w : float
        Evaluation point in the time-frequency plane.
    step : float
        Uniform trapezoid step, > 0.

    The interval covers x and every atom center, extended by 8 on each side.
    For this entire, Gaussian-decaying integrand the trapezoid rule converges
    exponentially (Trefethen & Weideman, SIAM Review 2014), so the default
    step is already at rounding level.

    Independent of the closed-form code path on purpose: this is the oracle
    the closed form is tested against.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if f.is_zero:
        return 0j
    shifts = [a.shift for a in f.atoms]
    lo = min(float(np.min(shifts)), x) - 8.0
    hi = max(float(np.max(shifts)), x) + 8.0
    t = np.arange(lo, hi + step, step)
    ft = evaluate(f, t)
    integrand = (
        GAUSSIAN_PEAK * ft * np.exp(-np.pi * (t - x) ** 2) * np.exp(-2j * np.pi * t * w)
    )
    return complex(np.trapezoid(integrand, dx=step))


# ---------------------------------------------------------------------------
# Bargmann transform: B f(z) relates to the Gabor transform through
# |B f(x + i w)| = |G f(x, -w)| exp(pi (x^2 + w^2) / 2).  For an atom the
# entire-function closed form is
#     B (c M_b T_u phi)(z) = c exp(pi z (u + i b) - pi u^2 + (pi/2)(u + i b)^2).
# ---------------------------------------------------------------------------


def _bargmann_sum(f: GaussianSum, z, factors):
    """(m, s) with sum_j factors_j exp(g_j(z)) = e^m s, where g_j(z) is the
    exponent of atom j and m the largest Re g_j(z): the max-factored sum,
    whose terms stay within the double range.  The zero signal gives
    m = -inf and s = 0."""
    z = np.asarray(z, dtype=complex)
    if f.is_zero:
        return np.full(z.shape, -np.inf), np.zeros(z.shape, dtype=complex)
    gs = []
    for a in f.atoms:
        ub = a.shift + 1j * a.modulation
        q = -np.pi * a.shift**2 + (np.pi / 2.0) * ub * ub
        gs.append(np.pi * z * ub + q)
    m = np.max([np.real(g) for g in gs], axis=0)
    return m, sum(c * np.exp(g - m) for c, g in zip(factors, gs))


def bargmann_eval(f: GaussianSum, z):
    """B f(z) for complex z (scalar or array)."""
    m, s = _bargmann_sum(f, z, [a.coeff for a in f.atoms])
    return np.exp(m) * s


def bargmann_derivative(f: GaussianSum, z):
    """Analytic derivative (B f)'(z) from the closed form: atom j's term
    gains the factor pi (u_j + i b_j)."""
    factors = [a.coeff * (np.pi * (a.shift + 1j * a.modulation)) for a in f.atoms]
    m, s = _bargmann_sum(f, z, factors)
    return np.exp(m) * s


def bargmann_modulus(f: GaussianSum, x, w):
    """|B f| at z = x + i w, i.e. |G f(x, -w)| exp(pi (x^2 + w^2)/2).

    Computed in log space; returns +inf when the result exceeds the double
    range (overflow flag per contract).
    """
    m, s = _bargmann_sum(f, complex(x, w), [a.coeff for a in f.atoms])
    mag = abs(s)
    if mag == 0.0:
        return 0.0
    log_total = m + math.log(mag)
    if log_total > _LOG_HUGE:
        return math.inf
    return math.exp(log_total)


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
    with the given step; the derivative modulus is that of
    bargmann_derivative.  Points must keep |B f| above 1e-8.  Relative
    errors are reported where the derivative modulus exceeds 1e-8; absolute
    errors everywhere.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    fd = np.empty(len(pts))
    dm = np.empty(len(pts))
    for i, (x, w) in enumerate(pts):
        z = complex(x, w)
        if abs(bargmann_eval(f, z)) <= 1e-8:
            raise ValueError(f"point {(x, w)} is too close to a zero of the transform")
        gx = (bargmann_modulus(f, x + step, w) - bargmann_modulus(f, x - step, w)) / (2 * step)
        gw = (bargmann_modulus(f, x, w + step) - bargmann_modulus(f, x, w - step)) / (2 * step)
        fd[i] = math.hypot(gx, gw)
        dm[i] = abs(bargmann_derivative(f, z))
    abs_err = np.abs(fd - dm)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(dm > 1e-8, abs_err / np.where(dm > 1e-8, dm, 1.0), 0.0)
    return CRGradientReport(
        pts, fd, dm, abs_err, rel,
        float(abs_err.max()), float(rel.max()), step,
    )


# ---------------------------------------------------------------------------
# Closed forms and quadratures that the package computes another way
# ---------------------------------------------------------------------------


def fpm_magnitude_closed(a, gamma, sign, x, w):
    """|G f_pm|(x, w) = e^{-pi(x^2+w^2)/2} |1 +- i gamma e^{(pi/a)(x - i w)}
    e^{-pi/(2a^2)}|, evaluated in log-magnitude form so large x/a cannot
    overflow."""
    if a <= 0 or gamma <= 0:
        raise ValueError("a and gamma must be positive")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    # second term = exp(L + i theta); factor out max(L, 0) so the bracket
    # |1 + e^{L + i theta}| = e^{max(L,0)} |1 + e^{-|L| + i theta}| never
    # overflows (conjugation leaves the modulus unchanged)
    L = math.log(gamma) + (np.pi / a) * x - math.pi / (2.0 * a * a)
    theta = sign * (np.pi / 2.0) - (np.pi / a) * w
    inner = np.abs(1.0 + np.exp(-np.abs(L) + 1j * theta))
    log_env = -np.pi * (x * x + w * w) / 2.0 + np.maximum(L, 0.0)
    with np.errstate(divide="ignore"):
        out = np.where(inner == 0.0, 0.0, np.exp(log_env + np.log(
            np.where(inner == 0.0, 1.0, inner))))
    return out if out.shape else float(out)


def lp_field_norm(field, p, weight=None, mask=None):
    """(sum_i |F_i|^p w_i dx dw)^(1/p) over unmasked nodes.

    weight and mask must live on the same grid as the field when given as
    field objects.  p >= 1.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    grid = field.grid
    if weight is not None:
        if hasattr(weight, "grid") and weight.grid != grid:
            raise ValueError("fields live on different grids")
        weight = np.asarray(getattr(weight, "values", weight))
        if weight.shape != grid.shape:
            raise ValueError("weight shape does not match the grid")
    if mask is not None and np.shape(mask) != grid.shape:
        raise ValueError("mask shape does not match the grid")
    return _cell_lp(field.values, p, grid.cell_area, weight, mask) ** (1.0 / p)


def node_masses(domain: WeightedDomain):
    """The node masses weight * dx * dw of the domain, in node order."""
    return domain.node_weights() * domain.grid.cell_area


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


def signal_inner(f: GaussianSum, g: GaussianSum) -> complex:
    """L2 inner product <f, g>, conjugate-linear in f, exact via atom overlaps.

    Raises OverflowError where |<f, g>| exceeds the double range."""
    s, e = _scaled_inner(f, g)
    return complex(math.ldexp(s.real, e), math.ldexp(s.imag, e))


def read_field_csv(path):
    """Reconstruct a MagnitudeField from the CSV text of io.field_csv_text."""
    xs, ws, vs = [], [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "x,omega,value":
            raise ValueError(f"unexpected CSV header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            a, b, c = line.split(",")
            xs.append(float(a))
            ws.append(float(b))
            vs.append(float(c))
    xs = np.array(xs)
    ws = np.array(ws)
    vs = np.array(vs)
    nw = 1
    while nw < len(xs) and xs[nw] == xs[0]:
        nw += 1
    nx = len(xs) // nw
    grid = TFGrid(xs[0], xs[-1], ws[0], ws[nw - 1], nx, nw)
    return MagnitudeField(grid, vs.reshape(nx, nw))
