"""Gabor and Bargmann transforms of Gaussian sums.

The Gabor transform used throughout is
    G f(x, w) = 2^{1/4} int f(t) exp(-pi (t-x)^2) exp(-2 pi i t w) dt,
and for the window itself G phi(x, w) = exp(-pi i x w) exp(-pi (x^2+w^2)/2).
Combining that closed form with the shift/modulation covariance of the
transform gives the single-atom closed form

    G (c M_b T_u phi)(x, w)
        = c exp(-2 pi i u (w-b)) G phi(x-u, w-b)
        = c exp(-2 pi i u (w-b)) exp(-pi i (x-u)(w-b))
            exp(-pi ((x-u)^2 + (w-b)^2) / 2),

which is validated against a quadrature oracle rather than trusted.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .grid import ComplexField, MagnitudeField, TFGrid
from .signals import GAUSSIAN_PEAK, GaussianSum

_LOG_HUGE = math.log(np.finfo(float).max)
_LOG_TINY = math.log(np.finfo(float).tiny)


def gabor_eval(f: GaussianSum, x, w):
    """Closed-form G f at (x, w), x and w broadcast: gabor_evals of f alone."""
    return gabor_evals((f,), x, w)[0]


def gabor_evals(signals, x, w):
    """(G f at (x, w) for f in signals), one exponential per distinct atom
    position (shift, modulation), shared by every signal with an atom there:
    a counterexample pair costs the exponentials of one signal.  Each signal
    scales them by its own coefficients and adds its atoms in its own order,
    so each output has the bits of that signal evaluated alone."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    shape = np.broadcast(x, w).shape
    tmp, term = np.empty(shape), np.empty(shape, dtype=complex)
    exps = {}  # (u, b): (e^z, (mask, z) where e^z is subnormal, or None)
    for u, b in dict.fromkeys((a.shift, a.modulation) for f in signals for a in f.atoms):
        # the exponent is filled through its real and imaginary views with
        # the floating-point operations of the complex expression
        #     -2j pi u ws - 1j pi xs ws - pi (xs^2 + ws^2) / 2
        z = np.empty(shape, dtype=complex)
        re, im = z.real, z.imag
        xs, ws = x - u, w - b
        np.add(xs * xs, ws * ws, out=re)
        re *= np.pi
        re /= -2.0
        np.multiply(-2.0 * np.pi * u, ws, out=im)
        np.multiply(np.pi * xs, ws, out=tmp)
        im -= tmp
        low = re < _LOG_TINY
        deep = (low, z[low]) if low.any() else None
        exps[u, b] = np.exp(z, out=z), deep
    outs = []
    for f in signals:
        out = np.zeros(shape, dtype=complex)
        for a in f.atoms:
            e, deep = exps[a.shift, a.modulation]
            # the exponential stays the first factor: where complex multiply
            # uses FMA, e * c and c * e can differ in the last bit
            np.multiply(e, a.coeff, out=term)
            # where e^z falls below the normal range it has lost bits that c
            # (up to e^{709} for hpm pairs) would scale back up, so those
            # entries take c into the exponent: e^{z + log c}
            if deep is not None:
                term[deep[0]] = np.exp(deep[1] + cmath.log(a.coeff))
            out += term
        outs.append(out if out.shape else complex(out))
    return tuple(outs)


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
    lo = min(float(np.min(f.shifts)), x) - 8.0
    hi = max(float(np.max(f.shifts)), x) + 8.0
    t = np.arange(lo, hi + step, step)
    ft = f.evaluate(t)
    integrand = (
        GAUSSIAN_PEAK * ft * np.exp(-np.pi * (t - x) ** 2) * np.exp(-2j * np.pi * t * w)
    )
    return complex(np.trapezoid(integrand, dx=step))


def gabor_field(f: GaussianSum, grid: TFGrid) -> ComplexField:
    """G f sampled on every grid node, row-major with omega fastest: the
    one-signal case of gabor_fields."""
    memo = f._field  # a memo hit skips the tuples of the general case
    if memo is not None and memo.grid == grid:
        return memo
    return gabor_fields((f,), grid)[0]


def gabor_fields(signals, grid: TFGrid) -> tuple[ComplexField, ...]:
    """(G f on the grid's nodes for f in signals), evaluated together.

    Each signal keeps the field of the last grid it was evaluated on, so a
    repeat call on an equal grid returns that same field.  Its values are
    read-only: signals and grids are immutable, and so is their field.
    """
    todo = [f for f in signals if f._field is None or f._field.grid != grid]
    if todo:
        values = gabor_evals(todo, grid.x_nodes()[:, None], grid.w_nodes()[None, :])
        for f, vals in zip(todo, values):
            vals.flags.writeable = False
            f._field = ComplexField(grid, vals)
    return tuple(f._field for f in signals)


def gabor_magnitude_field(f: GaussianSum, grid: TFGrid) -> MagnitudeField:
    return gabor_field(f, grid).magnitude()


# ---------------------------------------------------------------------------
# Bargmann transform: B f(z) relates to the Gabor transform through
# |B f(x + i w)| = |G f(x, -w)| exp(pi (x^2 + w^2) / 2).  For an atom the
# entire-function closed form is
#     B (c M_b T_u phi)(z) = c exp(pi z (u + i b) - pi u^2 + (pi/2)(u + i b)^2).
# ---------------------------------------------------------------------------


def _bargmann_exponents(f: GaussianSum, z):
    """Per-atom exponents g_j(z) with B f(z) = sum_j c_j exp(g_j(z))."""
    z = np.asarray(z, dtype=complex)
    gs = []
    for a in f.atoms:
        ub = a.shift + 1j * a.modulation
        q = -np.pi * a.shift**2 + (np.pi / 2.0) * ub * ub
        gs.append(np.pi * z * ub + q)
    return gs


def bargmann_eval(f: GaussianSum, z):
    """B f(z) for complex z (scalar or array); stable via max-exponent factoring."""
    if f.is_zero:
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        return out if out.shape else 0j
    gs = _bargmann_exponents(f, z)
    m = np.max([np.real(g) for g in gs], axis=0)
    acc = sum(c * np.exp(g - m) for c, g in zip(f.coeffs, gs))
    return np.exp(m) * acc


def bargmann_derivative(f: GaussianSum, z):
    """Analytic derivative (B f)'(z) from the closed form."""
    if f.is_zero:
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        return out if out.shape else 0j
    gs = _bargmann_exponents(f, z)
    m = np.max([np.real(g) for g in gs], axis=0)
    acc = 0j
    for a, g in zip(f.atoms, gs):
        ub = a.shift + 1j * a.modulation
        acc = acc + a.coeff * (np.pi * ub) * np.exp(g - m)
    return np.exp(m) * acc


def bargmann_cs_derivative(f: GaussianSum, z):
    """(B f)'(z) by complex-step differentiation of the closed form, step 1e-6.

    The real and imaginary parts of F along the real direction are continued
    analytically through the companion function F~(w) = conj(F(conj w)), so
    Re F' and Im F' are read off imaginary parts of F(z + ih) and F~(z* + ih)
    with no subtractive step in h.
    """
    z, h = complex(z), 1e-6
    # F~ is the Bargmann transform of the sum with conjugated coefficients
    # and negated modulations
    conj_f = GaussianSum((np.conj(a.coeff), a.shift, -a.modulation) for a in f.atoms)
    A = bargmann_eval(f, z + 1j * h)
    B = bargmann_eval(conj_f, np.conj(z) + 1j * h)
    re = (np.imag(A) + np.imag(B)) / (2.0 * h)
    im = (np.real(B) - np.real(A)) / (2.0 * h)
    return complex(re, im)


def bargmann_modulus(f: GaussianSum, x, w):
    """|B f| at z = x + i w, i.e. |G f(x, -w)| exp(pi (x^2 + w^2)/2).

    Computed in log space; returns +inf when the result exceeds the double
    range (overflow flag per contract).
    """
    if f.is_zero:
        return 0.0
    gs = _bargmann_exponents(f, complex(x, w))
    m = max(float(np.real(g)) for g in gs)
    acc = sum(c * np.exp(g - m) for c, g in zip(f.coeffs, gs))
    mag = abs(acc)
    if mag == 0.0:
        return 0.0
    log_total = m + math.log(mag)
    if log_total > _LOG_HUGE:
        return math.inf
    return math.exp(log_total)
