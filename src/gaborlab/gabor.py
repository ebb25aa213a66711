"""Gabor transforms of Gaussian sums.

The Gabor transform used throughout is
    G f(x, w) = 2^{1/4} int f(t) exp(-pi (t-x)^2) exp(-2 pi i t w) dt,
and for the window itself G phi(x, w) = exp(-pi i x w) exp(-pi (x^2+w^2)/2).
Combining that closed form with the shift/modulation covariance of the
transform gives the single-atom closed form

    G (c M_b T_u phi)(x, w)
        = c exp(-2 pi i u (w-b)) G phi(x-u, w-b)
        = c exp(-2 pi i u (w-b)) exp(-pi i (x-u)(w-b))
            exp(-pi ((x-u)^2 + (w-b)^2) / 2).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .grid import ComplexField, MagnitudeField, TFGrid
from .signals import GaussianSum

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


def gabor_field(f: GaussianSum, grid: TFGrid) -> ComplexField:
    """G f sampled on every grid node, row-major with omega fastest: the
    one-signal case of gabor_fields."""
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
