"""Gaussian-sum signal model.

Every signal handled by this package is a finite complex combination of
time-frequency shifted copies of the unit-norm Gaussian window
phi(t) = 2**(1/4) * exp(-pi t^2).  Staying inside this family keeps the
Gabor and Bargmann transforms, L2 inner products, and global-phase
distances exactly computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import COORD_BOUND


@dataclass(frozen=True)
class GaussianAtom:
    """One term coeff * M_b T_u phi (translate by u, then modulate by b)."""

    coeff: complex
    shift: float
    modulation: float

    def __post_init__(self):
        for name in ("shift", "modulation"):  # NaN fails the test too
            if not abs(getattr(self, name)) <= COORD_BOUND:
                raise ValueError(f"atom {name} {getattr(self, name)!r} is not within"
                                 f" ±{COORD_BOUND:.0e}")
        if self.coeff == 0:
            raise ValueError("zero-coefficient atoms are not representable")


class GaussianSum:
    """Finite ordered sum of GaussianAtoms; duplicates on (u, b) are merged.

    The empty sum is the zero signal.  Instances are immutable; algebraic
    operations return new sums.  _field holds the Gabor field of the last
    grid the sum was evaluated on (see gabor.gabor_field).
    """

    __slots__ = ("atoms", "_field")

    def __init__(self, atoms=()):
        # a dict keeps its keys in first-insertion order
        merged: dict[tuple[float, float], complex] = {}
        for atom in atoms:
            if isinstance(atom, GaussianAtom):
                c, u, b = atom.coeff, atom.shift, atom.modulation
            else:
                c, u, b = atom
            key = (float(u), float(b))
            merged[key] = merged.get(key, 0j) + complex(c)
        self.atoms = tuple(GaussianAtom(c, u, b) for (u, b), c in merged.items() if c != 0)
        self._field = None

    def __len__(self):
        return len(self.atoms)

    @property
    def is_zero(self):
        return len(self.atoms) == 0

    def __repr__(self):
        body = ", ".join(
            f"({a.coeff!r}, u={a.shift!r}, b={a.modulation!r})" for a in self.atoms
        )
        return f"GaussianSum([{body}])"

    # -- algebra -----------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, GaussianSum):
            return NotImplemented
        return GaussianSum(self.atoms + other.atoms)

    def __sub__(self, other):
        if not isinstance(other, GaussianSum):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, scalar):
        if isinstance(scalar, GaussianSum):
            return NotImplemented
        if scalar == 0:
            return GaussianSum()
        return GaussianSum(
            (a.coeff * scalar, a.shift, a.modulation) for a in self.atoms
        )

    __rmul__ = __mul__

    def translated(self, u):
        """T_u f; commuting T_u past each modulation costs a phase e^{-2 pi i b u}."""
        return GaussianSum(
            (a.coeff * np.exp(-2j * np.pi * a.modulation * u), a.shift + u,
             a.modulation)
            for a in self.atoms
        )


def gaussian(coeff=1.0, shift=0.0, modulation=0.0):
    """Single-atom signal coeff * M_b T_u phi; default is phi itself."""
    return GaussianSum([(coeff, shift, modulation)])


def atom_inner(u1, b1, u2, b2):
    """<M_{b1}T_{u1}phi, M_{b2}T_{u2}phi>, conjugate-linear in the first slot.

    Closed form from the Gaussian product rule:
    exp(-pi((u1-u2)^2 + (b1-b2)^2)/2) * exp(pi i (b2-b1)(u1+u2)).
    """
    du, db = u1 - u2, b1 - b2
    return np.exp(-np.pi * (du * du + db * db) / 2.0) * np.exp(
        1j * np.pi * (b2 - b1) * (u1 + u2)
    )


def _unit_coeffs(f: GaussianSum):
    """(c_j / 2^e, e), with 2^e the power of two just above max |c_j|."""
    coeffs = [a.coeff for a in f.atoms]
    e = math.frexp(float(np.max(np.abs(coeffs), initial=0.0)))[1]
    return [complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e))
            for c in coeffs], e


def _scaled_inner(f: GaussianSum, g: GaussianSum):
    """(s, e) with <f, g> = s 2^e, summed over each signal's coefficients in
    its unit 2^e.  That scaling is exact, so s 2^e has the bits of the raw
    sum wherever that is a normal double, and s stays representable where
    raw coefficient products would overflow or underflow."""
    (cf, ef), (cg, eg) = _unit_coeffs(f), _unit_coeffs(g)
    total = 0j
    for c1, af in zip(cf, f.atoms):
        for c2, ag in zip(cg, g.atoms):
            total += np.conj(c1) * c2 * atom_inner(af.shift, af.modulation,
                                                   ag.shift, ag.modulation)
    return complex(total), ef + eg


def signal_norm(f: GaussianSum) -> float:
    """Exact L2 norm of a Gaussian sum."""
    s, e = _scaled_inner(f, f)
    return math.ldexp(math.sqrt(max(s.real, 0.0)), e // 2)


def signal_phase_distance(f: GaussianSum, g: GaussianSum) -> float:
    """Global-phase metric min_alpha ||f - e^{i alpha} g||_2, exact.

    Equals sqrt(||f||^2 + ||g||^2 - 2 |<f, g>|), but is evaluated as
    ||f - e^{i alpha*} g|| with the subtraction done at the atom-coefficient
    level: the textbook form cancels catastrophically when f and g are
    within ~1e-8 of each other.
    """
    ip, _ = _scaled_inner(f, g)  # the phase of <f, g> is that of its scaled sum
    alpha = math.atan2(ip.imag, ip.real) if ip != 0 else 0.0
    # alpha maximizes Re(e^{i alpha} <f, g>), so the aligned copy is e^{-i alpha} g
    residual = f - g * complex(math.cos(alpha), -math.sin(alpha))
    return signal_norm(residual)


def phase_equivalent(f: GaussianSum, g: GaussianSum) -> bool:
    """True iff f = e^{i alpha} g for some real alpha, decided algebraically.

    Gaussian atoms on distinct (u, b) are linearly independent, so the
    signals are equivalent exactly when the atom sets coincide and the
    coefficient ratio is one unimodular constant.  No cancellation issues
    for nearly-equal signals, unlike a numeric distance threshold.
    """
    tol = 1e-12
    if f.is_zero or g.is_zero:
        return f.is_zero and g.is_zero
    kf = {(a.shift, a.modulation): a.coeff for a in f.atoms}
    kg = {(a.shift, a.modulation): a.coeff for a in g.atoms}
    if kf.keys() != kg.keys():
        return False
    ratios = np.array([kf[k] / kg[k] for k in kf])
    if abs(abs(ratios[0]) - 1.0) > tol:
        return False
    return bool(np.all(np.abs(ratios - ratios[0]) <= tol))
