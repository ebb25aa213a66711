"""Counterexample families for sampled Gabor phase retrieval.

Three pairs of Gaussian sums that fail global-phase equivalence while their
spectrogram magnitudes agree on a family of parallel lines:

  hpm  : phi(t) (cosh(pi t / a) +- i sinh(pi t / a)); agreement on R x aZ.
         Stored exactly as two shifted atoms via the complete-the-square
         identity e^{+-pi t/a} phi(t) = e^{pi/(4a^2)} phi(t -+ 1/(2a)).
  fpm  : phi +- i gamma T_{1/a} phi; agreement on R x aZ.
  gpm  : phi +- i gamma M_{1/a} phi -+ i gamma M_{-1/a} phi, real-valued in
         time; agreement on aZ x R.

Rotated variants are realized through magnitude evaluation at rotated
coordinates; Bargmann-tilted variants only through their magnitude fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gabor import _LOG_HUGE, gabor_evals
from .grid import MagnitudeField, TFGrid
from .signals import GaussianSum, phase_equivalent, signal_phase_distance

LATTICE_KINDS = ("horizontal_lines", "vertical_lines", "rectangular")

# Agreement-line orientation per pair kind (before rotation).
AGREEMENT = {"hpm": "horizontal_lines", "fpm": "horizontal_lines",
             "gpm": "vertical_lines"}


@dataclass(frozen=True)
class CounterexamplePair:
    plus: GaussianSum
    minus: GaussianSum
    kind: str
    a: float
    gamma: float | None = None
    theta: float = 0.0


@dataclass(frozen=True)
class Lattice:
    """Family of parallel sampling lines (or a rectangular point lattice).

    Lines sit at multiples of a (plus an optional absolute offset, used to
    probe off-lattice disagreement) and are sampled at line_sample_count
    points over [-line_extent, line_extent].  k_max limits how many lines
    are taken; by default every line within the extent is used.  A
    rectangular lattice takes those line levels on both axes, so offset
    shifts it off a Z x a Z diagonally and k_max bounds both of its index
    ranges; line_sample_count does not apply to it.
    """

    kind: str
    a: float
    theta: float = 0.0
    line_sample_count: int = 401
    line_extent: float | None = None
    offset: float = 0.0
    k_max: int | None = None

    def __post_init__(self):
        if self.kind not in LATTICE_KINDS:
            raise ValueError(f"unknown lattice kind {self.kind!r}")
        if self.a <= 0:
            raise ValueError("lattice spacing a must be positive")
        if self.line_sample_count < 3:
            raise ValueError("line_sample_count must be >= 3")

    @property
    def extent(self):
        if self.line_extent is not None:
            return self.line_extent
        return max(4.0, 2.0 / self.a + 2.0)

    def line_levels(self):
        """Coordinates a*k + offset of the sampled lines."""
        if self.k_max is not None:
            kmax = self.k_max
        else:
            kmax = int(math.floor((self.extent - self.offset) / self.a))
        ks = np.arange(-kmax, kmax + 1)
        return self.a * ks + self.offset

    def sample_points(self):
        """(N, 2) array of sampling points in the rotated frame: each
        along-line position paired with each line level."""
        levels = self.line_levels()
        if self.kind == "rectangular":
            along = levels
        else:
            along = np.linspace(-self.extent, self.extent, self.line_sample_count)
        X = np.repeat(along, len(levels))
        W = np.tile(levels, len(along))
        pts = np.column_stack([W, X] if self.kind == "vertical_lines" else [X, W])
        if self.theta != 0.0:
            pts = pts @ _rotation(self.theta).T
        return pts

    @property
    def n_lines(self):
        return len(self.line_levels())


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def make_hpm(a, theta=0.0) -> CounterexamplePair:
    """h_pm = phi (cosh(pi t/a) +- i sinh(pi t/a)) as exact two-atom sums."""
    if a <= 0:
        raise ValueError("a must be positive")
    exponent = math.pi / (4.0 * a * a)
    if exponent > 0.99 * _LOG_HUGE:
        raise ValueError("a too small: the exact-atom coefficient e^{pi/(4a^2)} "
                         "overflows double precision")
    c = math.exp(exponent) / 2.0
    s = 1.0 / (2.0 * a)
    plus = GaussianSum([((1 + 1j) * c, s, 0.0), ((1 - 1j) * c, -s, 0.0)])
    minus = GaussianSum([((1 - 1j) * c, s, 0.0), ((1 + 1j) * c, -s, 0.0)])
    return _checked_pair(plus, minus, "hpm", a, None, theta)


def make_fpm(a, gamma, theta=0.0) -> CounterexamplePair:
    """f_pm = phi +- i gamma T_{1/a} phi."""
    if a <= 0 or gamma <= 0:
        raise ValueError("a and gamma must be positive")
    plus = GaussianSum([(1.0, 0.0, 0.0), (1j * gamma, 1.0 / a, 0.0)])
    minus = GaussianSum([(1.0, 0.0, 0.0), (-1j * gamma, 1.0 / a, 0.0)])
    return _checked_pair(plus, minus, "fpm", a, gamma, theta)


def make_gpm(a, gamma, theta=0.0) -> CounterexamplePair:
    """g_pm = phi +- i gamma M_{1/a} phi -+ i gamma M_{-1/a} phi (real-valued)."""
    if a <= 0 or gamma <= 0:
        raise ValueError("a and gamma must be positive")
    plus = GaussianSum(
        [(1.0, 0.0, 0.0), (1j * gamma, 0.0, 1.0 / a), (-1j * gamma, 0.0, -1.0 / a)]
    )
    minus = GaussianSum(
        [(1.0, 0.0, 0.0), (-1j * gamma, 0.0, 1.0 / a), (1j * gamma, 0.0, -1.0 / a)]
    )
    return _checked_pair(plus, minus, "gpm", a, gamma, theta)


def _checked_pair(plus, minus, kind, a, gamma, theta):
    # non-equivalence is verified at construction, not assumed
    if phase_equivalent(plus, minus):
        raise ValueError("constructed signals agree up to global phase")
    return CounterexamplePair(plus, minus, kind, a, gamma, theta)


# ---------------------------------------------------------------------------
# Closed-form magnitudes, roots, thresholds
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


def root_set_fpm(a, gamma, sign, k_min, k_max, theta=0.0):
    """Exact roots of G f_sign: x = 1/(2a) - a ln(gamma)/pi on the branch
    omega = -sign*a/2 + 2ak, k in [k_min, k_max]; rotated by theta if given.

    The magnitude formula pins the branch: the +pi/2 phase of +i gamma needs
    omega = -a/2 (mod 2a) to meet -1, so f_plus vanishes on the -a/2 branch.
    """
    if a <= 0 or gamma <= 0:
        raise ValueError("a and gamma must be positive")
    if k_min > k_max:
        raise ValueError("k_min must not exceed k_max")
    x_root = 1.0 / (2.0 * a) - a * math.log(gamma) / math.pi
    ks = np.arange(k_min, k_max + 1)
    omegas = -sign * a / 2.0 + 2.0 * a * ks
    pts = np.column_stack([np.full_like(omegas, x_root), omegas])
    if theta != 0.0:
        pts = pts @ _rotation(theta).T
    return pts


def root_set_pair(pair: CounterexamplePair, k_min, k_max):
    """(roots_plus, roots_minus) for any pair kind, rotated by pair.theta."""
    a, th = pair.a, pair.theta
    if pair.kind == "fpm":
        return (
            root_set_fpm(a, pair.gamma, +1, k_min, k_max, th),
            root_set_fpm(a, pair.gamma, -1, k_min, k_max, th),
        )
    ks = np.arange(k_min, k_max + 1)
    if pair.kind == "hpm":
        # B h_pm ~ (1 +- i) e^{pi s z} + (1 -+ i) e^{-pi s z} vanishes where
        # e^{2 pi s z} = -+ i, same branch pattern as fpm with x = 0
        rp = np.column_stack([np.zeros_like(ks, dtype=float), -a / 2.0 + 2.0 * a * ks])
        rm = np.column_stack([np.zeros_like(ks, dtype=float), +a / 2.0 + 2.0 * a * ks])
    elif pair.kind == "gpm":
        # sin(pi z / a) = +- e^{pi/(2a^2)}/(2 gamma) =: +- S with S > 1
        S = math.exp(math.pi / (2.0 * a * a)) / (2.0 * pair.gamma)
        if S <= 1.0:
            raise ValueError("gpm root formula needs gamma < e^{pi/(2a^2)}/2")
        w_off = (a / math.pi) * math.acosh(S)
        xs_p = a / 2.0 + 2.0 * a * ks
        xs_m = -a / 2.0 + 2.0 * a * ks
        rp = np.column_stack(
            [np.repeat(xs_p, 2), np.tile([w_off, -w_off], len(ks))]
        )
        rm = np.column_stack(
            [np.repeat(xs_m, 2), np.tile([w_off, -w_off], len(ks))]
        )
    else:
        raise ValueError(f"unknown pair kind {pair.kind!r}")
    if th != 0.0:
        rp = rp @ _rotation(th).T
        rm = rm @ _rotation(th).T
    return rp, rm


def _gamma_0_exponent(a, R):
    if not (a > 0 and R > 0):
        raise ValueError("a and R must be positive")
    return -(math.pi / a) * (R - 1.0 / (2.0 * a))


def gamma_0(a, R):
    """The root-free-strip threshold e^{-(pi/a)(R - 1/(2a))}, unclamped."""
    try:
        return math.exp(_gamma_0_exponent(a, R))
    except OverflowError:
        raise ValueError(f"gamma_0 = e^(-(pi/a)(R - 1/(2a))) overflows a double "
                         f"at a = {a!r}, R = {R!r}") from None


def gamma_threshold(a, R, delta=1.0):
    """delta * min(gamma_0(a, R), 1), with the exponent clamped at 0 before
    exp, so that the min applies even where gamma_0 would overflow a double."""
    exponent = _gamma_0_exponent(a, R)
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    return delta * math.exp(min(exponent, 0.0))


# ---------------------------------------------------------------------------
# Magnitude evaluation for (rotated / tilted) pairs
# ---------------------------------------------------------------------------


def pair_magnitude(pair: CounterexamplePair, sign, x, w):
    """|G f_sign^theta|(x, w): base magnitude at R_{-theta}(x, w)."""
    return _magnitudes(pair, (pair.plus if sign > 0 else pair.minus,), x, w)[0]


def _magnitudes(pair: CounterexamplePair, signals, x, w):
    """|G f|(R_{-theta}(x, w)) for each f in signals, evaluated together."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if pair.theta != 0.0:
        rot = _rotation(-pair.theta)
        x, w = rot[0, 0] * x + rot[0, 1] * w, rot[1, 0] * x + rot[1, 1] * w
    return [np.abs(v) for v in gabor_evals(signals, x, w)]


def tilt_magnitude(base: CounterexamplePair, tau, grid: TFGrid):
    """Magnitude fields of the Bargmann-tilted pair: |G f~_pm| = |G h_pm| e^{pi tau x}.

    Multiplying the Bargmann transform by e^{pi tau z} multiplies its modulus
    by e^{pi tau x}, and the x coordinate is shared with the Gabor plane, so
    the tilt is a pure x-dependent reweighting of the spectrogram.  The
    tilted signals are not Gaussian sums and exist here only as fields.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    X, W = grid.mesh()
    out = []
    for mag in _magnitudes(base, (base.plus, base.minus), X, W):
        if tau == 0.0:
            out.append(MagnitudeField(grid, mag))
            continue
        # log-space product: guards the (pathological) case where the tilt
        # outruns the Gaussian decay inside the double range
        with np.errstate(divide="ignore"):
            logm = np.where(mag > 0.0, np.log(np.where(mag > 0.0, mag, 1.0)),
                            -np.inf)
        log_tilted = logm + math.pi * tau * X
        if np.max(log_tilted) > 0.99 * _LOG_HUGE:
            raise OverflowError("tilted magnitude overflows at the grid edge; "
                                "reduce tau or the grid extent")
        out.append(MagnitudeField(grid, np.exp(log_tilted)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgreementReport:
    max_abs_dev: float
    max_rel_dev: float
    d_X2: float
    roots_plus: np.ndarray
    roots_minus: np.ndarray
    passed: bool
    n_lines: int
    n_samples: int


class LatticeMismatchError(ValueError):
    """Lattice orientation incompatible with the pair's agreement set."""


def verify_pair(pair: CounterexamplePair, lattice: Lattice, tol=1e-9,
                noneq_floor=1e-9) -> AgreementReport:
    """Sample both magnitudes on the lattice, check agreement and
    non-equivalence.  passed <=> max_rel_dev <= tol and d_X2 > noneq_floor."""
    expected = AGREEMENT[pair.kind]
    if lattice.kind not in (expected, "rectangular"):
        raise LatticeMismatchError(
            f"{pair.kind} pairs agree on {expected}; got {lattice.kind}"
        )
    if abs(lattice.theta - pair.theta) > 1e-12:
        raise LatticeMismatchError("lattice rotation differs from the pair's")
    if abs(lattice.a - pair.a) > 1e-12:
        raise LatticeMismatchError("lattice spacing differs from the pair's")

    pts = lattice.sample_points()
    mp, mm = _magnitudes(pair, (pair.plus, pair.minus), pts[:, 0], pts[:, 1])
    abs_dev = np.abs(mp - mm)
    # normalize by the larger magnitude; absolute floor avoids 0/0 deep in
    # the Gaussian tails where both values underflow
    denom = np.maximum(np.maximum(mp, mm), 1e-300)
    rel_dev = abs_dev / denom
    d = signal_phase_distance(pair.plus, pair.minus)
    try:
        rp, rm = root_set_pair(pair, -3, 3)
    except ValueError:
        rp = np.empty((0, 2))
        rm = np.empty((0, 2))
    max_rel = float(rel_dev.max())
    return AgreementReport(
        max_abs_dev=float(abs_dev.max()),
        max_rel_dev=max_rel,
        d_X2=d,
        roots_plus=rp,
        roots_minus=rm,
        passed=bool(max_rel <= tol and d > noneq_floor),
        n_lines=lattice.n_lines,
        n_samples=len(pts),
    )
