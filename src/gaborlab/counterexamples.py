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

from .gabor import gabor_evals
from .grid import COORD_BOUND, WORK_BUDGET, MagnitudeField, TFGrid
from .signals import GaussianSum, phase_equivalent, signal_phase_distance

_LOG_HUGE = math.log(np.finfo(float).max)

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

    Lines sit at a k + offset (the offset probes off-lattice disagreement)
    and are sampled at line_sample_count points over [-line_extent,
    line_extent].  k_max limits the indices to |k| <= k_max; by default
    every line of |k| <= (extent - offset) / a within the extent is used.
    A rectangular lattice takes those line levels on both axes, so offset
    shifts it off a Z x a Z diagonally and k_max bounds both of its index
    ranges; line_sample_count does not apply to it.  A lattice with no
    line, a non-finite (extent + |offset|) / a, a coordinate past
    COORD_BOUND (the extent, or a line level a k + offset), or more points
    than the work budget is rejected before any array is built.
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
        if not math.isfinite((self.extent + abs(self.offset)) / self.a):
            raise ValueError(f"(extent + |offset|) / a must be finite: a {self.a!r},"
                             f" extent {self.extent}, offset {self.offset}")
        for name in ("extent", "offset"):
            if not abs(getattr(self, name)) <= COORD_BOUND:
                raise ValueError(f"lattice {name} {getattr(self, name)!r} is not within"
                                 f" ±{COORD_BOUND:.0e}")
        # an int compares with a float exactly, so no a k_max overflows
        k_bound = (COORD_BOUND - abs(self.offset)) / self.a
        if self.k_max is not None and self.k_max > k_bound:
            raise ValueError(f"k_max must not exceed {k_bound:.6g}, so that the line levels"
                             f" a k + offset stay within ±{COORD_BOUND:.0e}")
        if self.extent < 0 or not self.n_lines:
            raise ValueError(
                f"the lattice has no line: k_max {_shown(self.k_max)}, extent "
                f"{self.extent}, offset {self.offset} (lines a k + offset need "
                f"k_max >= 0, extent >= 0, and offset <= extent when k_max "
                f"is unset)")
        lines = self.n_lines
        per_line = lines if self.kind == "rectangular" else self.line_sample_count
        if lines * per_line > WORK_BUDGET:
            raise ValueError(f"the lattice's {_shown(lines)} lines of {_shown(per_line)}"
                             f" points (a {self.a!r}, extent {self.extent}, k_max"
                             f" {_shown(self.k_max)}) exceed the work budget of"
                             f" {WORK_BUDGET:.0e}")

    @property
    def extent(self):
        if self.line_extent is not None:
            return self.line_extent
        return max(4.0, 2.0 / self.a + 2.0)

    def _k_range(self):
        """(lo, hi): the line indices k run over lo..hi, empty when lo > hi."""
        if self.k_max is not None:
            return -self.k_max, self.k_max
        hi = math.floor((self.extent - self.offset) / self.a)
        # a negative offset would carry k = -hi past -extent
        return max(-hi, math.ceil((-self.extent - self.offset) / self.a)), hi

    def line_levels(self):
        """Coordinates a*k + offset of the sampled lines."""
        lo, hi = self._k_range()
        return self.a * np.arange(lo, hi + 1) + self.offset

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
        lo, hi = self._k_range()
        return max(hi - lo + 1, 0)


def _shown(count):
    """count as an error prints it: past the work budget either way, by that bound."""
    if count is None or abs(count) <= WORK_BUDGET:
        return count
    return f"over {WORK_BUDGET:.0e}" if count > 0 else f"below -{WORK_BUDGET:.0e}"


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def make_hpm(a, theta=0.0) -> CounterexamplePair:
    """h_pm = phi (cosh(pi t/a) +- i sinh(pi t/a)) as exact two-atom sums."""
    if not 0 < a < math.inf:
        raise ValueError(f"a must be positive and finite, got {a!r}")
    # 4 a^2 underflows to 0 below a ~ 1e-162, where no exponent is finite
    quarter = 4.0 * a * a
    exponent = math.pi / quarter if quarter > 0.0 else math.inf
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
    if not (0 < a < math.inf and 0 < gamma < math.inf):  # NaN fails both tests
        raise ValueError(f"a and gamma must be positive and finite: a {a!r}, gamma {gamma!r}")
    plus = GaussianSum([(1.0, 0.0, 0.0), (1j * gamma, 1.0 / a, 0.0)])
    minus = GaussianSum([(1.0, 0.0, 0.0), (-1j * gamma, 1.0 / a, 0.0)])
    return _checked_pair(plus, minus, "fpm", a, gamma, theta)


def make_gpm(a, gamma, theta=0.0) -> CounterexamplePair:
    """g_pm = phi +- i gamma M_{1/a} phi -+ i gamma M_{-1/a} phi (real-valued)."""
    if not (0 < a < math.inf and 0 < gamma < math.inf):  # NaN fails both tests
        raise ValueError(f"a and gamma must be positive and finite: a {a!r}, gamma {gamma!r}")
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


def root_set_pair(pair: CounterexamplePair, k_min, k_max):
    """(roots_plus, roots_minus) of G f_pm for k in [k_min, k_max], rotated
    by pair.theta.

    hpm and fpm vanish on the branches omega = -+a/2 + 2ak, at x = 0 for
    hpm and x = 1/(2a) - a ln(gamma)/pi for fpm: B h_pm ~ (1 +- i) e^{pi s z}
    + (1 -+ i) e^{-pi s z} vanishes where e^{2 pi s z} = -+ i, and the
    +pi/2 phase of +i gamma needs omega = -a/2 (mod 2a) to meet -1, so
    f_plus vanishes on the -a/2 branch.  As for a lattice, the levels 2 a k
    stay within COORD_BOUND, and the roots of each sign, two per k for gpm,
    are counted against the work budget before any array exists.  Below
    |k| = 2^50 a double holds 2 a k to within a/4 (2^-53 relative), under
    the spacing a of the levels +-a/2 + 2 a k, so no two roots share one.
    """
    if k_min > k_max:
        raise ValueError("k_min must not exceed k_max")
    # an int compares with a float exactly, so no k overflows
    k_bound = COORD_BOUND / (2.0 * pair.a)
    if not -k_bound <= k_min <= k_max <= k_bound:
        raise ValueError(f"k_min and k_max must lie within ±{k_bound:.6g}, so that the"
                         f" root levels 2 a k stay within ±{COORD_BOUND:.0e}")
    rows = (k_max - k_min + 1) * (2 if pair.kind == "gpm" else 1)
    if rows > WORK_BUDGET:
        raise ValueError(f"k_min to k_max give {_shown(rows)} roots of each sign, past"
                         f" the work budget of {WORK_BUDGET:.0e}")
    if not -2**50 < k_min <= k_max < 2**50:
        raise ValueError("k_min and k_max must lie strictly within ±2^50, so that the"
                         " root levels ±a/2 + 2 a k stay apart in doubles")
    a = pair.a
    ks = np.arange(k_min, k_max + 1)
    if pair.kind in ("hpm", "fpm"):
        x = 0.0 if pair.kind == "hpm" else 1.0 / (2.0 * a) - a * math.log(pair.gamma) / math.pi
        rp, rm = (np.column_stack([np.full(len(ks), x), w + 2.0 * a * ks])
                  for w in (-a / 2.0, a / 2.0))
    elif pair.kind == "gpm":
        # sin(pi z / a) = +- e^{pi/(2a^2)}/(2 gamma) =: +- S with S > 1, at
        # omega = (a/pi) acosh S; from L = log S, acosh S = L + log(1 + sqrt(1 - S^-2)),
        # so S itself, past the double range at small a, is never formed
        L = math.pi / (2.0 * a * a) - math.log(2.0 * pair.gamma)
        if L <= 0.0:
            raise ValueError("gpm root formula needs gamma < e^{pi/(2a^2)}/2")
        w_off = (a / math.pi) * (L + math.log1p(math.sqrt(-math.expm1(-2.0 * L))))
        rp, rm = (np.column_stack([np.repeat(x + 2.0 * a * ks, 2),
                                   np.tile([w_off, -w_off], len(ks))])
                  for x in (a / 2.0, -a / 2.0))
    else:
        raise ValueError(f"unknown pair kind {pair.kind!r}")
    if pair.theta != 0.0:
        rp, rm = (pts @ _rotation(pair.theta).T for pts in (rp, rm))
    return rp, rm


def _gamma_0_exponent(a, R):
    if not (a > 0 and R > 0):
        raise ValueError("a and R must be positive")
    return -(math.pi / a) * (R - 1.0 / (2.0 * a))


def gamma_0(a, R):
    """The root-free-strip threshold e^{-(pi/a)(R - 1/(2a))}, unclamped."""
    exponent = _gamma_0_exponent(a, R)
    # an infinite or NaN exponent fails this too; math.exp(inf) would not raise
    if not exponent <= _LOG_HUGE:
        raise ValueError(f"gamma_0 = e^(-(pi/a)(R - 1/(2a))) overflows a double "
                         f"at a = {a!r}, R = {R!r}")
    return math.exp(exponent)


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
        # outruns the Gaussian decay inside the double range; log 0 = -inf
        with np.errstate(divide="ignore"):
            log_tilted = np.log(mag) + math.pi * tau * X
        if np.max(log_tilted) > 0.99 * _LOG_HUGE:
            raise ValueError(f"tau={tau!r}: the tilted magnitude overflows at the"
                             " grid edge; reduce tau or the grid extent")
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
    max_rel = float(rel_dev.max())
    return AgreementReport(
        max_abs_dev=float(abs_dev.max()),
        max_rel_dev=max_rel,
        d_X2=d,
        passed=bool(max_rel <= tol and d > noneq_floor),
        n_lines=lattice.n_lines,
        n_samples=len(pts),
    )
