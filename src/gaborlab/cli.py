"""Command-line front end.

Exit codes: 0 success, 1 usage/validation error, 2 lattice agreement
failure, 3 non-equivalence failure, 4 solver failure (the command's report
is still written, with the failure as its payload).  Every report embeds
the resolved keys that its kinds read; CSV/PGM outputs are byte-deterministic
for identical configurations.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import io
from .cheeger import (
    cheeger_upper_bound,
    circle_cut_family,
    circle_point_count,
    dumbbell_weight,
    vertical_cut_family,
)
from .counterexamples import (
    AGREEMENT,
    CounterexamplePair,
    Lattice,
    gamma_0,
    gamma_threshold,
    make_fpm,
    make_gpm,
    make_hpm,
    root_set_pair,
    tilt_magnitude,
    verify_pair,
)
from .gabor import gabor_fields, gabor_magnitude_field
from .grid import WORK_BUDGET, ComplexField, TFGrid, disk_mask
from .norms import measurement_norm_D, stability_probe
from .signals import GaussianSum, gaussian
from .spectral import (
    DEFAULT_FLOOR_REL,
    RESIDUAL_CONTRACT,
    SolverConvergenceError,
    WeightedDomain,
    build_weighted_domain,
    poincare_estimate,
    refinement_check,
    solve_spectrum,
    variation_bound_check,
    weighted_domain_from_values,
)

MASS_99_RADIUS = math.sqrt(math.log(100.0) / math.pi)


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for agreement failures; argparse
    # usage errors must exit 1 instead of its default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# the kinds that signal, kind, weight, lattice, cuts and mode pick; a pair
# kind's constructor takes the keys listed here, then theta
_PAIRS = {"hpm": (make_hpm, ("a",)), "fpm": (make_fpm, ("a", "gamma")),
          "gpm": (make_gpm, ("a", "gamma"))}


def _make_pair(kind, cfg) -> CounterexamplePair:
    make, keys = _PAIRS[kind]
    return make(*(cfg[key] for key in keys), cfg.get("theta", 0.0))


# picking key -> value -> the keys that kind reads.  A command reads the keys
# of its resolved rows and each key of its defaults that no row of its
# picking keys lists
_KINDS = {
    "signal": {"gaussian": (), "empty": (),
               **{kind: ("sign", *keys, "tau", "theta") for kind, (_, keys) in _PAIRS.items()}},
    "kind": {kind: (*keys, "theta") for kind, (_, keys) in _PAIRS.items()},
    "weight": {"gaussian": ("p", "R"),
               **{kind: (*keys, "p", "R") for kind, (_, keys) in _PAIRS.items()},
               "dumbbell": ("separation", "bridge", "sigma", "corridor_sigma")},
    # lattice None is the pair kind's agreement lattice, always one of lines
    "lattice": {None: ("samples",), "horizontal_lines": ("samples",),
                "vertical_lines": ("samples",), "rectangular": ()},
    "cuts": {"vertical": ("cut_lo", "cut_hi"), "circle": ()},
    "mode": {"fpm-vs-gaussian": ("a", "gamma"), "scaled": ("scale",)},
}


def _out(cfg, name):
    os.makedirs(cfg["out_dir"], exist_ok=True)
    return os.path.join(cfg["out_dir"], name)


# ---------------------------------------------------------------------------
# spectrogram / figure1a / figure1b
# ---------------------------------------------------------------------------

# preset is fixed per command, not a flag: it names the outputs and shifts
# an hpm pair as the figures do
_SPECTROGRAM_DEFAULTS = dict(
    signal="gaussian", sign="plus", a=0.5, gamma=0.1, tau=0.0, theta=0.0,
    xmin=-4.0, xmax=4.0, wmin=-4.0, wmax=4.0, nx=201, nw=201,
    preset=None,
)

# fig1a: the two-bump counterexample spectrogram at a = 1/6, time-shifted so
# the maxima sit at (0, 0) and (1/a, 0); fig1b: its Bargmann tilt, tau = 1/10
_FIGURE1A_DEFAULTS = dict(
    _SPECTROGRAM_DEFAULTS, signal="hpm", a=1.0 / 6.0,
    xmin=-2.0, xmax=8.0, wmin=-5.0, wmax=5.0, preset="fig1a",
)
_FIGURE1B_DEFAULTS = dict(_FIGURE1A_DEFAULTS, tau=0.1, preset="fig1b")


def _spectrogram_field(cfg):
    grid = TFGrid(cfg["xmin"], cfg["xmax"], cfg["wmin"], cfg["wmax"], cfg["nx"], cfg["nw"])
    sig = cfg["signal"]
    if sig in ("empty", "gaussian"):
        return gabor_magnitude_field(gaussian() if sig == "gaussian" else GaussianSum(), grid)
    if cfg["tau"] > 0.0 and cfg["theta"] != 0.0:
        raise ValueError("tilted spectrograms do not compose with rotation")
    pair = _make_pair(sig, cfg)
    if cfg["preset"] and sig == "hpm":
        s = 1.0 / (2.0 * cfg["a"])
        pair = dataclasses.replace(pair, plus=pair.plus.translated(s),
                                   minus=pair.minus.translated(s))
    # tau = 0 is the untilted field
    plus_field, minus_field = tilt_magnitude(pair, cfg["tau"], grid)
    return plus_field if cfg["sign"] == "plus" else minus_field


def cmd_spectrogram(cfg):
    field = _spectrogram_field(cfg)
    name = cfg["preset"] or "spectrogram"
    io.atomic_write_text(_out(cfg, f"{name}.csv"), io.field_csv_text(field))
    io.atomic_write_text(_out(cfg, f"{name}.pgm"), io.pgm_text(field))
    payload = {
        "peak": float(field.values.max()),
        "csv": f"{name}.csv",
        "pgm": f"{name}.pgm",
    }
    return 0, payload, None


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# default noneq floor sits below the d_X2 of the gamma = e^{-5 pi} showcase
# pair (~3e-7); sweep-style runs should raise it explicitly
_VERIFY_DEFAULTS = dict(
    kind="fpm", a=0.5, gamma=math.exp(-5.0 * math.pi), theta=0.0,
    lattice=None, samples=401, extent=None, offset=0.0, k_max=None,
    tol=1e-9, noneq_floor=1e-9,
)


def cmd_verify(cfg):
    pair = _make_pair(cfg["kind"], cfg)
    lattice = Lattice(
        kind=cfg["lattice"] or AGREEMENT[cfg["kind"]], a=cfg["a"], theta=cfg["theta"],
        # a rectangular lattice reads no sample count
        line_sample_count=cfg.get("samples", _VERIFY_DEFAULTS["samples"]),
        line_extent=cfg["extent"], offset=cfg["offset"], k_max=cfg["k_max"],
    )
    report = verify_pair(pair, lattice, tol=cfg["tol"],
                         noneq_floor=cfg["noneq_floor"])
    payload = dataclasses.asdict(report)
    # negated comparisons, so that a NaN deviation or distance fails
    if not report.max_rel_dev <= cfg["tol"]:
        print(f"agreement FAILED: max relative deviation {report.max_rel_dev:.3e}")
        return 2, payload, None
    if not report.d_X2 > cfg["noneq_floor"]:
        print(f"non-equivalence FAILED: d_X2 = {report.d_X2:.3e}")
        return 3, payload, None
    print(f"verified: max_rel_dev={report.max_rel_dev:.3e} d_X2={report.d_X2:.3e}")
    return 0, payload, None


# ---------------------------------------------------------------------------
# roots / threshold / figure2
# ---------------------------------------------------------------------------

_ROOTS_DEFAULTS = dict(
    kind="fpm", a=0.5, gamma=math.exp(-5.0 * math.pi), theta=0.0,
    k_min=-3, k_max=3,
)


def cmd_roots(cfg):
    pair = _make_pair(cfg["kind"], cfg)
    rp, rm = root_set_pair(pair, cfg["k_min"], cfg["k_max"])
    _write_points(cfg, "roots.csv", "set", (("plus", rp), ("minus", rm)))
    return 0, {"roots_plus": rp, "roots_minus": rm}, None


def _write_points(cfg, name, label, sets):
    """A CSV of labelled points: a header row, then one row per point."""
    lines = [f"{label},x,omega"]
    for set_name, pts in sets:
        for x, w in pts:
            lines.append(f"{set_name},{float(x)!r},{float(w)!r}")
    io.atomic_write_text(_out(cfg, name), "\n".join(lines) + "\n")


_THRESHOLD_DEFAULTS = dict(a=0.5, R=3.0, delta=1.0)


def cmd_threshold(cfg):
    a, R = cfg["a"], cfg["R"]
    thr = gamma_threshold(a, R, cfg["delta"])
    gamma0 = gamma_0(a, R)
    print(f"gamma_0 = {gamma0!r}, threshold = {thr!r}")
    return 0, {"gamma_0": gamma0, "threshold": thr}, None


_FIGURE2_DEFAULTS = dict(
    a=0.5, gamma=math.exp(-5.0 * math.pi), R=3.0, k_min=-3, k_max=3,
)


def cmd_figure2(cfg):
    a = cfg["a"]
    rp, rm = root_set_pair(make_fpm(a, cfg["gamma"]), cfg["k_min"], cfg["k_max"])
    gamma0 = gamma_0(a, cfg["R"])
    maxima = [[0.0, 0.0], [1.0 / a, 0.0]]
    _write_points(cfg, "figure2.csv", "kind",
                  (("root_plus", rp), ("root_minus", rm), ("maximum", maxima)))
    payload = {
        "roots_plus": rp,
        "roots_minus": rm,
        "maxima": maxima,
        "gamma_0": gamma0,
        "mass_99_radius": MASS_99_RADIUS,
    }
    return 0, payload, None


# ---------------------------------------------------------------------------
# weighted-domain commands: spectrum / poincare / variation / refine / cheeger
# ---------------------------------------------------------------------------

_DOMAIN_DEFAULTS = dict(
    weight="gaussian", a=0.5, gamma=1.0, p=2.0, R=4.0, n=101,
    floor_rel=DEFAULT_FLOOR_REL,
    separation=3.0, bridge=0.1, sigma=0.35, corridor_sigma=None,
)


def _square_grid(cfg):
    """The n x n grid over [-R, R]^2."""
    return TFGrid(-cfg["R"], cfg["R"], -cfg["R"], cfg["R"], cfg["n"], cfg["n"])


def _build_domain(cfg):
    if cfg["weight"] == "dumbbell":
        half_w = max(4.0 * cfg["sigma"], 1.5)
        half_x = cfg["separation"] / 2.0 + 3.0 * cfg["sigma"]
        grid = TFGrid(-half_x, half_x, -half_w, half_w,
                      cfg["n"], max(2 * (int(cfg["n"] * half_w / half_x) // 2) + 1, 41))
        return dumbbell_weight(cfg["separation"], cfg["bridge"], cfg["sigma"],
                               grid, cfg["corridor_sigma"], cfg["floor_rel"])
    grid = _square_grid(cfg)
    sig = gaussian() if cfg["weight"] == "gaussian" else _make_pair(cfg["weight"], cfg).plus
    mag = gabor_magnitude_field(sig, grid)
    return build_weighted_domain(mag, cfg["p"], disk_mask(grid, cfg["R"]), cfg["floor_rel"])


def _domain_record(domain, dec):
    """The domain's size, what its trim level removed of the input mask, and the solve."""
    kept, trimmed = domain.node_weights().sum(), domain.weight[domain.trimmed]
    return {
        "n_nodes": domain.n_nodes,
        "trimmed_nodes": trimmed.size,
        "trimmed_node_share": trimmed.size / (domain.n_nodes + trimmed.size),
        "trimmed_mass_share": float(trimmed.sum() / (kept + trimmed.sum())),
        "max_residual": float(dec.residuals.max()), "solver_path": dec.path,
        "lu_solves": dec.lu_solves,
    }


def _provenance(domain, dec):
    return {
        **_domain_record(domain, dec),
        "eigenpair_residual_contract": RESIDUAL_CONTRACT,
        "boundary_conditions": "Neumann (weighted 5-point pencil)",
        "poincare_convention": "classical weighted constant, p = 2 spectral route",
    }


_SPECTRUM_DEFAULTS = dict(_DOMAIN_DEFAULTS, m=5)


def cmd_spectrum(cfg):
    domain = _build_domain(cfg)
    dec = solve_spectrum(domain, cfg["m"])
    print("eigenvalues:", " ".join(f"{v:.6g}" for v in dec.eigenvalues))
    return 0, {"eigenvalues": dec.eigenvalues}, _provenance(domain, dec)


# poincare reads the domain keys alone.  lambda_1 alone sets the constant:
# more pairs change only its last bits and the solve's cost, so poincare
# solves for two, as cheeger does
def cmd_poincare(cfg):
    domain = _build_domain(cfg)
    dec = solve_spectrum(domain, 2)
    est = poincare_estimate(dec)
    payload = {"poincare": est, "lambda_1": float(dec.eigenvalues[1])}
    print(f"poincare estimate = {est!r}")
    return 0, payload, _provenance(domain, dec)


# the lemma compares the |G f|^2 weights of a Gaussian and an fpm signal, so
# p is fixed at 2 and no weight kind or dumbbell key takes a flag
_VARIATION_DEFAULTS = dict(
    {key: _DOMAIN_DEFAULTS[key] for key in ("a", "gamma", "R", "n", "floor_rel")},
    mode="fpm-vs-gaussian", scale=3.0,
)


def cmd_variation(cfg):
    cfg = dict(cfg, p=2.0)
    dom_a = _build_domain(dict(cfg, weight="gaussian"))
    disk = dom_a.mask | dom_a.trimmed
    if cfg["mode"] == "scaled":
        dom_b = weighted_domain_from_values(dom_a.grid, cfg["scale"] * dom_a.weight,
                                            disk, cfg["floor_rel"])
    else:
        dom_b = _build_domain(dict(cfg, weight="fpm"))
    # the lemma compares two weights on one Omega: the nodes both trims kept
    shared = dom_a.mask & dom_b.mask
    dom_a, dom_b = (WeightedDomain(d.grid, shared, d.weight, disk & ~shared)
                    for d in (dom_a, dom_b))
    dec_a, dec_b = solve_spectrum(dom_a, 2), solve_spectrum(dom_b, 2)
    report = variation_bound_check(dec_a, dec_b)
    # the base domain's record at the top level, as in the other reports
    prov = _provenance(dom_a, dec_a)
    prov["varied"] = _domain_record(dom_b, dec_b)
    return (0 if report.paper_ok and report.spectral_ok else 4), dataclasses.asdict(report), prov


_REFINE_DEFAULTS = dict(
    _DOMAIN_DEFAULTS, weight="dumbbell", m=5, k=1, n_fields=50, seed=7,
)


def cmd_refine(cfg):
    if cfg["n_fields"] < 1:
        raise ValueError("n_fields must be at least 1")
    domain = _build_domain(cfg)
    dec = solve_spectrum(domain, cfg["m"])
    rng = np.random.default_rng(cfg["seed"])
    slacks = []
    for _ in range(cfg["n_fields"]):
        h = rng.standard_normal(domain.n_nodes)
        rep = refinement_check(dec, h, cfg["k"])
        slacks.append(rep.slack / max(rep.lhs, 1e-300))
    payload = {"min_relative_slack": float(min(slacks)), "eigenvalues": dec.eigenvalues}
    return (0 if min(slacks) >= -1e-9 else 4), payload, _provenance(domain, dec)


_CHEEGER_DEFAULTS = dict(
    _DOMAIN_DEFAULTS, cuts="vertical", cut_lo=None, cut_hi=None, cut_count=101,
)


def cmd_cheeger(cfg):
    if not 1 <= cfg["cut_count"] <= WORK_BUDGET:
        raise ValueError(f"cut_count must be at least 1 and at most {WORK_BUDGET:.0e}")
    domain = _build_domain(cfg)
    grid, count = domain.grid, cfg["cut_count"]
    rmax = min(grid.x_max, grid.w_max)
    r_lo, r_hi = rmax / count, rmax * 0.98
    # a vertical cut samples a column of nodes, a circle its angles (the largest most)
    points = grid.nw if cfg["cuts"] == "vertical" else circle_point_count(
        max(r_lo, r_hi), grid.dx, grid.dw)
    if count * points > WORK_BUDGET:
        raise ValueError(f"{count} cuts (cut_count) of up to {points} points exceed the"
                         f" work budget of {WORK_BUDGET:.0e} points")
    if cfg["cuts"] == "vertical":
        lo = cfg["cut_lo"] if cfg["cut_lo"] is not None else grid.x_min + grid.dx
        hi = cfg["cut_hi"] if cfg["cut_hi"] is not None else grid.x_max - grid.dx
        family = vertical_cut_family(lo, hi, count)
    else:
        family = circle_cut_family(r_lo, r_hi, count)
    dec = solve_spectrum(domain, 2)
    report = cheeger_upper_bound(domain, family, decomposition=dec)
    return 0, dataclasses.asdict(report), _provenance(domain, dec)


# ---------------------------------------------------------------------------
# probe / dnorm
# ---------------------------------------------------------------------------

_PROBE_DEFAULTS = dict(
    kind="fpm", a=0.5, gamma=math.exp(-5.0 * math.pi), p=1.0, s=4.0,
    R=3.0, n=121,
)


def cmd_probe(cfg):
    pair = _make_pair(cfg["kind"], cfg)
    grid = _square_grid(cfg)
    mask = disk_mask(grid, cfg["R"])
    report = stability_probe(pair.plus, pair.minus, mask, grid, cfg["p"], cfg["s"])
    return 0, dataclasses.asdict(report), None


_DNORM_DEFAULTS = dict(
    kind="fpm", a=0.5, gamma=0.1, p=1.0, s=4.0, k=1, R=4.0, n=161,
)


def cmd_dnorm(cfg):
    pair = _make_pair(cfg["kind"], cfg)
    grid = _square_grid(cfg)
    fp, fm = gabor_fields((pair.plus, pair.minus), grid)
    diff = ComplexField(grid, (np.abs(fp.values) - np.abs(fm.values)).astype(complex))
    # a weight past the double range is inf, which the s-moment check refuses
    with np.errstate(over="ignore"):
        weight = np.abs(fp.values) ** cfg["p"]
    value = measurement_norm_D(diff, cfg["p"], cfg["s"], cfg["k"], weight=weight)
    print(f"D-norm = {value!r}")
    return 0, {"value": value}, None


# ---------------------------------------------------------------------------
# one option table per command: flags, defaults and config-file checks
# ---------------------------------------------------------------------------

# name: (function, defaults, the command its report names); the report is
# <preset or that command>.json, written to out_dir, which every command takes
_COMMANDS = {name: (func, dict(table, out_dir="."), command) for name, (func, table, command) in {
    "spectrogram": (cmd_spectrogram, _SPECTROGRAM_DEFAULTS, "spectrogram"),
    "figure1a": (cmd_spectrogram, _FIGURE1A_DEFAULTS, "spectrogram"),
    "figure1b": (cmd_spectrogram, _FIGURE1B_DEFAULTS, "spectrogram"),
    "verify": (cmd_verify, _VERIFY_DEFAULTS, "verify"),
    "roots": (cmd_roots, _ROOTS_DEFAULTS, "roots"),
    "threshold": (cmd_threshold, _THRESHOLD_DEFAULTS, "threshold"),
    "figure2": (cmd_figure2, _FIGURE2_DEFAULTS, "figure2"),
    "spectrum": (cmd_spectrum, _SPECTRUM_DEFAULTS, "spectrum"),
    "poincare": (cmd_poincare, _DOMAIN_DEFAULTS, "poincare"),
    "variation": (cmd_variation, _VARIATION_DEFAULTS, "variation"),
    "refine": (cmd_refine, _REFINE_DEFAULTS, "refine"),
    "cheeger": (cmd_cheeger, _CHEEGER_DEFAULTS, "cheeger"),
    "probe": (cmd_probe, _PROBE_DEFAULTS, "probe"),
    "dnorm": (cmd_dnorm, _DNORM_DEFAULTS, "dnorm"),
}.items()}

# the types of the keys whose default is None; every other key takes the type
# of its default
_NONE_DEFAULT_TYPES = dict(
    lattice=str, extent=float, k_max=int, corridor_sigma=float,
    cut_lo=float, cut_hi=float,
)

_CHOICES = dict(sign=("plus", "minus"), **{
    pick: tuple(val for val in rows if isinstance(val, str)) for pick, rows in _KINDS.items()})


def _type(key, default):
    return _NONE_DEFAULT_TYPES[key] if default is None else type(default)


def _settable(table):
    """The keys a user may set: all but the preset that the command fixes."""
    return [key for key in table if key != "preset"]


def build_parser():
    parser = _Parser(prog="gaborlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, table, _) in _COMMANDS.items():
        # flags left off the command line stay out of the namespace
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--config")
        for key in _settable(table):
            flag = f"-{key}" if len(key) == 1 else "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, type=_type(key, table[key]),
                           choices=_CHOICES.get(key))
    return parser


def _check(key, val, table):
    """Hold a config-file value to the type and choices of its flag."""
    if key not in _settable(table):
        raise ValueError(f"unknown config key {key!r}")
    kind = _type(key, table[key])
    if val is None and table[key] is None:
        return
    if not (type(val) is kind or (kind is float and type(val) is int)):
        raise ValueError(f"config key {key!r} must be of type "
                         f"{kind.__name__}, not {val!r}")
    if key in _CHOICES and val not in _CHOICES[key]:
        raise ValueError(f"config key {key!r} must be one of "
                         f"{', '.join(_CHOICES[key])}, not {val!r}")


def _resolve(table, path, given):
    """defaults <- config file <- flags given on the command line, cut to the
    keys that the resolved kinds read; setting any other key is an error."""
    loaded = {}
    if path:
        with open(path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("a config file must hold one JSON object")
        for key, val in loaded.items():
            _check(key, val, table)
    cfg = {**table, **loaded, **given}
    for pick in [pick for pick in _KINDS if pick in table]:
        rows, kind = _KINDS[pick], cfg[pick]
        listed = [key for key in table if any(key in row for row in rows.values())]
        unread = [key for key in listed if key not in rows[kind]]
        rejected = [key for key in unread if key in loaded or key in given]
        if rejected:
            reads = ", ".join(key for key in listed if key in rows[kind]) or "none"
            raise ValueError(f"{pick} {kind!r} does not read "
                             f"{', '.join(map(repr, rejected))}; "
                             f"of {', '.join(listed)} it reads {reads}")
        cfg = {key: val for key, val in cfg.items() if key not in unread}
    return cfg


def main(argv=None):
    args = vars(build_parser().parse_args(argv))
    func, table, command = _COMMANDS[args.pop("command")]
    path = args.pop("config", None)
    try:
        cfg = _resolve(table, path, args)
        try:
            code, payload, provenance = func(cfg)
        except SolverConvergenceError as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            # residuals is None when Lanczos stopped at its step cap, before
            # any pair was checked
            code, payload = 4, {"status": "solver_failure", "message": str(exc),
                                "residuals": exc.residuals}
            provenance = {"eigenpair_residual_contract": RESIDUAL_CONTRACT}
        io.write_report(_out(cfg, f"{cfg.get('preset') or command}.json"),
                        io.report_envelope(command, cfg, payload, provenance))
        return code
    # lattice mismatches, inadmissible cuts and bad JSON are ValueErrors too
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
