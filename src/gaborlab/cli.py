"""Command-line front end.

Exit codes: 0 success, 1 usage/validation error, 2 lattice agreement
failure, 3 non-equivalence failure, 4 solver failure.  Every report embeds
the fully resolved configuration; CSV/PGM outputs are byte-deterministic
for identical configurations.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import io
from .cheeger import (
    InadmissibleCutError,
    cheeger_upper_bound,
    circle_cut_family,
    dumbbell_weight,
    vertical_cut_family,
)
from .counterexamples import (
    CounterexamplePair,
    Lattice,
    LatticeMismatchError,
    gamma_threshold,
    make_fpm,
    make_gpm,
    make_hpm,
    pair_magnitude,
    root_set_fpm,
    root_set_pair,
    tilt_magnitude,
    verify_pair,
)
from .gabor import gabor_field, gabor_magnitude_field
from .grid import ComplexField, MagnitudeField, TFGrid, disk_mask
from .norms import measurement_norm_D, stability_probe
from .signals import GaussianSum, gaussian
from .spectral import (
    RESIDUAL_CONTRACT,
    SolverConvergenceError,
    build_weighted_domain,
    poincare_estimate,
    refinement_check,
    solve_spectrum,
    variation_bound_check,
)

MASS_99_RADIUS = math.sqrt(math.log(100.0) / math.pi)


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for agreement failures; argparse
    # usage errors must exit 1 instead of its default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_grid(p, xmin=None, xmax=None, wmin=None, wmax=None, nx=None, nw=None):
    p.add_argument("--xmin", type=float, default=xmin)
    p.add_argument("--xmax", type=float, default=xmax)
    p.add_argument("--wmin", type=float, default=wmin)
    p.add_argument("--wmax", type=float, default=wmax)
    p.add_argument("--nx", type=int, default=nx)
    p.add_argument("--nw", type=int, default=nw)


def _grid_from(cfg):
    return TFGrid(cfg["xmin"], cfg["xmax"], cfg["wmin"], cfg["wmax"],
                  cfg["nx"], cfg["nw"])


def _resolve(args, defaults):
    """defaults <- config file <- explicitly given CLI flags."""
    cfg = dict(defaults)
    path = getattr(args, "config", None)
    if path:
        with open(path) as fh:
            loaded = json.load(fh)
        for key, val in loaded.items():
            if key not in cfg:
                raise ValueError(f"unknown config key {key!r}")
            cfg[key] = val
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _make_pair(kind, a, gamma, theta=0.0) -> CounterexamplePair:
    if kind == "hpm":
        return make_hpm(a, theta)
    if kind == "fpm":
        return make_fpm(a, gamma, theta)
    if kind == "gpm":
        return make_gpm(a, gamma, theta)
    raise ValueError(f"unknown pair kind {kind!r}")


def _out(cfg, name):
    os.makedirs(cfg["out_dir"], exist_ok=True)
    return os.path.join(cfg["out_dir"], name)


# ---------------------------------------------------------------------------
# spectrogram / figure1a / figure1b
# ---------------------------------------------------------------------------

_SPECTROGRAM_DEFAULTS = dict(
    signal="gaussian", sign="plus", a=0.5, gamma=0.1, tau=0.0, theta=0.0,
    xmin=-4.0, xmax=4.0, wmin=-4.0, wmax=4.0, nx=201, nw=201,
    preset=None, out_dir=".",
)

# fig1a: the two-bump counterexample spectrogram at a = 1/6, time-shifted so
# the maxima sit at (0, 0) and (1/a, 0); fig1b: its Bargmann tilt, tau = 1/10
_PRESETS = {
    "fig1a": dict(signal="hpm", a=1.0 / 6.0, tau=0.0,
                  xmin=-2.0, xmax=8.0, wmin=-5.0, wmax=5.0, nx=201, nw=201),
    "fig1b": dict(signal="hpm", a=1.0 / 6.0, tau=0.1,
                  xmin=-2.0, xmax=8.0, wmin=-5.0, wmax=5.0, nx=201, nw=201),
}


def _shifted_hpm(a):
    base = make_hpm(a)
    s = 1.0 / (2.0 * a)
    return CounterexamplePair(
        base.plus.translated(s), base.minus.translated(s), "hpm", a, None
    )


def _spectrogram_field(cfg):
    grid = _grid_from(cfg)
    sig = cfg["signal"]
    if sig == "empty":
        return gabor_magnitude_field(GaussianSum(), grid)
    if sig == "gaussian":
        return gabor_magnitude_field(gaussian(), grid)
    shifted = sig == "hpm" and cfg["preset"] in ("fig1a", "fig1b")
    if cfg["tau"] > 0.0:
        if cfg["theta"] != 0.0:
            raise ValueError("tilted spectrograms do not compose with rotation")
        pair = (_shifted_hpm(cfg["a"]) if shifted
                else _make_pair(sig, cfg["a"], cfg["gamma"]))
        plus_field, minus_field = tilt_magnitude(pair, cfg["tau"], grid)
        return plus_field if cfg["sign"] == "plus" else minus_field
    pair = (_shifted_hpm(cfg["a"]) if shifted
            else _make_pair(sig, cfg["a"], cfg["gamma"], cfg["theta"]))
    X, W = grid.mesh()
    vals = pair_magnitude(pair, +1 if cfg["sign"] == "plus" else -1, X, W)
    return MagnitudeField(grid, vals)


def cmd_spectrogram(args):
    # preset values override the base defaults but still yield to explicit
    # CLI flags, so resolve twice: once to find the preset, once for real
    preset = _resolve(args, _SPECTROGRAM_DEFAULTS)["preset"]
    defaults = dict(_SPECTROGRAM_DEFAULTS)
    if preset:
        if preset not in _PRESETS:
            raise ValueError(f"unknown preset {preset!r}")
        defaults.update(_PRESETS[preset])
    cfg = _resolve(args, defaults)
    field = _spectrogram_field(cfg)
    name = cfg["preset"] or "spectrogram"
    io.write_field_csv(_out(cfg, f"{name}.csv"), field)
    io.write_pgm(_out(cfg, f"{name}.pgm"), field)
    payload = {
        "peak": float(field.values.max()),
        "csv": f"{name}.csv",
        "pgm": f"{name}.pgm",
    }
    io.write_report(_out(cfg, f"{name}.json"),
                    io.report_envelope("spectrogram", cfg, payload))
    return 0


def cmd_figure1a(args):
    args.preset = "fig1a"
    return cmd_spectrogram(args)


def cmd_figure1b(args):
    args.preset = "fig1b"
    return cmd_spectrogram(args)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# default noneq floor sits below the d_X2 of the gamma = e^{-5 pi} showcase
# pair (~3e-7); sweep-style runs should raise it explicitly
_VERIFY_DEFAULTS = dict(
    kind="fpm", a=0.5, gamma=math.exp(-5.0 * math.pi), theta=0.0,
    lattice=None, samples=401, extent=None, offset=0.0, k_max=None,
    tol=1e-9, noneq_floor=1e-9, out_dir=".",
)


def cmd_verify(args):
    cfg = _resolve(args, _VERIFY_DEFAULTS)
    pair = _make_pair(cfg["kind"], cfg["a"], cfg["gamma"], cfg["theta"])
    lattice_kind = cfg["lattice"] or (
        "vertical_lines" if cfg["kind"] == "gpm" else "horizontal_lines"
    )
    lattice = Lattice(
        kind=lattice_kind, a=cfg["a"], theta=cfg["theta"],
        line_sample_count=cfg["samples"], line_extent=cfg["extent"],
        offset=cfg["offset"], k_max=cfg["k_max"],
    )
    report = verify_pair(pair, lattice, tol=cfg["tol"],
                         noneq_floor=cfg["noneq_floor"])
    payload = {
        "max_abs_dev": report.max_abs_dev,
        "max_rel_dev": report.max_rel_dev,
        "d_X2": report.d_X2,
        "passed": report.passed,
        "n_lines": report.n_lines,
        "n_samples": report.n_samples,
        "roots_plus": report.roots_plus,
        "roots_minus": report.roots_minus,
    }
    io.write_report(_out(cfg, "verify.json"),
                    io.report_envelope("verify", cfg, payload))
    if report.max_rel_dev > cfg["tol"]:
        print(f"agreement FAILED: max relative deviation {report.max_rel_dev:.3e}")
        return 2
    if report.d_X2 <= cfg["noneq_floor"]:
        print(f"non-equivalence FAILED: d_X2 = {report.d_X2:.3e}")
        return 3
    print(f"verified: max_rel_dev={report.max_rel_dev:.3e} d_X2={report.d_X2:.3e}")
    return 0


# ---------------------------------------------------------------------------
# roots / threshold / figure2
# ---------------------------------------------------------------------------

_ROOTS_DEFAULTS = dict(
    kind="fpm", a=0.5, gamma=math.exp(-5.0 * math.pi), theta=0.0,
    k_min=-3, k_max=3, out_dir=".",
)


def cmd_roots(args):
    cfg = _resolve(args, _ROOTS_DEFAULTS)
    pair = _make_pair(cfg["kind"], cfg["a"], cfg["gamma"], cfg["theta"])
    rp, rm = root_set_pair(pair, cfg["k_min"], cfg["k_max"])
    lines = ["set,x,omega"]
    for name, pts in (("plus", rp), ("minus", rm)):
        for x, w in pts:
            lines.append(f"{name},{float(x)!r},{float(w)!r}")
    io.atomic_write_text(_out(cfg, "roots.csv"), "\n".join(lines) + "\n")
    payload = {"roots_plus": rp, "roots_minus": rm}
    io.write_report(_out(cfg, "roots.json"),
                    io.report_envelope("roots", cfg, payload))
    return 0


_THRESHOLD_DEFAULTS = dict(a=0.5, R=3.0, delta=1.0, out_dir=".")


def cmd_threshold(args):
    cfg = _resolve(args, _THRESHOLD_DEFAULTS)
    gamma0 = math.exp(-(math.pi / cfg["a"]) * (cfg["R"] - 1.0 / (2.0 * cfg["a"])))
    thr = gamma_threshold(cfg["a"], cfg["R"], cfg["delta"])
    payload = {"gamma_0": gamma0, "threshold": thr, "delta": cfg["delta"]}
    io.write_report(_out(cfg, "threshold.json"),
                    io.report_envelope("threshold", cfg, payload))
    print(f"gamma_0 = {gamma0!r}, threshold = {thr!r}")
    return 0


_FIGURE2_DEFAULTS = dict(
    a=0.5, gamma=math.exp(-5.0 * math.pi), R=3.0, k_min=-3, k_max=3,
    out_dir=".",
)


def cmd_figure2(args):
    cfg = _resolve(args, _FIGURE2_DEFAULTS)
    a, gamma = cfg["a"], cfg["gamma"]
    rp = root_set_fpm(a, gamma, +1, cfg["k_min"], cfg["k_max"])
    rm = root_set_fpm(a, gamma, -1, cfg["k_min"], cfg["k_max"])
    gamma0 = gamma_threshold(a, cfg["R"], 1.0)
    lines = ["kind,x,omega"]
    for name, pts in (("root_plus", rp), ("root_minus", rm)):
        for x, w in pts:
            lines.append(f"{name},{float(x)!r},{float(w)!r}")
    for x, w in ((0.0, 0.0), (1.0 / a, 0.0)):
        lines.append(f"maximum,{float(x)!r},{float(w)!r}")
    io.atomic_write_text(_out(cfg, "figure2.csv"), "\n".join(lines) + "\n")
    payload = {
        "roots_plus": rp,
        "roots_minus": rm,
        "maxima": [[0.0, 0.0], [1.0 / a, 0.0]],
        "gamma_0": gamma0,
        "mass_99_radius": MASS_99_RADIUS,
    }
    io.write_report(_out(cfg, "figure2.json"),
                    io.report_envelope("figure2", cfg, payload))
    return 0


# ---------------------------------------------------------------------------
# weighted-domain commands: spectrum / poincare / variation / refine / cheeger
# ---------------------------------------------------------------------------

_DOMAIN_DEFAULTS = dict(
    weight="gaussian", a=0.5, gamma=1.0, p=2.0, R=4.0, n=101,
    floor_rel=1e-14,
    separation=3.0, bridge=0.1, sigma=0.35, corridor_sigma=None,
)


def _build_domain(cfg):
    if cfg["weight"] == "dumbbell":
        half_w = max(4.0 * cfg["sigma"], 1.5)
        half_x = cfg["separation"] / 2.0 + 3.0 * cfg["sigma"]
        grid = TFGrid(-half_x, half_x, -half_w, half_w,
                      cfg["n"], max(2 * int(cfg["n"] * half_w / half_x) // 2 + 1, 41))
        return dumbbell_weight(cfg["separation"], cfg["bridge"], cfg["sigma"],
                               grid, cfg["corridor_sigma"], cfg["floor_rel"])
    R, n = cfg["R"], cfg["n"]
    grid = TFGrid(-R, R, -R, R, n, n)
    mask = disk_mask(grid, R)
    if cfg["weight"] == "gaussian":
        sig = gaussian()
    else:
        sig = _make_pair(cfg["weight"], cfg["a"], cfg["gamma"]).plus
    mag = gabor_magnitude_field(sig, grid)
    return build_weighted_domain(mag, cfg["p"], mask, cfg["floor_rel"])


def _provenance(domain):
    return {
        "floor_applied": domain.floor_applied,
        "n_nodes": domain.n_nodes,
        "eigenpair_residual_contract": RESIDUAL_CONTRACT,
        "boundary_conditions": "Neumann (weighted 5-point pencil)",
        "poincare_convention": "classical weighted constant, p = 2 spectral route",
    }


_SPECTRUM_DEFAULTS = dict(_DOMAIN_DEFAULTS, m=5, out_dir=".")


def cmd_spectrum(args):
    cfg = _resolve(args, _SPECTRUM_DEFAULTS)
    domain = _build_domain(cfg)
    dec = solve_spectrum(domain, cfg["m"])
    payload = {"eigenvalues": dec.eigenvalues}
    io.write_report(_out(cfg, "spectrum.json"),
                    io.report_envelope("spectrum", cfg, payload,
                                       _provenance(domain)))
    print("eigenvalues:", " ".join(f"{v:.6g}" for v in dec.eigenvalues))
    return 0


_POINCARE_DEFAULTS = dict(_DOMAIN_DEFAULTS, m=2, out_dir=".")


def cmd_poincare(args):
    cfg = _resolve(args, _POINCARE_DEFAULTS)
    domain = _build_domain(cfg)
    dec = solve_spectrum(domain, cfg["m"])
    est = poincare_estimate(dec)
    payload = {"poincare": est, "lambda_1": float(dec.eigenvalues[1])}
    io.write_report(_out(cfg, "poincare.json"),
                    io.report_envelope("poincare", cfg, payload,
                                       _provenance(domain)))
    print(f"poincare estimate = {est!r}")
    return 0


_VARIATION_DEFAULTS = dict(
    _DOMAIN_DEFAULTS, mode="fpm-vs-gaussian", scale=3.0, out_dir=".",
)


def cmd_variation(args):
    cfg = _resolve(args, _VARIATION_DEFAULTS)
    base_cfg = dict(cfg, weight="gaussian", floor_rel=min(cfg["floor_rel"], 1e-14))
    dom_a = _build_domain(base_cfg)
    if cfg["mode"] == "scaled":
        dom_b = dom_a.__class__(dom_a.grid, dom_a.mask,
                                cfg["scale"] * dom_a.weight, dom_a.p_exponent,
                                cfg["scale"] * dom_a.floor_applied)
    elif cfg["mode"] == "fpm-vs-gaussian":
        dom_b = _build_domain(dict(cfg, weight="fpm"))
    else:
        raise ValueError(f"unknown variation mode {cfg['mode']!r}")
    report = variation_bound_check(dom_a, dom_b, cfg["p"])
    payload = {
        "A": report.ratio_min, "B": report.ratio_max,
        "constant_base": report.constant_a, "constant_varied": report.constant_b,
        "ratio": report.ratio,
        "paper_bounds": [report.paper_lower, report.paper_upper],
        "spectral_bounds": [report.spectral_lower, report.spectral_upper],
        "paper_ok": report.paper_ok, "spectral_ok": report.spectral_ok,
    }
    io.write_report(_out(cfg, "variation.json"),
                    io.report_envelope("variation", cfg, payload,
                                       _provenance(dom_a)))
    return 0 if (report.paper_ok and report.spectral_ok) else 4


_REFINE_DEFAULTS = dict(
    _DOMAIN_DEFAULTS, weight="dumbbell", m=5, k=1, n_fields=50, seed=7,
    out_dir=".",
)


def cmd_refine(args):
    cfg = _resolve(args, _REFINE_DEFAULTS)
    domain = _build_domain(cfg)
    dec = solve_spectrum(domain, cfg["m"])
    rng = np.random.default_rng(cfg["seed"])
    slacks = []
    for _ in range(cfg["n_fields"]):
        h = rng.standard_normal(domain.n_nodes)
        rep = refinement_check(dec, h, cfg["k"])
        slacks.append(rep.slack / max(rep.lhs, 1e-300))
    payload = {
        "k": cfg["k"],
        "n_fields": cfg["n_fields"],
        "min_relative_slack": float(min(slacks)),
        "eigenvalues": dec.eigenvalues,
    }
    io.write_report(_out(cfg, "refine.json"),
                    io.report_envelope("refine", cfg, payload,
                                       _provenance(domain)))
    return 0 if min(slacks) >= -1e-9 else 4


_CHEEGER_DEFAULTS = dict(
    _DOMAIN_DEFAULTS, cuts="vertical", cut_lo=None, cut_hi=None, cut_count=101,
    chain_slack=10.0, out_dir=".",
)


def cmd_cheeger(args):
    cfg = _resolve(args, _CHEEGER_DEFAULTS)
    domain = _build_domain(cfg)
    grid = domain.grid
    lo = cfg["cut_lo"] if cfg["cut_lo"] is not None else grid.x_min + grid.dx
    hi = cfg["cut_hi"] if cfg["cut_hi"] is not None else grid.x_max - grid.dx
    if cfg["cuts"] == "vertical":
        family = vertical_cut_family(lo, hi, cfg["cut_count"])
    elif cfg["cuts"] == "circle":
        rmax = min(grid.x_max, grid.w_max)
        family = circle_cut_family(rmax / cfg["cut_count"], rmax * 0.98,
                                   cfg["cut_count"])
    else:
        raise ValueError(f"unknown cut family {cfg['cuts']!r}")
    report = cheeger_upper_bound(domain, family, chain_slack=cfg["chain_slack"])
    payload = {
        "best_cut": {"kind": report.best_cut.kind,
                     "parameter": report.best_cut.parameter},
        "h_upper": report.h_upper,
        "lambda_1": report.lambda1,
        "inverse_h": report.inverse_h,
        "poincare": report.poincare,
        "chain_ok": report.chain_ok,
        "chain_slack": report.chain_slack,
    }
    io.write_report(_out(cfg, "cheeger.json"),
                    io.report_envelope("cheeger", cfg, payload,
                                       _provenance(domain)))
    return 0


# ---------------------------------------------------------------------------
# probe / dnorm
# ---------------------------------------------------------------------------

_PROBE_DEFAULTS = dict(
    kind="fpm", a=0.5, gamma=math.exp(-5.0 * math.pi), p=1.0, s=4.0,
    R=3.0, n=121, q=None, out_dir=".",
)


def cmd_probe(args):
    cfg = _resolve(args, _PROBE_DEFAULTS)
    pair = _make_pair(cfg["kind"], cfg["a"], cfg["gamma"])
    grid = TFGrid(-cfg["R"], cfg["R"], -cfg["R"], cfg["R"], cfg["n"], cfg["n"])
    mask = disk_mask(grid, cfg["R"])
    report = stability_probe(pair.plus, pair.minus, mask, grid, cfg["p"], cfg["s"])
    payload = {
        "alpha_star": report.alpha_star,
        "numerator": report.numerator,
        "denominator": report.denominator,
        "ratio": report.ratio,
        "infinite_ratio": report.infinite_ratio,
        "ignored_q": cfg["q"],
    }
    io.write_report(_out(cfg, "probe.json"),
                    io.report_envelope("probe", cfg, payload))
    return 0


_DNORM_DEFAULTS = dict(
    kind="fpm", a=0.5, gamma=0.1, p=1.0, s=4.0, k=1, R=4.0, n=161,
    dnorm_consistent_powers=False, q=None, out_dir=".",
)


def cmd_dnorm(args):
    cfg = _resolve(args, _DNORM_DEFAULTS)
    pair = _make_pair(cfg["kind"], cfg["a"], cfg["gamma"])
    grid = TFGrid(-cfg["R"], cfg["R"], -cfg["R"], cfg["R"], cfg["n"], cfg["n"])
    fp = gabor_field(pair.plus, grid)
    fm = gabor_field(pair.minus, grid)
    diff = ComplexField(grid, (np.abs(fp.values) - np.abs(fm.values)).astype(complex))
    value = measurement_norm_D(
        diff, cfg["p"], cfg["s"], cfg["k"],
        weight=np.abs(fp.values) ** cfg["p"],
        consistent_powers=cfg["dnorm_consistent_powers"], q=cfg["q"],
    )
    payload = {"value": value,
               "dnorm_consistent_powers": cfg["dnorm_consistent_powers"],
               "ignored_q": cfg["q"]}
    io.write_report(_out(cfg, "dnorm.json"),
                    io.report_envelope("dnorm", cfg, payload))
    print(f"D-norm = {value!r}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser():
    parser = _Parser(prog="gaborlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, configure=None):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--out-dir", dest="out_dir", type=str, default=None)
        if configure:
            configure(p)
        p.set_defaults(func=func)
        return p

    def spectrogram_args(p):
        p.add_argument("--preset", choices=sorted(_PRESETS), default=None)
        p.add_argument("--signal",
                       choices=["gaussian", "hpm", "fpm", "gpm", "empty"],
                       default=None)
        p.add_argument("--sign", choices=["plus", "minus"], default=None)
        p.add_argument("-a", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--tau", type=float, default=None)
        p.add_argument("--theta", type=float, default=None)
        _add_grid(p)

    add("spectrogram", cmd_spectrogram, spectrogram_args)
    add("figure1a", cmd_figure1a, spectrogram_args)
    add("figure1b", cmd_figure1b, spectrogram_args)

    def verify_args(p):
        p.add_argument("--kind", choices=["hpm", "fpm", "gpm"], default=None)
        p.add_argument("-a", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--theta", type=float, default=None)
        p.add_argument("--lattice",
                       choices=["horizontal_lines", "vertical_lines",
                                "rectangular"],
                       default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--extent", type=float, default=None)
        p.add_argument("--offset", type=float, default=None)
        p.add_argument("--k-max", dest="k_max", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--noneq-floor", dest="noneq_floor", type=float,
                       default=None)

    add("verify", cmd_verify, verify_args)

    def roots_args(p):
        p.add_argument("--kind", choices=["hpm", "fpm", "gpm"], default=None)
        p.add_argument("-a", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--theta", type=float, default=None)
        p.add_argument("--k-min", dest="k_min", type=int, default=None)
        p.add_argument("--k-max", dest="k_max", type=int, default=None)

    add("roots", cmd_roots, roots_args)

    def threshold_args(p):
        p.add_argument("-a", type=float, default=None)
        p.add_argument("-R", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)

    add("threshold", cmd_threshold, threshold_args)

    def figure2_args(p):
        p.add_argument("-a", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("-R", type=float, default=None)
        p.add_argument("--k-min", dest="k_min", type=int, default=None)
        p.add_argument("--k-max", dest="k_max", type=int, default=None)

    add("figure2", cmd_figure2, figure2_args)

    def domain_args(p):
        p.add_argument("--weight",
                       choices=["gaussian", "fpm", "hpm", "gpm", "dumbbell"],
                       default=None)
        p.add_argument("-a", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("-p", type=float, default=None)
        p.add_argument("-R", type=float, default=None)
        p.add_argument("-n", type=int, default=None)
        p.add_argument("--floor-rel", dest="floor_rel", type=float, default=None)
        p.add_argument("--separation", type=float, default=None)
        p.add_argument("--bridge", type=float, default=None)
        p.add_argument("--sigma", type=float, default=None)
        p.add_argument("--corridor-sigma", dest="corridor_sigma", type=float,
                       default=None)

    def spectrum_args(p):
        domain_args(p)
        p.add_argument("-m", type=int, default=None)

    add("spectrum", cmd_spectrum, spectrum_args)
    add("poincare", cmd_poincare, spectrum_args)

    def variation_args(p):
        domain_args(p)
        p.add_argument("--mode", choices=["fpm-vs-gaussian", "scaled"],
                       default=None)
        p.add_argument("--scale", type=float, default=None)

    add("variation", cmd_variation, variation_args)

    def refine_args(p):
        domain_args(p)
        p.add_argument("-m", type=int, default=None)
        p.add_argument("-k", type=int, default=None)
        p.add_argument("--n-fields", dest="n_fields", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)

    add("refine", cmd_refine, refine_args)

    def cheeger_args(p):
        domain_args(p)
        p.add_argument("--cuts", choices=["vertical", "circle"], default=None)
        p.add_argument("--cut-lo", dest="cut_lo", type=float, default=None)
        p.add_argument("--cut-hi", dest="cut_hi", type=float, default=None)
        p.add_argument("--cut-count", dest="cut_count", type=int, default=None)
        p.add_argument("--chain-slack", dest="chain_slack", type=float,
                       default=None)

    add("cheeger", cmd_cheeger, cheeger_args)

    def probe_args(p):
        p.add_argument("--kind", choices=["hpm", "fpm", "gpm"], default=None)
        p.add_argument("-a", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("-p", type=float, default=None)
        p.add_argument("-s", type=float, default=None)
        p.add_argument("-R", type=float, default=None)
        p.add_argument("-n", type=int, default=None)
        p.add_argument("-q", type=float, default=None)

    add("probe", cmd_probe, probe_args)

    def dnorm_args(p):
        probe_args(p)
        p.add_argument("-k", type=int, default=None)
        p.add_argument("--dnorm-consistent-powers",
                       dest="dnorm_consistent_powers",
                       action="store_const", const=True, default=None)

    add("dnorm", cmd_dnorm, dnorm_args)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LatticeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4
    except InadmissibleCutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
