import argparse
import ast
import copy
import hashlib
import importlib
import itertools
import json
import math
import os
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gaborlab.cli import _CHOICES, _COMMANDS, _KINDS, _build_domain, _resolve, build_parser, main
from gaborlab.counterexamples import AGREEMENT
from gaborlab.spectral import RESIDUAL_CONTRACT, SolverConvergenceError

from oracles import read_field_csv


def run(args):
    return main([str(a) for a in args])


def read_pgm(path):
    with open(path) as fh:
        tokens = fh.read().split()
    assert tokens[0] == "P2"
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    pix = np.array(tokens[4:], dtype=int).reshape(height, width)
    assert maxval == 255
    return pix


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------


def test_verify_exit_codes(tmp_path):
    out = ["--out-dir", tmp_path]
    assert run(["verify", "--kind", "fpm", *out]) == 0
    # deliberately sampling between the agreement lines
    assert run(["verify", "--kind", "fpm", "--offset", 0.25, *out]) == 2
    # a rectangular lattice takes the offset on both axes
    assert run(["verify", "--kind", "fpm", "--lattice", "rectangular",
                "--offset", 0.25, *out]) == 2
    assert run(["verify", "--kind", "gpm", "--gamma", 0.2, "--lattice", "rectangular",
                "--offset", 0.25, *out]) == 2
    # wrong lattice orientation is a usage error
    assert run(["verify", "--kind", "gpm", "--gamma", 0.2,
                "--lattice", "horizontal_lines", *out]) == 1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--kind", "nosuch"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run(["nosuchcommand"])
    assert exc.value.code == 1


def test_nonequivalence_exit_code(tmp_path):
    # an absurd floor forces the non-equivalence branch
    assert run(["verify", "--kind", "fpm", "--gamma", 0.1,
                "--noneq-floor", 10.0, "--out-dir", tmp_path]) == 3


def strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def test_nan_distance_fails_verify_and_stays_strict_json(tmp_path, capsys,
                                                         monkeypatch):
    # a NaN d_X2 must not pass the non-equivalence check
    monkeypatch.setattr("gaborlab.counterexamples.signal_phase_distance",
                        lambda f, g: math.nan)
    code = run(["verify", "--kind", "hpm", "-a", 0.5, "--out-dir", tmp_path])
    assert code == 3
    assert "non-equivalence FAILED" in capsys.readouterr().out
    rep = strict_json((tmp_path / "verify.json").read_text())
    assert rep["payload"]["passed"] is False
    assert rep["payload"]["d_X2"] == "NaN"


@pytest.mark.parametrize("args, d_X2", [
    # raw coefficient products would underflow to 0 ...
    (["--gamma", 1e-200, "--noneq-floor", 0], 2.000e-200),
    # ... or overflow, e^{pi/(4a^2)} squared, to NaN
    (["--kind", "hpm", "-a", 0.04], 2.159e+213),
    # hpm atoms whose e^{-pi r^2/2} is subnormal where c e^{-pi r^2/2} is not
    (["--kind", "hpm", "-a", 0.1], 1.819e+34),
    (["--kind", "hpm", "-a", 0.05], 3.874e+136),
])
def test_extreme_scale_pairs_verify(tmp_path, capsys, args, d_X2):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["verify", *args, "--out-dir", tmp_path]) == 0
    assert capsys.readouterr().out.startswith("verified:")
    rep = strict_json((tmp_path / "verify.json").read_text())
    assert rep["payload"]["passed"] is True
    assert math.isfinite(rep["payload"]["d_X2"])
    assert rep["payload"]["d_X2"] == pytest.approx(d_X2, rel=1e-3)


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------


def locate_peaks(field):
    """Coordinates of the two highest local maxima of a two-bump field."""
    vals = field.values
    xs = field.grid.x_nodes()
    half = field.grid.nx // 2
    i_left = np.unravel_index(np.argmax(vals[:half]), vals[:half].shape)
    i_right = np.unravel_index(np.argmax(vals[half:]), vals[half:].shape)
    left = (xs[i_left[0]], field.grid.w_nodes()[i_left[1]], vals[i_left])
    right = (xs[half + i_right[0]], field.grid.w_nodes()[i_right[1]],
             vals[half:][i_right])
    return left, right


def test_figure1a_two_equal_bumps(tmp_path):
    assert run(["figure1a", "--out-dir", tmp_path]) == 0
    field = read_field_csv(tmp_path / "fig1a.csv")
    left, right = locate_peaks(field)
    dx, dw = field.grid.dx, field.grid.dw
    assert abs(left[0] - 0.0) <= dx and abs(left[1] - 0.0) <= dw
    assert abs(right[0] - 6.0) <= dx and abs(right[1] - 0.0) <= dw
    assert right[2] == pytest.approx(left[2], rel=1e-9)
    pgm = read_pgm(tmp_path / "fig1a.pgm")
    assert pgm.max() == 255


def test_figure1b_tilt_breaks_symmetry(tmp_path):
    assert run(["figure1b", "--out-dir", tmp_path]) == 0
    field = read_field_csv(tmp_path / "fig1b.csv")
    left, right = locate_peaks(field)
    # the tilt factor e^{pi tau x} grows to the right, so the left bump is
    # the one that shrinks (see ledger: the spec example names the other)
    assert right[2] > 1.5 * left[2]


def test_empty_signal_outputs(tmp_path):
    assert run(["spectrogram", "--signal", "empty", "--nx", 41, "--nw", 41,
                "--out-dir", tmp_path]) == 0
    field = read_field_csv(tmp_path / "spectrogram.csv")
    assert np.all(field.values == 0.0)
    pgm = read_pgm(tmp_path / "spectrogram.pgm")
    assert np.all(pgm == 0)


def test_figure_preset_determinism(tmp_path):
    for preset in ("figure1a", "figure1b", "figure2"):
        d1 = tmp_path / f"{preset}-1"
        d2 = tmp_path / f"{preset}-2"
        assert run([preset, "--out-dir", d1]) == 0
        assert run([preset, "--out-dir", d2]) == 0
        for f1 in sorted(d1.iterdir()):
            if f1.suffix == ".json":
                continue  # reports carry a timestamp; CSV/PGM must match
            f2 = d2 / f1.name
            assert f1.read_bytes() == f2.read_bytes()


def test_csv_round_trip_bit_exact(tmp_path):
    assert run(["spectrogram", "--signal", "fpm", "-a", 0.5, "--gamma", 0.3,
                "--nx", 31, "--nw", 33, "--out-dir", tmp_path]) == 0
    field = read_field_csv(tmp_path / "spectrogram.csv")
    from gaborlab.io import field_csv_text

    text = (tmp_path / "spectrogram.csv").read_text()
    assert field_csv_text(field) == text


# ---------------------------------------------------------------------------
# reports and config plumbing
# ---------------------------------------------------------------------------


# gamma_0 = e^{-(pi/a)(R - 1/(2a))}, exactly e^{-4 pi} at the defaults and
# far above 1 where the strip R < 1/(2a) is root-free for every gamma < 1
# (a, R, gamma_0, the relative tolerance on gamma_0)
GAMMA_0 = [(0.5, 3.0, math.exp(-4 * math.pi), 0.0),
           (0.1, 1.0, math.exp(40 * math.pi), 1e-12)]


def test_threshold_report(tmp_path):
    for a, R, gamma_0, rel in GAMMA_0:
        out = tmp_path / f"{a}-{R}"
        assert run(["threshold", "-a", a, "-R", R, "--out-dir", out]) == 0
        rep = json.loads((out / "threshold.json").read_text())
        assert rep["payload"]["gamma_0"] == pytest.approx(gamma_0, rel=rel, abs=0.0)
        assert rep["config"]["a"] == a
        assert rep["command"] == "threshold"


def test_figure2_payload(tmp_path):
    for a, R, gamma_0, rel in GAMMA_0:
        out = tmp_path / f"{a}-{R}"
        assert run(["figure2", "-a", a, "-R", R, "--out-dir", out]) == 0
        rep = json.loads((out / "figure2.json").read_text())
        rp = np.array(rep["payload"]["roots_plus"])
        rm = np.array(rep["payload"]["roots_minus"])
        # gamma = e^{-5 pi}: the roots sit at x = 1/(2a) + 5a, 2a apart in omega
        x_root = 1.0 / (2.0 * a) + 5.0 * a
        assert np.allclose(rp[:, 0], x_root) and np.allclose(rm[:, 0], x_root)
        assert np.allclose(np.diff(rp[:, 1]), 2.0 * a)
        offsets = sorted(min(abs(b[:, 1])) for b in (rp, rm))
        assert offsets == [a / 2.0, a / 2.0]
        assert rep["payload"]["gamma_0"] == pytest.approx(gamma_0, rel=rel, abs=0.0)
        assert rep["payload"]["mass_99_radius"] == pytest.approx(
            math.sqrt(math.log(100.0) / math.pi), rel=1e-12)
        lines = (out / "figure2.csv").read_text().splitlines()
        assert lines[0] == "kind,x,omega"
        assert any(line.startswith(f"maximum,{1.0 / a!r},") for line in lines)


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 0.25, "R": 2.0}))
    assert run(["threshold", "--config", cfg, "-R", 4.0,
                "--out-dir", tmp_path]) == 0
    rep = json.loads((tmp_path / "threshold.json").read_text())
    assert rep["config"]["a"] == 0.25  # from file
    assert rep["config"]["R"] == 4.0  # flag wins
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": 1}))
    assert run(["threshold", "--config", bad, "--out-dir", tmp_path]) == 1


def test_roots_command(tmp_path):
    assert run(["roots", "--kind", "fpm", "-a", 0.5, "--out-dir", tmp_path]) == 0
    text = (tmp_path / "roots.csv").read_text().splitlines()
    assert text[0] == "set,x,omega"
    assert any(row.startswith("plus,3.5,") for row in text)


def test_spectrum_and_poincare_commands(tmp_path):
    assert run(["spectrum", "--weight", "dumbbell", "--bridge", 0.05,
                "--sigma", 0.35, "--separation", 3.0, "-n", 81, "-m", 3,
                "--out-dir", tmp_path]) == 0
    rep = json.loads((tmp_path / "spectrum.json").read_text())
    lam = rep["payload"]["eigenvalues"]
    assert lam[2] / lam[1] >= 10.0
    assert rep["provenance"]["n_nodes"] > 0

    assert run(["poincare", "--weight", "gaussian", "-R", 4.0, "-n", 81,
                "--floor-rel", 1e-30, "--out-dir", tmp_path]) == 0
    rep = json.loads((tmp_path / "poincare.json").read_text())
    assert rep["payload"]["poincare"] == pytest.approx(
        1 / math.sqrt(2 * math.pi), rel=0.05)


def test_variation_command(tmp_path):
    assert run(["variation", "--mode", "scaled", "--scale", 3.0, "-R", 3.0,
                "-n", 41, "--out-dir", tmp_path]) == 0
    rep = json.loads((tmp_path / "variation.json").read_text())
    assert rep["payload"]["ratio"] == pytest.approx(1.0, abs=1e-8)
    assert rep["payload"]["paper_ok"] and rep["payload"]["spectral_ok"]


def test_refine_command(tmp_path):
    assert run(["refine", "--weight", "dumbbell", "-n", 41, "-m", 4, "-k", 1,
                "--n-fields", 5, "--out-dir", tmp_path]) == 0
    rep = json.loads((tmp_path / "refine.json").read_text())
    assert rep["payload"]["min_relative_slack"] >= -1e-9


@pytest.mark.parametrize("args, path", [
    (["spectrum", "-n", 41], "shift-invert"),
    (["spectrum", "-R", 2.0, "-n", 7, "-m", 4], "dense"),
    (["poincare", "-n", 41], "shift-invert"),
    (["refine", "-n", 41, "--n-fields", 3], "shift-invert"),
    (["cheeger", "-n", 41], "shift-invert"),
    (["variation", "-n", 41], "shift-invert"),
])
def test_spectral_reports_record_the_solve(tmp_path, args, path):
    assert run([*args, "--out-dir", tmp_path]) == 0
    prov = json.loads((tmp_path / f"{args[0]}.json").read_text())["provenance"]
    # variation solves the base domain (top level) and the varied one
    for rec in [prov] + ([prov["varied"]] if args[0] == "variation" else []):
        assert rec["solver_path"] == path
        assert 0.0 <= rec["max_residual"] <= prov["eigenpair_residual_contract"]
        # LU solves are spent only on the shift-invert branch
        assert isinstance(rec["lu_solves"], int)
        assert (rec["lu_solves"] > 0) == (path == "shift-invert")
        assert rec["n_nodes"] == prov["n_nodes"]


@pytest.mark.parametrize("args, n_nodes, trimmed, mass_share", [
    # 36% of the default Gaussian disk's 7,841 nodes lie below the 1e-14
    # level, with 9.8e-15 of its mass
    ([], 5041, 2800, 9.792e-15),
    (["--weight", "dumbbell"], 5959, 0, 0.0),
])
def test_spectral_reports_record_the_trim(tmp_path, args, n_nodes, trimmed, mass_share):
    assert run(["poincare", *args, "--out-dir", tmp_path]) == 0
    prov = json.loads((tmp_path / "poincare.json").read_text())["provenance"]
    assert prov["n_nodes"] == n_nodes
    assert prov["trimmed_nodes"] == trimmed
    assert prov["trimmed_node_share"] == trimmed / (n_nodes + trimmed)
    assert prov["trimmed_mass_share"] == pytest.approx(mass_share, rel=1e-3, abs=0.0)
    assert not any(key.startswith("floor_") for key in prov)


@pytest.mark.parametrize("n", [21, 51, 101, 121, 201])
def test_dumbbell_grid_has_a_node_on_the_corridor_axis(n):
    # the corridor weight peaks on w = 0, which an odd node count over the
    # symmetric w range samples
    grid = _build_domain(dict(_COMMANDS["refine"][1], n=n)).grid
    assert grid.nw % 2 == 1 and 0.0 in grid.w_nodes()


def test_default_gaussian_domain_meets_the_oracle(tmp_path):
    # the trimmed disk is a super-level set of the log-concave e^{-pi |z|^2},
    # on which lambda_1 = 2 pi, twice, and the Poincare constant 1/sqrt(2 pi)
    assert run(["poincare", "--out-dir", tmp_path]) == 0
    assert run(["spectrum", "--out-dir", tmp_path]) == 0
    poincare = json.loads((tmp_path / "poincare.json").read_text())
    spectrum = json.loads((tmp_path / "spectrum.json").read_text())
    assert abs(poincare["payload"]["poincare"] - 1 / math.sqrt(2 * math.pi)) <= 1e-3
    lam = spectrum["payload"]["eigenvalues"]
    assert lam[1:3] == pytest.approx([2 * math.pi] * 2, rel=1e-3)
    for rep in (poincare, spectrum):
        assert rep["provenance"]["max_residual"] <= RESIDUAL_CONTRACT


def test_variation_compares_both_weights_on_the_nodes_both_keep(tmp_path):
    # the Gaussian and the fpm weight each lose their own nodes to the level;
    # both are solved on what remains, and each record counts the disk nodes
    # outside it as trimmed
    assert run(["variation", "--out-dir", tmp_path]) == 0
    rep = json.loads((tmp_path / "variation.json").read_text())
    prov = rep["provenance"]
    assert prov["n_nodes"] == prov["varied"]["n_nodes"] == 5040
    for rec in (prov, prov["varied"]):
        assert rec["n_nodes"] + rec["trimmed_nodes"] == 7841
    assert rep["payload"]["paper_ok"] and rep["payload"]["spectral_ok"]


def test_reports_carry_the_library_versions(tmp_path):
    # a fresh process, so that scipy is loaded only by the spectrum solve
    # that follows verify; verify's report must not name it
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from gaborlab.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "assert main(['verify', '--out-dir', out]) == 0\n"
        "assert main(['spectrum', '-n', '41', '--out-dir', out]) == 0\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    import scipy

    base = {"python": platform.python_version(), "numpy": np.__version__}
    verify = json.loads((tmp_path / "verify.json").read_text())
    assert verify["libraries"] == base
    spectrum = json.loads((tmp_path / "spectrum.json").read_text())
    assert spectrum["libraries"] == dict(base, scipy=scipy.__version__)


def test_solver_failure_exits_4_with_a_report(tmp_path, capsys):
    # the default Gaussian on 29 nodes spans 14 decades of weight, all kept
    # at a level of 1e-30, and its dense solve misses the residual contract
    assert run(["spectrum", "-n", 7, "-m", 4, "--floor-rel", 1e-30,
                "--out-dir", tmp_path]) == 4
    assert "solver failure" in capsys.readouterr().err
    rep = json.loads((tmp_path / "spectrum.json").read_text())
    assert rep["command"] == "spectrum"
    assert rep["config"]["n"] == 7 and rep["config"]["m"] == 4
    assert rep["config"]["floor_rel"] == 1e-30
    payload = rep["payload"]
    assert payload["status"] == "solver_failure"
    assert "residuals exceed" in payload["message"]
    assert len(payload["residuals"]) == 5
    assert max(payload["residuals"]) > rep["provenance"]["eigenpair_residual_contract"]


@pytest.mark.parametrize("name", ["spectrum", "poincare", "variation", "refine", "cheeger"])
@pytest.mark.parametrize("residuals", [None, [3e-3, 1e-12]])
def test_every_spectral_command_reports_a_solver_failure(tmp_path, capsys, monkeypatch,
                                                          name, residuals):
    # residuals is None when ARPACK fails before any pair is checked
    def fail(domain, m):
        raise SolverConvergenceError("residuals exceed the contract", residuals)

    monkeypatch.setattr("gaborlab.cli.solve_spectrum", fail)
    monkeypatch.setattr("gaborlab.spectral.solve_spectrum", fail)
    assert run([name, "--out-dir", tmp_path]) == 4
    assert "solver failure: residuals exceed the contract" in capsys.readouterr().err
    (report,) = tmp_path.iterdir()
    assert report.name == f"{name}.json"
    rep = strict_json(report.read_text())
    assert rep["command"] == name
    # the keys the default kinds read, as in the report of a run that succeeds
    assert rep["config"] == _resolve(_COMMANDS[name][1], None, {"out_dir": str(tmp_path)})
    assert rep["payload"] == {"status": "solver_failure",
                              "message": "residuals exceed the contract",
                              "residuals": residuals}
    assert rep["provenance"] == {"eigenpair_residual_contract": RESIDUAL_CONTRACT}


def test_cheeger_command(tmp_path):
    assert run(["cheeger", "--weight", "fpm", "-a", 0.5, "--gamma", 1.0,
                "-R", 4.0, "-n", 61, "--out-dir", tmp_path]) == 0
    rep = json.loads((tmp_path / "cheeger.json").read_text())
    assert 0.5 < rep["payload"]["best_cut"]["parameter"] < 1.5
    assert rep["payload"]["h_upper"] > 0


def test_probe_takes_atoms_far_inside_the_coordinate_bound(tmp_path):
    # fpm's second atom sits at 1/a = 1e100, whose square is finite
    assert run(["probe", "-a", 1e-100, "-n", 21, "--out-dir", tmp_path]) == 0


def test_probe_and_dnorm_commands(tmp_path):
    assert run(["probe", "--kind", "fpm", "-a", 0.5, "-n", 61,
                "--out-dir", tmp_path]) == 0
    rep = json.loads((tmp_path / "probe.json").read_text())
    assert rep["payload"]["ratio"] >= 0.0
    assert "ignored_q" not in rep["payload"]

    assert run(["dnorm", "--kind", "fpm", "-a", 0.5, "--gamma", 0.1, "-n", 61,
                "--out-dir", tmp_path]) == 0
    rep = json.loads((tmp_path / "dnorm.json").read_text())
    assert rep["payload"]["value"] > 0.0
    assert "ignored_q" not in rep["payload"]


# ---------------------------------------------------------------------------
# option tables and input checks
# ---------------------------------------------------------------------------


def exit_code(args):
    """main's return value, or the code of the SystemExit it raised."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


def flags(opts):
    return [token for key, val in opts.items()
            for token in (f"-{key}" if len(key) == 1 else "--" + key.replace("_", "-"), val)]


# (command, keys set, the error): each key is one that the kind does not read
UNREAD = [
    ("figure1a", {"gamma": 0.3}, "signal 'hpm' does not read 'gamma'; of sign, a,"
     " gamma, tau, theta it reads sign, a, tau, theta"),
    ("spectrogram", {"a": 0.9, "sign": "minus", "theta": 0.3, "gamma": 0.2},
     "signal 'gaussian' does not read 'sign', 'a', 'gamma', 'theta'; of sign, a,"
     " gamma, tau, theta it reads none"),
    ("verify", {"lattice": "rectangular", "samples": 11},
     "lattice 'rectangular' does not read 'samples'"),
    ("roots", {"kind": "hpm", "gamma": 0.2},
     "kind 'hpm' does not read 'gamma'; of a, gamma, theta it reads a, theta"),
    ("probe", {"kind": "hpm", "gamma": 0.3},
     "kind 'hpm' does not read 'gamma'; of a, gamma it reads a"),
    ("dnorm", {"kind": "hpm", "gamma": 0.3}, "kind 'hpm' does not read 'gamma'"),
    ("cheeger", {"cuts": "circle", "cut_lo": 1.0, "cut_hi": 2.0},
     "cuts 'circle' does not read 'cut_lo', 'cut_hi'"),
    ("variation", {"mode": "scaled", "a": 0.9, "gamma": 0.3},
     "mode 'scaled' does not read 'a', 'gamma'; of a, gamma, scale it reads scale"),
    ("variation", {"scale": 7.0}, "mode 'fpm-vs-gaussian' does not read 'scale'"),
    ("refine", {"n": 41, "n_fields": 3, "p": 1.3, "a": 0.9, "R": 2.0},
     "weight 'dumbbell' does not read 'a', 'p', 'R'"),
    ("poincare", {"separation": 9.0, "bridge": 0.5},
     "weight 'gaussian' does not read 'separation', 'bridge'; of a, gamma, p, R,"
     " separation, bridge, sigma, corridor_sigma it reads p, R"),
]


@pytest.mark.parametrize("args, config, message", [
    (["spectrogram"], {"sign": "bogus"}, "'sign'"),
    (["spectrum"], {"n": "41"}, "'n'"),
    (["dnorm"], {"dnorm_consistent_powers": True}, "'dnorm_consistent_powers'"),
    (["threshold"], [1, 2], "JSON object"),
    (["figure1a", "--preset", "fig1b"], None, "--preset"),
    (["refine", "--n-fields", 0], None, "n_fields"),
    # two bumps 6 apart whose 1e-15 corridor lies below the 1e-14 level
    (["cheeger", "--weight", "dumbbell", "--separation", 6, "--bridge", 1e-15],
     None, "super-level set at the trim level 1e-14 (floor_rel 1e-14 of its"
     " maximum) splits"),
    # options that changed no result are gone
    (["spectrogram", "--preset", "fig1a"], None, "--preset"),
    (["probe", "-q", 7], None, "-q"),
    (["dnorm"], {"q": 7}, "'q'"),
    (["variation", "-p", 1.5], None, "-p"),
    # variation compares the Gaussian and the fpm weight: no weight kind
    (["variation", "--weight", "hpm", "--separation", 9, "--bridge", 0.5], None, "--weight"),
    (["variation"], {"bridge": 0.5}, "'bridge'"),
    (["cheeger", "--cuts", "circle", "--cut-count", 0], None, "cut_count must be at least 1"),
    (["cheeger"], {"cut_count": 0}, "cut_count must be at least 1"),
    # keys that the resolved kind does not read, as flags and from a config file
    *[([name, *flags(opts)], None, message) for name, opts, message in UNREAD],
    *[([name], opts, message) for name, opts, message in UNREAD],
    # poincare solves for two pairs, as cheeger does; the D-norm's moment
    # term is the printed one
    (["poincare", "-m", 3], None, "-m"),
    (["poincare"], {"m": 3}, "'m'"),
    (["dnorm", "--dnorm-consistent-powers"], None, "--dnorm-consistent-powers"),
    # every pair spectrogram is a tilt, the untilted one at tau = 0
    (["spectrogram", "--signal", "hpm", "--tau", -0.1], None, "tau must be >= 0"),
    # a tilt or a moment exponent past the double range names its key
    (["spectrogram", "--signal", "hpm", "--tau", 100], None,
     "tau=100.0: the tilted magnitude overflows"),
    (["probe", "-p", 1.999999, "-s", 1e300], None, "moment exponent s=1e+300"),
    (["probe", "-s", -1], None, "moment exponent s=-1.0"),
    (["dnorm", "-s", 1e300], None, "moment exponent s=1e+300"),
    (["dnorm", "-s", -2], None, "moment exponent s=-2.0"),
    (["dnorm", "-p", 2, "-s", 330], None, "s=330.0: the D-norm's s-moment is not finite"),
    # past the work budget, refused before the lattice, grid or cut family exists
    (["verify", "-a", 1e-5], None, "lines of 401 points (a 1e-05, extent"),
    (["spectrogram", "--nx", 100000000], None, "a grid of 100000000 x 201 nodes (nx x nw)"),
    (["cheeger", "--cuts", "circle", "--cut-count", 1000000000], None,
     "cut_count must be at least 1 and at most 1e+07"),
    # the budget counts the points the cuts sample: at least 512 per circle
    (["cheeger", "--cuts", "circle", "--cut-count", 10000000, "-n", 21], None,
     "10000000 cuts (cut_count) of up to 512 points exceed the work budget of 1e+07"),
    # a NaN or infinite pair parameter is refused, not computed with
    (["verify", "--gamma", "nan"], None, "a and gamma must be positive and finite"),
    (["verify", "--gamma", "inf"], None, "a and gamma must be positive and finite"),
    (["verify", "--kind", "gpm", "--gamma", "nan"], None,
     "a and gamma must be positive and finite"),
    (["roots", "--gamma", "nan"], None, "a and gamma must be positive and finite"),
    (["verify", "--kind", "hpm", "-a", "nan"], None, "a must be positive and finite"),
    # cheeger checks its best cut against Cheeger's inequality: no slack to set
    (["cheeger", "--chain-slack", 5], None, "--chain-slack"),
    # a root index range is counted against the work budget before it exists
    (["roots", "--k-max", 10**20], None,
     "k_min to k_max give over 1e+07 roots of each sign, past the work budget of 1e+07"),
    (["figure2", f"--k-min={-10**20}"], None, "k_min to k_max give over 1e+07 roots"),
    # time-frequency coordinates past 1e150 would overflow their squares
    (["probe", "-R", 1e300], None, "grid extent x_min -1e+300 is not within ±1e+150"),
    (["probe", "-R", 1e160], None, "grid extent x_min -1e+160 is not within ±1e+150"),
    (["probe", "-a", 1e-200], None, "atom shift 1e+200 is not within ±1e+150"),
    (["probe", "-a", 1e-300], None, "atom shift 9.999999999999999e+299 is not within"),
    # so are lattice coordinates, checked before the lines are counted
    (["verify", "--extent", 1e200, "--k-max", 1], None,
     "lattice extent 1e+200 is not within ±1e+150"),
    (["verify", "--offset", 1e200, "--k-max", 1], None,
     "lattice offset 1e+200 is not within ±1e+150"),
    (["verify", "--extent", 1e200], None, "lattice extent 1e+200 is not within ±1e+150"),
    (["verify", "--k-max", 10**400], None, "k_max must not exceed 2e+150, so that the line"
     " levels a k + offset stay within ±1e+150"),
    # an empty index range is refused for every pair kind
    (["roots", "--kind", "hpm", "--k-min", 3, "--k-max", -3], None,
     "k_min must not exceed k_max"),
    (["roots", "--kind", "gpm", "--k-min", 3, "--k-max", -3], None,
     "k_min must not exceed k_max"),
    # a lattice's k_max far past the budget is printed as the counts are
    (["verify", f"--k-max={-10**30}"], None, "the lattice has no line: k_max below -1e+07"),
    # root levels past the coordinate bound, which one index already reaches
    (["roots", "--k-min", 10**400, "--k-max", 10**400], None,
     "k_min and k_max must lie within ±1e+150, so that the root levels 2 a k stay"),
    # indices whose levels ±a/2 + 2 a k a double cannot keep apart
    (["roots", "--k-min", 10**20, "--k-max", 10**20 + 1], None,
     "k_min and k_max must lie strictly within ±2^50, so that the root levels"),
    (["roots", "--k-min", 2**52, "--k-max", 2**52], None,
     "k_min and k_max must lie strictly within ±2^50, so that the root levels"),
    # 4 a^2 underflows to 0, so no hpm coefficient e^{pi/(4a^2)} is finite
    (["spectrogram", "--signal", "hpm", "-a", 1e-300], None,
     "a too small: the exact-atom coefficient e^{pi/(4a^2)} overflows"),
    (["probe", "--kind", "hpm", "-a", 1e-170, "-n", 21], None,
     "a too small: the exact-atom coefficient e^{pi/(4a^2)} overflows"),
    # an infinite exponent, which math.exp returns as inf without raising
    (["threshold", "-a", 1e-300], None, "gamma_0 = e^(-(pi/a)(R - 1/(2a))) overflows"),
    # weights |G f|^2 past the double range, and node masses w dx dw below
    # the smallest normal double, refused before the pencil is factored
    (["spectrum", "--weight", "fpm", "--gamma", 1e300, "-n", 41], None,
     "weights on the mask must be finite"),
    (["variation", "-a", 2, "--gamma", 1e300], None, "weights on the mask must be finite"),
    (["poincare", "-R", 1e-300], None, "node masses w dx dw must be at least 2.23e-308"),
    (["variation", "--mode", "scaled", "--scale", 1e-300], None,
     "node masses w dx dw must be at least 2.23e-308"),
])
def test_rejected_input_exits_1(tmp_path, capsys, args, config, message):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        args = [*args, "--config", path]
    assert exit_code([*args, "--out-dir", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and message in err and "Traceback" not in err
    # no count is printed digit by digit past the double range
    assert not re.search(r"\d{21}", err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["--k-max", -1],
    ["--extent", -1],
    ["--offset", 100],
    ["--lattice", "rectangular", "--k-max", -1],
])
def test_a_lattice_with_no_line_exits_1(tmp_path, capsys, args):
    assert exit_code(["verify", *args, "--out-dir", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert "error: the lattice has no line" in err and "Traceback" not in err
    assert all(key in err for key in ("k_max", "extent", "offset"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("a, message", [
    (0.0, "a and R must be positive"),
    (-1.0, "a and R must be positive"),
    (1e-3, "gamma_0"),
])
def test_threshold_bad_a_exits_1(tmp_path, capsys, a, message):
    # inputs are validated before gamma_0 is computed, and a gamma_0 past
    # the largest double is an input error, not a traceback
    assert exit_code(["threshold", "-a", a, "--out-dir", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


# the flags that the default kind of each command does not read
_DOMAIN_UNREAD = {"a", "gamma", "separation", "bridge", "sigma", "corridor_sigma"}
UNREAD_AT_DEFAULTS = {
    "spectrogram": {"sign", "a", "gamma", "tau", "theta"},
    "figure1a": {"gamma"},  # the shifted hpm pair
    "figure1b": {"gamma"},
    "spectrum": _DOMAIN_UNREAD,
    "poincare": _DOMAIN_UNREAD,
    "cheeger": _DOMAIN_UNREAD,
    "refine": {"a", "gamma", "p", "R"},  # the dumbbell
    "variation": {"scale"},
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """runs(*argv) -> (exit code, out dir): each argv runs once, and every
    test that reads its outputs shares that run."""
    done = {}

    def run_once(*argv):
        if argv not in done:
            out = tmp_path_factory.mktemp(argv[0])
            done[argv] = (run([*argv, "--out-dir", out]), out)
        return done[argv]
    return run_once


@pytest.mark.parametrize("name", sorted(_COMMANDS))
def test_flags_match_report_config(runs, capsys, name):
    # one table per command: the report config holds the flags that the
    # resolved kinds read, and the preset that each spectrogram row fixes
    assert exit_code([name, "--help"]) == 0
    assert name in capsys.readouterr().out
    code, out = runs(name)
    assert code == 0
    (report,) = out.glob("*.json")
    config = json.loads(report.read_text())["config"]
    dests = {a.dest for a in subparsers()[name]._actions} - {"help", "config"}
    fixed = {"preset"} if "preset" in _COMMANDS[name][1] else set()
    assert dests - UNREAD_AT_DEFAULTS.get(name, set()) == set(config) - fixed
    assert set(config) == set(_resolve(_COMMANDS[name][1], None, {}))


def rows(name):
    """Each setting of the command's picking keys that names a row of the
    kinds table; a verify lattice is the kind's agreement lattice or rectangular."""
    picks = [pick for pick in _KINDS if pick in _COMMANDS[name][1]]
    for values in itertools.product(*(_CHOICES[pick] for pick in picks)):
        row = dict(zip(picks, values))
        if row.get("lattice") in (None, "rectangular", AGREEMENT.get(row.get("kind"))):
            yield row


# another valid value for each key a row reads, unlike any default of the key.
# n_fields acts through refine's minimum slack alone, which more fields lower
# only when one of them undercuts the base run's 3: with seed 7, a fourth
# field does so on the fpm row alone, and the first 20 do on every row
OTHER = dict(
    sign="minus", a=0.4, gamma=0.3, tau=0.05, theta=0.3, xmin=-3.0, xmax=3.0,
    wmin=-3.0, wmax=3.0, nx=23, nw=23, samples=31, extent=3.0, offset=0.25,
    k_min=-2, k_max=2, tol=1e-30, noneq_floor=1e6, R=3.5, delta=0.5, p=1.5,
    n=23, floor_rel=1e-6, m=3, separation=4.0, bridge=0.2, sigma=0.3,
    corridor_sigma=0.2, k=2, n_fields=20, seed=8, cut_lo=-1.0, cut_hi=1.0,
    cut_count=10, scale=7.0, s=3.0,
)
OTHER_IN = {("dnorm", "k"): 0}  # D-norms take k = 0 or 1

# every run is cut to these sizes where its row reads them
SMALL = dict(nx=21, nw=21, n=21, samples=41, n_fields=3)

ACTS = [
    (name, row, key)
    for name in sorted(_COMMANDS)
    for row in rows(name)
    for key in _resolve(_COMMANDS[name][1], None, row)
    if key not in row and key not in ("out_dir", "preset")
]


def outputs(tmp_path, name, opts):
    """The exit code, and each file written: the payload and provenance of
    the report, and the bytes of every other file."""
    tmp_path.mkdir()
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(opts))
    code = exit_code([name, "--config", path, "--out-dir", out])
    files = {}
    for p in sorted(out.iterdir()) if out.exists() else ():
        rep = json.loads(p.read_text()) if p.suffix == ".json" else None
        files[p.name] = (rep["payload"], rep["provenance"]) if rep else p.read_bytes()
    return code, files


@pytest.fixture(scope="module")
def base_outputs():
    """The outputs of each base run, shared by the keys of its row."""
    return {}


@pytest.mark.parametrize("name, row, key", ACTS,
                         ids=[f"{n}-{'-'.join(map(str, r.values()))}-{k}" for n, r, k in ACTS])
def test_every_accepted_key_acts(tmp_path, base_outputs, name, row, key):
    table = _COMMANDS[name][1]
    reads = _resolve(table, None, row)
    base = dict(row, **{k: v for k, v in SMALL.items() if k in reads})
    # where the value of another key leaves this one without effect, the base
    # run sets one under which it acts: a tilted spectrogram takes no
    # rotation, and on the 21-node fpm and gpm disks the best circle is the
    # family's last, 0.98 R, which every count includes, until the trim cuts
    # the rim
    if key == "theta" and reads.get("tau", 0.0) > 0.0:
        base["tau"] = 0.0
    if key == "cut_count" and row["cuts"] == "circle":
        base["floor_rel"] = 1e-6
    other = OTHER_IN.get((name, key), OTHER[key])
    assert other != reads[key] and other != base.get(key)
    ident = (name, json.dumps(base, sort_keys=True))
    if ident not in base_outputs:
        base_outputs[ident] = outputs(tmp_path / "base", name, base)
    code, files = outputs(tmp_path / "changed", name, dict(base, **{key: other}))
    assert base_outputs[ident][0] != 1 and code != 1
    assert (code, files) != base_outputs[ident]


# what each command writes at its defaults: the command its report's envelope
# names, the report, and the CSV/PGM files beside it
DEFAULT_OUTPUTS = {
    "spectrogram": ("spectrogram", "spectrogram.json",
                    {"spectrogram.csv", "spectrogram.pgm"}),
    "figure1a": ("spectrogram", "fig1a.json", {"fig1a.csv", "fig1a.pgm"}),
    "figure1b": ("spectrogram", "fig1b.json", {"fig1b.csv", "fig1b.pgm"}),
    "verify": ("verify", "verify.json", set()),
    "roots": ("roots", "roots.json", {"roots.csv"}),
    "threshold": ("threshold", "threshold.json", set()),
    "figure2": ("figure2", "figure2.json", {"figure2.csv"}),
    "spectrum": ("spectrum", "spectrum.json", set()),
    "poincare": ("poincare", "poincare.json", set()),
    "variation": ("variation", "variation.json", set()),
    "refine": ("refine", "refine.json", set()),
    "cheeger": ("cheeger", "cheeger.json", set()),
    "probe": ("probe", "probe.json", set()),
    "dnorm": ("dnorm", "dnorm.json", set()),
}


@pytest.mark.parametrize("name", sorted(_COMMANDS))
def test_each_command_writes_one_report(runs, name):
    command, report, files = DEFAULT_OUTPUTS[name]
    code, out = runs(name)
    assert code == 0
    assert {p.name for p in out.iterdir()} == {report, *files}
    assert json.loads((out / report).read_text())["command"] == command


# the record of what each run reports, by its argv: the exit code and the
# report's config (out_dir aside), payload and provenance.  A change that
# moves a value, or adds, removes or renames a key, rewrites the record
RECORD = json.loads((Path(__file__).resolve().parent / "golden" / "reports.json").read_text())
SECTIONS = ("config", "payload", "provenance")


def recorded_report(out):
    """The report that a run wrote to out, with its out_dir checked and dropped."""
    (path,) = out.glob("*.json")
    rep = json.loads(path.read_text())
    assert rep["config"].pop("out_dir") == str(out)
    return rep


@pytest.mark.parametrize("argv", sorted(RECORD))
def test_report_keys_match_the_record(runs, argv):
    code, out = runs(*argv.split())
    rep, record = recorded_report(out), RECORD[argv]
    assert code == record["exit"]
    assert {s: sorted(rep[s]) for s in SECTIONS} == {s: sorted(record[s]) for s in SECTIONS}


# the payload floats that come from an eigensolve.  The residual contract
# bounds each eigenvalue's error to first order, so another LAPACK build
# that meets it moves an eigenvalue by about the contract; 100 times the
# contract, relative to max(|value|, 1), also covers what is derived from
# the eigenpairs: constants 1/sqrt(lambda_1), their ratio, Cheeger's bound
# and refine's slack.  Every other value keeps every bit
SOLVED = {
    "spectrum": {"eigenvalues"},
    "poincare": {"poincare", "lambda_1"},
    "variation": {"constant_base", "constant_varied", "ratio"},
    "refine": {"eigenvalues", "min_relative_slack"},
    "cheeger": {"lambda_1", "cheeger_bound"},
}
SOLVED_TOL = 100 * RESIDUAL_CONTRACT


def solves(provenance):
    """The solver records of a provenance: its own and a varied domain's."""
    return [rec for rec in (provenance, provenance.get("varied", {})) if "solver_path" in rec]


@pytest.mark.parametrize("argv", sorted(RECORD))
def test_report_values_match_the_record(runs, argv):
    # the value loop walks only the recorded keys; a key that a run adds is
    # caught by test_report_keys_match_the_record
    rep, record = recorded_report(runs(*argv.split())[1]), copy.deepcopy(RECORD[argv])
    # solver telemetry by rule, not by value: the residuals within the
    # contract, LU solves spent exactly on the shift-invert path
    for rec, want in zip(solves(rep["provenance"]), solves(record["provenance"]), strict=True):
        assert 0.0 <= rec.pop("max_residual") <= RESIDUAL_CONTRACT
        assert (rec.pop("lu_solves") > 0) == (rec["solver_path"] == "shift-invert")
        del want["max_residual"], want["lu_solves"]
    solved = SOLVED.get(argv.split()[0], set())
    for section in SECTIONS:
        for key, want in record[section].items():
            got = rep[section][key]
            if section == "payload" and key in solved:
                np.testing.assert_allclose(got, want, rtol=SOLVED_TOL, atol=SOLVED_TOL)
            else:
                # the JSON text tells 1 from 1.0 and 0.0 from -0.0
                assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True), key


def test_default_csv_and_pgm_bytes_match_the_benchmark_digests(tmp_path):
    # the digests the benchmark checks its cli outputs against, read only
    recorded = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text())
    written = {}
    for name in ("spectrogram", "figure1a", "figure1b", "figure2", "roots"):
        out = tmp_path / name
        assert run([name, "--out-dir", out]) == 0
        written.update((p.name, hashlib.sha256(p.read_bytes()).hexdigest())
                       for p in out.iterdir() if p.suffix != ".json")
    assert written == recorded


def test_every_export_has_a_caller_outside_the_tests():
    # each module-level function, class and assigned name of the package
    # (dunders aside), and each public method or property of a package
    # class, is read by a package module or a benchmark file outside its own
    # definition; an import is no read.  What only the tests read lives in
    # tests/oracles.py
    root = Path(__file__).resolve().parents[1]
    modules = sorted((root / "src" / "gaborlab").glob("*.py"))
    trees = {path: ast.parse(path.read_text())
             for path in [*modules, *sorted((root / "perfbench").glob("*.py"))]}
    defined = []
    for path in modules:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(name.id, node) for target in targets for name in ast.walk(target)
                            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]
    defined = [(name, node) for name, node in defined if not name.startswith("__")]

    def read_outside(name, definition):
        own = set(ast.walk(definition))
        return any(node not in own and name in (getattr(node, "id", None),
                                                getattr(node, "attr", None))
                   for tree in trees.values() for node in ast.walk(tree))

    assert len(defined) > 100
    assert [name for name, node in defined if not read_outside(name, node)] == []

    # dunders and overrides of a base-class attribute (argparse's error) are
    # called by Python or by the base class; dataclass fields are no methods
    methods = []
    for path in modules:
        for cls in (node for node in trees[path].body if isinstance(node, ast.ClassDef)):
            bases = getattr(importlib.import_module(f"gaborlab.{path.stem}"),
                            cls.name).__mro__[1:]
            methods += [(cls.name, node) for node in cls.body
                        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                        and not any(hasattr(base, node.name) for base in bases)]

    def read_as_an_attribute(method):
        own = set(ast.walk(method))
        return any(isinstance(node, ast.Attribute) and node.attr == method.name
                   and node not in own for tree in trees.values() for node in ast.walk(tree))

    assert len(methods) > 15
    assert [f"{cls}.{node.name}" for cls, node in methods
            if not read_as_an_attribute(node)] == []
