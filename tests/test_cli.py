import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gaborlab.cli import _COMMANDS, build_parser, main
from gaborlab.io import read_field_csv
from gaborlab.spectral import RESIDUAL_CONTRACT, SolverConvergenceError


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


def test_threshold_report(tmp_path):
    assert run(["threshold", "-a", 0.5, "-R", 3.0, "--out-dir", tmp_path]) == 0
    rep = json.loads((tmp_path / "threshold.json").read_text())
    assert rep["payload"]["gamma_0"] == math.exp(-4 * math.pi)
    assert rep["config"]["a"] == 0.5
    assert rep["command"] == "threshold"


def test_figure2_payload(tmp_path):
    assert run(["figure2", "--out-dir", tmp_path]) == 0
    rep = json.loads((tmp_path / "figure2.json").read_text())
    rp = np.array(rep["payload"]["roots_plus"])
    rm = np.array(rep["payload"]["roots_minus"])
    assert np.allclose(rp[:, 0], 3.5) and np.allclose(rm[:, 0], 3.5)
    assert np.allclose(np.diff(rp[:, 1]), 1.0)
    offsets = sorted(min(abs(b[:, 1])) for b in (rp, rm))
    assert offsets == [0.25, 0.25]
    assert rep["payload"]["gamma_0"] == math.exp(-4 * math.pi)
    assert rep["payload"]["mass_99_radius"] == pytest.approx(
        math.sqrt(math.log(100.0) / math.pi), rel=1e-12)
    lines = (tmp_path / "figure2.csv").read_text().splitlines()
    assert lines[0] == "kind,x,omega"
    assert any(line.startswith("maximum,2.0,") for line in lines)


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
    (["--weight", "dumbbell"], 6060, 0, 0.0),
])
def test_spectral_reports_record_the_trim(tmp_path, args, n_nodes, trimmed, mass_share):
    assert run(["poincare", *args, "--out-dir", tmp_path]) == 0
    prov = json.loads((tmp_path / "poincare.json").read_text())["provenance"]
    assert prov["n_nodes"] == n_nodes
    assert prov["trimmed_nodes"] == trimmed
    assert prov["trimmed_node_share"] == trimmed / (n_nodes + trimmed)
    assert prov["trimmed_mass_share"] == pytest.approx(mass_share, rel=1e-3, abs=0.0)
    assert not any(key.startswith("floor_") for key in prov)


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
    assert rep["config"] == dict(_COMMANDS[name][1], out_dir=str(tmp_path))
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


def test_probe_and_dnorm_commands(tmp_path):
    assert run(["probe", "--kind", "fpm", "-a", 0.5, "-n", 61,
                "--out-dir", tmp_path]) == 0
    rep = json.loads((tmp_path / "probe.json").read_text())
    assert rep["payload"]["ratio"] >= 0.0
    assert rep["payload"]["ignored_q"] is None

    assert run(["dnorm", "--kind", "fpm", "-a", 0.5, "--gamma", 0.1, "-n", 61,
                "-q", 7.0, "--out-dir", tmp_path]) == 0
    rep = json.loads((tmp_path / "dnorm.json").read_text())
    assert rep["payload"]["value"] > 0.0
    assert rep["payload"]["ignored_q"] == 7.0


# ---------------------------------------------------------------------------
# option tables and input checks
# ---------------------------------------------------------------------------


def exit_code(args):
    """main's return value, or the code of the SystemExit it raised."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("args, config, message", [
    (["spectrogram"], {"sign": "bogus"}, "'sign'"),
    (["spectrum"], {"n": "41"}, "'n'"),
    (["dnorm"], {"dnorm_consistent_powers": "no"}, "'dnorm_consistent_powers'"),
    (["threshold"], [1, 2], "JSON object"),
    (["figure1a", "--preset", "fig1b"], None, "--preset"),
    (["refine", "--n-fields", 0], None, "n_fields"),
    # two bumps 6 apart whose 1e-15 corridor lies below the 1e-14 level
    (["cheeger", "--weight", "dumbbell", "--separation", 6, "--bridge", 1e-15],
     None, "super-level set at the trim level 1e-14 (floor_rel 1e-14 of its"
     " maximum) splits"),
])
def test_rejected_input_exits_1(tmp_path, capsys, args, config, message):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        args = [*args, "--config", path]
    assert exit_code([*args, "--out-dir", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and message in err and "Traceback" not in err
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


@pytest.mark.parametrize("name", sorted(_COMMANDS))
def test_flags_match_report_config(tmp_path, capsys, name):
    # one table per command: every flag is echoed in the report config and
    # every config key has a flag, except the preset the figures fix
    assert exit_code([name, "--help"]) == 0
    assert name in capsys.readouterr().out
    assert run([name, "--out-dir", tmp_path]) == 0
    (report,) = tmp_path.glob("*.json")
    config = json.loads(report.read_text())["config"]
    dests = {a.dest for a in subparsers()[name]._actions} - {"help", "config"}
    fixed = {"preset"} if name.startswith("figure1") else set()
    assert dests == set(config) - fixed


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
def test_each_command_writes_one_report(tmp_path, name):
    command, report, files = DEFAULT_OUTPUTS[name]
    assert run([name, "--out-dir", tmp_path]) == 0
    assert {p.name for p in tmp_path.iterdir()} == {report, *files}
    assert json.loads((tmp_path / report).read_text())["command"] == command


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
