"""The three benchmark workloads and their correctness checks.

Each workload makes a fixed job list from the seed (``make_jobs``), runs one
job at a time (``run_job``, timed) and checks each job's outputs afterwards
(``check``, untimed).  A job is a study (``stability``), an analysis case or
cut scan (``sweep``) or a CLI command (``cli``).  Spans are opened only around
the benchmark's own calls into gaborlab's public functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import gaborlab as gl
from gaborlab import cli as gcli
from gaborlab import io as gio

DIGESTS = json.loads((Path(__file__).with_name("digests.json")).read_text())

RESIDUAL_CONTRACT = 1e-8
ORTH_TOL = 1e-8
SLACK_FLOOR = -1e-9
PARSEVAL_TOL = 1e-6
GAUSS_LAMBDA1_TOL = 0.05  # criterion 04 at 121^2 nodes
REFINE_FIELDS = 50
REFINE_KS = (1, 2, 3)


def _digest(data):
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# stability: eigensolver studies at the ROADMAP sizes
# ---------------------------------------------------------------------------

# fpm disk: a = 0.5, gamma = 1, R = 4, floor 1e-14; n = 55 gives the 2,289-node
# criterion-06 domain; it raised SolverConvergenceError when this benchmark was
# added and stays in the job list as a failed job
STUDIES = (
    ("fpm2k", "fpm", 55),
    ("fpm8k", "fpm", 101),
    ("fpm20k", "fpm", 161),
    ("fpm45k", "fpm", 241),
    ("dumbbell2k", "dumbbell", None),
    ("gauss11k", "gauss", 121),
    ("fullbasis899", "fullbasis", None),
)


class Stability:
    def make_jobs(self, seed):
        return [{"id": i, "study": s, "kind": k, "n": n, "seed": seed}
                for i, (s, k, n) in enumerate(STUDIES)]

    def _domain(self, job, tr):
        kind, n = job["kind"], job["n"]
        if kind in ("fpm", "gauss"):
            with tr.span("grid.disk_mask"):
                grid = gl.TFGrid(-4.0, 4.0, -4.0, 4.0, n, n)
                mask = gl.disk_mask(grid, 4.0)
            if kind == "fpm":
                with tr.span("counterexamples.make_fpm"):
                    sig = gl.make_fpm(0.5, 1.0).plus
                floor = 1e-14
            else:
                with tr.span("signals.gaussian"):
                    sig = gl.gaussian()
                floor = 1e-30
            with tr.span("gabor.gabor_magnitude_field"):
                mag = gl.gabor_magnitude_field(sig, grid)
            with tr.span("spectral.build_weighted_domain"):
                return gl.build_weighted_domain(mag, 2.0, mask, floor)
        if kind == "dumbbell":
            grid = gl.TFGrid(-2.6, 2.6, -1.0, 1.0, 59, 41)
            with tr.span("cheeger.dumbbell_weight"):
                return gl.dumbbell_weight(3.0, 0.05, 0.35, grid)
        grid = gl.TFGrid(-2.0, 2.0, -1.0, 1.0, 29, 31)
        X, W = grid.mesh()
        with tr.span("spectral.weighted_domain_from_values"):
            return gl.weighted_domain_from_values(grid, np.exp(-(X**2 + W**2)))

    def run_job(self, job, tr):
        dom = self._domain(job, tr)
        # operators() assembles and caches the pencil, so the solve span
        # below holds no assembly time
        with tr.span("spectral.assemble_operators"):
            S, _ = dom.operators()
        tr.count("spectral.nnz", S.nnz)
        m = dom.n_nodes - 1 if job["kind"] == "fullbasis" else 5
        with tr.span("spectral.solve_spectrum", study=job["study"]):
            dec = gl.solve_spectrum(dom, m)
        with tr.span("spectral.poincare_estimate"):
            gl.poincare_estimate(dec)
        rng = np.random.default_rng([job["seed"], job["id"]])
        slacks = []
        for _ in range(REFINE_FIELDS):
            h = rng.standard_normal(dom.n_nodes)
            for k in REFINE_KS:
                with tr.span("spectral.refinement_check"):
                    rep = gl.refinement_check(dec, h, k)
                slacks.append(rep.slack / max(rep.lhs, 1e-300))
        grid = dom.grid
        cuts = gl.vertical_cut_family(grid.x_min + grid.dx, grid.x_max - grid.dx, 101)
        with tr.span("cheeger.cheeger_upper_bound"):
            bound = gl.cheeger_upper_bound(dom, cuts, decomposition=dec)
        return {"domain": dom, "dec": dec, "slacks": slacks, "cheeger": bound}

    def check(self, job, out):
        dom, dec = out["domain"], out["dec"]
        # fresh assembly: the pair the solver cached is not trusted here
        S, mass = gl.assemble_operators(dom)
        lam, U = dec.eigenvalues, dec.eigenvectors
        MU = mass[:, None] * U
        residual = float(np.max(np.linalg.norm(S @ U - MU * lam, axis=0)
                                / np.linalg.norm(MU, axis=0)))
        orth = float(np.max(np.abs(U.T @ MU - np.eye(len(lam)))))
        problems = []
        if np.any(np.diff(lam) < 0):
            problems.append("eigenvalues not ascending")
        if not residual <= RESIDUAL_CONTRACT:
            problems.append(f"pencil residual {residual:.2e} > {RESIDUAL_CONTRACT}")
        if not orth <= ORTH_TOL:
            problems.append(f"mu-orthonormality error {orth:.2e} > {ORTH_TOL}")
        if job["kind"] == "gauss":
            err = abs(lam[1] - 2 * math.pi) / (2 * math.pi)
            if not err <= GAUSS_LAMBDA1_TOL:
                problems.append(f"gaussian lambda_1 off 2 pi by {err:.2%}")
        if job["kind"] == "fullbasis":
            rng = np.random.default_rng([job["seed"], job["id"], 1])
            worst = 0.0
            for _ in range(5):
                h = rng.standard_normal(dom.n_nodes)
                coeffs = U.T @ (mass * h)
                lhs = float(h @ (mass * h))
                worst = max(worst, abs(float(np.sum(coeffs**2)) - lhs) / lhs)
            if not worst <= PARSEVAL_TOL:
                problems.append(f"Parseval error {worst:.2e} > {PARSEVAL_TOL}")
        if not min(out["slacks"]) >= SLACK_FLOOR:
            problems.append(f"refinement slack {min(out['slacks']):.2e} < {SLACK_FLOOR}")
        h_up = out["cheeger"].h_upper
        if not (math.isfinite(h_up) and h_up > 0):
            problems.append(f"cheeger h_upper {h_up!r}")
        return problems, {"max_residual": residual, "orth_err": orth}


# ---------------------------------------------------------------------------
# sweep: seeded analysis cases and cut scans, no eigensolve
# ---------------------------------------------------------------------------

# per pass: ANALYSIS_PER_KIND cases of each pair kind and CUT_SCANS dumbbell
# cut scans; fixed counts keep the cost of a pass the same for every seed
ANALYSIS_PER_KIND = 20
CUT_SCANS = 15
PROBE_GRID = (3.0, 121)  # half extent and nodes per side, the probe defaults
LINE_SAMPLES, LINE_KMAX = 401, 12  # criterion 02 lattice
DUMBBELL_SIGMA, DUMBBELL_GRID = 0.35, (101, 61)
ROOT_CANCEL_TOL = 1e-8
_LATTICE = {"hpm": "horizontal_lines", "fpm": "horizontal_lines",
            "gpm": "vertical_lines"}


class Sweep:
    def make_jobs(self, seed):
        rng = np.random.default_rng(seed)
        jobs = []
        for kind in ("hpm", "fpm", "gpm"):
            for _ in range(ANALYSIS_PER_KIND):
                jobs.append({
                    "type": "analysis", "kind": kind,
                    "a": float(rng.uniform(1.0 / 6.0, 1.0)),
                    "gamma": float(10.0 ** rng.uniform(-3.0, 0.0)),
                    "theta": float(rng.uniform(0.0, math.pi)),
                    "p": float(rng.uniform(1.0, 2.0)),
                })
        for _ in range(CUT_SCANS):
            jobs.append({"type": "cuts",
                         "separation": float(rng.uniform(2.6, 3.4)),
                         "bridge": float(10.0 ** rng.uniform(-1.7, -0.3))})
        order = rng.permutation(len(jobs))
        return [dict(jobs[i], id=j) for j, i in enumerate(order)]

    def run_job(self, job, tr):
        if job["type"] == "cuts":
            return self._cut_scan(job, tr)
        kind, a, theta, p = job["kind"], job["a"], job["theta"], job["p"]
        with tr.span("counterexamples.make_pair"):
            if kind == "hpm":
                pair = gl.make_hpm(a, theta)
            elif kind == "fpm":
                pair = gl.make_fpm(a, job["gamma"], theta)
            else:
                pair = gl.make_gpm(a, job["gamma"], theta)
        lattice = gl.Lattice(_LATTICE[kind], a, theta,
                             line_sample_count=LINE_SAMPLES, k_max=LINE_KMAX)
        with tr.span("counterexamples.verify_pair"):
            rep = gl.verify_pair(pair, lattice, tol=1e-9, noneq_floor=1e-6)
        tr.count("counterexamples.verify_pair.samples", rep.n_samples)
        tr.count("counterexamples.verify_pair.passed", int(rep.passed))
        with tr.span("counterexamples.root_set_pair"):
            roots = gl.root_set_pair(pair, -3, 3)
        half, n = PROBE_GRID
        with tr.span("grid.disk_mask"):
            grid = gl.TFGrid(-half, half, -half, half, n, n)
            mask = gl.disk_mask(grid, half)
        with tr.span("norms.stability_probe"):
            probe = gl.stability_probe(pair.plus, pair.minus, mask, grid, p, 4.0)
        with tr.span("norms.global_phase_distance"):
            _, dist = gl.global_phase_distance(pair.plus, pair.minus, grid, p)
        fields = []
        for sig in (pair.plus, pair.minus):
            with tr.span("gabor.gabor_field"):
                fields.append(gl.gabor_field(sig, grid))
            tr.count("gabor.points", grid.n_nodes * len(sig))
        fp, fm = fields
        diff = gl.ComplexField(grid, (np.abs(fp.values) - np.abs(fm.values)).astype(complex))
        with tr.span("norms.measurement_norm_D"):
            dnorm = gl.measurement_norm_D(diff, p, 4.0, 1, weight=np.abs(fp.values) ** p)
        return {"pair": pair, "verify": rep, "roots": roots, "probe": probe,
                "dist": dist, "fields": (fp, fm), "dnorm": dnorm}

    def _cut_scan(self, job, tr):
        sep = job["separation"]
        half_x, half_w = sep / 2.0 + 3.0 * DUMBBELL_SIGMA, 1.5
        grid = gl.TFGrid(-half_x, half_x, -half_w, half_w, *DUMBBELL_GRID)
        with tr.span("cheeger.dumbbell_weight"):
            dom = gl.dumbbell_weight(sep, job["bridge"], DUMBBELL_SIGMA, grid)
        families = {
            "vertical": gl.vertical_cut_family(grid.x_min + grid.dx, grid.x_max - grid.dx, 101),
            "circle": gl.circle_cut_family(half_w / 101, 0.98 * half_w, 101),
        }
        ratios = {}
        for family, cuts in families.items():
            ratios[family] = []
            for cut in cuts:
                try:
                    with tr.span("cheeger.cut_ratio", family=family):
                        ratios[family].append((cut.parameter, gl.cut_ratio(dom, cut)))
                except gl.InadmissibleCutError:
                    pass
        return {"ratios": ratios}

    def check(self, job, out):
        problems = []
        if job["type"] == "cuts":
            for family, rs in out["ratios"].items():
                if not rs:
                    problems.append(f"no admissible {family} cut")
                elif not all(math.isfinite(r) and r > 0 for _, r in rs):
                    problems.append(f"non-positive {family} cut ratio")
            if out["ratios"]["vertical"]:
                best = min(out["ratios"]["vertical"], key=lambda cr: cr[1])[0]
                if abs(best) > job["separation"] / 2.0:
                    problems.append(f"best vertical cut {best:.3f} outside the bridge")
            return problems, {}
        pair, rep = out["pair"], out["verify"]
        if not rep.passed:
            problems.append(f"verify_pair failed: rel dev {rep.max_rel_dev:.2e}, "
                            f"d_X2 {rep.d_X2:.2e}")
        cancel = _root_cancellation(pair, out["roots"])
        if not cancel <= ROOT_CANCEL_TOL:
            problems.append(f"root cancellation {cancel:.2e} > {ROOT_CANCEL_TOL}")
        probe = out["probe"]
        if not (probe.numerator >= 0 and probe.denominator > 0
                and math.isfinite(probe.ratio) and 0 <= probe.alpha_star < 2 * math.pi):
            problems.append(f"stability probe {probe}")
        fp, fm = out["fields"]
        p, area = job["p"], fp.grid.cell_area
        unaligned = (float(np.sum(np.abs(fp.values - fm.values) ** p)) * area) ** (1 / p)
        if not 0.0 <= out["dist"] <= unaligned * (1 + 1e-12):
            problems.append(f"phase distance {out['dist']!r} not in [0, {unaligned!r}]")
        if not (math.isfinite(out["dnorm"]) and out["dnorm"] > 0):
            problems.append(f"measurement norm {out['dnorm']!r}")
        return problems, {}


def _root_cancellation(pair, roots):
    """max over roots of |G f(z)| / sum_j |G atom_j(z)|: ~1e-16 at a true zero."""
    c, s = math.cos(pair.theta), math.sin(pair.theta)
    worst = 0.0
    for sig, pts in zip((pair.plus, pair.minus), roots):
        # undo the rotation the root set carries
        x = pts[:, 0] * c + pts[:, 1] * s
        w = -pts[:, 0] * s + pts[:, 1] * c
        total = np.abs(gl.gabor_eval(sig, x, w))
        scale = sum(np.abs(gl.gabor_eval(gl.GaussianSum([atom]), x, w)) for atom in sig.atoms)
        worst = max(worst, float(np.max(total / scale)))
    return worst


# ---------------------------------------------------------------------------
# cli: every command as a fresh process
# ---------------------------------------------------------------------------

OUTPUTS = {
    "spectrogram": ("spectrogram.csv", "spectrogram.pgm", "spectrogram.json"),
    "verify": ("verify.json",),
    "roots": ("roots.csv", "roots.json"),
    "threshold": ("threshold.json",),
    "spectrum": ("spectrum.json",),
    "poincare": ("poincare.json",),
    "variation": ("variation.json",),
    "refine": ("refine.json",),
    "cheeger": ("cheeger.json",),
    "probe": ("probe.json",),
    "dnorm": ("dnorm.json",),
    "figure1a": ("fig1a.csv", "fig1a.pgm", "fig1a.json"),
    "figure1b": ("fig1b.csv", "fig1b.pgm", "fig1b.json"),
    "figure2": ("figure2.csv", "figure2.json"),
}


def check_outputs(command, returncode, out_dir):
    """Exit code, expected files, report envelopes and CSV/PGM digests."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    for name in OUTPUTS[command]:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"missing {name}")
        elif name.endswith(".json"):
            try:
                report = json.loads(path.read_text())
            except ValueError:
                problems.append(f"{name} is not JSON")
                continue
            if not isinstance(report, dict) or "payload" not in report:
                problems.append(f"{name} has no payload")
        elif _digest(path.read_bytes()) != DIGESTS[name]:
            problems.append(f"{name} digest differs from the recorded one")
    return problems


class Cli:
    def __init__(self, root, scratch, env):
        self.root, self.scratch, self.env = root, scratch, env
        self._fields = None
        self._warm = False
        self._rss_mb = defaultdict(list)

    def make_jobs(self, seed):
        order = np.random.default_rng(seed).permutation(len(OUTPUTS))
        commands = list(OUTPUTS)
        return [{"id": j, "command": commands[i]} for j, i in enumerate(order)]

    def _out_dir(self, job):
        out = self.scratch / f"{job['id']:02d}-{job['command']}"
        shutil.rmtree(out, ignore_errors=True)
        return out

    def run_job(self, job, tr):
        out = self._out_dir(job)
        proc = subprocess.Popen(
            [sys.executable, "-m", "gaborlab", job["command"], "--out-dir", str(out)],
            cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        # wait4 reaps the child and returns that child's own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._rss_mb[job["command"]].append(usage.ru_maxrss / 1024.0)
        return {"returncode": proc.returncode, "out_dir": out}

    def peak_rss_mb(self):
        """Largest over commands of the command's (low) median peak RSS."""
        return max(statistics.median_low(v) for v in self._rss_mb.values())

    def check(self, job, out):
        problems = check_outputs(job["command"], out["returncode"], out["out_dir"])
        shutil.rmtree(out["out_dir"], ignore_errors=True)
        return problems, {}

    def layer_probes(self, jobs, tr, null, pass_index):
        """Traced passes only: in-process cli.main per command, and the
        writers on the fields that spectrogram, figure1a and figure1b write.

        Each command runs in process twice, once traced and once not, the
        first of the two alternating by command and pass, after one untimed
        warm-up call per command in the first traced pass.  Returns the
        problems found and the (untraced, traced) seconds of the timed
        calls, for trace.overhead_frac.
        """
        problems, main_s = [], {null: 0.0, tr: 0.0}
        if not self._warm:
            # a command's first in-process call also loads what it imports lazily
            for job in jobs:
                problems += self._main(job, null)[0]
            self._warm = True
        for i, job in enumerate(jobs):
            for t in ((null, tr) if (i + pass_index) % 2 else (tr, null)):
                found, seconds = self._main(job, t)
                problems += found
                main_s[t] += seconds
        if self._fields is None:
            self._fields = _figure_fields()
        self.scratch.mkdir(parents=True, exist_ok=True)
        for name, field in self._fields.items():
            with tr.span("io.field_csv_text"):
                csv = gio.field_csv_text(field)
            with tr.span("io.pgm_text"):
                pgm = gio.pgm_text(field)
            envelope = gio.report_envelope("spectrogram", {"preset": name},
                                           {"peak": float(field.values.max())})
            report = self.scratch / f"{name}.json"
            with tr.span("io.write_report"):
                gio.write_report(report, envelope)
            tr.count("io.bytes", len(csv) + len(pgm) + report.stat().st_size)
            report.unlink()
            for ext, text in (("csv", csv), ("pgm", pgm)):
                if _digest(text.encode()) != DIGESTS[f"{name}.{ext}"]:
                    problems.append(f"io: {name}.{ext} text digest differs")
        return problems, (main_s[null], main_s[tr])

    def _main(self, job, tr):
        """One in-process cli.main call: its problems and its seconds."""
        out = self._out_dir(job)
        argv = [job["command"], "--out-dir", str(out)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            with tr.span("cli.main", command=job["command"]):
                rc = gcli.main(argv)
            seconds = time.perf_counter() - t0
        problems = [f"in-process {job['command']}: {p}"
                    for p in check_outputs(job["command"], rc, out)]
        shutil.rmtree(out, ignore_errors=True)
        return problems, seconds


def _figure_fields():
    """The default spectrogram and the fig1a/fig1b fields, from the public API."""
    fields = {"spectrogram": gl.gabor_magnitude_field(
        gl.gaussian(), gl.TFGrid(-4.0, 4.0, -4.0, 4.0, 201, 201))}
    a = 1.0 / 6.0
    base = gl.make_hpm(a)
    # fig1a/fig1b shift the hpm pair so its maxima sit at (0, 0) and (1/a, 0)
    shifted = gl.CounterexamplePair(base.plus.translated(1.0 / (2.0 * a)),
                                    base.minus.translated(1.0 / (2.0 * a)), "hpm", a)
    grid = gl.TFGrid(-2.0, 8.0, -5.0, 5.0, 201, 201)
    X, W = grid.mesh()
    fields["fig1a"] = gl.MagnitudeField(grid, gl.pair_magnitude(shifted, +1, X, W))
    fields["fig1b"] = gl.tilt_magnitude(shifted, 0.1, grid)[0]
    return fields
