"""gaborlab benchmark: closed-loop workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload stability --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One caller runs one job at a time; whole passes over the workload's fixed
job list repeat while one more brings the run's length closer to
``--seconds``, after a fixed number of passes per workload that every run
makes (``TAIL_PASSES``; two in a traced run).  With ``--trace 0`` the last
line of standard output holds the end-to-end metrics; with ``--trace 1``
untraced and traced passes alternate and the last line holds the per-layer
metrics.
The line before it is the full record: environment stamp, seed, job counts,
tail percentile and every failure.  Metric names, units and bounds live in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# single-threaded BLAS, here and in every child: threaded kernels that spin
# while a neighbour holds a core made passes up to ten times slower
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("stability", "sweep", "cli")
LAYERS = ("signals", "grid", "gabor", "counterexamples", "norms", "spectral",
          "cheeger", "io", "cli")
SETUP_REPS = 5
TAIL_BEYOND = 10
# every untraced run makes at least this many passes, and job_ms_tail is
# taken over exactly these first passes, so that the tail is the same rank
# of the same pooled sample on every commit however many passes fit
TAIL_PASSES = {"stability": 4, "sweep": 3, "cli": 3}
TRACED_MIN_PASSES = 2  # one untraced and one traced

# a fresh interpreter: import time of the package and how much of scipy it loads
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import gaborlab\n"
    "print((time.perf_counter() - t) * 1e3,"
    " sum(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
)


def child_env():
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + old if old else ""))


def environment(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _blas_threads(np):
    # numpy's bundled OpenBLAS; threadpoolctl is not available to ask instead
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    try:
        lib = ctypes.CDLL(glob.glob(str(libdir / "libscipy_openblas*"))[0])
        get = lib.scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.restype, get.argtypes = ctypes.c_int, []
    return get()


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def measure_setup(workload, seed, env):
    """Median over SETUP_REPS of: fresh-interpreter import + job generation."""
    probe = [sys.executable, "-c", IMPORT_PROBE]
    # warm-up: the first import in a fresh checkout also byte-compiles
    subprocess.run(probe, cwd=ROOT, env=env, check=True, capture_output=True)
    totals, import_ms, scipy_modules = [], [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        out = subprocess.run(probe, cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True)
        jobs = workload.make_jobs(seed)
        totals.append(time.perf_counter() - t0)
        ms, mods = out.stdout.split()
        import_ms.append(float(ms))
        scipy_modules.append(int(mods))
    return jobs, {"setup_s": statistics.median(totals),
                  "import_ms": statistics.median(import_ms),
                  "scipy_modules": statistics.median(scipy_modules)}


def run_passes(workload, jobs, seconds, min_passes, tracer, null):
    """Whole passes over the job list; in a traced run every second pass is traced."""
    passes, problems, stats = [], [], {"max_residual": 0.0, "orth_err": 0.0}
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        tr = tracer if traced else null
        times, failed = [], []
        for job in jobs:
            tr.job = f"{len(passes)}:{job['id']}"
            t0 = time.perf_counter()
            try:
                with tr.span("bench.job"):
                    out = workload.run_job(job, tr)
            except Exception as exc:  # a failed job is counted, the run goes on
                times.append(time.perf_counter() - t0)
                failed.append(f"{_label(job)}: {type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - t0)
            found, values = workload.check(job, out)
            for key, value in values.items():
                stats[key] = max(stats[key], value)
            if found:
                failed.append(f"{_label(job)}: " + "; ".join(found))
                problems += found
        tr.job = None
        probe_s = None
        if traced and hasattr(workload, "layer_probes"):
            found, probe_s = workload.layer_probes(jobs, tr, null, len(passes))
            problems += found
        passes.append({"traced": traced, "times": times, "failed": failed,
                       "labels": [_label(job) for job in jobs], "probe_s": probe_s})
        # another pass only if it brings the run's length closer to `seconds`
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (1 + 0.5 / len(passes)) >= seconds:
            return passes, problems, stats


def _label(job):
    return str(job.get("study") or job.get("command") or f"{job['type']}#{job['id']}")


def tail(times, labels):
    """Highest percentile with at least TAIL_BEYOND values beyond it, and
    the job that holds it."""
    order = sorted(range(len(times)), key=times.__getitem__)
    k = max(len(times) - TAIL_BEYOND - 1, 0)
    return times[order[k]], 100.0 * (k + 1) / len(times), labels[order[k]]


def end_to_end(workload, setup, passes, tail_passes):
    untraced = [p for p in passes if not p["traced"]]
    times = [t for p in untraced for t in p["times"]]
    sample = untraced[:tail_passes]
    n_failed = sum(len(p["failed"]) for p in untraced)
    if hasattr(workload, "peak_rss_mb"):  # jobs run in child processes
        peak_mb = workload.peak_rss_mb()
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sample_times = [t for p in sample for t in p["times"]]
    tail_s, pct, tail_job = tail(sample_times, [lb for p in sample for lb in p["labels"]])
    metrics = {
        "setup_s": setup["setup_s"],
        "wall_s": statistics.median(sum(p["times"]) for p in untraced),
        "job_ms_p50": 1e3 * statistics.median(times),
        "job_ms_tail": 1e3 * tail_s,
        "peak_rss_mb": peak_mb,
        "ok_frac": 1.0 - n_failed / len(times),
    }
    by_job = {}
    for p in untraced:
        for label, t in zip(p["labels"], p["times"]):
            by_job.setdefault(label, []).append(1e3 * t)
    return metrics, {"job_ms": {k: statistics.median(v) for k, v in by_job.items()},
                     "tail_percentile": pct, "tail_jobs": len(sample_times),
                     "tail_job": tail_job, "jobs": len(times),
                     "failed_frac": n_failed / len(times)}


def per_layer(tracer, passes, setup, stats):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    n = len(traced)
    fn = tracer.self_ms_by(lambda r: r["name"])
    layer = tracer.self_ms_by(lambda r: r["name"].split(".")[0])
    study = tracer.self_ms_by(
        lambda r: r["attrs"]["study"] if r["name"] == "spectral.solve_spectrum" else None)
    family = tracer.self_ms_by(
        lambda r: r["attrs"]["family"] if r["name"] == "cheeger.cut_ratio" else None)
    calls = Counter(r["name"] for r in tracer.spans)
    errors = Counter(r["name"] for r in tracer.spans if "error" in r)
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    wall = [sum(p["times"]) for p in traced]
    main_ms = fn["cli.main"] / n
    m = {
        "import.gaborlab_ms": setup["import_ms"],
        "import.scipy_modules": setup["scipy_modules"],
        "cli.main_ms": main_ms,
        "cli.startup_ms": 1e3 * statistics.mean(wall) - main_ms if main_ms else 0.0,
        "gabor.gabor_field.self_ms": fn["gabor.gabor_field"] / n,
        "gabor.gabor_field.calls": calls["gabor.gabor_field"] / n,
        "gabor.points": counts["gabor.points"] / n,
        "counterexamples.verify_pair.self_ms": fn["counterexamples.verify_pair"] / n,
        "counterexamples.verify_pair.samples": counts["counterexamples.verify_pair.samples"] / n,
        "counterexamples.verify_pair.pass_ratio": ratio(
            counts["counterexamples.verify_pair.passed"], calls["counterexamples.verify_pair"]),
        "counterexamples.root_set_pair.self_ms": fn["counterexamples.root_set_pair"] / n,
        "norms.stability_probe.self_ms": fn["norms.stability_probe"] / n,
        "norms.global_phase_distance.self_ms": fn["norms.global_phase_distance"] / n,
        "norms.measurement_norm_D.self_ms": fn["norms.measurement_norm_D"] / n,
        "spectral.build_weighted_domain.self_ms": fn["spectral.build_weighted_domain"] / n,
        "spectral.assemble_operators.self_ms": fn["spectral.assemble_operators"] / n,
        "spectral.nnz": counts["spectral.nnz"] / n,
        "spectral.refinement_check.self_ms": fn["spectral.refinement_check"] / n,
    }
    for name in ("fpm2k", "fpm8k", "fpm20k", "fpm45k", "dumbbell2k", "gauss11k",
                 "fullbasis899"):
        m[f"spectral.solve_spectrum.{name}_ms"] = study[name] / n
    m.update({
        "spectral.solve_spectrum.failures": errors["spectral.solve_spectrum"] / n,
        "spectral.max_residual": stats["max_residual"],
        "spectral.orth_err": stats["orth_err"],
        "cheeger.cut_ratio.vertical_ms": family["vertical"] / n,
        "cheeger.cut_ratio.circle_ms": family["circle"] / n,
        "cheeger.cut_ratio.calls": calls["cheeger.cut_ratio"] / n,
        "cheeger.cut_ratio.admissible_ratio": ratio(
            calls["cheeger.cut_ratio"] - errors["cheeger.cut_ratio"], calls["cheeger.cut_ratio"]),
        "io.field_csv_text.self_ms": fn["io.field_csv_text"] / n,
        "io.pgm_text.self_ms": fn["io.pgm_text"] / n,
        "io.write_report.self_ms": fn["io.write_report"] / n,
        "io.bytes": counts["io.bytes"] / n,
        "trace.overhead_frac": overhead_frac(traced, untraced),
    })
    for name in LAYERS:
        m[f"{name}.self_ms"] = layer[name] / n
    return m


def overhead_frac(traced, untraced):
    """Traced over untraced time, minus one.  Where the timed jobs run in
    child processes that the tracer cannot see (``cli``), the workload's
    in-process probes time the same calls both ways instead."""
    probes = [p["probe_s"] for p in traced if p["probe_s"]]
    if probes:
        return (sum(t for _, t in probes) / sum(u for u, _ in probes)) - 1.0
    return (statistics.median(sum(p["times"]) for p in traced)
            / statistics.median(sum(p["times"]) for p in untraced) - 1.0)


def run_workload(name, seed, seconds, trace, spec):
    import tracing
    import workloads

    env = child_env()
    scratch = SCRATCH / f"{name}-{os.getpid()}"
    if name == "cli":
        workload = workloads.Cli(ROOT, scratch, env)
    else:
        workload = {"stability": workloads.Stability, "sweep": workloads.Sweep}[name]()
    try:
        jobs, setup = measure_setup(workload, seed, env)
        tracer = tracing.Tracer() if trace else None
        min_passes = TRACED_MIN_PASSES if trace else TAIL_PASSES[name]
        passes, problems, stats = run_passes(workload, jobs, seconds, min_passes,
                                             tracer, tracing.NullTracer())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if trace:
        metrics = per_layer(tracer, passes, setup, stats)
        SCRATCH.mkdir(parents=True, exist_ok=True)
        tracer.dump(SCRATCH / f"trace-{name}-seed{seed}.json")
        extra = {}
    else:
        metrics, extra = end_to_end(workload, setup, passes, TAIL_PASSES[name])
    declared = spec["per_layer" if trace else "end_to_end"]
    if set(metrics) != {d["name"] for d in declared}:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ {d['name'] for d in declared})}")
    units = {d["name"]: d["unit"] for d in declared}
    failures = [f for p in passes for f in p["failed"]]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment(seed), "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "pass_s": [sum(p["times"]) for p in passes], **extra,
        "failures": sorted(Counter(failures).items()), "problems": problems,
        "metrics": metrics,
    }
    for key, value in metrics.items():
        print(f"{name:<10} {key:<44} {value:>16.6g} {units[key]}")
    print(json.dumps({"record": record}))
    return {
        # a job that raises is a failure; `correct` is false only when a
        # returned output fails its check
        "correct": not problems,
        "attempted": sum(len(p["times"]) for p in passes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gaborlab" / "__init__.py").is_file():
        print(f"error: no gaborlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # the process's own RSS peak only grows: run the lighter workloads first
    names = ("cli", "sweep", "stability") if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), spec)
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
