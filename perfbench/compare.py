"""Summarise saved benchmark runs, or compare the runs of two commits.

    python3 perfbench/compare.py RUNS_DIR
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the standard output of runs of perfbench/run.py, one
file per run.  Runs are grouped by workload and trace mode from their record
lines; the runs of the two directories are paired in seed order.  For each
metric the summary gives the median, the quartiles and the spread (quartile
distance over median) against the metric's bound in BENCHMARK.json.  The
comparison adds a verdict:

- improved: the change wins at least 9/10 of the pairs (ties count for
  neither) and its median beats the parent's by more than the parent's
  quartile distance;
- unresolved: the parent's spread is wider than the bound and the change's
  runs do not all beat every parent run;
- worse: the change's median is worse than the parent's by more than the
  bound (metrics without a bound: the improved rule, mirrored);
- unchanged: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, trace): {seed: metrics}} from every record line found."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        for line in path.read_text(errors="replace").splitlines():
            if line.startswith('{"record"'):
                rec = json.loads(line)["record"]
                runs.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec["metrics"]
    return runs


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "lower" else -1.0  # gain > 0 means the change is better
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    (pm, q1, q3), (cm, _, _) = summary(parent), summary(change)
    spread, gain = q3 - q1, sign * (pm - cm)
    if wins >= 0.9 * len(gains) and gain > spread:
        return "improved", wins
    if bound is None:
        return ("worse" if losses >= 0.9 * len(gains) and -gain > spread
                else "unchanged"), wins
    all_better = min(sign * -c for c in change) > max(sign * -p for p in parent)
    if spread > bound * abs(pm) and not all_better:
        return "unresolved", wins
    return ("worse" if -gain > bound * abs(pm) else "unchanged"), wins


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {d["name"]: d for key in ("end_to_end", "per_layer") for d in spec[key]}
    sides = [load(d) for d in argv]
    for (workload, trace), runs in sorted(sides[0].items()):
        other = sides[1].get((workload, trace), {}) if len(sides) == 2 else {}
        if len(sides) == 2 and not other:
            continue
        # pairs are the runs in seed order; the same seeds on both sides
        # make each pair a like-for-like comparison
        seeds, other_seeds = sorted(runs), sorted(other)
        print(f"## {workload} (trace {trace}, {len(seeds)} runs"
              + (f" vs {len(other_seeds)})" if other else ")"))
        for name, info in declared.items():
            if name not in runs[seeds[0]]:
                continue
            parent = [runs[s][name] for s in seeds]
            med, q1, q3 = summary(parent)
            bound = info.get("bound")
            spread = (q3 - q1) / abs(med) if med else 0.0
            line = (f"{name:<42} {med:>12.6g} [{q1:.6g}, {q3:.6g}] "
                    f"spread {spread:.3f}" + (f" / bound {bound}" if bound else ""))
            if len(sides) == 2:
                change = [other[s][name] for s in other_seeds]
                cmed, cq1, cq3 = summary(change)
                word, wins = verdict(parent, change, info["better"], bound)
                line += (f" -> {cmed:.6g} [{cq1:.6g}, {cq3:.6g}] "
                         f"won {wins}/{min(len(seeds), len(other_seeds))} {word}")
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
