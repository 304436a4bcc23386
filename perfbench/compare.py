"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are files or directories of files holding the standard
output of untraced runs (``run.py ... --trace 0 > parent/run-3.txt``).
For each workload and end-to-end metric this prints both medians and
quartiles, the ratio of the medians and a verdict:

* improved: the change wins at least nine tenths of the pairs (parent
  and change runs paired in the order they ran, ties counting for
  neither) and the medians differ, in the better direction, by more than
  the distance between the parent's quartiles;
* unresolved: the parent's own spread (quartile distance over median) is
  wider than the metric's bound, and not every change run reads better
  than every parent run;
* worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
* unchanged: anything else;
* invalid, for every metric of a workload on which a larger share of the
  change's tasks than of the parent's failed their check: a gain does not
  count when more verdicts are wrong.  The exit code is then 1.

Result sets whose Python version, implementation, nproc or run length
differ are refused with exit code 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME = ("python", "implementation", "nproc")


def load(path):
    """Untraced run records under `path`, in the order they ran."""
    path = Path(path)
    files = sorted(p for p in path.rglob("*") if p.is_file()) \
        if path.is_dir() else [path]
    records = []
    for file in files:
        for line in file.read_text(errors="replace").splitlines():
            if not line.startswith('{"perfbench"'):
                continue
            record = json.loads(line)["perfbench"]
            if record["trace"] == 0:
                records.append(record)
    return sorted(records, key=lambda r: r["started_unix"])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better, bound):
    """Verdict for one metric from the two lists of values in run order."""
    sign = 1 if better == "higher" else -1
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (pairs and wins >= 0.9 * len(pairs)
            and sign * (med_c - med_p) > q3 - q1):
        return "improved"
    if (q3 - q1) / med_p > bound and not (
            min(sign * c for c in change) > max(sign * p for p in parent)):
        return "unresolved"
    if -sign * (med_c - med_p) / med_p > bound:
        return "worse"
    return "unchanged"


def failed_share(records):
    return (sum(r["failed"] for r in records)
            / sum(r["attempted"] for r in records))


def refuse_mixed(parent, change):
    for key in SAME:
        seen = {r["env"][key] for r in parent + change}
        if len(seen) > 1:
            return f"results differ in {key}: {sorted(map(str, seen))}"
    lengths = {r["seconds"] for r in parent + change}
    if len(lengths) > 1:
        return f"results differ in run length: {sorted(lengths)}"
    return None


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    if not parent or not change:
        print("error: no untraced run records found", file=sys.stderr)
        return 2
    reason = refuse_mixed(parent, change)
    if reason:
        print(f"error: refusing to compare: {reason}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':14s} {'metric':15s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'ratio':>7s}  verdict")
    status = 0
    for name in workloads:
        p_runs = [r for r in parent if r["workload"] == name]
        c_runs = [r for r in change if r["workload"] == name]
        if not p_runs or not c_runs:
            continue
        fails = failed_share(p_runs), failed_share(c_runs)
        invalid = fails[1] > fails[0]
        if invalid:
            status = 1
            print(f"{name}: failed share {fails[1]:.4g} of the change "
                  f"exceeds {fails[0]:.4g} of the parent")
        for metric in metrics:
            key = metric["name"]
            p_vals = [r["metrics"][key]["value"] for r in p_runs]
            c_vals = [r["metrics"][key]["value"] for r in c_runs]
            cells = []
            for vals in (p_vals, c_vals):
                q1, q3 = quartiles(vals)
                cells.append(f"{statistics.median(vals):.4g} "
                             f"[{q1:.4g}, {q3:.4g}]")
            ratio = statistics.median(c_vals) / statistics.median(p_vals)
            word = ("invalid" if invalid else
                    verdict(p_vals, c_vals, metric["better"], metric["bound"]))
            print(f"{name:14s} {key:15s} {cells[0]:>32s} {cells[1]:>32s} "
                  f"{ratio:7.3f}  {word}  ({len(p_vals)} vs {len(c_vals)} "
                  f"runs, {metric['unit']})")
    return status


if __name__ == "__main__":
    sys.exit(main())
