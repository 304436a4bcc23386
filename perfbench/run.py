"""Time-to-verdict benchmark of chaincodes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the four workloads, or all to run them one after another.

Runs one seeded workload (see BENCHMARK.json for the four and why each
was chosen) as a closed loop with one client: tasks run one at a time, in
rounds of a fixed count, kind and order of tasks.  A new round starts
while the run's seconds are not used up or fewer than two rounds are
done, so every run decides whole rounds, at least two.  A task is one
code, matrix or CLI invocation decided together with its oracle check.
Every reported time is scaled to a reference host speed (hostref.py);
the record line also holds the raw wall times.

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
the tasks untraced and then the same tasks traced and prints the
per-layer metrics.  In a traced run the rounds follow a prologue
(minors-ext only: criterion 10 and two F_11^2 codes) whose tasks are
checked and counted as attempted and whose times are in the record; the
untraced runs skip it, as it would take most of their time and enter
none of their metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is the full
record (environment, seed, tail percentile, failures) that compare.py
reads.  The exit code is 0 when the run completed, whether or not every
verdict was correct, and 2 when it could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up probes per run: at least SETUP_PROBES, and more while less than
# SETUP_PROBE_SECONDS have gone on probing, so that workloads whose set-up
# is an import of a few tens of milliseconds get a steadier median
SETUP_PROBES = 3
SETUP_PROBE_SECONDS = 2.0
SETUP_PROBES_MAX = 15
CLI_IMPORT_PROBES = 3
# every run decides at least MIN_ROUNDS rounds, and the tail percentile is
# the one with TAIL_BEYOND tasks beyond it in that many rounds
MIN_ROUNDS = 2
TAIL_BEYOND = 10

E2E_UNITS = {"verdict_p50_s": "s", "verdict_tail_s": "s",
             "verdicts_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
CLI_KINDS = ("ring", "ring_small", "check", "distances", "construct",
             "search", "blockcode", "bounds")


# ---------------------------------------------------------------------------
# environment stamp

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git(*args):
    try:
        proc = subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT),
                               *args], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed):
    commit = dirty = None
    if (ROOT / ".git").exists():
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": nproc, "cpu": _cpu_model(), "commit": commit,
            "dirty": dirty, "seed": seed}


# ---------------------------------------------------------------------------
# running tasks

class Outcome:
    """Times and failures of the tasks of one run."""

    def __init__(self):
        # task times at the reference speed, and as measured
        self.times = []
        self.raw_times = []
        self.kinds = []
        self.failures = []
        self.rounds = []
        self.wall = 0.0
        # tasks of the prologue, which enter no end-to-end metric
        self.prologue_tasks = 0

    @property
    def attempted(self):
        return len(self.times)


def run_task(workload, ctx, kind, payload, outcome):
    before = hostref.measure()
    start = time.perf_counter()
    try:
        workload.run(ctx, kind, payload)
    except Exception as exc:  # every failure is counted, never fatal
        outcome.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
        print(f"task {kind} failed:\n{traceback.format_exc()}",
              file=sys.stderr)
    elapsed = time.perf_counter() - start
    if workload.process_wall and "wall" in ctx:
        elapsed = ctx.pop("wall")
    outcome.times.append(hostref.scale(elapsed, before, hostref.measure()))
    outcome.raw_times.append(elapsed)
    outcome.kinds.append(kind)


def run_round(workload, ctx, rnd, outcome):
    outcome.rounds.append(rnd)
    for kind, payload in rnd:
        run_task(workload, ctx, kind, payload, outcome)


def closed_loop(workload, ctx, seed, seconds, prologue):
    """The prologue if asked for, then rounds while less than `seconds`
    have passed since the first round began or fewer than MIN_ROUNDS
    rounds are done."""
    schedule = workload.schedule(random.Random(seed), ctx)
    outcome = Outcome()
    start = time.perf_counter()
    first = next(schedule)
    run_round(workload, ctx, first if prologue else [], outcome)
    outcome.prologue_tasks = outcome.attempted
    window = time.perf_counter()
    while (len(outcome.rounds) - 1 < MIN_ROUNDS
           or time.perf_counter() - window < seconds):
        run_round(workload, ctx, next(schedule), outcome)
    outcome.wall = time.perf_counter() - start
    return outcome


# ---------------------------------------------------------------------------
# metrics

def tail(times, rounds):
    """(value, percentile): the time with TAIL_BEYOND / MIN_ROUNDS tasks
    per round beyond it, or the maximum when there are too few.  For rounds
    of N tasks that is the highest percentile of MIN_ROUNDS rounds with
    TAIL_BEYOND tasks beyond it, estimated from all the rounds of the run,
    so it does not depend on how many rounds fit in the run."""
    ordered = sorted(times)
    n, beyond = len(ordered), TAIL_BEYOND * rounds // MIN_ROUNDS
    if n <= beyond:
        return ordered[-1], 100.0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def kind_medians(outcome):
    """Median task time per task kind, to explain the pooled figures."""
    by_kind = {}
    for kind, seconds in zip(outcome.kinds, outcome.times):
        by_kind.setdefault(kind, []).append(seconds)
    return {kind: statistics.median(v) for kind, v in by_kind.items()}


def probe_setup(workload_name):
    """Medians of the set-up probes' times: (at the reference speed, raw)."""
    values, raw = [], []
    start = time.perf_counter()
    while len(values) < SETUP_PROBES or (
            len(values) < SETUP_PROBES_MAX
            and time.perf_counter() - start < SETUP_PROBE_SECONDS):
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"),
                               workload_name], capture_output=True,
                              text=True, cwd=str(ROOT), timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        seconds, before, after = map(float, proc.stdout.split()[-3:])
        values.append(hostref.scale(seconds, before, after))
        raw.append(seconds)
    return statistics.median(values), statistics.median(raw)


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(name, workload, ctx, seed, seconds):
    setup_s, raw_setup_s = probe_setup(name)
    outcome = closed_loop(workload, ctx, seed, seconds, prologue=False)
    rounds = len(outcome.rounds) - 1
    times, raw = outcome.times, outcome.raw_times
    value, percentile = tail(times, rounds)
    metrics = {
        "verdict_p50_s": statistics.median(times),
        "verdict_tail_s": value,
        "verdicts_per_s": len(times) / sum(times),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(workload.process_wall),
    }
    extra = {"tail_percentile": round(percentile, 2),
             "samples": len(times), "rounds": rounds,
             "wall_s": outcome.wall, "kind_p50_s": kind_medians(outcome),
             "raw": {"verdict_p50_s": statistics.median(raw),
                     "verdict_tail_s": tail(raw, rounds)[0],
                     "verdicts_per_s": len(raw) / sum(raw),
                     "setup_s": raw_setup_s}}
    return outcome, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, extra


def per_layer(workload, ctx, seed, seconds, setup_trace):
    """Untraced run, then the same rounds traced."""
    import opbench
    import tracing

    ops = opbench.measure(seed)
    plain = closed_loop(workload, ctx, seed, seconds, prologue=True)
    traced = Outcome()
    tracer = tracing.Tracer()
    if workload.process_wall:
        ctx["runner"] = str(HERE / "cli_traced.py")
        ctx["code"] = None
        for rnd in plain.rounds:
            for kind, payload in rnd:
                run_task(workload, ctx, kind, payload, traced)
                lines = ctx.pop("stderr", "").splitlines()
                try:
                    tracer.merge(json.loads(lines[-1]))
                except (IndexError, ValueError):
                    traced.failures.append(f"{kind}: no spans from the "
                                           f"traced CLI process")
    else:
        with tracer:
            for rnd in plain.rounds:
                run_round(workload, ctx, rnd, traced)
    tracer.merge(setup_trace.dump())

    metrics = {}
    for modname, names in tracing.TRACED.items():
        short = modname.rsplit(".", 1)[1]
        for fname in names:
            if fname == "is_reverse_gamma_superregular":
                continue  # only counted, as constructions.candidates
            calls, total, own = tracer.spans.get(f"{short}.{fname}",
                                                 (0, 0.0, 0.0))
            metrics[f"{short}.{fname}.calls"] = (calls, "count")
            metrics[f"{short}.{fname}.total_s"] = (total, "s")
            metrics[f"{short}.{fname}.self_s"] = (own, "s")
    builds, build_s, _ = tracer.spans.get(tracing.EXT_BUILD, (0, 0.0, 0.0))
    metrics["fields.ExtField.builds"] = (builds, "count")
    metrics["fields.ExtField.build_s"] = (build_s, "s")
    for key, value in ops.items():
        metrics[key] = (value, key.rsplit("_", 1)[1])

    counts, edges = tracer.counts, tracer.edges
    cd_total = tracer.spans.get("conv.column_distance", (0, 0.0, 0.0))[1]
    subsets = counts["conv.column_subsets"]
    candidates = sum(edges[("constructions.search_superregular", check)]
                     for check in ("constructions.is_gamma_superregular",
                                   "constructions.is_reverse_gamma_"
                                   "superregular"))
    metrics.update({
        "conv.messages": (counts["conv.messages"], "count"),
        "conv.messages_per_s": (counts["conv.messages"] / cd_total
                                if cd_total else 0.0, "1/s"),
        "conv.column_subsets": (subsets, "count"),
        "conv.subsets_visited_ratio": (
            edges[("conv.is_mdp", "linalg.field_rank")] / subsets
            if subsets else 0.0, "share"),
        "constructions.candidates": (candidates, "count"),
        "constructions.hit_ratio": (counts["constructions.hits"] / candidates
                                    if candidates else 0.0, "share"),
        "constructions.proper_minors": (counts["constructions.proper_minors"],
                                        "count"),
    })
    medians = kind_medians(plain) if workload.process_wall else {}
    metrics["cli.import_s"] = (cli_import_s() if workload.process_wall
                               else 0.0, "s")
    for kind in CLI_KINDS:
        metrics[f"cli.{kind}_s"] = (medians.get(kind, 0.0), "s")
    # both sums at the reference speed, so that a slower stretch of the
    # machine during one of the two runs does not read as overhead
    metrics["trace.overhead_ratio"] = (sum(traced.times) / sum(plain.times),
                                       "ratio")

    outcome = Outcome()
    for part in (plain, traced):
        outcome.times += part.times
        outcome.failures += part.failures
    extra = {"samples": plain.attempted, "rounds": len(plain.rounds) - 1,
             "prologue_s": list(zip(plain.kinds[:plain.prologue_tasks],
                                    plain.times[:plain.prologue_tasks])),
             "plain_wall_s": sum(plain.raw_times),
             "traced_wall_s": sum(traced.raw_times)}
    return outcome, metrics, extra


def cli_import_s():
    """Median wall time of a fresh interpreter importing chaincodes.cli."""
    import workloads

    values = []
    for _ in range(CLI_IMPORT_PROBES):
        before = hostref.measure()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import chaincodes.cli"],
                       check=True, cwd=str(ROOT), env=workloads.cli_env(),
                       timeout=120)
        values.append(hostref.scale(time.perf_counter() - start, before,
                                    hostref.measure()))
    return statistics.median(values)


# ---------------------------------------------------------------------------

def run_all(args, names):
    """Every workload in turn, each in a fresh process; the last line sums
    the verdicts and names each metric <workload>/<metric>."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True,
            cwd=str(ROOT), timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}/{key}"] = value
    print(json.dumps(summary))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "chaincodes" / "__init__.py").is_file():
        print(f"error: no chaincodes sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    started = time.time()
    if args.trace:
        with tracing.Tracer() as setup_trace:
            ctx = workload.setup()
        outcome, metrics, extra = per_layer(workload, ctx, args.seed,
                                            args.seconds, setup_trace)
    else:
        ctx = workload.setup()
        outcome, metrics, extra = end_to_end(args.workload, workload, ctx,
                                             args.seed, args.seconds)
    failed = len(outcome.failures)
    failed_ratio = failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{outcome.attempted} tasks, {failed} failed")
    for key, (value, unit) in metrics.items():
        note = ""
        if key == "verdict_tail_s":
            note = (f"  (p{extra['tail_percentile']} of "
                    f"{extra['samples']} tasks)")
        print(f"  {key:40s} {value:.6g} {unit}{note}")
    if not args.trace:
        print(f"  {'failed_ratio':40s} {failed_ratio:.6g} share")
    final = {"correct": failed == 0 and outcome.attempted > 0,
             "attempted": outcome.attempted, "failed": failed,
             "metrics": {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}}
    record = dict(final, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  started_unix=started, env=environment(args.seed),
                  failed_ratio=failed_ratio, failures=outcome.failures[:20],
                  **extra)
    print(json.dumps({"perfbench": record}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
