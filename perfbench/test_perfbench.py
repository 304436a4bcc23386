"""Self-tests of the benchmark (stdlib unittest; pytest runs them too).

    PYTHONPATH=src python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import ast
import io
import random
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from itertools import combinations, product
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import hostref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from chaincodes import constructions, conv, fields  # noqa: E402

IN_PROCESS = ("minors-ext", "distances-zp2", "superregular")


def rounds(name, seed, count, ctx):
    schedule = workloads.WORKLOADS[name].schedule(random.Random(seed), ctx)
    return [next(schedule) for _ in range(count)]


class SeededInputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ctx = {name: workloads.WORKLOADS[name].setup()
                   for name in workloads.WORKLOADS}

    def test_same_seed_same_tasks_other_seed_other_tasks(self):
        for name in workloads.WORKLOADS:
            ctx = self.ctx[name]
            first = rounds(name, 7, 3, ctx)
            self.assertEqual(first, rounds(name, 7, 3, ctx), name)
            self.assertNotEqual(first, rounds(name, 8, 3, ctx), name)

    def test_same_seed_same_verdicts(self):
        picks = {"minors-ext": ("sq522", "ext612"),
                 "distances-zp2": ("readme", "z4", "z9", "tp42"),
                 "superregular": ("golden", "search")}
        for name, kinds in picks.items():
            workload, ctx = workloads.WORKLOADS[name], self.ctx[name]
            tasks = [task for rnd in rounds(name, 3, 2, ctx)[-1:]
                     for task in rnd if task[0] in kinds][:6]
            self.assertTrue(tasks, name)
            verdicts = [[workload.run(ctx, kind, payload)
                         for kind, payload in tasks] for _ in range(2)]
            self.assertEqual(verdicts[0], verdicts[1], name)

    def test_median_and_tail_fall_inside_one_cost_group(self):
        # ranked by the measured cost of their kind, the tasks of a round
        # put the median and the tail strictly inside one group of like
        # cost, with a task of that group on either side, and the median
        # of cli-session below the top of its group
        groups = {"minors-ext": {"sq522": 1, "ext612": 2, "ext422": 3,
                                 "ext413": 4},
                  "distances-zp2": {"z4": 1, "tp42": 2, "z9": 3, "z121": 4,
                                    "readme": 5},
                  "cli-session": {"ring_small": 1, "construct": 1,
                                  "blockcode": 1, "bounds": 1, "check": 2,
                                  "distances": 2, "search": 2, "ring": 3}}
        beyond = run.TAIL_BEYOND // run.MIN_ROUNDS
        for name, cost in groups.items():
            ranked = sorted(cost[kind] for kind, _ in
                            rounds(name, 1, 2, self.ctx[name])[1])
            n = len(ranked)
            for rank in (n // 2 - 1, n // 2, n - beyond - 1):
                self.assertEqual(len(set(ranked[rank - 1:rank + 2])), 1,
                                 (name, rank))
            if name == "cli-session":
                self.assertEqual(ranked[n // 2 + 3], ranked[n // 2])

    def test_oracle_flags_a_wrong_golden(self):
        ctx = self.ctx["superregular"]
        saved = workloads.GOLDEN_REVERSE_NONUNITS
        workloads.GOLDEN_REVERSE_NONUNITS = saved + 1
        try:
            with self.assertRaises(workloads.Mismatch):
                workloads.run_superregular(ctx, "golden", "Z11")
        finally:
            workloads.GOLDEN_REVERSE_NONUNITS = saved


class CountFormulas(unittest.TestCase):
    def test_messages(self):
        for q, k, j in ((2, 1, 3), (3, 2, 1), (4, 2, 2)):
            direct = sum(1 for head in product(range(q), repeat=k)
                         if any(head)
                         for _ in product(range(q), repeat=j * k))
            self.assertEqual(tracing.messages(q, k, j), direct)

    def test_column_subsets(self):
        for L, n, k0 in ((0, 3, 1), (1, 3, 1), (1, 5, 2), (2, 4, 1),
                         (2, 3, 2)):
            need = (L + 1) * k0
            direct = sum(
                1 for t in combinations(range((L + 1) * n), need)
                if all(t[s * k0] >= s * n for s in range(1, L + 1)))
            self.assertEqual(tracing.admissible_subsets(L, n, k0), direct)
        self.assertEqual(tracing.admissible_subsets(4, 4, 1), 7084)
        self.assertEqual(tracing.admissible_subsets(2, 7, 2), 30142)

    def test_proper_minors(self):
        for ell in range(1, 7):
            idx = range(ell)
            direct = sum(1 for s in range(1, ell + 1)
                         for I in combinations(idx, s)
                         for J in combinations(idx, s)
                         if all(i <= j for i, j in zip(I, J)))
            self.assertEqual(tracing.proper_minors(ell), direct)


def _snapshot():
    """Every attribute of every chaincodes module, by identity."""
    snap = {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "chaincodes" or name.startswith("chaincodes.")
            for attr, value in vars(module).items()}
    snap[("ExtField", "__init__")] = fields.ExtField.__init__
    return snap


class TracedRun(unittest.TestCase):
    def test_originals_restored(self):
        before = _snapshot()
        ctx = workloads.setup_superregular()
        with tracing.Tracer() as tracer:
            self.assertIsNot(conv.is_mdp, before[("chaincodes.conv",
                                                  "is_mdp")])
            workloads.run_superregular(ctx, "extract", None)
        after = _snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        calls, total, own = tracer.spans["conv.is_mdp"]
        self.assertGreater(calls, 0)
        self.assertLessEqual(own, total)
        self.assertGreater(tracer.counts["conv.messages"], 0)

    def test_originals_restored_after_a_failure(self):
        before = _snapshot()
        with self.assertRaises(workloads.Mismatch):
            with tracing.Tracer():
                constructions.search_superregular(
                    3, workloads.setup_superregular()["Z11"],
                    strategy=constructions.RANDOM, seed=1, budget=5)
                raise workloads.Mismatch("stop")
        for key, value in _snapshot().items():
            self.assertIs(value, before[key], key)


class Harness(unittest.TestCase):
    def test_no_assert_statements(self):
        for path in HERE.glob("*.py"):
            if path.name.startswith("test_"):
                continue
            tree = ast.parse(path.read_text())
            self.assertFalse(
                [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)], path.name)

    def test_tail_has_ten_beyond(self):
        times = [float(i) for i in range(40)]
        value, percentile = run.tail(times, run.MIN_ROUNDS)
        self.assertEqual(sum(1 for t in times if t > value), 10)
        self.assertEqual(percentile, 75.0)

    def test_tail_rank_does_not_depend_on_rounds(self):
        # one slow task per round of twenty: two rounds or five, the tail
        # stays among the quick tasks at the same percentile
        one = [1.0] * 19 + [9.0]
        for rounds_run in (2, 5):
            value, percentile = run.tail(one * rounds_run, rounds_run)
            self.assertEqual((value, percentile), (1.0, 75.0))


    def test_scale_to_reference_speed(self):
        ref = hostref.REFERENCE_S
        self.assertAlmostEqual(hostref.scale(2.0, ref, ref), 2.0)
        # a host at half speed takes twice as long for both
        self.assertAlmostEqual(hostref.scale(4.0, 2 * ref, 2 * ref), 2.0)
        self.assertGreater(hostref.measure(), 0.0)

    def test_bare_directory_exits_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = Path(tmp) / "perfbench"
            bench.mkdir()
            for path in HERE.glob("*.py"):
                (bench / path.name).write_text(path.read_text())
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "superregular", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


def _record(value, started, python="3.11.7", failed=0):
    return {"trace": 0, "workload": "w", "started_unix": started,
            "seconds": 20, "attempted": 10, "failed": failed,
            "env": {"python": python, "implementation": "CPython",
                    "nproc": 2},
            "metrics": {"m": {"value": value, "unit": "s"}}}


class Compare(unittest.TestCase):
    def test_verdicts(self):
        parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
        faster = [v * 0.7 for v in parent]
        slower = [v * 1.3 for v in parent]
        noisy = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0]
        self.assertEqual(compare.verdict(parent, faster, "lower", 0.1),
                         "improved")
        self.assertEqual(compare.verdict(parent, slower, "lower", 0.1),
                         "worse")
        self.assertEqual(compare.verdict(parent, parent, "lower", 0.1),
                         "unchanged")
        self.assertEqual(compare.verdict(parent, slower, "higher", 0.1),
                         "improved")
        self.assertEqual(compare.verdict(noisy, noisy, "lower", 0.1),
                         "unresolved")

    def test_refuses_other_python(self):
        parent = [_record(1.0, 1), _record(1.1, 3)]
        change = [_record(1.0, 2), _record(1.0, 4, python="3.12.1")]
        self.assertIn("python", compare.refuse_mixed(parent, change))
        self.assertIsNone(compare.refuse_mixed(parent, parent))

    def _main(self, parent, change):
        """compare.main on two one-record files: (exit code, output)."""
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            for name, rec in (("a.txt", parent), ("b.txt", change)):
                (Path(tmp) / name).write_text(
                    '{"perfbench": %s}\n' % compare.json.dumps(rec))
            with redirect_stdout(out), \
                    mock.patch.object(compare, "ROOT", Path(tmp)):
                (Path(tmp) / "BENCHMARK.json").write_text(compare.json.dumps(
                    {"workloads": [{"name": "w"}],
                     "end_to_end": [{"name": "m", "unit": "s",
                                     "better": "lower", "bound": 0.1}]}))
                code = compare.main([str(Path(tmp) / "a.txt"),
                                     str(Path(tmp) / "b.txt")])
        return code, out.getvalue()

    def test_compare_refusal_exit_code(self):
        code, _ = self._main(_record(1.0, 1), _record(1.0, 2, python="3.12.1"))
        self.assertEqual(code, 2)

    def test_more_failures_make_a_gain_invalid(self):
        code, out = self._main(_record(1.0, 1), _record(0.5, 2, failed=1))
        self.assertEqual(code, 1)
        self.assertIn("invalid", out)
        self.assertNotIn("improved", out)
        code, out = self._main(_record(1.0, 1), _record(0.5, 2))
        self.assertEqual(code, 0)
        self.assertIn("improved", out)


if __name__ == "__main__":
    unittest.main()
