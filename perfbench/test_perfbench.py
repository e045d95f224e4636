"""Self-tests of the benchmark, in tiny-size mode.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
UP = run.load_program()
SECONDS = 0.3


def tiny(name, seed=7, trace=False):
    return run.run(UP, name, seed, SECONDS, trace, tiny=True)


class Patched:
    """Replace a function of the package at every place it is bound."""

    def __init__(self, original, replacement):
        self.original, self.replacement, self.sites = original, replacement, []

    def __enter__(self):
        for module in spans.package_modules(UP):
            for key, value in list(vars(module).items()):
                if value is self.original:
                    self.sites.append((module, key))
                    setattr(module, key, self.replacement)
        return self

    def __exit__(self, *exc):
        for module, key in self.sites:
            setattr(module, key, self.original)


class HarnessArithmeticTest(unittest.TestCase):
    """The checks are only as good as the harness's own arithmetic: compare
    it with the library's brute-force oracle at small n."""

    def test_widths_parities_and_evaluation_match_the_oracle(self):
        from unitpoly import oracle

        rng = random.Random(1)
        for n in range(2, 9):
            widths = workloads.coeff_widths(n)
            self.assertEqual(len(widths) - 1, oracle.oracle_max_reduced_degree(n))
            self.assertEqual(widths, [n - i - oracle.oracle_factorial_valuation(i)
                                      for i in range(len(widths))])
            for _ in range(20):
                coeffs = workloads.random_full(rng, n + 2, rng.randrange(1, 6), permutation=False)
                table = oracle.oracle_function_of(coeffs, n)
                mask = (1 << n) - 1
                self.assertEqual([workloads.horner(coeffs, x, mask) for x in table.points()],
                                 list(table.values))
                self.assertEqual(workloads.permutes_units(coeffs),
                                 oracle.oracle_is_permutation(table))


class BenchmarkFileTest(unittest.TestCase):
    def test_lists_what_the_runner_emits(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}, run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]],
                         spans.per_layer_metrics())
        self.assertEqual(BENCHMARK["command"], ["python3", "perfbench/run.py"])


class TinyRunTest(unittest.TestCase):
    def test_every_workload_emits_every_metric_with_its_unit(self):
        for name in WORKLOADS:
            for trace, listed in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    record = tiny(name, trace=trace)
                    self.assertEqual(record["failed"], 0)
                    self.assertGreater(record["attempted"], 0)
                    want = {m["name"]: m["unit"] for m in BENCHMARK[listed]}
                    got = {k: v["unit"] for k, v in record["metrics"].items()}
                    self.assertEqual(got, want)
                    for key in want:
                        self.assertIsInstance(record["metrics"][key]["value"], float)
        self.assertIs(UP.poly.reduce, UP.reduce)  # originals restored
        self.assertEqual(UP.solve.evaluate.__module__, "unitpoly.poly")

    def test_same_seed_same_inputs_and_outputs(self):
        for name in ("quasigroup", "cli"):
            with self.subTest(workload=name):
                first, second, other = tiny(name), tiny(name), tiny(name, seed=8)
                self.assertEqual(first["output_digest"], second["output_digest"])
                self.assertEqual(first["input_sha256"], second["input_sha256"])
                self.assertNotEqual(first["input_sha256"], other["input_sha256"])

    def test_planted_wrong_answer_is_caught(self):
        clean = tiny("canon")
        original = UP.poly.reduce

        def flipped(poly, ctx):
            good = original(poly, ctx)
            return UP.ReducedPoly((good.coeffs[0] ^ 1,) + good.coeffs[1:], good.n)

        with Patched(original, flipped):
            broken = tiny("canon")
        self.assertGreater(broken["failed_ratio"], 0)
        self.assertNotEqual(broken["output_digest"], clean["output_digest"])
        self.assertEqual(broken["input_sha256"], clean["input_sha256"])

    def test_missing_private_name_is_reported_absent(self):
        saved = spans.TARGETS
        spans.TARGETS = saved + (("solve", "solve.echelon", "solve", None, "_gone"),)
        try:
            record = tiny("solve", trace=True)
        finally:
            spans.TARGETS = saved
        self.assertEqual(record["absent"], ["solve._gone"])
        self.assertEqual(record["failed"], 0)


class CommandLineTest(unittest.TestCase):
    def test_last_line_is_the_result(self):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "solve", "--seed", "3",
             "--seconds", str(SECONDS), "--trace", "0", "--size", "tiny"],
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout.splitlines()
        result = json.loads(out[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertTrue(any(line.startswith("interpolate_p50_ms ") for line in out))
        self.assertTrue(any(line.startswith("output_digest ") for line in out))

    def test_refuses_without_program_sources(self):
        bare = run.RESULTS / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", bare)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
