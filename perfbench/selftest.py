#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic. Run from the repo root:

    python3 perfbench/selftest.py

They build the benchmark (as run.py does) and make short runs at
20 000 ops per trace, so the whole file takes well under a minute once
the simulator is built.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SMALL_OPS = 20000

# BENCHMARK.json's rules for metric names and units.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_py(*args, cwd=None):
    return subprocess.run([sys.executable, "perfbench/run.py"] +
                          [str(a) for a in args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed_and_unique(self):
        names = [m[0] for m in run.END_TO_END] + \
            [m[0] for m in run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name in names + list(run.WORKLOADS):
            self.assertRegex(name, NAME_RE)
        for _, unit, better, *_ in run.END_TO_END + run.PER_LAYER:
            self.assertRegex(unit, UNIT_RE)
            self.assertIn(better, ("higher", "lower"))
        for _, _, _, bound in run.END_TO_END:
            self.assertTrue(0 < bound <= 0.25)

    def test_benchmark_json_matches_the_tables(self):
        with open("BENCHMARK.json") as f:
            self.assertEqual(json.load(f), run.benchmark_json())


class SpanAnalysis(unittest.TestCase):
    def span(self, cat, start, dur, tid=1, name="x"):
        return {"cat": cat, "name": name, "tid": tid, "start": start,
                "dur": dur, "arg_name": None, "arg": 0}

    def test_self_time_subtracts_children_on_the_same_thread_only(self):
        spans = [
            self.span("cell", 0.0, 10.0),
            self.span("predictors", 1.0, 4.0),
            self.span("core", 6.0, 3.0),
            self.span("sim", 2.0, 5.0, tid=2),
        ]
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs["parallel"], 3.0)
        self.assertAlmostEqual(selfs["predictors"], 4.0)
        self.assertAlmostEqual(selfs["core"], 3.0)
        self.assertAlmostEqual(selfs["sim"], 5.0)

    def test_coverage_is_the_union_of_spans(self):
        spans = [self.span("trace", 0.0, 2.0),
                 self.span("sim", 1.0, 3.0, tid=2),
                 self.span("obs", 8.0, 1.0)]
        self.assertAlmostEqual(run.coverage(spans, 0.0, 10.0), 0.5)

    def test_coverage_check_names_the_largest_layer(self):
        self.assertEqual(run.coverage_failures(
            "fig8_timing", {"sim": 5.0, "trace": 1.0}, 0.99), [])
        failures = run.coverage_failures(
            "fig8_timing", {"sim": 1.0, "trace": 5.0}, 0.5)
        self.assertEqual(len(failures), 2)


class HostCorrection(unittest.TestCase):
    def test_times_scale_by_nominal_over_the_reference_kernel(self):
        nominal = run.REF_NOMINAL_S
        passes = [
            {"ref_s": [nominal, nominal], "setups_s": [0.1, 0.3],
             "sweep_s": 1.0, "wall_s": 1.5},
            {"ref_s": [1.5 * nominal, 2.5 * nominal], "setups_s": [0.4],
             "sweep_s": 4.0, "wall_s": 5.0},
        ]
        corrected, raw = run.host_corrected(passes)
        self.assertEqual(raw["setup_s"], [0.1, 0.3, 0.4])
        self.assertEqual(raw["sweep_s"], [1.0, 4.0])
        for name, want in (("setup_s", [0.1, 0.3, 0.2]),
                           ("sweep_s", [1.0, 2.0]),
                           ("wall_s", [1.5, 2.5])):
            for got, w in zip(corrected[name], want):
                self.assertAlmostEqual(got, w)

    def test_every_workload_names_an_estimator(self):
        for name, spec in run.WORKLOADS.items():
            self.assertIn(spec["estimate"], run.ESTIMATORS, name)
        self.assertEqual(run.ESTIMATORS["fastest"]([0.9, 0.7, 1.2]), 0.7)
        self.assertEqual(run.ESTIMATORS["median"]([0.9, 0.7, 1.2]), 0.9)


class EndToEnd(unittest.TestCase):
    def test_every_printed_metric_carries_its_unit(self):
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            proc = run_py("--workload", "shootout_cold", "--seconds", 1,
                          "--ops", SMALL_OPS, "--trace", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = result_of(proc)
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            units = {m[0]: m[1] for m in table}
            self.assertEqual(set(result["metrics"]), set(units))
            for name, metric in result["metrics"].items():
                self.assertEqual(set(metric), {"value", "unit"})
                self.assertEqual(metric["unit"], units[name])
                self.assertIsInstance(metric["value"], (int, float))
                self.assertIn(name, proc.stdout.replace(
                    proc.stdout.strip().splitlines()[-1], ""))

    def test_corrupted_golden_is_reported_as_failed_cells(self):
        self.assertEqual(run_py("--workload", "shootout_cold", "--seconds",
                                0.1, "--ops", SMALL_OPS).returncode, 0)
        ref = os.path.join(run.BUILD_DIR, "ref", run.golden_name(
            "shootout_cold", SMALL_OPS, run.ARTIFACT_SEED))
        with open(ref) as f:
            lines = f.read().splitlines()
        try:
            fields = lines[0].split("\t")
            fields[2] = str(int(fields[2]) + 1)  # one misprediction more
            corrupted = ["\t".join(fields)] + lines[2:]  # one row lost
            with open(ref, "w") as f:
                f.write("\n".join(corrupted) + "\n")
            proc = run_py("--workload", "shootout_cold", "--seconds", 0.1,
                          "--ops", SMALL_OPS)
            self.assertEqual(proc.returncode, 1)
            result = result_of(proc)
            self.assertFalse(result["correct"])
            passes = result["attempted"] // len(lines)
            self.assertEqual(result["failed"], 2 * passes)
            self.assertIn("failed_cell_ratio", proc.stdout)
        finally:
            os.remove(ref)

    def test_fails_without_the_sources(self):
        bare = os.path.join(run.BUILD_DIR, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", bare)
        try:
            proc = run_py("--workload", "fig1_accuracy", "--seed", 1,
                          "--seconds", 1, "--trace", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
