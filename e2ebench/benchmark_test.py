#!/usr/bin/env python3
"""Tests for the end-to-end benchmark.

  python3 e2ebench/benchmark_test.py

CompareTest and SpecTest are pure Python. SmokeTest builds bench_e2e (as
benchmark.py does) and runs every workload at --size smoke: twice with the
same seed, which must give the same checksum and the pinned one, then once
traced, which must print the per-layer catalog and write loadable Chrome
trace JSON.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchmark  # noqa: E402


def summary(values: dict[str, list[float]], attempted: int = 100,
            failed: int = 0) -> dict:
    """A one-workload suite summary with the given per-metric run values."""
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    metrics = {name: benchmark.summarize(values.get(name, [1.0, 1.0, 1.0]),
                                         unit)
               for name, unit in units.items()}
    return {"workloads": {"retrain": {"correct": True, "attempted": attempted,
                                      "failed": failed, "metrics": metrics}}}


SPEC = benchmark.load_spec()


def statuses(base: dict, new: dict) -> dict[str, str]:
    return {metric: status
            for _, metric, status, _ in benchmark.compare(base, new, SPEC)}


class CompareTest(unittest.TestCase):
    def test_pass_within_bound(self):
        base = summary({"run_s": [1.00, 1.01, 0.99, 1.00]})
        new = summary({"run_s": [1.03, 1.04, 1.02, 1.03]})
        self.assertEqual(set(statuses(base, new).values()), {"pass"})

    def test_regression_beyond_bound(self):
        base = summary({"run_s": [1.00, 1.01, 0.99, 1.00]})
        new = summary({"run_s": [1.50, 1.51, 1.49, 1.50]})
        self.assertEqual(statuses(base, new)["run_s"], "regression")

    def test_higher_is_better_direction(self):
        base = summary({"events_per_s": [100.0, 101.0, 99.0]})
        faster = summary({"events_per_s": [150.0, 151.0, 149.0]})
        slower = summary({"events_per_s": [50.0, 51.0, 49.0]})
        self.assertEqual(statuses(base, faster)["events_per_s"], "pass")
        self.assertEqual(statuses(base, slower)["events_per_s"], "regression")

    def test_wide_spread_is_unresolved_not_unchanged(self):
        base = summary({"run_s": [1.0, 1.0, 1.0, 1.0]})
        new = summary({"run_s": [0.6, 1.5, 0.8, 1.6, 1.0]})
        self.assertEqual(statuses(base, new)["run_s"], "unresolved")

    def test_wide_spread_but_better_on_every_run_passes(self):
        base = summary({"run_s": [2.0, 3.0, 4.0, 5.0]})
        new = summary({"run_s": [0.5, 1.0, 1.5, 1.9]})
        self.assertEqual(statuses(base, new)["run_s"], "pass")

    def test_failed_frac_rise_is_a_regression(self):
        base = summary({}, attempted=1000, failed=0)
        new = summary({}, attempted=1000, failed=1)
        self.assertEqual(statuses(base, new)["failed_frac"], "regression")
        self.assertEqual(statuses(new, base)["failed_frac"], "pass")

    def test_incorrect_run_is_reported(self):
        new = summary({})
        new["workloads"]["retrain"]["correct"] = False
        self.assertEqual(statuses(summary({}), new)["correct"], "incorrect")

    def test_parse_seeds(self):
        self.assertEqual(benchmark.parse_seeds("1"), [1])
        self.assertEqual(benchmark.parse_seeds("1-3,7"), [1, 2, 3, 7])


class SpecTest(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_contract_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= len(SPEC["per_layer"]) <= 128)
        names = [w["name"] for w in SPEC["workloads"]]
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in SPEC["end_to_end"]:
            self.assertTrue(0 < m["bound"] <= 0.25)
        for name in names:
            self.assertRegex(name, self.NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not (benchmark.ROOT / "src" / "CMakeLists.txt").exists():
            raise unittest.SkipTest("no library sources to build")
        cls.binary = benchmark.build()
        cls.pinned = benchmark.load_pinned()

    def run_bench(self, workload: str, trace: bool = False) -> dict:
        record = benchmark.run_bench(self.binary, workload, 1, 0, "smoke",
                                     trace, echo=False)
        self.assertEqual(benchmark.check_record(record, SPEC, self.pinned),
                         [], workload)
        return record

    def test_no_arguments_prints_usage_and_exits_2(self):
        done = subprocess.run([str(self.binary)], capture_output=True,
                              text=True, check=False)
        self.assertEqual(done.returncode, 2)
        self.assertIn("usage:", done.stderr)

    def test_workloads_are_deterministic_and_pinned(self):
        for w in SPEC["workloads"]:
            first = self.run_bench(w["name"])
            second = self.run_bench(w["name"])
            self.assertEqual(first["checksum"], second["checksum"], w["name"])
            self.assertEqual(self.pinned["smoke"][w["name"]]["1"],
                             first["checksum"], w["name"])
            self.assertEqual(first["failed"], 0, w["name"])

    def test_traced_runs_print_layers_and_write_chrome_trace(self):
        for w in SPEC["workloads"]:
            record = self.run_bench(w["name"], trace=True)
            path = benchmark.BUILD_DIR / "traces" / f"{w['name']}-seed1.json"
            with open(path, encoding="utf-8") as f:
                events = json.load(f)["traceEvents"]
            self.assertTrue(events, w["name"])
            self.assertEqual({e["ph"] for e in events}, {"X"})
            self.assertEqual(len({e["args"]["run_id"] for e in events}), 1)
            coverage = record["metrics"]["obs.self_time_coverage"]["value"]
            self.assertGreater(coverage, 0.95, w["name"])


if __name__ == "__main__":
    unittest.main()
