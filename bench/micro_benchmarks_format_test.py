#!/usr/bin/env python3
"""Checks that micro_benchmarks honours --benchmark_format=json.

Usage: micro_benchmarks_format_test.py <path/to/micro_benchmarks>

Runs BM_ProfileScope briefly with JSON output, parses stdout with the json
module, and checks that the run is both reported there and recorded as the
BM_ProfileScope_ns metric of BENCH_micro_benchmarks.json. Exit 0 on pass.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, AER_BENCH_JSON_DIR=tmp)
        proc = subprocess.run(
            [sys.argv[1], "--benchmark_filter=BM_ProfileScope",
             "--benchmark_min_time=0.01", "--benchmark_format=json"],
            capture_output=True, env=env, check=True)
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError as error:
            sys.exit(f"FAIL: stdout is not JSON ({error}):\n"
                     f"{proc.stdout[:200]!r}")
        names = [run["name"] for run in report["benchmarks"]]
        if names != ["BM_ProfileScope"]:
            sys.exit(f"FAIL: expected one BM_ProfileScope run, got {names}")
        record_path = Path(tmp) / "BENCH_micro_benchmarks.json"
        metrics = json.loads(record_path.read_text())["metrics"]
        if "BM_ProfileScope_ns" not in metrics:
            sys.exit(f"FAIL: {record_path.name} lacks BM_ProfileScope_ns")
    print("ok: micro_benchmarks --benchmark_format=json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
