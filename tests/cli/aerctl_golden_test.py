#!/usr/bin/env python3
"""Golden-output tests for aerctl.

Each case runs an aerctl subcommand with pinned flags and compares its stdout
byte-for-byte against a committed golden file — the CLI surface is part of
the determinism contract (docs/OBSERVABILITY.md): same seed, same bytes.
Every case is also run twice to catch nondeterminism directly, so a golden
mismatch means the output *format or numbers* changed, not flakiness.

Usage:
  aerctl_golden_test.py <aerctl-binary> <golden-dir>            # verify
  aerctl_golden_test.py <aerctl-binary> <golden-dir> --update   # regenerate

Regenerate the goldens (and eyeball the diff) whenever an intentional output
change lands: build, then run with --update from the repo root.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

# (golden file, aerctl argv). {trace} expands to a generated small trace.
CASES = [
    ("metrics.txt",
     ["metrics", "--incidents", "24", "--seed", "7"]),
    ("metrics.json",
     ["metrics", "--incidents", "24", "--seed", "7", "--json"]),
    ("metrics_clean.txt",
     ["metrics", "--incidents", "24", "--seed", "7", "--clean"]),
    ("trace.txt",
     ["trace", "--incidents", "6", "--seed", "7"]),
    ("trace_filtered.txt",
     ["trace", "--incidents", "12", "--seed", "7",
      "--type", "DiskError", "--top", "3"]),
    ("trace.json",
     ["trace", "--incidents", "4", "--seed", "7", "--json"]),
    # Distributed-tracing modes: the control-plane harness scenario behind
    # them is pinned (3 coordinators, node-0 crash mid-recovery), so the
    # stitched DAG, the critical-path attribution, and the Chrome export are
    # part of the byte-exact surface (docs/OBSERVABILITY.md).
    ("trace_dag.txt",
     ["trace", "--dag", "--seed", "1"]),
    ("trace_critical_path.txt",
     ["trace", "--critical-path", "--seed", "1"]),
    ("trace_chrome.json",
     ["trace", "--chrome", "--seed", "1"]),
    ("summarize.txt",
     ["summarize", "--log", "{trace}"]),
    ("timeseries.txt",
     ["timeseries", "--incidents", "24", "--seed", "7", "--window", "7200"]),
    ("timeseries.json",
     ["timeseries", "--incidents", "12", "--seed", "7", "--window", "7200",
      "--capacity", "4", "--json"]),
    # Counts-only (no --wall): a pure function of control flow, so it is as
    # byte-stable as the metric snapshots.
    ("profile.txt",
     ["profile", "--incidents", "24", "--seed", "7"]),
]

# (aerctl argv, stderr substring) for inputs aerctl must refuse: exit code 1
# (not a crash), the message on stderr, and no file written at {out}.
REJECTED_CASES = [
    (["train", "--log", "{trace}", "--out", "{out}", "--sweeps", "0"],
     "train: --sweeps must be at least 1"),
    (["train", "--log", "{trace}", "--out", "{out}", "--sweeps", "-5"],
     "train: --sweeps must be at least 1"),
    (["train", "--log", "{trace}", "--out", "{out}", "--sweeps", "many"],
     'train: --sweeps expects a number, got "many"'),
    (["generate", "--out", "{out}", "--scale", "bogus"],
     'generate: --scale must be small, default or large, got "bogus"'),
    (["generate", "--out", "{out}", "--seed", "notanumber"],
     'generate: --seed expects a number, got "notanumber"'),
    (["simulate", "--policy", "{out}", "--scale", "bogus"],
     'simulate: --scale must be small, default or large, got "bogus"'),
    (["simulate", "--policy", "{out}", "--seed", "7x"],
     'simulate: --seed expects a number, got "7x"'),
    (["mine", "--log", "{trace}", "--minp", "high"],
     'mine: --minp expects a number, got "high"'),
    (["mine", "--log", "{trace}", "--minp", "0"],
     "mine: --minp must be in (0, 1] (got 0)"),
    (["mine", "--log", "{trace}", "--minp", "1.5"],
     "mine: --minp must be in (0, 1] (got 1.5)"),
    (["evaluate", "--log", "{trace}", "--policy", "{out}",
      "--train-fraction", "1.5"],
     "evaluate: --train-fraction must be in (0, 1) (got 1.5)"),
    (["evaluate", "--log", "{trace}", "--policy", "{out}",
      "--train-fraction", "0"],
     "evaluate: --train-fraction must be in (0, 1) (got 0)"),
    (["timeseries", "--window", "0"],
     "timeseries: --window must be at least 1 (got 0)"),
    (["timeseries", "--capacity", "0"],
     "timeseries: --capacity must be at least 1 (got 0)"),
    (["timeseries", "--capacity", "-1"],
     "timeseries: --capacity must be at least 1 (got -1)"),
    (["trace", "--dag", "--cluster", "0"],
     "trace: --cluster must be at least 1 (got 0)"),
]


def run(binary: str, args: list[str]) -> bytes:
    proc = subprocess.run([binary] + args, capture_output=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL: aerctl {' '.join(args)} exited "
                 f"{proc.returncode}\n{proc.stderr.decode(errors='replace')}")
    return proc.stdout


def main() -> int:
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    binary = sys.argv[1]
    golden_dir = Path(sys.argv[2])
    update = "--update" in sys.argv[3:]

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = str(Path(tmp) / "trace.log")
        run(binary, ["generate", "--out", trace_path,
                     "--scale", "small", "--seed", "7"])

        failures = []
        for golden_name, args in CASES:
            argv = [a.replace("{trace}", trace_path) for a in args]
            first = run(binary, argv)
            second = run(binary, argv)
            if first != second:
                failures.append(f"{golden_name}: two identical invocations "
                                f"produced different bytes (nondeterminism)")
                continue
            if golden_name == "trace_chrome.json":
                # Must be loadable Chrome trace-event JSON, not just stable
                # bytes: a top-level traceEvents list whose entries all carry
                # the mandatory ph (phase) field.
                try:
                    chrome = json.loads(first)
                except json.JSONDecodeError as err:
                    failures.append(f"{golden_name}: invalid JSON: {err}")
                    continue
                events = chrome.get("traceEvents")
                if (not isinstance(events, list) or not events
                        or any("ph" not in e for e in events)):
                    failures.append(f"{golden_name}: not Chrome trace-event "
                                    f"format (traceEvents list with ph)")
                    continue
            golden_path = golden_dir / golden_name
            if update:
                golden_path.parent.mkdir(parents=True, exist_ok=True)
                golden_path.write_bytes(first)
                print(f"  wrote {golden_path} ({len(first)} bytes)")
                continue
            if not golden_path.is_file():
                failures.append(f"{golden_name}: golden file missing — "
                                f"regenerate with --update")
                continue
            expected = golden_path.read_bytes()
            if first != expected:
                failures.append(
                    f"{golden_name}: output differs from golden "
                    f"({len(first)} vs {len(expected)} bytes); if the change "
                    f"is intentional, rerun with --update and review the "
                    f"diff")
            else:
                print(f"  ok   {golden_name}")

        out_path = Path(tmp) / "rejected.out"
        for args, message in REJECTED_CASES:
            argv = [a.replace("{trace}", trace_path)
                    .replace("{out}", str(out_path)) for a in args]
            label = " ".join(args)
            proc = subprocess.run([binary] + argv, capture_output=True)
            errors = []
            if proc.returncode != 1:
                errors.append(f"exited {proc.returncode}, expected 1")
            if message not in proc.stderr.decode(errors="replace"):
                errors.append(f"stderr lacks {message!r}")
            if out_path.exists():
                errors.append(f"wrote {out_path.name}")
                out_path.unlink()
            failures.extend(f"{label}: {error}" for error in errors)
            if not errors:
                print(f"  ok   rejects {label}")

    if failures:
        print("aerctl_golden_test: FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"aerctl_golden_test: {'updated' if update else 'passed'} "
          f"{len(CASES)} cases, {len(REJECTED_CASES)} rejected inputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
