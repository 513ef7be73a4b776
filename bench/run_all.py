#!/usr/bin/env python3
"""Run the bench suite and aggregate the BENCH_*.json records.

Every bench binary emits one BENCH_<name>.json (see bench/bench_json.h) with
its wall time, an FNV-1a checksum over its reported series, and bench-specific
metrics such as episodes/sec. This driver runs the whole suite, collects the
records into <out>/BENCH_ALL.json, and optionally compares against a recorded
baseline — failing on checksum drift (the numbers changed) or on an
episodes/sec regression beyond the threshold (the engine got slower).

Typical usage (from the repo root, after a Release build into ./build):

  bench/run_all.py --smoke                         # quick pass, small scale
  bench/run_all.py --smoke --compare bench/baselines/smoke.json
  bench/run_all.py --smoke --update-baseline bench/baselines/smoke.json
  bench/run_all.py --smoke --trend                 # append perf-trend rows

Checksums are a pure function of (code, AER_SCALE, seeds) — independent of
thread count and wall time — so comparing them across commits detects silent
numeric drift. Wall-time metrics never enter the baseline.
"""

import argparse
import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

# Benches that need extra flags to finish quickly in --smoke mode.
SMOKE_EXTRA_ARGS = {
    # Plain text, so the uploaded micro_benchmarks.log has no ANSI codes.
    "micro_benchmarks": ["--benchmark_min_time=0.05",
                         "--benchmark_color=false"],
    # Keeps the million-machine arm but shrinks the simulated duration
    # (equivalent to AER_SCALE=small; the flag makes the leg self-contained).
    "bench_fleet_scale": ["--smoke"],
}

# Metrics worth pinning in a baseline: deterministic counters and the
# throughput figures the CI gate watches. Wall-clock metrics are excluded —
# they vary run to run and machine to machine.
BASELINE_METRIC_KEYS = ("episodes", "types")
THROUGHPUT_PREFIXES = ("episodes_per_sec", "events_per_sec")
# Deterministic sim-time latencies trended alongside throughput: the
# control-plane takeover latency and its critical-path stage attribution
# (bench_ctrl, docs/OBSERVABILITY.md "Distributed tracing").
TREND_LATENCY_PREFIXES = ("takeover_",)
# Wall times of single layers (profile scopes), trended so a regression
# names its layer; machine-dependent, so never in the baseline.
TREND_LAYER_KEYS = ("fleet_merge_ms",)
# Observability counters mirrored from a MetricsRegistry snapshot
# (bench_json RecordRegistrySnapshot). Deterministic by contract
# (docs/OBSERVABILITY.md), so they are compared exactly like checksums.
OBS_METRIC_PREFIX = "aer_"


def discover_benches(build_dir: Path) -> list[Path]:
    bench_dir = build_dir / "bench"
    if not bench_dir.is_dir():
        sys.exit(f"run_all: no bench binaries at {bench_dir} — build first "
                 f"(cmake -B {build_dir} -S . && cmake --build {build_dir})")
    found = []
    for path in sorted(bench_dir.iterdir()):
        if not path.is_file() or path.suffix:
            continue
        if path.stat().st_mode & stat.S_IXUSR:
            found.append(path)
    if not found:
        sys.exit(f"run_all: {bench_dir} contains no executable benches")
    return found


def run_bench(binary: Path, out_dir: Path, env: dict, smoke: bool,
              log_dir: Path) -> tuple[bool, float]:
    args = [str(binary)]
    if smoke:
        args += SMOKE_EXTRA_ARGS.get(binary.name, [])
    log_path = log_dir / f"{binary.name}.log"
    start = time.monotonic()
    with open(log_path, "w") as log:
        proc = subprocess.run(args, env=env, stdout=log,
                              stderr=subprocess.STDOUT)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        print(f"  FAIL {binary.name} (exit {proc.returncode}, "
              f"see {log_path})")
        return False, elapsed
    print(f"  ok   {binary.name:32s} {elapsed:7.1f}s")
    return True, elapsed


def collect_records(out_dir: Path) -> dict:
    records = {}
    for path in sorted(out_dir.glob("BENCH_*.json")):
        if path.name == "BENCH_ALL.json":
            continue
        with open(path) as f:
            record = json.load(f)
        records[record["name"]] = record
    return records


def baseline_view(records: dict) -> dict:
    """The comparable subset of the records: checksums + pinned metrics."""
    view = {}
    for name, record in sorted(records.items()):
        entry = {"checksum": record["checksum"], "scale": record["scale"]}
        metrics = {}
        for key, value in record.get("metrics", {}).items():
            if key in BASELINE_METRIC_KEYS or key.startswith(
                    THROUGHPUT_PREFIXES + (OBS_METRIC_PREFIX,)):
                metrics[key] = value
        if metrics:
            entry["metrics"] = metrics
        view[name] = entry
    return view


def compare(records: dict, baseline_path: Path, threshold: float) -> list:
    with open(baseline_path) as f:
        baseline = json.load(f)
    errors = []
    for name, expected in sorted(baseline.get("benches", {}).items()):
        record = records.get(name)
        if record is None:
            errors.append(f"{name}: present in baseline but not run")
            continue
        if record["scale"] != expected.get("scale", record["scale"]):
            errors.append(f"{name}: scale mismatch ({record['scale']} vs "
                          f"baseline {expected['scale']}) — rerun at the "
                          f"baseline's scale")
            continue
        if record["checksum"] != expected["checksum"]:
            errors.append(f"{name}: checksum drift {expected['checksum']} -> "
                          f"{record['checksum']} (output numbers changed)")
        for key, base_value in expected.get("metrics", {}).items():
            value = record.get("metrics", {}).get(key)
            if value is None:
                errors.append(f"{name}: metric {key} missing from run")
            elif (key in BASELINE_METRIC_KEYS or
                  key.startswith(OBS_METRIC_PREFIX)) and value != base_value:
                errors.append(f"{name}: {key} changed {base_value} -> {value}")
            elif key.startswith(THROUGHPUT_PREFIXES) and \
                    value < base_value * (1.0 - threshold):
                errors.append(
                    f"{name}: {key} regressed {base_value:.0f} -> "
                    f"{value:.0f} /s (> {threshold:.0%} below baseline)")
    return errors


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True,
            cwd=Path(__file__).resolve().parent)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def append_trend(records: dict, trend_path: Path) -> None:
    """Appends one JSONL row per bench: wall time and throughput over time.

    Unlike the baseline (one pinned snapshot, overwritten on update), the
    trend file only ever grows — each row is stamped with the commit and UTC
    time, so plotting wall_ms / episodes_per_sec per bench across rows gives
    the repo's perf trajectory. Wall times are machine-dependent; rows from
    different machines are distinguishable only by their commit, so trends
    are most meaningful from a stable runner (the bench-smoke CI leg).
    """
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    commit = git_commit()
    trend_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trend_path, "a") as f:
        for name, record in sorted(records.items()):
            row = {
                "utc": stamp,
                "commit": commit,
                "bench": name,
                "scale": record["scale"],
                "threads": record.get("threads"),
                "wall_ms": record.get("wall_ms"),
            }
            for key, value in sorted(record.get("metrics", {}).items()):
                if (key.startswith(THROUGHPUT_PREFIXES + TREND_LATENCY_PREFIXES)
                        or key in TREND_LAYER_KEYS):
                    row[key] = value
            f.write(json.dumps(row) + "\n")
    print(f"run_all: appended {len(records)} trend rows -> {trend_path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", type=Path, default=Path("build"),
                        help="CMake build tree with bench/ binaries")
    parser.add_argument("--out-dir", type=Path, default=Path("bench_out"),
                        help="where BENCH_*.json and logs are written")
    parser.add_argument("--smoke", action="store_true",
                        help="quick pass: AER_SCALE=small + per-bench "
                             "smoke flags")
    parser.add_argument("--only", default=None,
                        help="run only benches whose name contains this "
                             "substring")
    parser.add_argument("--compare", type=Path, default=None,
                        help="baseline JSON to compare against; exit 1 on "
                             "checksum drift or throughput regression")
    parser.add_argument("--regression-threshold", type=float, default=0.30,
                        help="allowed fractional episodes/sec drop vs "
                             "baseline (default 0.30)")
    parser.add_argument("--update-baseline", type=Path, default=None,
                        help="write the comparable subset of this run's "
                             "records to the given baseline file")
    parser.add_argument("--trend", type=Path, nargs="?", default=None,
                        const=Path("bench/baselines/trend.jsonl"),
                        help="append per-bench wall_ms and episodes/sec "
                             "rows to this JSONL file (default "
                             "bench/baselines/trend.jsonl)")
    args = parser.parse_args()

    out_dir = args.out_dir.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob("BENCH_*.json"):
        stale.unlink()

    env = dict(os.environ)
    env["AER_BENCH_JSON_DIR"] = str(out_dir)
    env.pop("AER_CSV_DIR", None)  # CSV mirroring is a separate workflow
    if args.smoke:
        env["AER_SCALE"] = "small"

    benches = discover_benches(args.build_dir)
    if args.only:
        benches = [b for b in benches if args.only in b.name]
        if not benches:
            sys.exit(f"run_all: no bench matches --only {args.only}")

    scale = env.get("AER_SCALE", "default")
    print(f"run_all: {len(benches)} benches, scale={scale}, out={out_dir}")
    failures = []
    total = 0.0
    for binary in benches:
        ok, elapsed = run_bench(binary, out_dir, env, args.smoke, out_dir)
        total += elapsed
        if not ok:
            failures.append(binary.name)

    records = collect_records(out_dir)
    aggregate = {
        "scale": scale,
        "total_wall_s": round(total, 1),
        "failed": failures,
        "benches": records,
    }
    all_path = out_dir / "BENCH_ALL.json"
    with open(all_path, "w") as f:
        json.dump(aggregate, f, indent=2, sort_keys=False)
        f.write("\n")
    print(f"run_all: {len(records)} records -> {all_path} "
          f"({total:.1f}s total)")

    if failures:
        print(f"run_all: FAILED benches: {', '.join(failures)}")
        return 1

    if args.trend:
        append_trend(records, args.trend)

    if args.update_baseline:
        baseline = {"scale": scale, "benches": baseline_view(records)}
        args.update_baseline.parent.mkdir(parents=True, exist_ok=True)
        with open(args.update_baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"run_all: baseline updated -> {args.update_baseline}")

    if args.compare:
        errors = compare(records, args.compare, args.regression_threshold)
        if errors:
            print("run_all: baseline comparison FAILED:")
            for error in errors:
                print(f"  - {error}")
            return 1
        print(f"run_all: baseline comparison passed ({args.compare})")

    return 0


if __name__ == "__main__":
    sys.exit(main())
