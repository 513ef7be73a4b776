#!/usr/bin/env python3
"""End-to-end benchmark: builds bench_e2e from source and runs its workloads.

One run (the form the root BENCHMARK.json names):

  python3 e2ebench/benchmark.py --workload W --seed N --seconds T --trace 0|1

builds the program if needed, runs workload W once in a fresh process, checks
its outputs, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics (the end-to-end metrics with
--trace 0, the per-layer ones with --trace 1; BENCHMARK.json lists both).

A suite (no --workload):

  python3 e2ebench/benchmark.py [--seed 1 | --seeds 1-10] [--repeats 5]
      [--seconds T] [--trace 1] [--out FILE]
      [--compare BASE.json] [--trend FILE] [--pin]

runs every workload for every seed, `repeats` times, alternating the
workload order per repeat; prints each end-to-end metric's median and
quartiles with its unit; with --trace 1 adds one traced run per workload and
prints the per-layer metrics. --out writes the summary as JSON (the format of
baseline.json), --compare applies BENCHMARK.json's bounds against such a
summary, --trend appends one row per workload (and, with --trace 1, one per
per-layer metric) to a JSON-lines file, and --pin re-pins the output
checksums of seeds 1 and 2 in pinned.json (a benchmark change, never a
performance change, does that).

Correctness: a run is correct when the program reports every pass
consistent and every output check passed, prints exactly the catalog's
metrics with their units, and — for a (size, workload, seed) pinned in
pinned.json — reproduces the pinned checksum. The exit status is 0 only
when every run is correct and, with --compare, nothing regressed.
"""

from __future__ import annotations

import argparse
import datetime
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
SPEC_PATH = ROOT / "BENCHMARK.json"
PINNED_PATH = BENCH_DIR / "pinned.json"

# A first run builds, then runs: together they stay under 15 minutes.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170  # every run must end within three minutes
PIN_SEEDS = (1, 2)


class BenchError(Exception):
    """A failure that leaves no result to print."""


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def load_pinned() -> dict:
    if not PINNED_PATH.exists():
        return {}
    with open(PINNED_PATH, encoding="utf-8") as f:
        return json.load(f)


def build() -> Path:
    """Configures (once) and builds bench_e2e under .bench_build/."""
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    BUILD_DIR.mkdir(exist_ok=True)
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            _check_call(configure, deadline)
        jobs = str(min(4, os.cpu_count() or 1))
        _check_call(["cmake", "--build", str(BUILD_DIR), "--target",
                     "bench_e2e", "--parallel", jobs], deadline)
    return BUILD_DIR / "bench_e2e"


def _check_call(cmd: list[str], deadline: float) -> None:
    # A process group of its own, so that stopping the build reaches make or
    # ninja too, not cmake alone.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        returncode = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except BaseException as e:
        _stop_group(proc)
        if isinstance(e, subprocess.TimeoutExpired):
            raise BenchError(f"timed out: {' '.join(cmd)}") from e
        raise
    if returncode != 0:
        # A failed configure leaves a cache behind; start clean next time.
        (BUILD_DIR / "CMakeCache.txt").unlink(missing_ok=True)
        raise BenchError(f"failed ({returncode}): {' '.join(cmd)}")


def _stop_group(proc: subprocess.Popen) -> None:
    """Stops every process of proc's group and waits until none is left.

    SIGTERM first: ninja runs each compiler in a process group of its own
    and, on SIGTERM, interrupts them and waits for them before it exits.
    """
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            proc.poll()  # reap cmake, which would otherwise linger as a zombie
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def run_bench(binary: Path, workload: str, seed: int, seconds: float,
              size: str, trace: bool, echo: bool) -> dict:
    """Runs one workload in a fresh process; returns its result record."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--size", size]
    if trace:
        trace_dir = BUILD_DIR / "traces"
        trace_dir.mkdir(exist_ok=True)
        cmd += ["--trace", str(trace_dir / f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} seed {seed}: timed out") from e
    lines = done.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise BenchError(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def check_record(record: dict, spec: dict, pinned: dict) -> list[str]:
    """Every reason the record is not a correct run (empty when correct)."""
    problems = []
    if not record["correct"]:
        problems.append("the program reported failed output checks")
    catalog = spec["per_layer" if record["mode"] == "trace" else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in catalog}
    printed = {name: m["unit"] for name, m in record["metrics"].items()}
    if printed != expected:
        problems.append("printed metrics differ from BENCHMARK.json: "
                        f"{sorted(set(printed.items()) ^ set(expected.items()))}")
    pin = pinned.get(record["size"], {}).get(record["workload"], {}).get(
        str(record["seed"]))
    if pin is not None and pin != record["checksum"]:
        problems.append(f"checksum {record['checksum']} != pinned {pin}")
    return problems


def single_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; one of {names}")
    binary = build()
    record = run_bench(binary, args.workload, args.seed, args.seconds,
                       args.size, args.trace == 1, echo=True)
    problems = check_record(record, spec, load_pinned())
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({"correct": not problems,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


# --- suite ---------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values: list[float], unit: str) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "unit": unit,
            "values": values}


def compare(base: dict, new: dict, spec: dict) -> list[tuple[str, str, str,
                                                             str]]:
    """Applies BENCHMARK.json's bounds to two suite summaries.

    Returns (workload, metric, status, detail) rows; status is one of
    pass, regression, unresolved, incorrect. A metric whose interquartile
    spread (on either side, as a share of its median) exceeds its bound is
    unresolved rather than unchanged, unless every new run reads better
    than every base run. Any rise in the failed fraction is a regression.
    """
    rows = []
    for workload, runs in new["workloads"].items():
        before = base["workloads"].get(workload)
        if before is None:
            continue
        if not runs["correct"]:
            rows.append((workload, "correct", "incorrect", "run failed"))
        new_frac = runs["failed"] / runs["attempted"]
        base_frac = before["failed"] / before["attempted"]
        rows.append((workload, "failed_frac",
                     "regression" if new_frac > base_frac else "pass",
                     f"{base_frac:.6g} -> {new_frac:.6g}"))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            b, n = before["metrics"][name], runs["metrics"][name]
            worse = ((n["median"] - b["median"]) if lower else
                     (b["median"] - n["median"])) / b["median"]
            spread = max((s["q3"] - s["q1"]) / s["median"] for s in (b, n))
            detail = (f"{b['median']:.6g} -> {n['median']:.6g} {n['unit']} "
                      f"({n['median'] / b['median'] - 1:+.1%}; spread "
                      f"{spread:.1%}, bound {bound:.0%})")
            if spread > bound:
                better_always = (max(n["values"]) < min(b["values"]) if lower
                                 else min(n["values"]) > max(b["values"]))
                status = "pass" if better_always else "unresolved"
            else:
                status = "regression" if worse > bound else "pass"
            rows.append((workload, name, status, detail))
    return rows


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def pin(binary: Path, spec: dict) -> int:
    pinned = {}
    for size in ("full", "smoke"):
        for w in spec["workloads"]:
            for seed in PIN_SEEDS:
                record = run_bench(binary, w["name"], seed, 0, size, False,
                                   echo=False)
                if not record["correct"]:
                    raise BenchError(f"{w['name']} seed {seed} ({size}) is "
                                     "incorrect; nothing pinned")
                pinned.setdefault(size, {}).setdefault(
                    w["name"], {})[str(seed)] = record["checksum"]
    with open(PINNED_PATH, "w", encoding="utf-8") as f:
        json.dump(pinned, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"pinned {PINNED_PATH.relative_to(ROOT)}")
    return 0


def suite(args: argparse.Namespace) -> int:
    spec = load_spec()
    binary = build()
    if args.pin:
        return pin(binary, spec)
    pinned = load_pinned()
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds) if args.seeds else [args.seed]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    records: dict[str, list[dict]] = {w: [] for w in workloads}
    all_correct = True
    for repeat in range(args.repeats):
        order = workloads if repeat % 2 == 0 else workloads[::-1]
        for workload in order:
            for seed in seeds:
                record = run_bench(binary, workload, seed, args.seconds,
                                   args.size, False, echo=False)
                problems = check_record(record, spec, pinned)
                record["problems"] = problems
                all_correct &= not problems
                records[workload].append(record)
                status = "ok" if not problems else "; ".join(problems)
                print(f"[{repeat + 1}/{args.repeats}] {workload} seed {seed}:"
                      f" run_s {record['metrics']['run_s']['value']:.4g} s,"
                      f" checksum {record['checksum']} ({status})",
                      flush=True)

    summary = {"utc": datetime.datetime.now(datetime.timezone.utc)
                      .strftime("%Y-%m-%dT%H:%M:%SZ"),
               "commit": git_commit(), "seconds": args.seconds,
               "size": args.size, "seeds": seeds, "repeats": args.repeats,
               "workloads": {}}
    print(f"\n{'workload':<9} {'metric':<14} {'median':>12} {'q1':>12} "
          f"{'q3':>12}  unit   spread")
    for workload in workloads:
        runs = records[workload]
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs],
                                   unit) for name, unit in units.items()}
        # Unscaled wall times and the host probe, to show what the probe
        # rescaling removed.
        host = {key: summarize([r[key] for r in runs], "s")
                for key in ("wall_setup_s", "wall_run_s", "probe_s")}
        summary["workloads"][workload] = {
            "correct": all(not r["problems"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "checksums": sorted({f"{r['seed']}:{r['checksum']}"
                                 for r in runs}),
            "metrics": metrics, "host": host}
        for name, m in list(metrics.items()) + list(host.items()):
            print(f"{workload:<9} {name:<14} {m['median']:>12.6g} "
                  f"{m['q1']:>12.6g} {m['q3']:>12.6g}  {m['unit']:<6} "
                  f"{(m['q3'] - m['q1']) / m['median']:.1%}")

    if args.trace == 1:
        print()
        for workload in workloads:
            record = run_bench(binary, workload, seeds[0], args.seconds,
                               args.size, True, echo=False)
            problems = check_record(record, spec, pinned)
            all_correct &= not problems
            summary["workloads"][workload]["layers"] = record["metrics"]
            print(f"{workload} per-layer (seed {seeds[0]}):"
                  f" {'ok' if not problems else '; '.join(problems)}")
            for name, m in record["metrics"].items():
                print(f"  {name:<26} {m['value']:>14.6g} {m['unit']}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")
    if args.trend:
        with open(args.trend, "a", encoding="utf-8") as f:
            for workload, runs in summary["workloads"].items():
                row = {"utc": summary["utc"], "commit": summary["commit"],
                       "bench": "e2e", "workload": workload,
                       "metrics": {k: v["median"]
                                   for k, v in runs["metrics"].items()}}
                f.write(json.dumps(row) + "\n")
                for name, m in runs.get("layers", {}).items():
                    f.write(json.dumps({
                        "utc": summary["utc"], "commit": summary["commit"],
                        "bench": "e2e", "workload": workload, "layer": name,
                        "value": m["value"], "unit": m["unit"]}) + "\n")

    ok = all_correct
    if args.compare:
        with open(args.compare, encoding="utf-8") as f:
            base = json.load(f)
        print("\ncompare against", args.compare)
        for workload, metric, status, detail in compare(base, summary, spec):
            print(f"  {workload:<9} {metric:<14} {status:<11} {detail}")
            ok &= status in ("pass", "unresolved")
    print("\nall runs correct" if all_correct else "\nSOME RUNS INCORRECT")
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run this one workload once")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds",
                        help="suite seeds, e.g. 1-10 or 1,2 (default: --seed)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed section length (default: BENCHMARK.json"
                             " run_seconds)")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the suite summary here")
    parser.add_argument("--compare", help="baseline summary to compare with")
    parser.add_argument("--trend", help="JSON-lines file to append rows to")
    parser.add_argument("--pin", action="store_true",
                        help="re-pin checksums of seeds 1 and 2")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        return single_run(args) if args.workload else suite(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
