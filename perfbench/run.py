#!/usr/bin/env python3
"""Benchmark of the NTP-DDoS study engine.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload study-record --seed 1 --seconds 20 --trace 0

Builds perfbench_driver from source (perfbench/CMakeLists.txt, into
.bench_build/perfbench), runs the workload for the seed and prints, as the
last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics; the traced run also writes its spans
to .bench_build/perfbench-traces/. `attempted` and `failed` count top-level
layer calls (day windows, seeding weeks, probe passes, saves, loads, replay
passes) and the output checks that ride on them: failed / attempted is the
ops_failed ratio. The lines before the result repeat the numbers with
their units, the operation counts and the run's provenance.

perfbench/README.md says why each workload exists and which end-to-end
metric each per-layer metric should move.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("study-record", "regional-window", "replay-fanout")
# A run must end within 180 s; the build of a fresh checkout is allowed more.
RUN_BUDGET_S = 170.0
# Worlds (seeds derived from --seed) each run measures, per workload.
WORLDS = {"study-record": 3, "regional-window": 6, "replay-fanout": 3}
# An untraced run's setup_s is the median of at least this many set-ups.
MIN_SETUPS = 6
BUILD_BUDGET_S = 700.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    return args


def build(root, build_dir):
    """Configures (once) and builds the driver; returns its path."""
    if not (root / "src" / "CMakeLists.txt").is_file() or not (
        root / "bench" / "common.cpp"
    ).is_file():
        fail(f"no repository sources under {root}; run from a checkout's root")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = [cmake, "-S", str(root / "perfbench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append([cmake, "--build", str(build_dir), "--target", "perfbench_driver",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_BUDGET_S
    with open(log, "w") as out:
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=max(1.0, deadline - time.monotonic())).returncode
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log}")
            if rc != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed; see {log}")
    driver = build_dir / "perfbench_driver"
    if not driver.is_file():
        fail("build produced no perfbench_driver")
    return driver


def run_driver(cmd, deadline):
    """Runs one driver process; returns its JSON result line."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd[1:3])}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"driver exited with {proc.returncode}: {' '.join(cmd[1:3])}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"driver printed nothing: {' '.join(cmd[1:3])}")
    return json.loads(lines[-1])


def derived_seeds(seed, count):
    """The inputs of one run: `count` worlds made from --seed. The first is
    --seed itself; taking the median over several worlds keeps a run's
    result from hanging on the amount of work one world happens to hold."""
    return [(seed + i * 0x9E3779B97F4A7C15) % 2**64 for i in range(count)]


def main():
    args = parse_args()
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found; run from a checkout's root")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bench_dir = root / ".bench_build"
    driver = build(root, bench_dir / "perfbench")
    deadline = time.monotonic() + RUN_BUDGET_S

    work = bench_dir / "perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    traces = bench_dir / "perfbench-traces"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    traces.mkdir(parents=True, exist_ok=True)
    seeds = derived_seeds(args.seed, WORLDS[args.workload])

    def driver_cmd(mode, seed, *extra):
        cmd = [str(driver), mode, "--seed", str(seed), "--work", str(work)]
        if mode in ("prepare", "replay-fanout"):
            cmd += ["--artifact", str(work / f"{seed}.gorcol"),
                    "--digests", str(work / f"{seed}.digests")]
        return cmd + list(extra)

    attempted = failed = 0
    plain, traced, spans, setups, errors = [], [], [], [], []
    try:
        # Untimed steps run in processes of their own, so that neither their
        # time nor their memory reaches a measured process: the fidelity
        # self-test, or the recordings (and live-run digests) replay loads.
        pre = []
        if args.workload == "study-record":
            pre.append(driver_cmd("fidelity", seeds[0]))
        elif args.workload == "replay-fanout":
            pre += [driver_cmd("prepare", seed) for seed in seeds]
        for cmd in pre:
            res = run_driver(cmd, deadline)
            attempted += res["attempted"]
            failed += res["failed"]
            errors += res["errors"]

        # One iteration per process, as each bench binary run is one process.
        # A round runs every world once (untraced, then traced in a traced
        # run, so both sets hold the same worlds and their wall-time
        # difference is the tracing overhead). Whole rounds repeat while the
        # measured time lasts, so a run's inputs do not depend on its speed.
        start = time.monotonic()
        k = 0
        while True:
            round_start = time.monotonic()
            for seed in seeds:
                for is_traced in ((False, True) if args.trace else (False,)):
                    trace_file = work / f"trace-{k}.json"
                    k += 1
                    res = run_driver(driver_cmd(args.workload, seed, "--trace",
                                                "1" if is_traced else "0", "--trace-out",
                                                str(trace_file)), deadline)
                    attempted += res["attempted"]
                    failed += res["failed"]
                    errors += res["errors"]
                    (traced if is_traced else plain).append(res)
                    if is_traced:
                        spans.append(json.loads(trace_file.read_text()))
            now = time.monotonic()
            last = now - round_start
            if failed or now - start + last > args.seconds or now + 1.5 * last > deadline:
                break
        # Set-up is short and noisy: time it alone in extra processes until
        # its median rests on MIN_SETUPS samples.
        setups = [r["metrics"]["setup_s"] for r in plain]
        i = 0
        while (not failed and not args.trace and len(setups) < MIN_SETUPS
               and time.monotonic() + 10 < deadline):
            res = run_driver(driver_cmd(args.workload, seeds[i % len(seeds)],
                                        "--setup-only", "1"), deadline)
            setups.append(res["metrics"]["setup_s"])
            i += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def med(samples, name):
        return statistics.median(s["metrics"][name] for s in samples)

    measured = {name: med(plain, name) for name in plain[0]["metrics"]}
    measured["setup_s"] = statistics.median(setups)
    if traced:
        measured.update({name: med(traced, name) for name in traced[0]["metrics"]})
        measured["trace.overhead_s"] = med(traced, "wall_s") - med(plain, "wall_s")
    metrics = {}
    missing = []
    for m in wanted:
        value = measured.get(m["name"])
        if value is None or not math.isfinite(value):
            missing.append(m["name"])
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    prov = dict(plain[-1]["provenance"], workload=args.workload,
                build_type=plain[-1]["build_type"], seed=args.seed, worlds=seeds,
                seconds=args.seconds, iterations=len(plain),
                traced_iterations=len(traced), setup_samples=len(setups))
    print(f"workload {args.workload} seed {args.seed} scale {prov['scale']:.0f} "
          f"jobs {prov['jobs']:.0f} host_cores {prov['host_cores']:.0f} "
          f"build {prov['build_type']}: medians of {len(plain)} untraced"
          + (f" and {len(traced)} traced" if traced else "")
          + f" iterations over {len(seeds)} worlds, setup_s of {len(setups)}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        if args.workload != "regional-window":
            print(f"  {'artifact_mb':32s} {measured.get('artifact_mb', 0.0):.6g} MB")
        print(f"  {'ops_failed':32s} {failed}/{attempted}")
    else:
        trace_out = traces / f"{args.workload}-seed{args.seed}.json"
        trace_out.write_text(json.dumps({
            "workload": args.workload, "provenance": prov,
            "metrics": {k: v["value"] for k, v in metrics.items()},
            "iterations": [dict(s, metrics=r["metrics"]) for s, r in zip(spans, traced)],
        }, indent=1))
        print(f"  spans written to {trace_out.relative_to(root)}")
    for e in errors[:20]:
        print(f"  error: {e}")
    if missing:
        print(f"  missing metrics: {', '.join(missing)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not missing, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
