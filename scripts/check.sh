#!/usr/bin/env bash
# Pre-merge gate: everything a change must pass before it lands.
#
#   1. Release build with -Werror -Wconversion -Wshadow (GORILLA_STRICT),
#      full test suite.
#   2. gorilla_lint over src/, tools/ and examples/ plus its self-test
#      fixtures (the lint.* ctest label, run from the release tree).
#   3. ASan+UBSan build, full test suite again under instrumentation.
#   4. Fault-injection suite (ctest label "fault") re-run under ASan+UBSan:
#      the crash-safety paths — torn writes, CRC-failed and truncated loads
#      refused with a diagnosis, injected shard failures — exercise exactly
#      the error-handling branches sanitizers are best at auditing.
#   5. TSan build of the engine/thread-pool tests, the sharded prober
#      passes (rate budget included) and the settling of attack-day monitor
#      writes on apply lanes; the sharded executor's worker-thread
#      discipline (DESIGN.md §3d) is vetted under ThreadSanitizer even on
#      hosts where thread speedup is impossible.
#   6. Memory gate: fig03 at --scale 40, failing when its peak RSS
#      regresses >10% against the latest fig03 peak_rss_kb recorded in
#      BENCH_engine.json (scripts/bench.sh writes it). Skipped with a note
#      when no baseline exists yet.
#   7. Replay-backend gate: record fig03 at --scale 4, replay the artifact
#      through the detector+pcap sinks with gorilla_replay, re-run the same
#      study live (--live) and diff the two detector reports byte-for-byte
#      — the multi-backend replay determinism contract (DESIGN.md §3h).
#      A regional leg does the same for a fig13 --scale 40 window.
#   8. Compaction gate: the fig03 --quick --scale 4 artifact must fit an
#      absolute byte budget, with replay stdout byte-identical to the live
#      run (DESIGN.md §3i).
#
# Usage: scripts/check.sh [--fast]
#   --fast   skip the sanitizer passes (release build + tests + lint only)
set -euo pipefail

cd "$(dirname "$0")/.."

fast=0
if [[ "${1:-}" == "--fast" ]]; then
  fast=1
fi

jobs="$(nproc 2>/dev/null || echo 4)"

echo "== [1/6] Release build (strict warnings) + tests =="
cmake --preset release >/dev/null
cmake --build --preset release -j "$jobs"
ctest --preset release -j "$jobs"

echo "== [2/6] gorilla_lint (tree + self-test) =="
# Parallel analysis over the whole tree first — the summary line on stderr
# reports wall time and the job count. Then the ctest battery (self-test
# fixtures, layering mini-trees, CLI refusals) on top.
./build/release/tools/gorilla_lint/gorilla_lint --jobs "$jobs" src tools examples
ctest --test-dir build/release -L lint --output-on-failure

# The memory gate runs in --fast mode too: RSS regressions are exactly the
# kind of change a quick pre-merge pass should catch, and one fig03 run is
# cheap next to the sanitizer builds.
mem_gate() {
  echo "== [mem] fig03 --scale 40 peak-RSS gate =="
  local baseline_kb
  baseline_kb=$(python3 - <<'PY'
import json
best = 0
try:
    with open("BENCH_engine.json") as f:
        doc = json.load(f)
    for run in doc.get("runs", []):
        for e in run.get("entries", []):
            if e.get("bench") == "fig03_amplifier_counts" and e.get("peak_rss_kb"):
                best = e["peak_rss_kb"]  # latest run wins
except (FileNotFoundError, json.JSONDecodeError):
    pass
print(best)
PY
)
  if [[ "$baseline_kb" -eq 0 ]]; then
    echo "   no fig03 peak_rss_kb baseline in BENCH_engine.json — skipping"
    echo "   (run scripts/bench.sh once to record one)"
    return 0
  fi
  local rss_kb
  rss_kb=$(python3 - build/release/bench/fig03_amplifier_counts <<'PY'
import resource, subprocess, sys
rc = subprocess.run([sys.argv[1], "--scale", "40"],
                    stdout=subprocess.DEVNULL).returncode
if rc != 0:
    sys.exit(rc)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
PY
)
  local limit_kb=$((baseline_kb + baseline_kb / 10))
  echo "   peak RSS ${rss_kb} KB (baseline ${baseline_kb} KB, limit ${limit_kb} KB)"
  if [[ "$rss_kb" -gt "$limit_kb" ]]; then
    echo "check.sh: FAIL — fig03 peak RSS regressed >10% over the" \
         "BENCH_engine.json baseline" >&2
    exit 1
  fi
}

# Replay-backend gate (runs in --fast mode too — it is two small records,
# each replayed and rerun live): a recorded fig03 study and a recorded fig13
# regional window, replayed through the detector sink (fig03 also through
# pcap), must render the detector report byte-identically to the same sink
# riding the live bus, with at least one episode so the comparison is not
# vacuous; fig03's exported capture must be non-empty.
replay_gate() {
  echo "== [replay] fig03 --scale 4 + fig13 --scale 40 record -> replay gate =="
  local work
  work="$(mktemp -d)"
  replay_leg "$work/fig03" fig03_amplifier_counts 4 detector,pcap
  if [[ ! -s "$work/fig03/replayed/attacks.pcap" ]]; then
    echo "check.sh: FAIL — replay produced no pcap capture" >&2
    exit 1
  fi
  echo "   pcap $(wc -c <"$work/fig03/replayed/attacks.pcap") bytes"
  replay_leg "$work/fig13" fig13_top_victims 40 detector
  rm -rf "$work"
}

# replay_leg DIR BENCH SCALE SINKS: records BENCH --quick --scale SCALE,
# replays the artifact through SINKS and reruns it --live through the
# detector, then compares the two detector reports.
replay_leg() {
  local dir="$1" bench="$2" scale="$3" sinks="$4" episodes
  local replay=./build/release/tools/gorilla_replay/gorilla_replay
  mkdir -p "$dir"
  "./build/release/bench/$bench" --quick --scale "$scale" \
    --record "$dir/study.bin" >/dev/null
  "$replay" --artifact "$dir/study.bin" --sinks "$sinks" \
    --out "$dir/replayed" 2>"$dir/replay.log"
  "$replay" --artifact "$dir/study.bin" --live --sinks detector \
    --out "$dir/live" 2>>"$dir/replay.log"
  if ! cmp -s "$dir/live/detector.txt" "$dir/replayed/detector.txt"; then
    echo "check.sh: FAIL — $bench replayed detector report differs from" \
         "the live bus (see $dir)" >&2
    exit 1
  fi
  episodes=$(grep -c '^attack ' "$dir/replayed/detector.txt" || true)
  if [[ "$episodes" -eq 0 ]]; then
    echo "check.sh: FAIL — $bench detector report has no episodes" >&2
    exit 1
  fi
  echo "   $bench: detector report byte-identical live vs replayed," \
       "$episodes episode(s)"
}

# Compaction gate (runs in --fast mode too): the fig03 --quick --scale 4
# artifact must stay within an absolute byte budget — 60% of the
# 925,992,536 B the same study took in the retired uncompressed v2 format
# — and replaying it must reproduce the live stdout byte-for-byte: the
# format is pure compaction, never a semantic change (DESIGN.md §3i). One
# replay suffices: a replay is one streaming decode that never uses the
# --jobs pool, so a second --jobs value would re-run identical code.
compaction_gate() {
  echo "== [compaction] fig03 --scale 4 artifact byte budget + replay gate =="
  local work
  work="$(mktemp -d)"
  ./build/release/bench/fig03_amplifier_counts --quick --scale 4 \
    --record "$work/v3.study" >"$work/live.txt"
  local v3_bytes budget_bytes=555595521
  v3_bytes=$(wc -c <"$work/v3.study")
  echo "   artifact ${v3_bytes} B (budget ${budget_bytes} B)"
  if [[ "$v3_bytes" -gt "$budget_bytes" ]]; then
    echo "check.sh: FAIL — fig03 artifact exceeds its byte budget" >&2
    exit 1
  fi
  ./build/release/bench/fig03_amplifier_counts --quick --scale 4 \
    --replay "$work/v3.study" >"$work/replay.txt"
  if ! cmp -s "$work/live.txt" "$work/replay.txt"; then
    echo "check.sh: FAIL — replay stdout differs from the live stdout" \
         "(see $work)" >&2
    exit 1
  fi
  echo "   replay stdout byte-identical to live"
  rm -rf "$work"
}

if [[ "$fast" -eq 1 ]]; then
  echo "== [3/6] skipped (--fast) =="
  echo "== [4/6] skipped (--fast) =="
  echo "== [5/6] skipped (--fast) =="
  mem_gate
  replay_gate
  compaction_gate
  echo "check.sh: OK (fast)"
  exit 0
fi

echo "== [3/6] ASan+UBSan build + tests =="
cmake --preset asan-ubsan >/dev/null
cmake --build --preset asan-ubsan -j "$jobs"
ctest --preset asan-ubsan -j "$jobs"

echo "== [4/6] fault-injection suite under ASan+UBSan =="
ctest --test-dir build/asan-ubsan -L fault --output-on-failure

echo "== [5/6] TSan build + engine/thread-pool/prober/monitor-settle tests =="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$jobs"
ctest --preset tsan -j "$jobs"

mem_gate
replay_gate
compaction_gate
echo "check.sh: OK"
