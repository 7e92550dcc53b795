#!/usr/bin/env bash
# Engine perf trajectory: times representative full-pipeline benches under
# the sharded study engine and writes BENCH_engine.json at the repo root.
#
# For each bench (by default fig03, fig07, fig13, tab05) this measures, at
# default scale/seed:
#   - sequential wall time        (--jobs 1)
#   - parallel wall time          (--jobs $(nproc), override with JOBS=N)
#   - record wall time            (--jobs 1 --record study.bin)
#   - replay wall time            (--replay study.bin)
# and asserts stdout is byte-identical across every run — the engine's
# determinism contract (DESIGN.md §3d) makes every mode a pure speedup. A
# bench that refuses --record or --replay (exit 2 and its refusal line)
# gets null in those columns. The sequential and record runs also record
# their peak RSS (peak_rss_kb, record_peak_rss_kb), so the file carries the
# memory trajectory alongside the perf trajectory — scripts/check.sh gates
# fig03 RSS regressions against the latest peak_rss_kb.
#
# The replay column is the simulate-once/analyze-many headline: every
# analysis after the first skips the simulation (attack days, seeding and
# probes); it still builds the World for its registry and PBL.
#
# Usage: scripts/bench.sh [build-dir [bench ...]]   (default: build, and
#        the four benches above). The build directory may belong to another
#        checkout: its CMakeCache.txt names the sources that lint times, and
#        the run is appended to this checkout's BENCH_engine.json.
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir="${1:-build}"
bench_dir="$build_dir/bench"
if [[ ! -d "$bench_dir" ]]; then
  echo "bench.sh: $bench_dir not found — configure and build first" >&2
  exit 2
fi
# The checkout the build was configured from: lint times its sources, so a
# run against another checkout's build times that checkout's code.
root="$(sed -n 's/^CMAKE_HOME_DIRECTORY:INTERNAL=//p' \
  "$build_dir/CMakeCache.txt" 2>/dev/null || true)"
if [[ -z "$root" || ! -d "$root/src" ]]; then
  echo "bench.sh: no source root (CMAKE_HOME_DIRECTORY) in" \
       "$build_dir/CMakeCache.txt" >&2
  exit 2
fi

cores="$(nproc 2>/dev/null || echo 1)"
jobs="${JOBS:-$cores}"
# fig07 (study shape) and fig13 (regional shape) of the one harness,
# bench::StudyPipeline, push their attack days through the parallel
# day-shard path, so the jobs column tracks attack-phase speedup; fig03 and
# tab05 cover the probe-dominated and the regional forensic runs.
benches=(fig03_amplifier_counts fig07_attack_timeseries fig13_top_victims
         tab05_top_amplifiers)
if [[ $# -gt 1 ]]; then
  benches=("${@:2}")
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Wall time of a command in seconds (millisecond resolution), stdout to $1.
time_to() {
  local out="$1"
  shift
  local t0 t1
  t0=$(date +%s%N)
  "$@" >"$out" 2>>"$work/stderr.log"
  t1=$(date +%s%N)
  awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", (b - a) / 1e9 }'
}

# Wall time (s) and peak RSS (KB) of a command, stdout to $1 and stderr to
# the caller's; prints "<seconds> <rss_kb>". Peak RSS comes from
# getrusage(RUSAGE_CHILDREN) in a fresh python process per run — the
# container image carries no /usr/bin/time, and ru_maxrss is the same
# kernel counter it would read.
measure_to() {
  local out="$1"
  shift
  python3 - "$out" "$@" <<'PY'
import resource, subprocess, sys, time
t0 = time.monotonic()
with open(sys.argv[1], "wb") as f:
    rc = subprocess.run(sys.argv[2:], stdout=f, stderr=sys.stderr).returncode
dt = time.monotonic() - t0
if rc != 0:
    sys.exit(rc)
print("%.3f %d" % (dt, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss))
PY
}

# measure_to for a mode a bench may refuse (--record, --replay), stderr to
# $1.err: prints "<seconds> <rss_kb>", or "null null" when the bench
# refuses the flag. Any other failure fails the run.
mode_to() {
  local out="$1"
  if measure_to "$@" 2>"$out.err"; then
    return
  fi
  if grep -qE "is refused|need the study harness" "$out.err"; then
    echo "null null"
    return
  fi
  cat "$out.err" >&2
  return 1
}

entries=""
for bench in "${benches[@]}"; do
  bin="$bench_dir/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "bench.sh: missing $bin" >&2
    exit 2
  fi
  echo "== $bench =="

  read -r seq_s seq_rss_kb <<<"$(measure_to "$work/$bench.jobs1.txt" \
    "$bin" --jobs 1 2>>"$work/stderr.log")"
  echo "   --jobs 1        ${seq_s}s  (peak RSS $((seq_rss_kb / 1024)) MB)"
  par_s=$(time_to "$work/$bench.jobsN.txt" "$bin" --jobs "$jobs")
  echo "   --jobs $jobs        ${par_s}s"
  res=$(mode_to "$work/$bench.record.txt" "$bin" --jobs 1 \
    --record "$work/$bench.study") || exit 1
  read -r rec_s rec_rss_kb <<<"$res"
  rep_s=null
  if [[ "$rec_s" == null ]]; then
    echo "   --record        refused"
  else
    echo "   --record        ${rec_s}s  (peak RSS $((rec_rss_kb / 1024)) MB)"
    res=$(mode_to "$work/$bench.replay.txt" "$bin" --replay "$work/$bench.study") ||
      exit 1
    read -r rep_s _ <<<"$res"
  fi
  if [[ "$rep_s" == null ]]; then
    echo "   --replay        refused"
  else
    echo "   --replay        ${rep_s}s"
  fi

  modes=(jobsN)
  if [[ "$rec_s" != null ]]; then modes+=(record); fi
  if [[ "$rep_s" != null ]]; then modes+=(replay); fi
  for mode in "${modes[@]}"; do
    if ! cmp -s "$work/$bench.jobs1.txt" "$work/$bench.$mode.txt"; then
      echo "bench.sh: FAIL — $bench $mode output differs from --jobs 1" >&2
      exit 1
    fi
  done
  echo "   stdout byte-identical across ${modes[*]}"

  # Sub-millisecond denominators would print inf/nan and break the JSON;
  # report a 0.00 sentinel speedup instead.
  jobs_speedup=$(awk -v a="$seq_s" -v b="$par_s" \
    'BEGIN { if (b > 0) printf "%.2f", a / b; else printf "0.00" }')
  replay_speedup=null
  if [[ "$rep_s" != null ]]; then
    replay_speedup=$(awk -v a="$seq_s" -v b="$rep_s" \
      'BEGIN { if (b > 0) printf "%.2f", a / b; else printf "0.00" }')
  fi
  artifact_bytes=null
  if [[ "$rec_s" != null ]]; then
    artifact_bytes=$(wc -c <"$work/$bench.study")
  fi

  [[ -n "$entries" ]] && entries+=","
  entries+="
    { \"bench\": \"$bench\",
      \"seq_s\": $seq_s, \"par_s\": $par_s, \"jobs\": $jobs,
      \"jobs_speedup\": $jobs_speedup,
      \"record_s\": $rec_s, \"replay_s\": $rep_s,
      \"replay_speedup\": $replay_speedup,
      \"artifact_bytes\": $artifact_bytes,
      \"peak_rss_kb\": $seq_rss_kb, \"record_peak_rss_kb\": $rec_rss_kb,
      \"identical_stdout\": true }"
done

# Lint timing: the v2 analyzer over the build's src+tools, cold cache then
# warm cache (warm hits skip lexing and per-file rules; only the graph
# passes re-run). Rides in the same run object so analyzer throughput is
# tracked alongside engine throughput.
lint_bin="$build_dir/tools/gorilla_lint/gorilla_lint"
lint_json="null"
if [[ -x "$lint_bin" ]]; then
  echo "== gorilla_lint =="
  rm -f "$work/lint.cache"
  lint_cold_s=$(time_to "$work/lint.cold.txt" \
    "$lint_bin" --jobs "$jobs" --cache "$work/lint.cache" "$root/src" \
    "$root/tools")
  echo "   cold cache      ${lint_cold_s}s"
  lint_warm_s=$(time_to "$work/lint.warm.txt" \
    "$lint_bin" --jobs "$jobs" --cache "$work/lint.cache" "$root/src" \
    "$root/tools")
  echo "   warm cache      ${lint_warm_s}s"
  lint_files=$(grep -o 'in [0-9]* files' "$work/stderr.log" |
    tail -1 | grep -o '[0-9]*' || echo 0)
  lint_json="{ \"files\": ${lint_files:-0}, \"jobs\": $jobs,
      \"cold_s\": $lint_cold_s, \"warm_s\": $lint_warm_s }"
fi

# Multi-backend replay timing: the fig03 artifact recorded above replayed
# through gorilla_replay, detector-only and then full fan-out
# (detector+pcap+csv) — the per-sink analyze-many cost the replay layer
# adds on top of the raw replay column.
replay_bin="$build_dir/tools/gorilla_replay/gorilla_replay"
replay_json="null"
if [[ -x "$replay_bin" && -f "$work/fig03_amplifier_counts.study" ]]; then
  echo "== gorilla_replay =="
  artifact="$work/fig03_amplifier_counts.study"
  det_s=$(time_to "$work/greplay.det.txt" \
    "$replay_bin" --artifact "$artifact" --sinks detector \
    --out "$work/greplay_det")
  echo "   detector        ${det_s}s"
  fan_s=$(time_to "$work/greplay.fan.txt" \
    "$replay_bin" --artifact "$artifact" --sinks detector,pcap,csv \
    --out "$work/greplay_fan")
  echo "   detector,pcap,csv  ${fan_s}s"
  if ! cmp -s "$work/greplay_det/detector.txt" \
              "$work/greplay_fan/detector.txt"; then
    echo "bench.sh: FAIL — gorilla_replay detector output differs across" \
         "sink fan-outs" >&2
    exit 1
  fi
  pcap_bytes=$(wc -c <"$work/greplay_fan/attacks.pcap")
  replay_json="{ \"artifact\": \"fig03_amplifier_counts\",
      \"detector_s\": $det_s, \"fanout_s\": $fan_s,
      \"pcap_bytes\": $pcap_bytes }"
fi

# GORCOLv3 artifact: the fig03 recording from the bench loop above, its
# size and its replay wall time, so the artifact shows up in the perf
# trajectory next to the replay column it serves.
gorcolv3_json="null"
fig03_artifact="$work/fig03_amplifier_counts.study"
if [[ -f "$fig03_artifact" ]]; then
  echo "== gorcolv3 =="
  v3_bytes=$(wc -c <"$fig03_artifact")
  v3_replay_s=$(time_to "$work/fig03.v3rep.txt" \
    "$bench_dir/fig03_amplifier_counts" --replay "$fig03_artifact")
  if ! cmp -s "$work/fig03_amplifier_counts.jobs1.txt" \
              "$work/fig03.v3rep.txt"; then
    echo "bench.sh: FAIL — fig03 v3 replay output differs from the" \
         "--jobs 1 run" >&2
    exit 1
  fi
  echo "   v3 $v3_bytes B; replay ${v3_replay_s}s"
  gorcolv3_json="{ \"artifact\": \"fig03_amplifier_counts\",
      \"artifact_bytes\": $v3_bytes, \"replay_s\": $v3_replay_s }"
fi

# One labeled run per invocation (BENCH_LABEL=... names it); previous runs
# are preserved so the file carries the perf trajectory across changes —
# e.g. the CRC/atomic-write run is directly comparable to the original
# engine run, same benches, same modes.
label="${BENCH_LABEL:-unlabeled}"
cat >"$work/run.json" <<EOF
{ "label": "$label",
  "host_cores": $cores,
  "jobs": $jobs,
  "lint": $lint_json,
  "gorilla_replay": $replay_json,
  "gorcolv3": $gorcolv3_json,
  "entries": [$entries
  ] }
EOF

python3 - "$work/run.json" <<'PYEOF'
import json, sys

with open(sys.argv[1]) as f:
    run = json.load(f)

note = ("seq_s = full simulate+analyze at --jobs 1; par_s = same at "
        "--jobs N, with attack+scan days running as parallel day shards "
        "(fig07/fig13 are attack-dominated, so their jobs column is the "
        "attack-phase speedup; thread speedup requires >1 core — on a "
        "1-core host par_s ~= seq_s and the honest speedup is the replay "
        "column); replay_s = analyze-only from a recorded event stream, "
        "the simulate-once/analyze-many path every per-figure bench can "
        "use. One run object per scripts/bench.sh invocation, oldest "
        "first.")
doc = {"name": "sharded-study-engine", "generated_by": "scripts/bench.sh",
       "note": note, "runs": []}
try:
    with open("BENCH_engine.json") as f:
        old = json.load(f)
    if "runs" in old:
        doc["runs"] = old["runs"]
    elif "entries" in old:
        # Legacy single-run layout: keep it as the first labeled run.
        doc["runs"] = [{"label": "sharded-engine-gorcolv1",
                        "host_cores": old.get("host_cores"),
                        "jobs": old.get("jobs"),
                        "entries": old["entries"]}]
except (FileNotFoundError, json.JSONDecodeError):
    pass

doc["runs"].append(run)
with open("BENCH_engine.json", "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
PYEOF
echo "wrote BENCH_engine.json (run '$label' appended)"
