#!/bin/sh
# The perf-smoke gate: build bh_perf in Release, run the fixed-seed
# baseline scenarios in --quick mode, and validate the emitted JSON
# against the bighouse-bench-v1 schema. Usage:
#
#   scripts/check_perf.sh [--full] [bh_perf args...]
#
# --full runs the full-length scenarios (minutes, the numbers that go
# into the committed BENCH_*.json); the default --quick run is a CI
# smoke (~1s of measured work) that proves the driver and the hot path
# still function, not a statistically careful measurement. Extra
# arguments are forwarded to bh_perf (e.g. --scenario micro_engine).
# Exit status is nonzero when the driver fails or the JSON is invalid.
set -eu

SOURCE_DIR="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$(mktemp -d "${TMPDIR:-/tmp}/bighouse-perf.XXXXXX")"
trap 'rm -rf "${BUILD_DIR}"' EXIT INT TERM

MODE="--quick"
if [ "${1:-}" = "--full" ]; then
    MODE=""
    shift
fi

echo "== Release build of bh_perf"
cmake -B "${BUILD_DIR}" -S "${SOURCE_DIR}" \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target bh_perf >/dev/null

OUT="${BUILD_DIR}/BENCH.json"
echo "== bh_perf ${MODE:-(full)}"
# shellcheck disable=SC2086  # MODE is intentionally word-split
"${BUILD_DIR}/bench/bh_perf" ${MODE} --out "${OUT}" "$@"

# The committed full-mode baseline, used for the DES-checksum drift gate
# (only comparable when this run is also full-mode: --quick shrinks the
# workloads, so quick checksums legitimately differ).
BASELINE="${SOURCE_DIR}/BENCH_6.json"

echo "== validating ${OUT}"
if command -v python3 >/dev/null 2>&1; then
    python3 - "${OUT}" "${MODE:-full}" "${BASELINE}" <<'EOF'
import json
import os
import sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)
full_mode = sys.argv[2] == "full"
baseline_path = sys.argv[3]
assert doc["schema"] == "bighouse-bench-v1", doc.get("schema")
scenarios = doc["scenarios"]
assert scenarios, "no scenarios in report"
for entry in scenarios:
    unit = next(u for u in ("events", "observations", "tasks")
                if u in entry)
    assert entry[unit] > 0, entry["name"]
    assert entry["wall_seconds"] > 0, entry["name"]
    assert entry[unit + "_per_sec"] > 0, entry["name"]

by_name = {entry["name"]: entry for entry in scenarios}

# Timeline overhead gate: micro_timeline replays micro_engine's exact
# fixed-seed workload with the observability probes live. The probes
# must not perturb the event stream (checksums bit-identical), and the
# scenario's own interleaved bare/instrumented pairing bounds the
# ns/event overhead: ~9% measured on this probe-saturated worst case
# (every event flips a gauge), gated at 15% in full mode so real
# regressions fail while VM frequency/steal jitter does not. Quick mode
# measures ~50 ms of work, where jitter swamps any tight margin, so it
# only sanity-checks against gross (2x) regressions.
if "micro_engine" in by_name and "micro_timeline" in by_name:
    bare = by_name["micro_engine"]
    instrumented = by_name["micro_timeline"]
    assert bare["checksum"] == instrumented["checksum"], (
        "timeline probes perturbed the event stream: bare=%r "
        "instrumented=%r"
        % (bare["checksum"], instrumented["checksum"]))
    assert bare["events"] == instrumented["events"]
    paired_bare = instrumented["bare_ns_per_event"]
    overhead = instrumented["ns_per_event"] / paired_bare
    bound = 1.15 if full_mode else 2.0
    assert overhead <= bound, (
        "timeline overhead %.1f%% exceeds the %.0f%% gate (paired bare "
        "%.1f ns/event, instrumented %.1f ns/event)"
        % ((overhead - 1.0) * 100.0, (bound - 1.0) * 100.0,
           paired_bare, instrumented["ns_per_event"]))
    print("   micro_timeline: checksum matches micro_engine, "
          "overhead %+.1f%%" % ((overhead - 1.0) * 100.0))

# Recurrence speedup gate: the vectorized backend must beat event
# dispatch by >= 10x ns/task on the eligible FCFS scaling twin. The twin
# checksums are NOT compared — the backends stop at different simulated
# instants; distributional equivalence is tests/test_recurrence.cc's job.
if "fig7_scaling_fcfs" in by_name and "fig7_scaling_recurrence" in by_name:
    des = by_name["fig7_scaling_fcfs"]
    rec = by_name["fig7_scaling_recurrence"]
    assert des["ns_per_task"] > 0 and rec["ns_per_task"] > 0
    speedup = des["ns_per_task"] / rec["ns_per_task"]
    assert speedup >= 10.0, (
        "recurrence twin speedup %.1fx < 10x (des %.1f ns/task, "
        "recurrence %.1f ns/task)"
        % (speedup, des["ns_per_task"], rec["ns_per_task"]))
    print("   fig7 twin: recurrence %.1fx faster per task" % speedup)

# Checksum drift gate (full mode only): every scenario shared with the
# committed baseline runs fixed-seed work, DES and recurrence alike, and
# must reproduce its checksum exactly — a perf PR must not silently
# change simulation semantics.
if full_mode and os.path.exists(baseline_path):
    with open(baseline_path) as fh:
        base = json.load(fh)
    if base.get("quick"):
        print("   baseline is quick-mode; skipping checksum drift gate")
    else:
        base_by_name = {e["name"]: e for e in base["scenarios"]}
        shared = [name for name in by_name if name in base_by_name]
        for name in shared:
            assert by_name[name]["checksum"] == \
                base_by_name[name]["checksum"], (
                "checksum drift in %s: baseline=%r current=%r"
                % (name, base_by_name[name]["checksum"],
                   by_name[name]["checksum"]))
        print("   %d checksums match the committed baseline (%s)"
              % (len(shared), ", ".join(shared)))
print("   %d scenarios OK" % len(scenarios))
EOF
else
    # Containers without python3: at least require the schema marker
    # and a non-empty scenario list.
    grep -q '"bighouse-bench-v1"' "${OUT}"
    grep -q '"name"' "${OUT}"
    echo "   schema marker present (python3 unavailable for full check)"
fi
echo "perf smoke passed"
