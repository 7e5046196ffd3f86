#!/usr/bin/env bash
# ci/perf_gate.sh — the timing gates, against ci/perf_baseline.json.
#
# Three sections, each with its own verdict. Every section runs even when an
# earlier one fails; a summary table follows and the script exits non-zero
# at the end if any section failed.
#   perf        `mobiwlan-bench --suite perf --check`, which makes every
#               perf verdict: the per-op cases (including the 512-link
#               batched pass, scale_batch_sample) fail past the baseline's
#               tolerance band (default 25%) or when a hot loop starts
#               allocating, and the host-relative fp32-vs-fp64 synthesis
#               and beamscan AoA tier ratios fail below their floors;
#   campus      session-steps/s of the campus shard matrix;
#   loc         the single-thread fingerprint lookup rate.
# The absolute gate values are wall-clock numbers from one reference host;
# the tolerance absorbs normal host-to-host and run-to-run variance, so a
# failure means a real regression, not noise. Refresh after an intentional
# perf change with:
#   ./build/bench/mobiwlan-bench --suite perf
# and copy the new values into ci/perf_baseline.json as gate_*.
#
# PERF_MIN_TIME sets seconds per case/measurement (default 0.2 for a quick
# CI smoke run; use >= 1.0 when refreshing the baseline).
set -uo pipefail
cd "$(dirname "$0")/.."

BENCH="${BENCH:-./build/bench/mobiwlan-bench}"
MIN_TIME="${PERF_MIN_TIME:-0.2}"
OUT="${PERF_OUT:-/tmp/mobiwlan_perf.json}"
CAMPUS_PERF_OUT="${CAMPUS_PERF_OUT:-/tmp/mobiwlan_campus_perf.json}"
LOC_PERF_OUT="${LOC_PERF_OUT:-/tmp/mobiwlan_loc_perf.json}"
BASELINE=ci/perf_baseline.json

if [[ ! -x "${BENCH}" ]]; then
  echo "FAIL: ${BENCH} not built (run cmake --build build first)" >&2
  exit 1
fi
# A stale report from an earlier run must not stand in for a failed one.
rm -f "${OUT}" "${CAMPUS_PERF_OUT}" "${LOC_PERF_OUT}"

SECTIONS=()
VERDICTS=()
verdict() {  # verdict SECTION PASS|FAIL|SKIP
  SECTIONS+=("$1")
  VERDICTS+=("$2")
}

flat_key() { grep -o "\"$2\": *-\?[0-9.eE+-]*" "$1" 2>/dev/null | head -1 | awk '{print $NF}'; }

# ---- perf cases -------------------------------------------------------------
if "${BENCH}" --suite perf --check --perf-min-time "${MIN_TIME}" \
     --out "${OUT}" --baseline "${BASELINE}"; then
  verdict perf PASS
else
  verdict perf FAIL
fi

# ---- campus throughput section --------------------------------------------
# One full campus shard matrix (four runs of the identical 100k-session
# workload). The throughput gate divides the fixed per-run step count
# (campus_steps_per_run) by timing.median_wall_s — the median of the four
# run walls — so a single descheduled run cannot flip the verdict. The
# floor gate_campus_session_steps_per_s is the 3x mark over the
# pre-streaming engine (168,480 steps/s); 15% grace separates host noise
# (observed ~505-580k) from the nearest real regression plateau (~312k
# with the fused pass alone, ~265k without the slab pool). The hot loop's
# allocs-per-op contract is gated separately by the perf campus_step case
# above and exactly (campus.hot_allocs) by `ci/gate.sh campus`.
"${BENCH}" --suite campus --out "${CAMPUS_PERF_OUT}" >/dev/null
MEDIAN_WALL="$(flat_key "${CAMPUS_PERF_OUT}" timing.median_wall_s)"
STEPS_PER_RUN="$(flat_key "${BASELINE}" campus_steps_per_run)"
STEPS_FLOOR="$(flat_key "${BASELINE}" gate_campus_session_steps_per_s)"
if [[ -z "${MEDIAN_WALL}" || -z "${STEPS_PER_RUN}" || -z "${STEPS_FLOOR}" ]]; then
  echo "FAIL: campus throughput keys missing (campus json ${CAMPUS_PERF_OUT})" >&2
  verdict campus FAIL
else
  THR="$(awk -v w="${MEDIAN_WALL}" -v n="${STEPS_PER_RUN}" 'BEGIN { if (w > 0) printf "%.0f", n / w; else print 0 }')"
  if awk -v w="${MEDIAN_WALL}" -v n="${STEPS_PER_RUN}" -v f="${STEPS_FLOOR}" \
       'BEGIN { exit !(w > 0 && n / w >= 0.85 * f) }'; then
    echo "campus-check: ${THR} session-steps/s (median wall ${MEDIAN_WALL}s) >= 0.85 * ${STEPS_FLOOR} floor"
    verdict campus PASS
  else
    echo "FAIL: campus throughput ${THR} session-steps/s below 0.85 *" \
         "${STEPS_FLOOR} (ci/perf_baseline.json gate_campus_session_steps_per_s)" >&2
    verdict campus FAIL
  fi
fi

# ---- loc lookup-rate section ------------------------------------------------
# The loc suite's single-thread lookup section (timing_loc_lookups_per_s,
# median of repeated blocks against the 10^4-cell DB) must clear 85% of the
# committed gate_loc_lookups_per_s floor in ci/loc_baseline.json, and never
# the 1e5/s requirement itself.
"${BENCH}" --suite loc --out "${LOC_PERF_OUT}" >/dev/null
rate="$(flat_key "${LOC_PERF_OUT}" timing_loc_lookups_per_s)"
floor="$(flat_key ci/loc_baseline.json gate_loc_lookups_per_s)"
if awk -v r="${rate}" -v f="${floor}" \
     'BEGIN { exit !(r != "" && r >= 100000 && r >= 0.85 * f) }'; then
  echo "loc-check: ${rate} lookups/s (floor ${floor}, 0.85 grace, 1e5 hard)"
  verdict loc PASS
else
  echo "FAIL: lookup rate ${rate}/s below max(1e5, 0.85 * ${floor})/s" >&2
  verdict loc FAIL
fi

# ---- summary ----------------------------------------------------------------
echo "== perf gate summary =="
failed=0
for i in "${!SECTIONS[@]}"; do
  printf '  %-8s %s\n' "${SECTIONS[$i]}" "${VERDICTS[$i]}"
  [[ "${VERDICTS[$i]}" == FAIL ]] && failed=$((failed + 1))
done
if (( failed > 0 )); then
  echo "FAIL: ${failed} perf gate section(s) failed" >&2
  exit 1
fi
echo "ok: every perf gate section passed or was skipped"
