#!/usr/bin/env bash
# ci/perf_gate.sh — perf-regression gate for the channel hot loops.
#
# Two bench runs against the gate_* values in ci/perf_baseline.json:
#   1. mobiwlan-bench --perf: the per-op microbench cases, failing on any
#      case past the baseline's tolerance band (default 25%) or any hot
#      loop that starts allocating;
#   2. mobiwlan-bench --scale: the AP-scale throughput bench (64 APs x 512
#      clients), gating the batched sample time and the zero-allocation
#      steady state. The bench also enforces, on every run, that a sharded
#      batch pass equals a serial per-link sample_into loop bit for bit
#      (per-link sampling is a batch of one, so there is no speedup ratio
#      between the two to gate).
# Two host-relative floors follow: the fp32-vs-fp64 batched synthesis ratio
# and the beamscan AoA's active-tier-vs-scalar ratio.
# The gate values are wall-clock numbers from one reference host; the
# tolerance absorbs normal host-to-host and run-to-run variance, so a
# failure means a real regression, not noise. Refresh after an intentional
# perf change with:
#   ./build/bench/mobiwlan-bench --perf
#   ./build/bench/mobiwlan-bench --scale
# and copy the new values into ci/perf_baseline.json as gate_*.
#
# PERF_MIN_TIME sets seconds per case/measurement (default 0.2 for a quick
# CI smoke run; use >= 1.0 when refreshing the baseline).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH="${BENCH:-./build/bench/mobiwlan-bench}"
MIN_TIME="${PERF_MIN_TIME:-0.2}"
OUT="${PERF_OUT:-/tmp/mobiwlan_perf.json}"
SCALE_OUT="${SCALE_OUT:-/tmp/mobiwlan_scale.json}"

if [[ ! -x "${BENCH}" ]]; then
  echo "FAIL: ${BENCH} not built (run cmake --build build first)" >&2
  exit 1
fi

"${BENCH}" --perf --perf-check \
  --perf-min-time "${MIN_TIME}" \
  --perf-out "${OUT}" \
  --perf-baseline ci/perf_baseline.json

"${BENCH}" --scale --scale-check \
  --perf-min-time "${MIN_TIME}" \
  --scale-out "${SCALE_OUT}" \
  --perf-baseline ci/perf_baseline.json

# ---- fp32 precision-tier section ------------------------------------------
# The scale bench publishes the paired (interleaved, drift-immune) fp32-vs-
# fp64 wideband batched-synthesis ratio at the host's active SIMD tier. On
# AVX2-capable hosts that ratio must clear gate_f32_min_speedup; hosts
# without the wider ISA tiers skip the corresponding check LOUDLY rather
# than silently passing.
flat_key() { grep -o "\"$2\": *-\?[0-9.eE+-]*" "$1" | head -1 | awk '{print $NF}'; }

HOST_AVX2="$(flat_key "${SCALE_OUT}" timing_host_avx2)"
HOST_AVX512="$(flat_key "${SCALE_OUT}" timing_host_avx512)"

if [[ "${HOST_AVX2}" != "1" ]]; then
  echo "fp32-check: SKIPPED — host lacks AVX2+FMA; the avx2 and avx512" \
       "tiers cannot be exercised here and the >=1.6x speedup gate does" \
       "not apply to the scalar tier" >&2
else
  if [[ "${HOST_AVX512}" != "1" ]]; then
    echo "fp32-check: NOTE — host lacks AVX-512 (f/dq/vl); the avx512 tier" \
         "falls back to avx2 and the ratio below is gated at the avx2 tier" >&2
  fi
  SPEEDUP="$(flat_key "${SCALE_OUT}" timing_f32_synthesis_speedup)"
  MIN_SPEEDUP="$(flat_key ci/perf_baseline.json gate_f32_min_speedup)"
  if [[ -z "${SPEEDUP}" || -z "${MIN_SPEEDUP}" ]]; then
    echo "FAIL: fp32 speedup keys missing (scale json ${SCALE_OUT})" >&2
    exit 1
  fi
  if awk -v s="${SPEEDUP}" -v m="${MIN_SPEEDUP}" 'BEGIN { exit !(s >= m) }'; then
    echo "fp32-check: batched synthesis fp32 speedup ${SPEEDUP}x >= ${MIN_SPEEDUP}x (active tier)"
  else
    echo "FAIL: fp32 batched synthesis speedup ${SPEEDUP}x below the" \
         "${MIN_SPEEDUP}x floor (ci/perf_baseline.json gate_f32_min_speedup)" >&2
    exit 1
  fi
fi

# ---- beamscan AoA tier section ---------------------------------------------
# The --perf run above times the 181-point beamscan at the host's active
# tier (aoa_sweep) and pinned to the portable scalar tier (aoa_sweep_scalar)
# and publishes their ratio. Whenever the active tier is a vector one (an
# AVX2-capable host, not forced to scalar) that ratio must clear
# gate_aoa_min_speedup; otherwise both cases run the same scalar loop and the
# check is skipped LOUDLY rather than silently passing.
AOA_TIER="$(flat_key "${OUT}" timing_active_simd_tier)"
if [[ "${AOA_TIER}" != "1" && "${AOA_TIER}" != "2" ]]; then
  echo "aoa-check: SKIPPED — active SIMD tier is scalar (host lacks AVX2+FMA" \
       "or MOBIWLAN_SIMD_TIER forces it); the >=1.5x beamscan tier-speedup" \
       "gate does not apply to the scalar tier" >&2
else
  AOA_SPEEDUP="$(flat_key "${OUT}" timing_aoa_tier_speedup)"
  AOA_MIN="$(flat_key ci/perf_baseline.json gate_aoa_min_speedup)"
  if [[ -z "${AOA_SPEEDUP}" || -z "${AOA_MIN}" ]]; then
    echo "FAIL: beamscan tier-speedup keys missing (perf json ${OUT})" >&2
    exit 1
  fi
  if awk -v s="${AOA_SPEEDUP}" -v m="${AOA_MIN}" 'BEGIN { exit !(s >= m) }'; then
    echo "aoa-check: beamscan active-tier speedup ${AOA_SPEEDUP}x >= ${AOA_MIN}x over scalar"
  else
    echo "FAIL: beamscan active-tier speedup ${AOA_SPEEDUP}x below the" \
         "${AOA_MIN}x floor (ci/perf_baseline.json gate_aoa_min_speedup)" >&2
    exit 1
  fi
fi

# ---- campus throughput section --------------------------------------------
# One full --campus matrix (four runs of the identical 100k-session
# workload). The throughput gate divides the fixed per-run step count
# (campus_steps_per_run) by timing.median_wall_s — the median of the four
# run walls — so a single descheduled run cannot flip the verdict. The
# floor gate_campus_session_steps_per_s is the 3x mark over the
# pre-streaming engine (168,480 steps/s); 15% grace separates host noise
# (observed ~505-580k) from the nearest real regression plateau (~312k
# with the fused pass alone, ~265k without the slab pool). The hot loop's
# allocs-per-op contract is gated separately by the --perf campus_step
# case above and exactly (campus.hot_allocs) by ci/campus_gate.sh.
CAMPUS_PERF_OUT="${CAMPUS_PERF_OUT:-/tmp/mobiwlan_campus_perf.json}"
"${BENCH}" --campus --campus-out "${CAMPUS_PERF_OUT}" >/dev/null

MEDIAN_WALL="$(flat_key "${CAMPUS_PERF_OUT}" timing.median_wall_s)"
STEPS_PER_RUN="$(flat_key ci/perf_baseline.json campus_steps_per_run)"
STEPS_FLOOR="$(flat_key ci/perf_baseline.json gate_campus_session_steps_per_s)"
if [[ -z "${MEDIAN_WALL}" || -z "${STEPS_PER_RUN}" || -z "${STEPS_FLOOR}" ]]; then
  echo "FAIL: campus throughput keys missing (campus json ${CAMPUS_PERF_OUT})" >&2
  exit 1
fi
if awk -v w="${MEDIAN_WALL}" -v n="${STEPS_PER_RUN}" -v f="${STEPS_FLOOR}" \
     'BEGIN { exit !(w > 0 && n / w >= 0.85 * f) }'; then
  THR="$(awk -v w="${MEDIAN_WALL}" -v n="${STEPS_PER_RUN}" 'BEGIN { printf "%.0f", n / w }')"
  echo "campus-check: ${THR} session-steps/s (median wall ${MEDIAN_WALL}s) >= 0.85 * ${STEPS_FLOOR} floor"
else
  THR="$(awk -v w="${MEDIAN_WALL}" -v n="${STEPS_PER_RUN}" 'BEGIN { printf "%.0f", n / w }')"
  echo "FAIL: campus throughput ${THR} session-steps/s below 0.85 *" \
       "${STEPS_FLOOR} (ci/perf_baseline.json gate_campus_session_steps_per_s)" >&2
  exit 1
fi
