#!/usr/bin/env bash
# ci/check.sh — the full pre-merge gate:
#   1. plain build with -Werror (passed through CMAKE_CXX_FLAGS, so only
#      this build tree is strict) + entire ctest suite;
#   2. runtime determinism check: mobiwlan-bench at --jobs 1 vs --jobs 8
#      must produce byte-identical JSON outside the "timing" lines;
#   3. perf-regression smoke gate: ci/perf_gate.sh with a short per-case
#      budget and the baseline's 25% tolerance band (microbench cases plus
#      the AP-scale throughput bench and its speedup/alloc gates);
#   4. statistical paper-fidelity gate: ci/fidelity_gate.sh checks the core
#      experiment statistics against ci/fidelity_baseline.json and diffs the
#      --jobs 1 vs --jobs 8 reports;
#   5. fault-injection gate: ci/fault_gate.sh checks graceful degradation
#      under PHY-observable export loss against ci/fault_baseline.json,
#      diffs the --jobs 1 vs --jobs 8 reports, and proves the negative
#      baseline still fails;
#   5b. trace replay gate: ci/trace_gate.sh records every protocol loop,
#      replays it from the trace alone, and requires bit-identical results
#      (plus fault-composition and pitfall probes) at --jobs 1 and 8;
#   5c. benchmark smoke: `python3 perfbench/run.py --smoke` re-drives a small
#      campus and checks its digest against CampusSim, then replays a
#      6-client trace strictly (outage absences, gate decay);
#   5d. campus shard-invariance gate: ci/campus_gate.sh runs the 1024-AP /
#      100k-session churn scenario under 1/4/16-shard partitionings and
#      requires bitwise-identical per-session aggregates across the matrix
#      and across --jobs 1 vs 8, plus a failing negative baseline;
#   5e. localization gate: ci/loc_gate.sh surveys the fingerprint database,
#      checks the kNN/fused accuracy and mobility-gated-refresh ablation
#      against ci/loc_baseline.json (exact min == max pairs), diffs the
#      --jobs 1 vs --jobs 8 reports, proves the negative baseline fails,
#      and holds the single-thread lookup-rate floor;
#   6. scale determinism: the AP-scale bench JSON at --jobs 1 vs --jobs 8
#      must be byte-identical outside the timing_* lines;
#   7. ThreadSanitizer build (-DMOBIWLAN_SANITIZE=thread) running the
#      runtime thread-pool, experiment, and parallel_for tests plus the
#      campus mailbox stress test (concurrent SPSC producers against a
#      live consumer);
#   8. AddressSanitizer + UndefinedBehaviorSanitizer build
#      (-DMOBIWLAN_SANITIZE=address,undefined) running the trace tests, which
#      cover TraceSource's pooled CSI payloads and per-stream ring buffers,
#      the beamscan AoA test, whose tier sweep drives every SIMD kernel
#      through partial blocks and the padded steering table, the locator
#      tests, and the channel-engine tests (golden fixtures, batch
#      equivalence, zero-alloc, fp32 tier, SIMD dispatch), which drive every
#      per-link and batched caller through the lane-padded staging planes.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

echo "== build (RelWithDebInfo, -Werror) =="
cmake -B build -S . -DCMAKE_CXX_FLAGS="-Werror" >/dev/null
cmake --build build -j"${JOBS}"

echo "== ctest =="
ctest --test-dir build --output-on-failure -j"${JOBS}"

echo "== determinism: --jobs 1 vs --jobs 8 =="
./build/bench/mobiwlan-bench --filter table1 --jobs 8 --json /tmp/mobiwlan_a.json >/dev/null
./build/bench/mobiwlan-bench --filter table1 --jobs 1 --json /tmp/mobiwlan_b.json >/dev/null
if ! diff <(grep -v '"timing":' /tmp/mobiwlan_a.json) \
          <(grep -v '"timing":' /tmp/mobiwlan_b.json); then
  echo "FAIL: bench results differ between --jobs 8 and --jobs 1" >&2
  exit 1
fi
echo "ok: results byte-identical modulo timing"

echo "== perf gate: channel hot loops =="
PERF_MIN_TIME="${PERF_MIN_TIME:-0.2}" ./ci/perf_gate.sh

echo "== fidelity gate: paper-shape statistics =="
./ci/fidelity_gate.sh

echo "== fault gate: graceful degradation under export loss =="
./ci/fault_gate.sh

echo "== trace gate: record/replay determinism =="
./ci/trace_gate.sh

echo "== benchmark smoke: campus re-drive digest + strict trace replay =="
python3 perfbench/run.py --smoke

echo "== campus gate: shard-invariance across 1/4/16 partitionings =="
./ci/campus_gate.sh

echo "== loc gate: fingerprint localization + mobility-gated refresh =="
./ci/loc_gate.sh

echo "== scale determinism: --jobs 1 vs --jobs 8 =="
./build/bench/mobiwlan-bench --scale --jobs 8 --perf-min-time 0.05 \
  --scale-out /tmp/mobiwlan_scale_a.json >/dev/null
./build/bench/mobiwlan-bench --scale --jobs 1 --perf-min-time 0.05 \
  --scale-out /tmp/mobiwlan_scale_b.json >/dev/null
if ! diff <(grep -v '"timing' /tmp/mobiwlan_scale_a.json) \
          <(grep -v '"timing' /tmp/mobiwlan_scale_b.json); then
  echo "FAIL: scale results differ between --jobs 8 and --jobs 1" >&2
  exit 1
fi
echo "ok: scale results byte-identical modulo timing"

echo "== ThreadSanitizer: runtime tests =="
cmake -B build-tsan -S . -DMOBIWLAN_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-tsan -j"${JOBS}" \
  --target thread_pool_test experiment_test parallel_for_test \
           mailbox_stress_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/thread_pool_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/experiment_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/parallel_for_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/mailbox_stress_test

echo "== AddressSanitizer + UBSan: trace, beamscan, locator and channel tests =="
cmake -B build-asan -S . -DMOBIWLAN_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS" \
  >/dev/null
ASAN_TESTS=(trace_io_test trace_source_test trace_replay_test trace_prop_test
           aoa_test loc_test loc_prop_test locator_tier_test
           channel_equivalence_test channel_batch_equivalence_test
           channel_zero_alloc_test channel_batch_f32_test simd_dispatch_test)
cmake --build build-asan -j"${JOBS}" --target "${ASAN_TESTS[@]}"
for t in "${ASAN_TESTS[@]}"; do
  ASAN_OPTIONS="detect_leaks=1" UBSAN_OPTIONS="print_stacktrace=1" \
    ./build-asan/tests/"${t}"
done

echo "== all checks passed =="
