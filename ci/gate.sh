#!/usr/bin/env bash
# ci/gate.sh NAME — the gate of one gated suite: fidelity, fault, trace,
# campus or loc (what each covers: bench/suite/NAME.cpp, EXPERIMENTS.md).
#
#   1. `mobiwlan-bench --suite NAME --check --jobs 8` checks the run against
#      the committed bounds in ci/NAME_baseline.json;
#   2. the suite re-runs at --jobs 1;
#   3. the two reports must be byte-identical outside lines starting
#      `  "timing` — the determinism contract every suite keeps;
#   4. `--check-only` of the report against ci/NAME_baseline_negative.json
#      (a bound moved past the measured value) must fail with the gate's
#      own verdict (exit 1, not a usage error) — proof that the gate can
#      catch a regression at all.
# Everything here is deterministic; the timing floors (campus throughput,
# loc lookup rate) live in ci/perf_gate.sh.
#
# Refresh a baseline after an intentional behaviour change with
#   ./build/bench/mobiwlan-bench --suite NAME
# and re-derive the bounds from BENCH_NAME.json per EXPERIMENTS.md; the
# negative baseline must keep failing.
set -euo pipefail
cd "$(dirname "$0")/.."

NAME="${1:-}"
BENCH="${BENCH:-./build/bench/mobiwlan-bench}"
BASELINE="ci/${NAME}_baseline.json"
NEGATIVE="ci/${NAME}_baseline_negative.json"
OUT="${GATE_OUT_DIR:-/tmp}/mobiwlan_${NAME}.json"
OUT_J1="${OUT%.json}_j1.json"

if [[ -z "${NAME}" || ! -f "${BASELINE}" || ! -f "${NEGATIVE}" ]]; then
  echo "usage: ci/gate.sh fidelity|fault|trace|campus|loc" >&2
  exit 2
fi
if [[ ! -x "${BENCH}" ]]; then
  echo "FAIL: ${BENCH} not built (run cmake --build build first)" >&2
  exit 1
fi

"${BENCH}" --suite "${NAME}" --check --jobs 8 --out "${OUT}" \
  --baseline "${BASELINE}"

echo "-- ${NAME} determinism: --jobs 1 vs --jobs 8 --"
"${BENCH}" --suite "${NAME}" --check --jobs 1 --out "${OUT_J1}" \
  --baseline "${BASELINE}" >/dev/null
if ! diff <(grep -v '^  "timing' "${OUT}") \
          <(grep -v '^  "timing' "${OUT_J1}"); then
  echo "FAIL: ${NAME} report differs between --jobs 8 and --jobs 1" >&2
  exit 1
fi
echo "ok: ${NAME} report byte-identical modulo timing"

echo "-- ${NAME} gate negative control --"
rc=0
"${BENCH}" --suite "${NAME}" --check-only "${OUT}" --baseline "${NEGATIVE}" \
  >/dev/null 2>&1 || rc=$?
if [[ "${rc}" != 1 ]]; then
  echo "FAIL: negative baseline ${NEGATIVE} exited ${rc}, not the gate's" \
       "failure (1) — the gate cannot catch regressions" >&2
  exit 1
fi
echo "ok: negative baseline fails as intended"
