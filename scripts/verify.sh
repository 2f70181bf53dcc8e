#!/usr/bin/env bash
# Full verification sweep: tier-1 build + tests, then the sanitizer
# smoke suites in separate build trees. This is what CI (and a human
# before merging) should run; tier-1 alone is the merge gate, the
# sanitizer passes catch the data-race / memory-hazard classes that
# plain test runs cannot.
#
#   scripts/verify.sh            # tier-1 + int8 smoke + tsan/asan smoke
#   scripts/verify.sh --tier1    # tier-1 only
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
TIER1_ONLY=0
[[ "${1:-}" == "--tier1" ]] && TIER1_ONLY=1

echo "== env allowlist: no new environment readers in src/ =="
# Library behaviour is steered by these variables only. A getenv in src/
# naming anything else fails here, so new process-wide switches cannot
# grow back unnoticed.
ALLOWED_ENV='THALI_INT8|THALI_INT8_CALIB|THALI_INT8_PERCENTILE|THALI_NUM_THREADS|THALI_NET_POLL'
STRAY_ENV="$(git grep -n getenv -- src/ |
  grep -Ev "getenv\(\"(${ALLOWED_ENV})\"\)" || true)"
if [[ -n "${STRAY_ENV}" ]]; then
  echo "verify: getenv outside the allowlist:"
  echo "${STRAY_ENV}"
  exit 1
fi

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "== int8 smoke: quantization conformance suite =="
ctest --test-dir build --output-on-failure -j "${JOBS}" -L int8_smoke

echo "== net smoke: THL1 protocol + loopback end-to-end suite =="
# Framing round-trips, split-point reassembly, hostile-frame rejection,
# and the socket-path ≡ in-process bitwise pin (tests/net).
ctest --test-dir build --output-on-failure -j "${JOBS}" -L net_smoke

echo "== serve smoke: queue, micro-batcher and in-process server suite =="
# Lane-queue backpressure and drain, the work-conserving linger (ends
# once a peer worker is idle; a lone worker still folds stragglers),
# deadline expiry, exactly-once completion under stress, and served ≡
# direct DetectBatch bitwise (tests/serve).
ctest --test-dir build --output-on-failure -j "${JOBS}" -L serve_smoke

echo "== prepost smoke: pre/post fast-path parity suite =="
# Letterbox bitwise pin (scalar family), fused letterbox-quantize byte
# contract, raw-decode and fast-NMS exact-equivalence pins, and the
# Detect pins against a reference pipeline built from the seed
# letterbox/decode/NMS oracles (tests/prepost).
ctest --test-dir build --output-on-failure -j "${JOBS}" -L prepost_smoke

echo "== int8 chained-edge gate: calibrated yolov4-thali must chain =="
# End-to-end THALI_INT8=1 forward on the fused plan; the test fails if
# the compiled plan reports zero chained edges, fewer than 49 quantized
# layers, or a cold (fp32) network input on yolov4-thali after
# calibration + replan.
THALI_INT8=1 ./build/tests/int8/int8_test \
  --gtest_filter='Int8Test.ReplanAfterCalibrationChainsMajorityOfThali'

if [[ "${TIER1_ONLY}" == "1" ]]; then
  echo "verify: tier-1 PASS (sanitizer suites skipped)"
  exit 0
fi

echo "== tsan smoke: threading-heavy tests under ThreadSanitizer =="
cmake -B build-tsan -S . -DTHALI_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "${JOBS}"
ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" -L tsan_smoke

echo "== asan smoke: fused-plan / kernel-edge tests under ASan+UBSan =="
cmake -B build-asan -S . -DTHALI_SANITIZE=address >/dev/null
cmake --build build-asan -j "${JOBS}"
ctest --test-dir build-asan --output-on-failure -j "${JOBS}" -L asan_smoke

echo "verify: ALL PASS (tier-1 + tsan_smoke + asan_smoke)"
