#!/usr/bin/env bash
# Single entry point for the tier-1 verification: configure, build, run the
# full test suite.
#
#   scripts/check.sh                 # plain build + ctest
#   scripts/check.sh address         # same, under AddressSanitizer
#   scripts/check.sh thread|undefined
#   scripts/check.sh tsan            # ThreadSanitizer build of the runtime
#                                    # and compute-offload tests only (the
#                                    # targeted race check for the
#                                    # advance_compute thread pool)
#   scripts/check.sh faults          # fault-injection smoke: the ctest
#                                    # labels `faults` and `reliable`
#                                    # (tests/test_faults,
#                                    # tests/test_reliable) plus a dtrain
#                                    # checkpoint-recovery run, under
#                                    # AddressSanitizer, then
#                                    # ThreadSanitizer
#   scripts/check.sh dssp            # DSSP smoke: the ctest label `dssp`
#                                    # (tests/test_dssp) plus the
#                                    # staleness-sensitivity campaign
#                                    # (straggler + lossy links), plain
#                                    # Release build
#   scripts/check.sh membership      # membership smoke: the ctest label
#                                    # `membership` (tests/test_membership
#                                    # — failure detector + ring repair)
#                                    # plus the ring-repair campaign
#                                    # (AR-SGD/D-PSGD x stall/drop x
#                                    # clean/lossy links around a
#                                    # crash-with-rejoin), under
#                                    # AddressSanitizer
#   scripts/check.sh fsdp            # FSDP/ZeRO smoke: the ctest label
#                                    # `fsdp` (tests/test_fsdp — stage
#                                    # equivalence, memory-peak ordering,
#                                    # traffic pins, crash + rejoin,
#                                    # 1-vs-8-thread byte identity) plus
#                                    # test_memory and the committed
#                                    # memory/throughput frontier campaign,
#                                    # under AddressSanitizer
#   scripts/check.sh observers       # observer-export smoke: the ctest
#                                    # label `observers` (test_metrics,
#                                    # test_registry, test_observability)
#                                    # plus test_golden (byte pins of the
#                                    # trace, CSV, JSONL and profiler
#                                    # outputs), under AddressSanitizer +
#                                    # UndefinedBehaviorSanitizer
#
# Sanitized builds go to build-<sanitizer>/ so they never pollute the plain
# build tree.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZER="${1:-}"

if [[ "$SANITIZER" == "faults" ]]; then
  # Fault-injection smoke: build only the labeled fault suite under both
  # sanitizers (shares the build-address/ and build-thread/ trees).
  for SAN in address thread; do
    DIR="build-$SAN"
    cmake -B "$DIR" -S . "-DDT_SANITIZE=$SAN"
    cmake --build "$DIR" -j "$(nproc)" --target test_faults test_reliable dtrain
    ctest --test-dir "$DIR" --output-on-failure -j "$(nproc)" -L 'faults|reliable'
    # End-to-end checkpoint recovery (RecoveryMode::checkpoint): a worker
    # crash restored from a periodic CRC-checked snapshot, sanitized.
    "$DIR/examples/dtrain" examples/configs/fault_study_checkpoint.ini
  done
  exit 0
fi

if [[ "$SANITIZER" == "dssp" ]]; then
  # DSSP smoke: the labeled suite, then the committed staleness-sensitivity
  # campaign — a straggler plus lossy links, the exact configuration that
  # once livelocked the reliable transport on a finished worker's lost ack.
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "$(nproc)" --target test_dssp dtrain
  ctest --test-dir build --output-on-failure -j "$(nproc)" -L dssp
  TMP="$(mktemp -d)"
  trap 'rm -rf "$TMP"' EXIT
  (cd "$TMP" && "$OLDPWD/build/examples/dtrain" --campaign \
    "$OLDPWD/examples/configs/dssp_sensitivity.ini")
  exit 0
fi

if [[ "$SANITIZER" == "membership" ]]; then
  # Membership smoke: the failure-detector + ring-repair suite, then the
  # committed ring-repair campaign end to end — every cell takes a
  # crash-with-rejoin, and the drop cells abort/flush/re-form the ring —
  # all under AddressSanitizer (shares build-address/ with `address`).
  DIR=build-address
  cmake -B "$DIR" -S . -DDT_SANITIZE=address
  cmake --build "$DIR" -j "$(nproc)" --target test_membership dtrain
  ctest --test-dir "$DIR" --output-on-failure -j "$(nproc)" -L membership
  TMP="$(mktemp -d)"
  trap 'rm -rf "$TMP"' EXIT
  "$DIR/examples/dtrain" --validate examples/configs/ring_repair.ini
  (cd "$TMP" && "$OLDPWD/$DIR/examples/dtrain" --campaign \
    "$OLDPWD/examples/configs/ring_repair.ini")
  exit 0
fi

if [[ "$SANITIZER" == "fsdp" ]]; then
  # FSDP/ZeRO smoke: the labeled sharded-data-parallel suite plus the
  # memory-ledger unit suite, then the committed memory-vs-throughput
  # frontier campaign end to end (BSP / sharded PS / stages 1-3 at 8 and
  # 16 workers, mem_peak as the aggregate metric), all under
  # AddressSanitizer (shares build-address/ with `address`).
  DIR=build-address
  cmake -B "$DIR" -S . -DDT_SANITIZE=address
  cmake --build "$DIR" -j "$(nproc)" --target test_fsdp test_memory dtrain
  ctest --test-dir "$DIR" --output-on-failure -j "$(nproc)" -L fsdp
  ctest --test-dir "$DIR" --output-on-failure -j "$(nproc)" -R 'Memory'
  TMP="$(mktemp -d)"
  trap 'rm -rf "$TMP"' EXIT
  "$DIR/examples/dtrain" --validate examples/configs/fsdp_frontier.ini
  (cd "$TMP" && "$OLDPWD/$DIR/examples/dtrain" --campaign \
    "$OLDPWD/examples/configs/fsdp_frontier.ini")
  exit 0
fi

if [[ "$SANITIZER" == "observers" ]]; then
  # Observer-export smoke: the string interner hands out string_view keys
  # into its table and the exporters write through a hand-managed chunk
  # buffer — exactly what ASan and UBSan catch. Own tree, since no other
  # mode combines the two sanitizers. The flags go in CMAKE_CXX_FLAGS, not
  # DT_SANITIZE: DT_SANITIZE also drops the tensor kernels' native -O3/FMA
  # build, which changes float rounding, and test_golden's parameter hashes
  # were captured with those kernels.
  DIR=build-observers
  SAN="-fsanitize=address,undefined -fno-sanitize-recover=undefined"
  cmake -B "$DIR" -S . -DDT_SANITIZE= \
    "-DCMAKE_CXX_FLAGS=$SAN -fno-omit-frame-pointer" \
    "-DCMAKE_EXE_LINKER_FLAGS=$SAN"
  cmake --build "$DIR" -j "$(nproc)" \
    --target test_metrics test_registry test_observability test_golden
  ctest --test-dir "$DIR" --output-on-failure -j "$(nproc)" \
    -L observers
  "$DIR/tests/test_golden"
  exit 0
fi

BUILD_DIR=build
CMAKE_ARGS=()
TEST_ARGS=()
BUILD_TARGETS=()
if [[ -n "$SANITIZER" ]]; then
  case "$SANITIZER" in
    address|thread|undefined) ;;
    tsan)
      # Focused mode: TSan-instrumented build of the virtual-time runtime,
      # its thread pool, and the determinism A/B suite — the code that
      # actually runs concurrent host threads. Shares build-thread/ with
      # the full `thread` mode.
      SANITIZER=thread
      BUILD_TARGETS+=(--target test_runtime test_determinism test_algorithms)
      TEST_ARGS+=(-R 'Sim|ThreadPool|Determinism|AllAlgosLearn')
      ;;
    *)
      echo "usage: $0 [address|thread|undefined|tsan|faults|dssp|membership|fsdp|observers]" >&2
      exit 2
      ;;
  esac
  BUILD_DIR="build-$SANITIZER"
  CMAKE_ARGS+=("-DDT_SANITIZE=$SANITIZER")
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)" "${BUILD_TARGETS[@]}"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" "${TEST_ARGS[@]}"
