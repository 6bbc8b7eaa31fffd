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
#                                    # tests/test_reliable), test_golden
#                                    # (incl. the lossy-failover fixtures
#                                    # of every PS protocol), a dtrain
#                                    # checkpoint-recovery run and a dtrain
#                                    # lossy PS-failover run, under
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
#                                    # AddressSanitizer, then the
#                                    # AR-SGD/D-PSGD fixtures of
#                                    # test_golden under ASan
#   scripts/check.sh fsdp            # FSDP/ZeRO smoke: the ctest label
#                                    # `fsdp` (tests/test_fsdp — stage
#                                    # equivalence, memory-peak ordering,
#                                    # traffic pins, crash + rejoin,
#                                    # 1-vs-8-thread byte identity) plus
#                                    # test_memory and the committed
#                                    # memory/throughput frontier campaign,
#                                    # under AddressSanitizer
#   scripts/check.sh observers       # observer-export smoke: the ctest
#                                    # label `observers` (test_metrics —
#                                    # incl. the number-memo equivalence
#                                    # tests, test_registry,
#                                    # test_observability — incl. flows
#                                    # expanded from the edge log,
#                                    # test_profile — the critical-path
#                                    # analyzer's hand-indexed rows and its
#                                    # differential test), test_golden
#                                    # (byte pins of the trace, CSV, JSONL
#                                    # and profiler outputs) and a
#                                    # trace-only dtrain run over lossy
#                                    # links (one flow per message), under
#                                    # AddressSanitizer +
#                                    # UndefinedBehaviorSanitizer
#
# Sanitized builds go to build-<sanitizer>/ so they never pollute the plain
# build tree.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZER="${1:-}"

if [[ "$SANITIZER" == "faults" ]]; then
  # Fault-injection smoke: the labeled fault suites plus test_golden, whose
  # lossy replicated-PS fixtures run every PS protocol's reliable link
  # through a primary failover, under both sanitizers (shares
  # build-<sanitizer>/ with the plain sanitizer modes).
  for SAN in address thread; do
    DIR="build-$SAN"
    cmake -B "$DIR" -S . "-DDT_SANITIZE=$SAN"
    cmake --build "$DIR" -j "$(nproc)" \
      --target test_faults test_reliable test_golden dtrain
    ctest --test-dir "$DIR" --output-on-failure -j "$(nproc)" -L 'faults|reliable'
    "$DIR/tests/test_golden"
    # End-to-end checkpoint recovery (RecoveryMode::checkpoint): a worker
    # crash restored from a periodic CRC-checked snapshot, sanitized.
    "$DIR/examples/dtrain" examples/configs/fault_study_checkpoint.ini
    # End-to-end PS failover over lossy links: a primary's crash ends its
    # serve loop's deadline receive, and workers polling for replies with
    # deadline receives fail over and re-send to the backup.
    "$DIR/examples/dtrain" examples/configs/fault_study_failover.ini
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
  # under AddressSanitizer (shares build-address/ with `address`).
  DIR=build-address
  cmake -B "$DIR" -S . -DDT_SANITIZE=address
  cmake --build "$DIR" -j "$(nproc)" --target test_membership test_golden \
    dtrain
  ctest --test-dir "$DIR" --output-on-failure -j "$(nproc)" -L membership
  TMP="$(mktemp -d)"
  trap 'rm -rf "$TMP"' EXIT
  "$DIR/examples/dtrain" --validate examples/configs/ring_repair.ini
  (cd "$TMP" && "$OLDPWD/$DIR/examples/dtrain" --campaign \
    "$OLDPWD/examples/configs/ring_repair.ini")
  # The ring fixtures of test_golden (static, stall, DGC + wait-free BP,
  # detector-enabled and ring-repair runs of AR-SGD and D-PSGD), under
  # ASan.
  "$DIR/tests/test_golden" --gtest_filter='*Arsgd*:*Dpsgd*'
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
  # into its table, the exporters write through a hand-managed chunk
  # buffer (number memos copy fixed-size text into it), the trace's flows
  # are expanded from the edge log by endpoint index, and the critical-path
  # analyzer walks hand-indexed CSR rows — exactly what ASan and UBSan
  # catch. Own tree, since no other mode combines the two sanitizers.
  DIR=build-observers
  cmake -B "$DIR" -S . -DDT_SANITIZE=address,undefined
  cmake --build "$DIR" -j "$(nproc)" \
    --target test_metrics test_registry test_observability test_profile \
    test_golden dtrain
  ctest --test-dir "$DIR" --output-on-failure -j "$(nproc)" \
    -L observers
  "$DIR/tests/test_golden"
  # A trace-only run (profiler off) over lossy, duplicating links: the edge
  # log is attached for the trace alone, and every message on the wire —
  # lost, duplicated or recovered — has exactly one flow pair.
  TMP="$(mktemp -d)"
  trap 'rm -rf "$TMP"' EXIT
  cat > "$TMP/trace_only.ini" <<'INI'
[experiment]
algorithm = bsp
mode = throughput
workers = 8
iterations = 6
seed = 7

[cluster]
workers_per_machine = 2

[optimizations]
ps_shards_per_machine = 1

[failures]
loss_prob = 0.05
dup_prob = 0.05
reorder_prob = 0.1
reorder_window = 0.002

[reliability]
replicate_ps = true

[output]
trace = run.trace.json
metrics_jsonl = run.jsonl
INI
  (cd "$TMP" && "$OLDPWD/$DIR/examples/dtrain" trace_only.ini > /dev/null)
  FLOWS="$(grep -o '"ph":"s"' "$TMP/run.trace.json" | wc -l)"
  MESSAGES="$(awk -F'"value":' '/"name":"net.messages_total"/ {
    split($2, v, /[,}]/); total += v[1] } END { print total }' \
    "$TMP/run.jsonl")"
  echo "trace-only run: $FLOWS flows, $MESSAGES messages"
  if [[ "$FLOWS" -eq 0 || "$FLOWS" -ne "$MESSAGES" ]]; then
    echo "observers: flow count differs from net.messages_total" >&2
    exit 1
  fi
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
