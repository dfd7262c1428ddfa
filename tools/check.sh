#!/usr/bin/env bash
# Tier-1 check: configure + build from a clean tree with -Wall -Wextra and
# run the full ctest suite, then rebuild the concurrency-sensitive tests
# under ThreadSanitizer and run them. Mirrors .github/workflows/ci.yml.
#
# Usage: tools/check.sh [--no-tsan] [--asan] [--perf-smoke] [--chaos]
#                       [--kernel-tiers]
#   --asan        additionally rebuild the concurrency tests and the
#                 single-threaded core tests under ASan+UBSan and run them
#                 (mirrors the ci.yml asan job)
#   --perf-smoke  additionally run the fig07 + overload perf-smoke points
#                 and compare p50/p99 against
#                 bench/baselines/BENCH_fig07_baseline.json
#                 (mirrors the ci.yml perf-smoke job)
#   --chaos       additionally run the fig_chaos worker-failure drill
#                 (zero lost requests, recovery within budget) and compare
#                 recovery time against
#                 bench/baselines/BENCH_chaos_baseline.json
#                 (mirrors the ci.yml chaos job)
#   --kernel-tiers  additionally compile gemm.cc and activation.cc
#                 standalone with explicit ISA flags and with none, then
#                 run gemm_test, precision_test, activation_test, nn_test,
#                 nn_models_test and determinism_test under every
#                 BM_GEMM_KERNEL cap (mirrors the ci.yml kernel-tiers
#                 job's matrix)
set -euo pipefail

cd "$(dirname "$0")/.."

run_tsan=1
run_asan=0
run_perf=0
run_chaos=0
run_tiers=0
for arg in "$@"; do
  case "$arg" in
    --no-tsan) run_tsan=0 ;;
    --asan) run_asan=1 ;;
    --perf-smoke) run_perf=1 ;;
    --chaos) run_chaos=1 ;;
    --kernel-tiers) run_tiers=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "==> api: removed pre-unification submission surface stays gone"
# The old API (SyncEngine::TakeOutputs, EffectiveAdmission, loose
# ServerOptions admission fields, positional deadline/terminate arguments)
# was deprecated for one release and is now removed. Nothing in-tree —
# sources and headers, including the conformance test — may mention it.
# DeviceEvent::TakeOutputs() is the (different) live API; the removed
# SyncEngine member was a dot-call, hence the '\.TakeOutputs(' pattern.
deprecated=$(grep -rn --include='*.cc' --include='*.cpp' --include='*.h' \
    -e '\.TakeOutputs(' \
    -e 'EffectiveAdmission(' \
    -e '\.queue_timeout_micros *=' \
    -e '\.max_queued_requests *=' \
    -e '/\*terminate=\*/' \
    src examples bench tests tools \
    | grep -v 'admission\.' || true)
if [[ -n "$deprecated" ]]; then
  echo "removed API usage found (migrate to SubmitOptions / EngineOptions.admission):" >&2
  echo "$deprecated" >&2
  exit 1
fi

echo "==> sim: no wall-clock reads inside deterministic virtual-time paths"
# The simulator's timeline must be a pure function of the event queue: a
# steady_clock read in these files would silently break resumable,
# bit-reproducible runs.
# ShardCore is the policy both engines drive; it reads only its driver's
# clock.
wallclock=$(grep -n \
    -e 'steady_clock' -e 'system_clock' -e 'high_resolution_clock' \
    -e 'NowMicros' \
    src/core/sim_engine.cc src/core/shard_core.h src/core/shard_core.cc \
    src/runtime/sim_worker.cc src/runtime/event_queue.cc \
    || true)
if [[ -n "$wallclock" ]]; then
  echo "wall-clock read inside a virtual-time path (use events_.Now()):" >&2
  echo "$wallclock" >&2
  exit 1
fi

echo "==> tier-1: clean configure + build + ctest"
rm -rf build-check
cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-check -j "$(nproc)"
ctest --test-dir build-check --output-on-failure -j "$(nproc)"

if [[ "$run_tsan" == 1 ]]; then
  echo "==> tsan: concurrency tests under -fsanitize=thread"
  rm -rf build-tsan
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
  cmake --build build-tsan -j "$(nproc)" \
    --target server_test obs_test thread_pool_test determinism_test \
    robustness_test cancellation_test sharding_test api_conformance_test \
    numa_placement_test watchdog_test util_test device_test
  ctest --test-dir build-tsan --output-on-failure \
    -R 'server_test|obs_test|thread_pool_test|determinism_test|robustness_test|cancellation_test|sharding_test|api_conformance_test|numa_placement_test|watchdog_test|util_test|device_test'
fi

if [[ "$run_asan" == 1 ]]; then
  echo "==> asan: concurrency tests under -fsanitize=address,undefined"
  rm -rf build-asan
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" >/dev/null
  cmake --build build-asan -j "$(nproc)" \
    --target server_test obs_test thread_pool_test determinism_test \
    robustness_test cancellation_test sharding_test api_conformance_test \
    numa_placement_test watchdog_test util_test device_test \
    request_processor_test scheduler_test sync_engine_test sim_engine_test \
    property_test attention_test
  # Anchored: unanchored, property_test also matches tensor_property_test,
  # which this build does not compile.
  ctest --test-dir build-asan --output-on-failure \
    -R '^(server_test|obs_test|thread_pool_test|determinism_test|robustness_test|cancellation_test|sharding_test|api_conformance_test|numa_placement_test|watchdog_test|util_test|device_test|request_processor_test|scheduler_test|sync_engine_test|sim_engine_test|property_test|attention_test)$'
fi

if [[ "$run_perf" == 1 ]]; then
  echo "==> perf-smoke: fig07 + overload points vs committed baseline"
  cmake --build build-check -j "$(nproc)" --target fig07_lstm_throughput_latency fig_overload
  (cd build-check && ./bench/fig07_lstm_throughput_latency --smoke --out BENCH_fig07.json)
  (cd build-check && ./bench/fig_overload --smoke --out BENCH_overload.json)
  python3 tools/compare_bench.py \
    bench/baselines/BENCH_fig07_baseline.json \
    build-check/BENCH_fig07.json \
    --metric p50_ms:0.25 --metric p99_ms:0.5 \
    --assert-ratio tasks_per_sec:shards=2,workers=4:shards=1,workers=4:1.5 \
    --min-cores 4

  echo "==> perf-smoke: NUMA placement A/B vs committed baseline"
  # Rows match by policy alone (worker/shard counts scale with the host's
  # topology).
  cmake --build build-check -j "$(nproc)" --target abl_locality
  (cd build-check && ./bench/abl_locality --numa-only --smoke --out BENCH_numa.json)
  python3 tools/compare_bench.py \
    bench/baselines/BENCH_numa_baseline.json \
    build-check/BENCH_numa.json \
    --keys policy \
    --metric p50_ms:1.0 \
    --min-cores 2
fi

if [[ "$run_chaos" == 1 ]]; then
  echo "==> chaos: worker hang/kill drill, watchdog quarantine + recovery"
  # fig_chaos gates zero lost requests, drill firing, and recovery within
  # the budget internally (non-zero exit on any violation); compare_bench
  # then tracks recovery-time and p99-blip regressions against the
  # committed baseline (hang + exit rows only — the control row has no
  # recovery to compare). The exit-mode recovery is probe-timing-dominated
  # (single-digit ms), hence the wide recovery threshold.
  cmake --build build-check -j "$(nproc)" --target fig_chaos
  (cd build-check && ./bench/fig_chaos --smoke --recovery-budget-ms 2000 \
      --out BENCH_chaos.json)
  python3 tools/compare_bench.py \
    bench/baselines/BENCH_chaos_baseline.json \
    build-check/BENCH_chaos.json \
    --keys mode \
    --metric recovery_ms:9.0 --metric p99_ms:1.5 \
    --min-cores 2
fi

if [[ "$run_tiers" == 1 ]]; then
  echo "==> kernel-tiers: standalone ISA compiles + kernel tests under each cap"
  g++ -std=c++17 -O2 -I. -mavx512bf16 -mavx512vnni \
    -c src/tensor/gemm.cc -o build-check/gemm_isa_baseline.o
  g++ -std=c++17 -O2 -I. -c src/tensor/gemm.cc -o build-check/gemm_no_isa.o
  g++ -std=c++17 -O2 -I. -mavx512f -mavx2 -mfma \
    -c src/tensor/activation.cc -o build-check/activation_isa_baseline.o
  g++ -std=c++17 -O2 -I. -c src/tensor/activation.cc -o build-check/activation_no_isa.o
  for cap in scalar avx2 avx512 avx512_bf16 avx512_vnni; do
    echo "--> BM_GEMM_KERNEL=$cap"
    for t in gemm_test precision_test activation_test nn_test nn_models_test \
        determinism_test; do
      BM_GEMM_KERNEL="$cap" "build-check/tests/$t" --gtest_brief=1
    done
  done
fi

echo "==> all checks passed"
