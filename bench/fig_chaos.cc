// Chaos drill for worker failure domains (DESIGN.md "Worker failure
// domains"): under an open-loop Poisson load, worker 0 is hung or its exec
// thread killed mid-run by the FaultInjector's deterministic worker-chaos
// modes, and the health watchdog must detect, quarantine, requeue, and
// re-admit it while the fleet keeps serving.
//
// Three modes run back to back:
//   * control — watchdog on, no chaos: establishes the undisturbed p99 and
//     proves the watchdog itself adds no quarantines on a healthy fleet;
//   * hang    — worker 0 sleeps 100ms inside one task's execution. Recovery
//     is bounded below by the hang (the in-flight task completes on wake;
//     it is never reclaimed, preserving exactly-once) plus one probe;
//   * exit    — worker 0's exec thread exits while holding a task. The
//     task is reclaimed from the in-flight copy and requeued, the corpse
//     joined, a replacement thread spawned, and the worker re-admitted.
//
// Each row records the p99 blip, tasks requeued, and detection-to-readmit
// recovery time (read from the trace: the watchdog stamps its quarantine
// instant on worker 0's first readmit event) into BENCH_chaos.json for CI
// regression tracking (tools/compare_bench.py --keys mode; the committed
// baseline carries only the hang/exit rows since the control row has no
// recovery to gate). The zero-lost-requests acceptance gate lives here,
// not in compare_bench: every submitted request must get exactly one
// terminal callback and every drill must actually fire, or the process
// exits non-zero.
//
// Usage: fig_chaos [--smoke] [--recovery-budget-ms N] [--out PATH]
//   --smoke               short run (the CI chaos job)
//   --recovery-budget-ms  fail unless detection-to-readmit completes within
//                         this budget in both drills (default 2000)
//   --out                 JSON path (default BENCH_chaos.json)

#include <cstring>
#include <thread>

#include "bench/bench_common.h"
#include "src/core/server.h"

namespace batchmaker {
namespace {

constexpr int64_t kHidden = 256;
constexpr int kMaxLen = 20;
constexpr double kHangMicros = 100000.0;  // 100ms: >> the 20ms hang floor below

struct ChaosRow {
  std::string mode;
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t lost = 0;  // submitted - terminal callbacks; must be 0
  int64_t quarantines = 0;
  int64_t requeued = 0;
  int64_t respawns = 0;
  double recovery_ms = 0.0;  // first-quarantine to re-admission; 0 = none
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

void WriteChaosJson(const std::string& path, const std::vector<ChaosRow>& rows) {
  JsonArray out;
  for (const ChaosRow& r : rows) {
    JsonObject row;
    row["mode"] = r.mode;
    row["submitted"] = r.submitted;
    row["completed"] = r.completed;
    row["lost_requests"] = r.lost;
    row["quarantines"] = r.quarantines;
    row["requeued"] = r.requeued;
    row["respawns"] = r.respawns;
    row["recovery_ms"] = r.recovery_ms;
    row["p50_ms"] = r.p50_ms;
    row["p99_ms"] = r.p99_ms;
    out.emplace_back(std::move(row));
  }
  JsonObject doc;
  doc["bench"] = "fig_chaos";
  doc["topology"] = bench::TopologyJson();
  doc["results"] = Json(std::move(out));
  std::ofstream file(path);
  file << Json(std::move(doc)).Dump(2) << "\n";
  std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
}

ServerOptions MakeOptions(const std::string& mode) {
  ServerOptions options;
  options.num_workers = 2;
  options.threads_per_worker = 1;
  options.pipeline_depth = 2;
  options.health.health_watchdog = true;
  options.health.check_interval_micros = 500.0;
  // Keep the default 20ms hang floor: a single-threaded worker chewing a
  // large requeued backlog batch can legitimately run >5ms, and a lower
  // floor turns that into a false-positive quarantine on the peer.
  options.health.min_hang_micros = 20000.0;
  options.health.probe_backoff_micros = 1000.0;
  // Recovery time is read from the trace (RecoveryMs).
  options.enable_tracing = true;
  if (mode != "control") {
    options.fault.chaos_worker = 0;
    options.fault.chaos_task_seq = 2;  // fires once the run is warm
    if (mode == "hang") {
      options.fault.chaos_hang_micros = kHangMicros;
    } else {
      options.fault.chaos_exit_thread = true;
    }
  }
  return options;
}

// Detection-to-readmit time of worker 0's first recovery, ms; 0 = never
// re-admitted. Its first worker_readmit event carries the instant the
// watchdog quarantined it, so both ends are the watchdog's own stamps.
double RecoveryMs(const Server& server) {
  for (const TraceEvent& event : server.trace().SortedEvents()) {
    if (event.kind == TraceEventKind::kWorkerReadmit && event.worker == 0) {
      return (event.ts_micros - event.aux_micros) / 1e3;
    }
  }
  return 0.0;
}

ChaosRow RunMode(LstmModel& model, CellRegistry& registry, const std::string& mode,
                 double rate, double duration_s) {
  Server server(&registry, MakeOptions(mode));
  server.Start();

  Rng rng(123);  // same arrivals in every mode: the comparison is the drill
  const WmtLengthSampler sampler;
  const int total = static_cast<int>(rate * duration_s);
  std::atomic<int64_t> callbacks{0};
  const auto start = std::chrono::steady_clock::now();
  double next_arrival_s = 0.0;
  for (int i = 0; i < total; ++i) {
    next_arrival_s += rng.NextExponential(rate);
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(next_arrival_s)));
    const int len = std::min(kMaxLen, sampler.Sample(&rng));
    std::vector<Tensor> externals;
    for (int t = 0; t < len; ++t) {
      externals.push_back(Tensor::RandomUniform(Shape{1, kHidden}, 1.0f, &rng));
    }
    externals.push_back(ExternalZeroVecTensor(kHidden));
    externals.push_back(ExternalZeroVecTensor(kHidden));
    server.Submit(model.Unfold(len), std::move(externals), {ValueRef::Output(len - 1, 0)},
                  [&callbacks](RequestId, RequestStatus, std::vector<Tensor>) {
                    callbacks.fetch_add(1);
                  });
  }
  server.Shutdown();

  const SampleSet lat = server.metrics().Latencies();
  ChaosRow row;
  row.mode = mode;
  row.submitted = total;
  row.completed = static_cast<int64_t>(server.metrics().NumCompleted());
  row.lost = total - callbacks.load();
  row.quarantines = server.Quarantines();
  row.requeued = server.RequeuedTasks();
  row.respawns = server.Respawns();
  row.recovery_ms = RecoveryMs(server);
  if (!server.metrics().records().empty()) {
    row.p50_ms = lat.Percentile(50) / 1e3;
    row.p99_ms = lat.Percentile(99) / 1e3;
  }
  return row;
}

int Run(bool smoke, double recovery_budget_ms, const std::string& out_path) {
  CellRegistry registry;
  Rng weight_rng(1);
  LstmModel model(&registry, LstmSpec{.input_dim = kHidden, .hidden = kHidden},
                  &weight_rng);
  const double rate = 200.0;
  const double duration_s = smoke ? 0.5 : 2.0;
  bench::PrintHeader("Chaos: hang/kill worker 0 mid-run, watchdog quarantine + "
                     "recovery, 2 workers, h=" +
                     std::to_string(kHidden));
  std::printf("%8s %9s %9s %6s %11s %9s %8s %12s %8s %8s\n", "mode", "submitted",
              "completed", "lost", "quarantines", "requeued", "respawns",
              "recovery(ms)", "p50(ms)", "p99(ms)");
  std::vector<ChaosRow> rows;
  for (const std::string mode : {"control", "hang", "exit"}) {
    ChaosRow row = RunMode(model, registry, mode, rate, duration_s);
    std::printf("%8s %9lld %9lld %6lld %11lld %9lld %8lld %12.1f %8.2f %8.2f\n",
                row.mode.c_str(), static_cast<long long>(row.submitted),
                static_cast<long long>(row.completed), static_cast<long long>(row.lost),
                static_cast<long long>(row.quarantines),
                static_cast<long long>(row.requeued),
                static_cast<long long>(row.respawns), row.recovery_ms, row.p50_ms,
                row.p99_ms);
    rows.push_back(std::move(row));
  }
  WriteChaosJson(out_path, rows);

  // Acceptance gates (the CI chaos job fails on non-zero exit).
  int failures = 0;
  for (const ChaosRow& row : rows) {
    if (row.lost != 0) {
      std::fprintf(stderr, "FAIL [%s]: %lld request(s) lost (no terminal callback)\n",
                   row.mode.c_str(), static_cast<long long>(row.lost));
      ++failures;
    }
    if (row.mode == "control") {
      if (row.quarantines != 0) {
        std::fprintf(stderr, "FAIL [control]: %lld false quarantine(s) on a healthy "
                             "fleet\n",
                     static_cast<long long>(row.quarantines));
        ++failures;
      }
      continue;
    }
    if (row.quarantines < 1) {
      std::fprintf(stderr, "FAIL [%s]: drill never fired (no quarantine recorded)\n",
                   row.mode.c_str());
      ++failures;
    }
    if (row.recovery_ms <= 0.0) {
      std::fprintf(stderr, "FAIL [%s]: worker was never re-admitted\n",
                   row.mode.c_str());
      ++failures;
    } else if (row.recovery_ms > recovery_budget_ms) {
      std::fprintf(stderr, "FAIL [%s]: recovery took %.1fms, budget %.1fms\n",
                   row.mode.c_str(), row.recovery_ms, recovery_budget_ms);
      ++failures;
    }
    if (row.mode == "exit" && row.respawns < 1) {
      std::fprintf(stderr, "FAIL [exit]: dead exec thread was never respawned\n");
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("\nall chaos gates passed: zero lost requests, recovery within "
                "%.0fms\n",
                recovery_budget_ms);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace batchmaker

int main(int argc, char** argv) {
  bool smoke = false;
  double recovery_budget_ms = 2000.0;
  std::string out_path = "BENCH_chaos.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--recovery-budget-ms") == 0 && i + 1 < argc) {
      recovery_budget_ms = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--recovery-budget-ms N] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  return batchmaker::Run(smoke, recovery_budget_ms, out_path);
}
