// Figure 7: LSTM latency vs. throughput on the WMT-15-like dataset, one
// GPU. (a) maximum batch size 512; (b) maximum batch size 64. BatchMaker
// vs. the padding + bucketing baseline (TensorFlow/MXNet, bucket width 10).
//
// Expected shape (paper §7.2): BatchMaker's 90p latency is flat (~12ms)
// until ~8k req/s and stays low up to a peak of ~20k req/s; the baselines
// start at ~25ms and shoot past 500ms by ~16k req/s. With bmax=64 latency
// at low load is similar but peak throughput is much lower.
//
// The real-compute sweep at the end additionally compares pipeline_depth 1
// (drain-then-refill worker streams) against depth 2 (watermark refill +
// overlapped gather/execute/scatter), runs the sharded-manager scaling
// points (closed-loop batch at 4 workers, shards {1, 2}; rate_rps = 0 rows)
// and writes machine-readable rows to BENCH_fig07.json for CI regression
// tracking (tools/compare_bench.py, including the --assert-ratio gate on
// tasks_per_sec).
//
// Usage: fig07_lstm_throughput_latency [--smoke|--real-only] [--out PATH]
//                                      [--precision fp32|int8]
//   --smoke      skip the simulated sweeps and run a single short low-rate
//                real-compute point per depth (the CI perf-smoke job)
//   --real-only  skip the simulated sweeps, run the full real-compute sweep
//   --out        where to write the JSON rows (default BENCH_fig07.json)
//   --precision  run the real-compute rows at one precision and restrict
//                the closed-loop precision sweep to it (default: fp32 rows
//                plus a fp32/int8 sweep)

#include <cstring>
#include <thread>

#include "bench/bench_common.h"
#include "src/core/server.h"
#include "src/tensor/gemm.h"

namespace batchmaker {
namespace {

struct Fig07Row {
  double rate_rps = 0.0;  // offered Poisson rate; 0 = closed-loop batch point
  int pipeline_depth = 0;
  int workers = 1;
  int shards = 1;  // effective manager shards (see DESIGN.md "Sharded manager")
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double achieved_rps = 0.0;
  double tasks_per_sec = 0.0;  // manager+worker task throughput over the run
  double worker_idle_ms = 0.0;  // total exec-thread idle time over the run
  int64_t tasks = 0;
  int64_t requests = 0;
  int64_t steals = 0;    // requests migrated across shards
  int64_t shed = 0;      // requests dropped after their queue deadline passed
  int64_t rejected = 0;  // requests refused at Submit (validation / admission)
  std::string precision = "fp32";  // EngineOptions::precision of the run
  std::string kernel;              // dispatched GEMM kernel for that precision
};

// Same envelope as BENCH_gemm/BENCH_fig03: {"bench": name, "results": [...]}.
void WriteFig07Json(const std::string& path, const std::vector<Fig07Row>& rows) {
  JsonArray out;
  for (const Fig07Row& r : rows) {
    JsonObject row;
    row["rate_rps"] = r.rate_rps;
    row["pipeline_depth"] = r.pipeline_depth;
    row["workers"] = r.workers;
    row["shards"] = r.shards;
    row["p50_ms"] = r.p50_ms;
    row["p95_ms"] = r.p95_ms;
    row["p99_ms"] = r.p99_ms;
    row["achieved_rps"] = r.achieved_rps;
    row["tasks_per_sec"] = r.tasks_per_sec;
    row["worker_idle_ms"] = r.worker_idle_ms;
    row["tasks"] = r.tasks;
    row["requests"] = r.requests;
    row["steals"] = r.steals;
    row["shed"] = r.shed;
    row["rejected"] = r.rejected;
    row["precision"] = r.precision;
    row["kernel"] = r.kernel;
    out.emplace_back(std::move(row));
  }
  JsonObject doc;
  doc["bench"] = "fig07_lstm_throughput_latency";
  doc["topology"] = bench::TopologyJson();
  doc["results"] = Json(std::move(out));
  std::ofstream file(path);
  file << Json(std::move(doc)).Dump(2) << "\n";
  std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
}

// Real-compute counterpart of the simulated sweep: the actual threaded
// Server executing a real LSTM (h=256) on this machine's CPU backend, with
// Poisson arrivals at each offered rate. End-to-end latency percentiles
// come from the server's own metrics. Scaled down from the paper's
// configuration (h=1024, V100) so the sweep finishes in seconds on a small
// machine; the *shape* — flat p50 until the CPU saturates, and the
// worker-idle gap shrinking with pipeline_depth >= 2 — is what mirrors
// Figure 7 and the pipelined-streams claim.
Fig07Row RealComputePoint(double rate, int pipeline_depth, int threads_per_worker,
                          double duration_s, Precision precision = Precision::kF32) {
  constexpr int64_t kHidden = 256;
  constexpr int kMaxLen = 30;
  CellRegistry registry;
  Rng weight_rng(1);
  LstmModel model(&registry, LstmSpec{.input_dim = kHidden, .hidden = kHidden},
                  &weight_rng);
  ServerOptions options;
  options.threads_per_worker = threads_per_worker;
  options.pipeline_depth = pipeline_depth;
  options.precision = precision;
  Server server(&registry, options);
  server.Start();

  Rng rng(static_cast<uint64_t>(rate));
  const WmtLengthSampler sampler;
  const int total = static_cast<int>(rate * duration_s);
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
    server.Submit(model.Unfold(len), std::move(externals),
                  {ValueRef::Output(len - 1, 0)},
                  [](RequestId, RequestStatus, std::vector<Tensor>) {});
  }
  server.Shutdown();

  const SampleSet lat = server.metrics().Latencies();
  const auto& records = server.metrics().records();
  const double span_s =
      (records.back().completion_micros - records.front().arrival_micros) / 1e6;
  Fig07Row row;
  row.rate_rps = rate;
  row.pipeline_depth = pipeline_depth;
  row.workers = 1;
  row.shards = server.num_shards();
  row.p50_ms = lat.Percentile(50) / 1e3;
  row.p95_ms = lat.Percentile(95) / 1e3;
  row.p99_ms = lat.Percentile(99) / 1e3;
  row.achieved_rps = static_cast<double>(records.size()) / span_s;
  row.tasks_per_sec = static_cast<double>(server.TasksExecuted()) / span_s;
  row.worker_idle_ms = server.TotalWorkerIdleMicros() / 1e3;
  row.tasks = server.TasksExecuted();
  row.requests = static_cast<int64_t>(records.size());
  row.steals = server.StealsExecuted();
  row.shed = static_cast<int64_t>(server.metrics().NumDropped());
  row.rejected = static_cast<int64_t>(server.metrics().NumRejected());
  row.precision = PrecisionName(precision);
  row.kernel = GemmKernelName(precision);
  return row;
}

// Closed-loop batch point for the sharded-manager scaling gate
// (rate_rps = 0 in the JSON): a fixed batch of small-h requests is
// submitted back-to-back so the manager side — arrival routing,
// Algorithm-1 scheduling, completion processing — is the contended
// resource, and task throughput measures how far shards move the
// serialization point. On a multi-core host, 2 shards at 4 workers must
// clear >= 1.5x the tasks/sec of 1 shard at 4 workers
// (tools/compare_bench.py --assert-ratio, skipped below --min-cores).
Fig07Row ShardedThroughputPoint(int workers, int shards, int pipeline_depth) {
  constexpr int64_t kHidden = 64;
  constexpr int kRequests = 256;
  CellRegistry registry;
  Rng weight_rng(2);
  LstmModel model(&registry, LstmSpec{.input_dim = kHidden, .hidden = kHidden},
                  &weight_rng);
  // Cap the batch so both configurations form comparably-sized tasks:
  // without it one shard folds the whole backlog into a handful of giant
  // batches and tasks/sec measures batch *splitting*, not throughput.
  registry.SetMaxBatch(model.cell_type(), 16);
  ServerOptions options;
  options.num_workers = workers;
  options.num_shards = shards;
  options.pipeline_depth = pipeline_depth;
  Server server(&registry, options);
  server.Start();

  Rng rng(static_cast<uint64_t>(1000 + shards));
  const WmtLengthSampler sampler;
  for (int i = 0; i < kRequests; ++i) {
    const int len = std::min(8, sampler.Sample(&rng));
    std::vector<Tensor> externals;
    for (int t = 0; t < len; ++t) {
      externals.push_back(Tensor::RandomUniform(Shape{1, kHidden}, 1.0f, &rng));
    }
    externals.push_back(ExternalZeroVecTensor(kHidden));
    externals.push_back(ExternalZeroVecTensor(kHidden));
    server.Submit(model.Unfold(len), std::move(externals),
                  {ValueRef::Output(len - 1, 0)},
                  [](RequestId, RequestStatus, std::vector<Tensor>) {});
  }
  server.Shutdown();

  const SampleSet lat = server.metrics().Latencies();
  const auto& records = server.metrics().records();
  const double span_s =
      (records.back().completion_micros - records.front().arrival_micros) / 1e6;
  Fig07Row row;
  row.rate_rps = 0.0;
  row.pipeline_depth = pipeline_depth;
  row.workers = workers;
  row.shards = server.num_shards();
  row.p50_ms = lat.Percentile(50) / 1e3;
  row.p95_ms = lat.Percentile(95) / 1e3;
  row.p99_ms = lat.Percentile(99) / 1e3;
  row.achieved_rps = static_cast<double>(records.size()) / span_s;
  row.tasks_per_sec = static_cast<double>(server.TasksExecuted()) / span_s;
  row.worker_idle_ms = server.TotalWorkerIdleMicros() / 1e3;
  row.tasks = server.TasksExecuted();
  row.requests = static_cast<int64_t>(records.size());
  row.steals = server.StealsExecuted();
  row.kernel = GemmKernelName(Precision::kF32);
  return row;
}

// Closed-loop compute-bound point for the low-precision speedup gate
// (rate_rps = 0, workers = 1, h = 256): a fixed batch of requests is
// submitted back-to-back so the worker's GEMM time — not arrival pacing or
// manager contention — bounds task throughput. On a VNNI host, the int8
// row must clear >= 1.5x the tasks/sec of the fp32 row
// (tools/compare_bench.py --assert-ratio with require-kernel=vnni, loudly
// skipped elsewhere).
Fig07Row PrecisionThroughputPoint(Precision precision) {
  constexpr int64_t kHidden = 256;
  constexpr int kRequests = 192;
  CellRegistry registry;
  Rng weight_rng(3);
  LstmModel model(&registry, LstmSpec{.input_dim = kHidden, .hidden = kHidden},
                  &weight_rng);
  // Fixed batch cap so every precision runs the same task structure and
  // tasks/sec compares pure per-task execution time.
  registry.SetMaxBatch(model.cell_type(), 16);
  ServerOptions options;
  options.num_workers = 1;
  options.pipeline_depth = 2;
  options.precision = precision;
  Server server(&registry, options);
  server.Start();

  Rng rng(static_cast<uint64_t>(2000 + static_cast<int>(precision)));
  const WmtLengthSampler sampler;
  for (int i = 0; i < kRequests; ++i) {
    const int len = std::min(8, sampler.Sample(&rng));
    std::vector<Tensor> externals;
    for (int t = 0; t < len; ++t) {
      externals.push_back(Tensor::RandomUniform(Shape{1, kHidden}, 1.0f, &rng));
    }
    externals.push_back(ExternalZeroVecTensor(kHidden));
    externals.push_back(ExternalZeroVecTensor(kHidden));
    server.Submit(model.Unfold(len), std::move(externals),
                  {ValueRef::Output(len - 1, 0)},
                  [](RequestId, RequestStatus, std::vector<Tensor>) {});
  }
  server.Shutdown();

  const SampleSet lat = server.metrics().Latencies();
  const auto& records = server.metrics().records();
  const double span_s =
      (records.back().completion_micros - records.front().arrival_micros) / 1e6;
  Fig07Row row;
  row.rate_rps = 0.0;
  row.pipeline_depth = 2;
  row.workers = 1;
  row.shards = server.num_shards();
  row.p50_ms = lat.Percentile(50) / 1e3;
  row.p95_ms = lat.Percentile(95) / 1e3;
  row.p99_ms = lat.Percentile(99) / 1e3;
  row.achieved_rps = static_cast<double>(records.size()) / span_s;
  row.tasks_per_sec = static_cast<double>(server.TasksExecuted()) / span_s;
  row.worker_idle_ms = server.TotalWorkerIdleMicros() / 1e3;
  row.tasks = server.TasksExecuted();
  row.requests = static_cast<int64_t>(records.size());
  row.steals = server.StealsExecuted();
  row.precision = PrecisionName(precision);
  row.kernel = GemmKernelName(precision);
  return row;
}

std::vector<Fig07Row> PrecisionSweep(const std::vector<Precision>& precisions) {
  bench::PrintHeader(
      "Figure 7 (precision): closed-loop compute-bound, h=256, 1 worker, "
      "fp32/int8");
  std::printf("%10s %18s %10s %14s %12s %8s\n", "precision", "kernel", "p50(ms)",
              "tasks/sec", "achieved", "tasks");
  std::vector<Fig07Row> rows;
  for (const Precision p : precisions) {
    const Fig07Row row = PrecisionThroughputPoint(p);
    std::printf("%10s %18s %10.2f %14.0f %12.0f %8lld\n", row.precision.c_str(),
                row.kernel.c_str(), row.p50_ms, row.tasks_per_sec,
                row.achieved_rps, static_cast<long long>(row.tasks));
    rows.push_back(row);
  }
  return rows;
}

std::vector<Fig07Row> ShardingSweep() {
  bench::PrintHeader(
      "Figure 7 (sharded manager): closed-loop batch, h=64, 4 workers, "
      "shards {1, 2}");
  std::printf("%8s %7s %10s %14s %12s %8s %8s\n", "workers", "shards",
              "p50(ms)", "tasks/sec", "achieved", "tasks", "steals");
  std::vector<Fig07Row> rows;
  for (const int shards : {1, 2}) {
    const Fig07Row row =
        ShardedThroughputPoint(/*workers=*/4, shards, /*pipeline_depth=*/2);
    std::printf("%8d %7d %10.2f %14.0f %12.0f %8lld %8lld\n", row.workers,
                row.shards, row.p50_ms, row.tasks_per_sec, row.achieved_rps,
                static_cast<long long>(row.tasks),
                static_cast<long long>(row.steals));
    rows.push_back(row);
  }
  return rows;
}

std::vector<Fig07Row> RealComputeCpuSweep(int threads_per_worker,
                                          const std::vector<double>& rates,
                                          double duration_s,
                                          Precision precision = Precision::kF32) {
  bench::PrintHeader(
      "Figure 7 (real-compute): CPU backend, h=256, threads_per_worker=" +
      std::to_string(threads_per_worker) + ", pipeline_depth {1, 2}, precision=" +
      PrecisionName(precision));
  std::printf("%12s %6s %10s %10s %10s %14s %12s %8s\n", "rate(req/s)", "depth",
              "p50(ms)", "p95(ms)", "p99(ms)", "achieved(req/s)", "idle(ms)",
              "tasks");
  std::vector<Fig07Row> rows;
  for (const double rate : rates) {
    for (const int depth : {1, 2}) {
      const Fig07Row row =
          RealComputePoint(rate, depth, threads_per_worker, duration_s, precision);
      std::printf("%12.0f %6d %10.2f %10.2f %10.2f %14.0f %12.1f %8lld\n",
                  row.rate_rps, row.pipeline_depth, row.p50_ms, row.p95_ms,
                  row.p99_ms, row.achieved_rps, row.worker_idle_ms,
                  static_cast<long long>(row.tasks));
      rows.push_back(row);
    }
  }
  return rows;
}

}  // namespace
}  // namespace batchmaker

int main(int argc, char** argv) {
  using namespace batchmaker;
  using namespace batchmaker::bench;

  bool smoke = false;
  bool real_only = false;
  std::string out_path = "BENCH_fig07.json";
  Precision sweep_precision = Precision::kF32;
  bool precision_forced = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--real-only") == 0) {
      real_only = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--precision") == 0 && i + 1 < argc) {
      if (!ParsePrecision(argv[++i], &sweep_precision)) {
        std::fprintf(stderr, "unknown --precision %s (fp32|int8)\n", argv[i]);
        return 1;
      }
      precision_forced = true;
    }
  }
  const std::vector<Precision> sweep_precisions =
      precision_forced
          ? std::vector<Precision>{sweep_precision}
          : std::vector<Precision>{Precision::kF32, Precision::kInt8};

  if (smoke) {
    // CI perf-smoke: one short, low-rate real-compute point per depth (low
    // rate keeps the machine far from saturation so the p50 is dominated
    // by per-request compute, which is what a regression check needs to be
    // stable on a shared runner), plus the closed-loop sharded-manager
    // scaling points and the closed-loop precision points that the
    // --assert-ratio gates read.
    auto rows = RealComputeCpuSweep(/*threads_per_worker=*/1, {50.0},
                                    /*duration_s=*/1.0, sweep_precision);
    const auto sharded = ShardingSweep();
    rows.insert(rows.end(), sharded.begin(), sharded.end());
    const auto prec = PrecisionSweep(sweep_precisions);
    rows.insert(rows.end(), prec.begin(), prec.end());
    WriteFig07Json(out_path, rows);
    return 0;
  }

  if (real_only) {
    auto rows = RealComputeCpuSweep(/*threads_per_worker=*/1,
                                    {50.0, 100.0, 150.0, 200.0},
                                    /*duration_s=*/2.0, sweep_precision);
    const auto sharded = ShardingSweep();
    rows.insert(rows.end(), sharded.begin(), sharded.end());
    const auto prec = PrecisionSweep(sweep_precisions);
    rows.insert(rows.end(), prec.begin(), prec.end());
    WriteFig07Json(out_path, rows);
    return 0;
  }

  Rng data_rng(42);
  const WmtLengthSampler sampler;
  const auto dataset = SampleChainDataset(20000, sampler, &data_rng);

  LoadGenOptions options;
  // Long horizon + late measurement window: the padding baseline converges
  // to its large-batch equilibrium slowly, and measuring the transient
  // would misclassify it as saturated (see fig08 note).
  options.horizon_seconds = 8.0;
  options.warmup_fraction = 0.5;
  options.saturation_threshold = 0.95;
  options.seed = 11;

  const std::vector<double> rates = {1000,  2000,  4000,  6000,  8000,  10000,
                                     12000, 14000, 16000, 18000, 20000, 22000,
                                     24000, 26000};

  {
    LstmScenario scenario;
    const auto bm = SweepAndPrint("Figure 7(a): BatchMaker, bmax=512, 1 GPU",
                                  scenario.BatchMakerFactory(512), dataset, rates, options);
    const auto pad = SweepAndPrint(
        "Figure 7(a): TensorFlow/MXNet (padding, bucket width 10), bmax=512",
        LstmScenario::PaddingFactory("Padding-bw10", 10, 512), dataset, rates, options);
    std::printf("\npeak throughput: BatchMaker=%.0f req/s, padding=%.0f req/s "
                "(paper: ~20k vs ~16k, +25%%)\n",
                PeakThroughput(bm), PeakThroughput(pad));
    std::printf("low-load p90 latency: BatchMaker=%.1fms, padding=%.1fms (paper: ~12 vs ~25)\n",
                LowLoadP90Ms(bm), LowLoadP90Ms(pad));
  }

  {
    LstmScenario scenario;
    const auto bm = SweepAndPrint("Figure 7(b): BatchMaker, bmax=64, 1 GPU",
                                  scenario.BatchMakerFactory(64), dataset, rates, options);
    const auto pad = SweepAndPrint(
        "Figure 7(b): TensorFlow/MXNet (padding, bucket width 10), bmax=64",
        LstmScenario::PaddingFactory("Padding-bw10", 10, 64), dataset, rates, options);
    std::printf("\npeak throughput with bmax=64: BatchMaker=%.0f req/s, padding=%.0f req/s\n"
                "(both peaks drop vs bmax=512 while low-load latency stays similar)\n",
                PeakThroughput(bm), PeakThroughput(pad));
  }

  auto rows = RealComputeCpuSweep(/*threads_per_worker=*/1,
                                  {50.0, 100.0, 150.0, 200.0},
                                  /*duration_s=*/2.0, sweep_precision);
  const auto sharded = ShardingSweep();
  rows.insert(rows.end(), sharded.begin(), sharded.end());
  const auto prec = PrecisionSweep(sweep_precisions);
  rows.insert(rows.end(), prec.begin(), prec.end());
  WriteFig07Json(out_path, rows);
  return 0;
}
