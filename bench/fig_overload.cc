// Overload behaviour of the real-time Server: goodput and completed-request
// latency versus offered rate, with load shedding off versus on.
//
// The paper's serving setting (§2, §7.2) assumes requests are dropped once
// their latency SLO cannot be met; this bench demonstrates the server-side
// mechanism. A short calibration burst measures this machine's serving
// capacity, then Poisson arrivals are offered at 0.5x, 1x and 2x that
// capacity:
//   * shedding off: past saturation the queue grows without bound for the
//     whole run, so completed-request p99 latency grows with the run length;
//   * shedding on (queue timeout): requests that cannot start in time are
//     dropped (kShed), goodput holds near capacity and the p99 of what
//     completes stays bounded by the timeout plus service time.
//
// Rows go to BENCH_overload.json for CI regression tracking
// (tools/compare_bench.py).
//
// Usage: fig_overload [--smoke] [--out PATH]
//   --smoke  short runs at the overload points only (the CI job)
//   --out    where to write the JSON rows (default BENCH_overload.json)

#include <cstring>
#include <thread>

#include "bench/bench_common.h"
#include "src/core/server.h"

namespace batchmaker {
namespace {

constexpr int64_t kHidden = 256;
constexpr int kMaxLen = 20;
constexpr double kQueueTimeoutMicros = 25000.0;  // 25ms SLO when shedding is on

struct OverloadRow {
  double offered_rps = 0.0;
  bool shedding = false;
  double goodput_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t shed = 0;
};

void WriteOverloadJson(const std::string& path, const std::vector<OverloadRow>& rows) {
  JsonArray out;
  for (const OverloadRow& r : rows) {
    JsonObject row;
    row["offered_rps"] = r.offered_rps;
    row["shedding"] = static_cast<int64_t>(r.shedding ? 1 : 0);
    row["queue_timeout_ms"] = r.shedding ? kQueueTimeoutMicros / 1e3 : 0.0;
    row["goodput_rps"] = r.goodput_rps;
    row["p50_ms"] = r.p50_ms;
    row["p99_ms"] = r.p99_ms;
    row["submitted"] = r.submitted;
    row["completed"] = r.completed;
    row["shed"] = r.shed;
    out.emplace_back(std::move(row));
  }
  JsonObject doc;
  doc["bench"] = "fig_overload";
  doc["topology"] = bench::TopologyJson();
  doc["results"] = Json(std::move(out));
  std::ofstream file(path);
  file << Json(std::move(doc)).Dump(2) << "\n";
  std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
}

ServerOptions MakeOptions(bool shedding) {
  ServerOptions options;
  options.num_workers = 1;
  options.threads_per_worker = 1;
  options.pipeline_depth = 2;
  if (shedding) {
    options.admission.queue_timeout_micros = kQueueTimeoutMicros;
  }
  return options;
}

// Measures this machine's serving capacity: a closed burst of requests,
// served at maximum batch size. An upper bound on the sustainable open-loop
// rate, so 2x this is safely past saturation.
double CalibrateCapacityRps(LstmModel& model, CellRegistry& registry) {
  constexpr int kBurst = 64;
  Server server(&registry, MakeOptions(/*shedding=*/false));
  server.Start();
  Rng rng(17);
  const WmtLengthSampler sampler;
  for (int i = 0; i < kBurst; ++i) {
    const int len = std::min(kMaxLen, sampler.Sample(&rng));
    std::vector<Tensor> externals;
    for (int t = 0; t < len; ++t) {
      externals.push_back(Tensor::RandomUniform(Shape{1, kHidden}, 1.0f, &rng));
    }
    externals.push_back(ExternalZeroVecTensor(kHidden));
    externals.push_back(ExternalZeroVecTensor(kHidden));
    server.Submit(model.Unfold(len), std::move(externals), {ValueRef::Output(len - 1, 0)},
                  [](RequestId, RequestStatus, std::vector<Tensor>) {});
  }
  server.Shutdown();
  const auto& records = server.metrics().records();
  const double span_s =
      (records.back().completion_micros - records.front().arrival_micros) / 1e6;
  return static_cast<double>(records.size()) / span_s;
}

OverloadRow RunPoint(LstmModel& model, CellRegistry& registry, double rate,
                     bool shedding, double duration_s) {
  Server server(&registry, MakeOptions(shedding));
  server.Start();

  Rng rng(static_cast<uint64_t>(rate) + (shedding ? 1 : 0));
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
    server.Submit(model.Unfold(len), std::move(externals), {ValueRef::Output(len - 1, 0)},
                  [](RequestId, RequestStatus, std::vector<Tensor>) {});
  }
  server.Shutdown();

  const SampleSet lat = server.metrics().Latencies();
  const auto& records = server.metrics().records();
  OverloadRow row;
  row.offered_rps = rate;
  row.shedding = shedding;
  row.submitted = total;
  row.completed = static_cast<int64_t>(server.metrics().NumCompleted());
  row.shed = static_cast<int64_t>(server.metrics().NumDropped());
  if (!records.empty()) {
    const double span_s =
        (records.back().completion_micros - records.front().arrival_micros) / 1e6;
    row.goodput_rps = static_cast<double>(records.size()) / span_s;
    row.p50_ms = lat.Percentile(50) / 1e3;
    row.p99_ms = lat.Percentile(99) / 1e3;
  }
  return row;
}

std::vector<OverloadRow> Sweep(const std::vector<double>& load_factors,
                               double duration_s) {
  CellRegistry registry;
  Rng weight_rng(1);
  LstmModel model(&registry, LstmSpec{.input_dim = kHidden, .hidden = kHidden},
                  &weight_rng);
  const double capacity = CalibrateCapacityRps(model, registry);
  bench::PrintHeader("Overload: goodput and latency vs offered rate, 1 worker, h=" +
                     std::to_string(kHidden));
  std::printf("calibrated burst capacity: %.0f req/s\n", capacity);
  std::printf("%10s %12s %6s %14s %10s %10s %8s %8s\n", "load", "offered(r/s)",
              "shed?", "goodput(r/s)", "p50(ms)", "p99(ms)", "done", "dropped");
  std::vector<OverloadRow> rows;
  for (const double factor : load_factors) {
    for (const bool shedding : {false, true}) {
      OverloadRow row =
          RunPoint(model, registry, factor * capacity, shedding, duration_s);
      std::printf("%9.2fx %12.0f %6s %14.0f %10.2f %10.2f %8lld %8lld\n", factor,
                  row.offered_rps, shedding ? "on" : "off", row.goodput_rps, row.p50_ms,
                  row.p99_ms, static_cast<long long>(row.completed),
                  static_cast<long long>(row.shed));
      rows.push_back(row);
    }
  }

  // The overload claim, stated on the measured rows: past saturation the
  // no-shedding p99 keeps growing with queue depth while the shedding p99
  // stays bounded and sheds the excess instead.
  const OverloadRow& over_off = rows[rows.size() - 2];
  const OverloadRow& over_on = rows[rows.size() - 1];
  std::printf("\nat %.1fx capacity: p99 %.1fms without shedding vs %.1fms with "
              "(%lld requests shed)\n",
              load_factors.back(), over_off.p99_ms, over_on.p99_ms,
              static_cast<long long>(over_on.shed));
  return rows;
}

}  // namespace
}  // namespace batchmaker

int main(int argc, char** argv) {
  using namespace batchmaker;

  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  if (out_path.empty()) {
    out_path = "BENCH_overload.json";
  }
  const std::vector<double> factors = smoke ? std::vector<double>{2.0}
                                            : std::vector<double>{0.5, 1.0, 2.0};
  const double duration_s = smoke ? 0.4 : 1.2;
  const auto rows = Sweep(factors, duration_s);
  WriteOverloadJson(out_path, rows);
  return 0;
}
