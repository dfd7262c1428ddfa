// Ablation: locality — cross-GPU state migration (paper §4.3) and NUMA
// placement (DESIGN.md "NUMA-aware placement").
//
// Part 1 (simulated): the paper pins a subgraph to one worker while it has
// in-flight tasks and prefers re-batching the same set of requests, because
// moving a subgraph's state between GPUs costs a device-to-device copy.
// This part (a) measures how often subgraphs actually migrate under the
// Seq2Seq multi-GPU workload, and (b) sweeps the per-migration penalty
// from free (NVLink-adjacent, the Figure 13 default) to expensive (PCIe /
// cross-socket) to show how much of BatchMaker's multi-GPU throughput
// depends on cheap migration.
//
// Part 2 (real compute): A/B sweep of ServerOptions::numa_policy
// {none, pin} on this host, closed-loop so the worker-side memory system —
// not arrival pacing — bounds throughput. Writes BENCH_numa.json, whose
// p50 rows tools/compare_bench.py compares against the baseline.

#include <cstring>
#include <string>

#include "bench/bench_common.h"
#include "src/core/server.h"
#include "src/nn/lstm.h"

namespace batchmaker {
namespace {

struct NumaRow {
  std::string policy;
  int workers = 0;
  int shards = 0;
  int nodes = 0;
  int pinned_workers = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double tasks_per_sec = 0.0;
  int64_t tasks = 0;
  int64_t steals = 0;
  int64_t cross_node_steals = 0;
  int64_t remote_gather_bytes = 0;
};

// Closed-loop batch point: a fixed backlog of h=128 LSTM requests drained
// by `workers` workers under the given placement policy. Back-to-back
// submission keeps every worker's gather/execute path hot, so tasks/sec
// measures where the weight panels and staging buffers live — exactly what
// the placement policy moves.
NumaRow NumaPoint(NumaPolicy policy, int workers, int shards, int requests) {
  constexpr int64_t kHidden = 128;
  CellRegistry registry;
  Rng weight_rng(7);
  LstmModel model(&registry, LstmSpec{.input_dim = kHidden, .hidden = kHidden},
                  &weight_rng);
  // Fixed batch cap so every policy runs the same task structure and
  // tasks/sec compares pure per-task memory behavior.
  registry.SetMaxBatch(model.cell_type(), 16);
  ServerOptions options;
  options.num_workers = workers;
  options.num_shards = shards;
  options.pipeline_depth = 2;
  options.numa_policy = policy;
  Server server(&registry, options);
  server.Start();

  Rng rng(31);
  const WmtLengthSampler sampler;
  for (int i = 0; i < requests; ++i) {
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
  NumaRow row;
  row.policy = NumaPolicyName(policy);
  row.workers = workers;
  row.shards = server.num_shards();
  row.nodes = server.NumaNodes();
  row.pinned_workers = server.NumPinnedWorkers();
  row.p50_ms = lat.Percentile(50) / 1e3;
  row.p99_ms = lat.Percentile(99) / 1e3;
  row.tasks_per_sec = static_cast<double>(server.TasksExecuted()) / span_s;
  row.tasks = server.TasksExecuted();
  row.steals = server.StealsExecuted();
  row.cross_node_steals = server.CrossNodeSteals();
  row.remote_gather_bytes = server.RemoteGatherBytes();
  return row;
}

void WriteNumaJson(const std::string& path, const std::vector<NumaRow>& rows) {
  JsonArray out;
  for (const NumaRow& r : rows) {
    JsonObject row;
    row["policy"] = r.policy;
    row["workers"] = r.workers;
    row["shards"] = r.shards;
    row["nodes"] = r.nodes;
    row["pinned_workers"] = r.pinned_workers;
    row["p50_ms"] = r.p50_ms;
    row["p99_ms"] = r.p99_ms;
    row["tasks_per_sec"] = r.tasks_per_sec;
    row["tasks"] = r.tasks;
    row["steals"] = r.steals;
    row["cross_node_steals"] = r.cross_node_steals;
    row["remote_gather_bytes"] = r.remote_gather_bytes;
    out.emplace_back(std::move(row));
  }
  JsonObject doc;
  doc["bench"] = "abl_numa_placement";
  doc["topology"] = bench::TopologyJson();
  doc["results"] = Json(std::move(out));
  std::ofstream file(path);
  file << Json(std::move(doc)).Dump(2) << "\n";
  std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
}

void NumaSweep(const std::string& out_path, int requests) {
  const Topology topo = DiscoverTopology();
  // Enough workers to span every node (at least 2 so pinning has something
  // to separate), capped at the host's core count.
  const int workers = std::max(
      2, std::min(topo.num_cpus, 2 * static_cast<int>(topo.nodes.size())));
  const int shards = std::max(1, static_cast<int>(topo.nodes.size()));
  bench::PrintHeader(
      StrPrintf("Ablation: NUMA placement (real compute, h=128, %d workers, "
                "%d shards, %zu node(s))",
                workers, shards, topo.nodes.size()));
  std::printf("%14s %7s %7s %6s %7s %10s %14s %12s %14s\n", "policy", "workers",
              "shards", "nodes", "pinned", "p50(ms)", "tasks/sec", "xnode-steal",
              "remote-bytes");
  std::vector<NumaRow> rows;
  for (const NumaPolicy policy : {NumaPolicy::kNone, NumaPolicy::kPin}) {
    const NumaRow row = NumaPoint(policy, workers, shards, requests);
    std::printf("%14s %7d %7d %6d %7d %10.2f %14.0f %12lld %14lld\n",
                row.policy.c_str(), row.workers, row.shards, row.nodes,
                row.pinned_workers, row.p50_ms, row.tasks_per_sec,
                static_cast<long long>(row.cross_node_steals),
                static_cast<long long>(row.remote_gather_bytes));
    rows.push_back(row);
  }
  WriteNumaJson(out_path, rows);
  std::printf("expected: on a multi-socket host pin keeps gathers node-local;\n"
              "on a single-node host both policies coincide.\n");
}

void MigrationPenaltySweep() {
  using namespace batchmaker::bench;

  Rng data_rng(42);
  const WmtLengthSampler sampler;
  const auto dataset = SampleSeq2SeqDataset(20000, sampler, &data_rng);

  LoadGenOptions options;
  options.horizon_seconds = 3.0;
  options.seed = 25;
  const std::vector<double> rates = {2000, 4000, 6000, 8000, 10000, 12000};

  for (double penalty : {0.0, 50.0, 200.0, 800.0}) {
    Seq2SeqScenario scenario;
    scenario.cost.SetMigrationPenaltyMicros(penalty);
    scenario.registry.SetMaxBatch(scenario.model.encoder_type(), 512);
    scenario.registry.SetMaxBatch(scenario.model.decoder_type(), 256);

    PrintHeader(StrPrintf("Ablation: migration penalty %.0fus/move (Seq2Seq, 4 GPUs)",
                          penalty));
    std::printf("%10s %12s %10s %16s %5s\n", "offered", "achieved", "p90(ms)",
                "migrations/req", "sat");
    for (double rate : rates) {
      SimEngineOptions engine_options;
      engine_options.num_workers = 4;
      BatchMakerSystem system(
          &scenario.registry, &scenario.cost,
          [&scenario](const WorkItem& item) {
            return scenario.model.Unfold(item.src_len, item.dec_len);
          },
          engine_options);
      const LoadPoint point = RunOpenLoop(&system, dataset, rate, options);
      const double migrations_per_request =
          static_cast<double>(system.engine().scheduler().TotalMigrations()) /
          static_cast<double>(system.metrics().NumCompleted());
      std::printf("%10.0f %12.0f %10.1f %16.2f %5s\n", rate, point.achieved_rps,
                  point.p90_ms, migrations_per_request, point.saturated ? "yes" : "no");
      if (point.saturated) {
        break;
      }
    }
  }
  std::printf("expected: pinning keeps migrations rare, so moderate penalties cost\n"
              "little; very expensive migration erodes multi-GPU throughput, which\n"
              "is why the paper's testbed pairs cellular batching with NVLink.\n");
}

}  // namespace
}  // namespace batchmaker

int main(int argc, char** argv) {
  using namespace batchmaker;

  bool numa_only = false;
  bool smoke = false;
  std::string out_path = "BENCH_numa.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--numa-only") == 0) {
      numa_only = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  if (!numa_only) {
    MigrationPenaltySweep();
  }
  NumaSweep(out_path, /*requests=*/smoke ? 96 : 256);
  return 0;
}
