// Shared scenario setup for the figure-reproduction benchmarks.
//
// Cell tensors are tiny (hidden size 4) because the simulated experiments
// never execute tensor math: scheduling structure and the cost model (which
// encodes the paper's h=1024 V100 timings) are what matter. The real-compute
// path is exercised by the tests and examples instead.

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/graph_merge_system.h"
#include "src/baselines/ideal_system.h"
#include "src/baselines/padding_system.h"
#include "src/nn/lstm.h"
#include "src/nn/seq2seq.h"
#include "src/sim/batchmaker_system.h"
#include "src/sim/loadgen.h"
#include "src/util/json.h"
#include "src/util/string_util.h"
#include "src/util/topology.h"
#include "src/workload/datasets.h"

namespace batchmaker {
namespace bench {

// ---------- LSTM (Figures 7, 8, 9, 11) ----------

struct LstmScenario {
  LstmScenario()
      : rng(1), model(&registry, LstmSpec{.input_dim = 4, .hidden = 4}, &rng) {
    cost.SetCurve(model.cell_type(), GpuLstmCurve());
    cost.SetPerTaskOverheadMicros(kBatchMakerTaskOverheadMicros);
    cost.SetPerItemOverheadMicros(kBatchMakerPerItemOverheadMicros);
  }

  SystemFactory BatchMakerFactory(int max_batch = 512, int num_workers = 1) {
    registry.SetMaxBatch(model.cell_type(), max_batch);
    return [this, num_workers] {
      SimEngineOptions options;
      options.num_workers = num_workers;
      return std::make_unique<BatchMakerSystem>(
          &registry, &cost,
          [this](const WorkItem& item) { return model.Unfold(item.length); }, options,
          "BatchMaker");
    };
  }

  static SystemFactory PaddingFactory(const std::string& name, int bucket_width = 10,
                                      int max_batch = 512, int num_workers = 1) {
    return [name, bucket_width, max_batch, num_workers] {
      PaddingSystemOptions options;
      options.bucket_width = bucket_width;
      options.max_batch = max_batch;
      options.num_workers = num_workers;
      return std::make_unique<PaddingSystem>(options, name);
    };
  }

  CellRegistry registry;
  Rng rng;
  LstmModel model;
  CostModel cost;
};

// ---------- Seq2Seq (Figure 13) ----------

struct Seq2SeqScenario {
  Seq2SeqScenario()
      : rng(2),
        model(&registry, Seq2SeqSpec{.vocab = 64, .embed_dim = 4, .hidden = 4}, &rng) {
    cost.SetCurve(model.encoder_type(), GpuLstmCurve());
    cost.SetCurve(model.decoder_type(), GpuDecoderCurve());
    cost.SetPerTaskOverheadMicros(kBatchMakerTaskOverheadMicros);
    cost.SetPerItemOverheadMicros(kBatchMakerPerItemOverheadMicros);
  }

  // BatchMaker-x,y: maximum batch x for the encoder, y for the decoder.
  SystemFactory BatchMakerFactory(int enc_batch, int dec_batch, int num_workers) {
    registry.SetMaxBatch(model.encoder_type(), enc_batch);
    registry.SetMaxBatch(model.decoder_type(), dec_batch);
    const std::string name =
        "BatchMaker-" + std::to_string(enc_batch) + "," + std::to_string(dec_batch);
    return [this, num_workers, name] {
      SimEngineOptions options;
      options.num_workers = num_workers;
      return std::make_unique<BatchMakerSystem>(
          &registry, &cost,
          [this](const WorkItem& item) { return model.Unfold(item.src_len, item.dec_len); },
          options, name);
    };
  }

  // Graph batching requires one batch size for the whole graph; the paper
  // uses 256 (decoder-optimal) for the baselines.
  static SystemFactory PaddingFactory(const std::string& name, int num_workers,
                                      int max_batch = 256) {
    return [name, num_workers, max_batch] {
      PaddingSystemOptions options;
      options.max_batch = max_batch;
      options.num_workers = num_workers;
      return std::make_unique<PaddingSystem>(options, name);
    };
  }

  CellRegistry registry;
  Rng rng;
  Seq2SeqModel model;
  CostModel cost;
};

// ---------- TreeLSTM (Figures 14, 15) ----------

struct TreeScenario {
  TreeScenario()
      : rng(3),
        model(&registry, TreeLstmSpec{.vocab = 64, .embed_dim = 4, .hidden = 4}, &rng) {
    cost.SetCurve(model.leaf_type(), GpuTreeCellCurve());
    cost.SetCurve(model.internal_type(), GpuTreeCellCurve());
    cost.SetPerTaskOverheadMicros(kBatchMakerTaskOverheadMicros);
    cost.SetPerItemOverheadMicros(kBatchMakerPerItemOverheadMicros);
    // "BatchMaker is also configured to limit the number of batched cells
    // in a task to 64" (§7.5).
    registry.SetMaxBatch(model.leaf_type(), 64);
    registry.SetMaxBatch(model.internal_type(), 64);
  }

  SystemFactory BatchMakerFactory() {
    return [this] {
      return std::make_unique<BatchMakerSystem>(
          &registry, &cost,
          [this](const WorkItem& item) { return model.Unfold(item.tree); },
          SimEngineOptions{}, "BatchMaker");
    };
  }

  static SystemFactory FoldFactory() {
    return [] {
      return std::make_unique<GraphMergeSystem>(GraphMergeOptions::Fold(), "TF-Fold");
    };
  }

  static SystemFactory DyNetFactory() {
    return [] {
      return std::make_unique<GraphMergeSystem>(GraphMergeOptions::DyNet(), "DyNet");
    };
  }

  static SystemFactory IdealFactory(int num_leaves = 16) {
    return [num_leaves] {
      IdealSystemOptions options;
      options.num_leaves = num_leaves;
      return std::make_unique<IdealFixedGraphSystem>(options, "Ideal");
    };
  }

  CellRegistry registry;
  Rng rng;
  TreeLstmModel model;
  CostModel cost;
};

// ---------- Timing ----------

// Measures fn with `warmup` untimed runs followed by `iters` individually
// timed runs, and returns the 20%-trimmed mean in nanoseconds per run.
// Trimming both tails makes the number robust against the two failure modes
// of mean-of-total timing on a shared machine: cold-cache/frequency-ramp
// outliers at the start and preemption spikes anywhere.
inline double MeasureTrimmedNs(int warmup, int iters, const std::function<void()>& fn) {
  for (int i = 0; i < warmup; ++i) {
    fn();
  }
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto end = std::chrono::steady_clock::now();
    samples.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count()));
  }
  std::sort(samples.begin(), samples.end());
  const size_t trim = samples.size() / 5;  // 20% total: 10% off each tail
  const size_t lo = trim / 2;
  const size_t hi = samples.size() - (trim - trim / 2);
  double sum = 0.0;
  for (size_t i = lo; i < hi; ++i) {
    sum += samples[i];
  }
  return sum / static_cast<double>(hi - lo);
}

// One machine-readable benchmark row for the BENCH_*.json files.
struct BenchRecord {
  std::string op;     // e.g. "gemm_packed"
  std::string shape;  // e.g. "m=512,k=1024,n=4096"
  int64_t batch = 0;
  double ns_per_iter = 0.0;
  double gflops = 0.0;       // 0 when FLOP/s is not meaningful for the op
  std::string precision;     // fp32/bf16/int8; empty = fp32 (pre-existing rows)
  std::string kernel;        // dispatched GEMM kernel name, e.g. "avx512_vnni_int8"
};

// Host topology header for BENCH_*.json files: records where a run was
// produced, so a reader can tell numbers from mismatched machines apart.
inline Json TopologyJson() {
  const Topology topo = DiscoverTopology();
  JsonObject header;
  header["nodes"] = static_cast<int64_t>(topo.nodes.size());
  header["cpus"] = static_cast<int64_t>(topo.num_cpus);
  header["from_sysfs"] = topo.from_sysfs;
  JsonArray cpus_per_node;
  for (const NumaNode& node : topo.nodes) {
    JsonObject entry;
    entry["id"] = static_cast<int64_t>(node.id);
    entry["cpus"] = static_cast<int64_t>(node.cpus.size());
    cpus_per_node.emplace_back(std::move(entry));
  }
  header["cpus_per_node"] = Json(std::move(cpus_per_node));
  return Json(std::move(header));
}

inline void WriteBenchJson(const std::string& path, const std::string& bench_name,
                           const std::vector<BenchRecord>& records) {
  JsonArray rows;
  for (const BenchRecord& r : records) {
    JsonObject row;
    row["op"] = r.op;
    row["shape"] = r.shape;
    row["batch"] = r.batch;
    row["ns_per_iter"] = r.ns_per_iter;
    row["gflops"] = r.gflops;
    if (!r.precision.empty()) {
      row["precision"] = r.precision;
    }
    if (!r.kernel.empty()) {
      row["kernel"] = r.kernel;
    }
    rows.emplace_back(std::move(row));
  }
  JsonObject doc;
  doc["bench"] = bench_name;
  doc["topology"] = TopologyJson();
  doc["results"] = Json(std::move(rows));
  std::ofstream out(path);
  out << Json(std::move(doc)).Dump(2) << "\n";
  std::printf("wrote %s (%zu rows)\n", path.c_str(), records.size());
}

// ---------- Reporting ----------

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintSweep(const std::string& title, const std::vector<LoadPoint>& points) {
  PrintHeader(title);
  std::fputs(FormatLoadTable(points).c_str(), stdout);
}

// Runs one system factory over a rate sweep and prints the series.
inline std::vector<LoadPoint> SweepAndPrint(const std::string& title,
                                            const SystemFactory& factory,
                                            const std::vector<WorkItem>& dataset,
                                            const std::vector<double>& rates,
                                            const LoadGenOptions& options = {}) {
  const auto points = SweepLoad(factory, dataset, rates, options);
  PrintSweep(title, points);
  return points;
}

inline std::vector<double> Rates(std::initializer_list<double> rates) { return rates; }

}  // namespace bench
}  // namespace batchmaker

#endif  // BENCH_BENCH_COMMON_H_
