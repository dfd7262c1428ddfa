// GraphMergeSystem: the TensorFlow Fold / DyNet-style baseline (paper §2.3,
// §7.5).
//
// The system collects up to `max_batch_requests` input graphs, generates
// and merges their dataflow graphs (a CPU-side construction step), then
// executes the merged graph level by level: all cells of the same type at
// the same depth-from-leaves form one batched kernel. The whole merged
// batch completes together (graph batching).
//
// Graph construction overlaps with GPU execution of the previous batch, as
// in the paper's optimized TensorFlow Fold configuration (§7.5); pipeline
// throughput is therefore bounded by max(construction, execution).
// Style presets:
//   * Fold:  large per-node construction cost and ~20% slower kernels
//            (only runs on TF v1.0 / CUDA 8.0);
//   * DyNet: much cheaper construction, but batching at single-operator
//            granularity adds a per-level launch overhead.

#ifndef SRC_BASELINES_GRAPH_MERGE_SYSTEM_H_
#define SRC_BASELINES_GRAPH_MERGE_SYSTEM_H_

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/runtime/cost_model.h"
#include "src/runtime/event_queue.h"
#include "src/runtime/sim_worker.h"
#include "src/sim/serving_system.h"

namespace batchmaker {

struct GraphMergeOptions {
  int max_batch_requests = 64;
  // CPU-side graph construction + merging cost per dataflow node.
  double construct_per_node_micros = 2.0;
  // Fixed launch overhead per batched level kernel.
  double per_level_overhead_micros = 30.0;
  // Kernel cost per batched cell level.
  CostCurve cell_curve = GpuTreeCellCurve();

  // Paper-calibrated presets (§7.5; see EXPERIMENTS.md for derivation).
  static GraphMergeOptions Fold();
  static GraphMergeOptions DyNet();
};

class GraphMergeSystem : public ServingSystem {
 public:
  explicit GraphMergeSystem(GraphMergeOptions options, std::string name);

  void SubmitAt(double at_micros, const WorkItem& item) override;
  void Run(double deadline_micros) override;
  const MetricsCollector& metrics() const override { return metrics_; }
  size_t NumUnfinished() const override { return pending_.size() + inflight_count_; }
  std::string Name() const override { return name_; }

  // Exposed for tests: per-level batched node counts of a merged batch
  // (index = depth-from-leaves; leaves at level 0 count separately from
  // internal cells at level >= 1).
  static std::vector<int> MergedLevelCounts(const std::vector<WorkItem>& batch);

 private:
  struct Pending {
    RequestId id;
    double arrival_micros;
    WorkItem item;
  };

  void TryStartConstruction();
  void OnConstructionDone(std::vector<Pending> batch);
  void OnBatchDone(const BatchedTask& task);

  GraphMergeOptions options_;
  std::string name_;
  EventQueue events_;
  std::unique_ptr<SimWorkerPool> pool_;  // 1 GPU worker; tasks carry explicit costs
  MetricsCollector metrics_;

  std::deque<Pending> pending_;
  bool constructing_ = false;
  size_t inflight_count_ = 0;  // requests constructed or executing
  RequestId next_id_ = 1;
  uint64_t next_task_id_ = 0;
  struct InflightBatch {
    std::vector<Pending> requests;
    double exec_start = -1.0;
  };
  std::unordered_map<uint64_t, InflightBatch> inflight_;
};

}  // namespace batchmaker

#endif  // SRC_BASELINES_GRAPH_MERGE_SYSTEM_H_
