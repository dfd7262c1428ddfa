// PaddingSystem: the TensorFlow/MXNet-style baseline (paper §2.3, §7.1).
//
// Requests are assigned to buckets by sequence length (bucket i handles
// lengths in (i*width, (i+1)*width]); one dataflow graph is materialized
// per bucket, so a batch executes the bucket's full (padded) length.
// Buckets are served round-robin; per the paper's tuned configuration
// there is no batching timeout: "even if it's not full, a batch can start
// execution (as a smaller batch) as long as some GPU device is idle and it
// is the batch's turn to execute according to the round-robin policy."
//
// Graph-batching semantics: every request in a batch starts and finishes
// with the batch.

#ifndef SRC_BASELINES_PADDING_SYSTEM_H_
#define SRC_BASELINES_PADDING_SYSTEM_H_

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

struct PaddingSystemOptions {
  int bucket_width = 10;
  int max_len = 330;
  int max_batch = 512;
  int num_workers = 1;
  // false (default): pad to the longest request in the batch — this is the
  // semantics the paper's own arithmetic implies (§7.3 computes the
  // fixed-length-24 baseline ceiling from 24 steps, not the bucket top of
  // 30; under load the longest-in-batch approaches the bucket top anyway,
  // matching "a request of length 21 will be padded to length 30").
  // true: always execute the bucket's materialized full-length graph.
  bool pad_to_bucket_top = false;
  // Per-step kernel-launch overhead (the batch stays contiguous across
  // steps, so there is no per-step gather).
  double per_step_overhead_micros = kPaddingTaskOverheadMicros;
  // Chain step cost; also the Seq2Seq encoder step cost.
  CostCurve step_curve = GpuLstmCurve();
  // Seq2Seq decoder step cost (used for kSeq2Seq items only).
  CostCurve decoder_curve = GpuDecoderCurve();
};

class PaddingSystem : public ServingSystem {
 public:
  explicit PaddingSystem(PaddingSystemOptions options, std::string name = "Padding");

  void SubmitAt(double at_micros, const WorkItem& item) override;
  void Run(double deadline_micros) override;
  const MetricsCollector& metrics() const override { return metrics_; }
  size_t NumUnfinished() const override { return pending_count_ + inflight_count_; }
  std::string Name() const override { return name_; }

  int NumBuckets() const { return static_cast<int>(buckets_.size()); }

  // Exposed for tests: the padded execution cost of a batch of `batch`
  // requests whose bucket pads to `steps` chain steps, plus `dec_steps`
  // decoder steps (0 for pure chains).
  double BatchCostMicros(int batch, int steps, int dec_steps) const;

 private:
  struct Pending {
    RequestId id;
    double arrival_micros;
    WorkItem item;
  };

  void OnArrival();
  void TryDispatch(int worker);
  void OnBatchDone(const BatchedTask& task);

  PaddingSystemOptions options_;
  std::string name_;
  EventQueue events_;
  std::unique_ptr<SimWorkerPool> pool_;  // tasks carry explicit costs
  MetricsCollector metrics_;

  std::vector<std::deque<Pending>> buckets_;
  int rr_next_ = 0;
  size_t pending_count_ = 0;
  size_t inflight_count_ = 0;
  RequestId next_id_ = 1;
  uint64_t next_task_id_ = 0;
  // Requests carried by each in-flight batch.
  std::unordered_map<uint64_t, std::vector<Pending>> inflight_;
};

}  // namespace batchmaker

#endif  // SRC_BASELINES_PADDING_SYSTEM_H_
