// SyncEngine: single-threaded real-compute engine.
//
// Drives the same RequestProcessor/Scheduler/BatchAssembler code path as
// the threaded server, but executes tasks inline on the calling thread.
// Useful for deterministic numerical tests and simple batch-oriented
// applications; requests submitted together are batched cell-by-cell
// exactly as the scheduler dictates. It is the serial bitwise reference
// the threaded Server's outputs are tested against, so it accepts the
// same SubmitOptions and produces the same Response shape — determinism
// and robustness tests drive all three engines through one code path.

#ifndef SRC_CORE_SYNC_ENGINE_H_
#define SRC_CORE_SYNC_ENGINE_H_

#include <chrono>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/batch_assembler.h"
#include "src/core/engine_options.h"
#include "src/core/request_processor.h"
#include "src/core/scheduler.h"
#include "src/graph/cell_registry.h"
#include "src/obs/trace.h"
#include "src/tensor/arena.h"

namespace batchmaker {

class SyncEngine {
 public:
  explicit SyncEngine(const CellRegistry* registry, SchedulerOptions options = {});

  // Admits a request. `outputs_wanted` name the values to return on
  // completion (each must reference a node output of `graph`). Returns the
  // request id. Of SubmitOptions, terminate_after_node is honoured
  // (remaining cells are cancelled once that node completes);
  // deadline_micros and priority are accepted but ignored — the engine has
  // no queueing clock to shed against and no shards to steal across.
  RequestId Submit(CellGraph graph, std::vector<Tensor> externals,
                   std::vector<ValueRef> outputs_wanted, SubmitOptions opts = {});

  // Runs scheduling + execution until all admitted requests complete.
  void RunToCompletion();

  // Fetches (and removes) the terminal response of a request: its status
  // and, for kOk, the outputs requested at submission (outputs whose
  // producing node was cancelled by early termination are skipped, same
  // rule as the Server). Aborts if the request has not reached a terminal
  // state — run RunToCompletion() first.
  Response TakeResponse(RequestId id);

  // Tasks executed so far (to observe batching behaviour in tests).
  int64_t TasksExecuted() const { return tasks_executed_; }
  // Batch size of every executed task, in execution order.
  const std::vector<int>& TaskBatchSizes() const { return task_batch_sizes_; }

  // Event trace (real micros since construction); off until
  // trace().Enable().
  const TraceRecorder& trace() const { return trace_; }
  TraceRecorder& trace() { return trace_; }

  // Engine-wide GEMM precision for subsequent task execution (same knob as
  // EngineOptions::precision on the Server; per-cell
  // CellRegistry::SetPrecision overrides win). Default fp32 keeps the
  // bitwise reference behaviour.
  void set_precision(Precision precision) { precision_ = precision; }
  Precision precision() const { return precision_; }

 private:
  double NowMicros() const;

  const CellRegistry* registry_;
  TraceRecorder trace_;
  std::chrono::steady_clock::time_point start_time_;
  std::unique_ptr<RequestProcessor> processor_;
  std::unique_ptr<Scheduler> scheduler_;
  BatchAssembler assembler_;
  // Scratch arena for gather buffers and cell intermediates, recycled per
  // task. No ThreadPool: SyncEngine is the serial bitwise reference that
  // the threaded server's outputs are tested against.
  TensorArena arena_;
  Precision precision_ = Precision::kF32;
  RequestId next_request_id_ = 1;
  int64_t tasks_executed_ = 0;
  std::vector<int> task_batch_sizes_;
  std::unordered_map<RequestId, std::vector<ValueRef>> outputs_wanted_;
  std::unordered_map<RequestId, Response> completed_;
  // request id -> node whose completion triggers cancellation.
  std::unordered_map<RequestId, int> terminate_after_;
};

}  // namespace batchmaker

#endif  // SRC_CORE_SYNC_ENGINE_H_
