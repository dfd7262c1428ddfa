// SimEngine: BatchMaker running against the virtual-time device model.
//
// This drives the Server's manager policy — one ShardCore per shard
// (src/core/shard_core.h: RequestProcessor + Scheduler, refill, deadline
// shedding, early termination, stealing) — against a SimWorkerPool whose
// task durations come from a CostModel. It is the engine behind every
// throughput/latency experiment in EXPERIMENTS.md: the scheduling
// decisions are made by exactly the same code as the real-compute server,
// only "kernel execution" is simulated.
//
// The driver is an event loop: arrivals, task completions, cross-shard
// messages (delivered as events at the current virtual instant, so each
// shard handles them in the Server's order) and one wake event per shard
// at its ShardCore::NextWakeMicros(). It is single-threaded, so the
// sharded policy runs deterministically in virtual time — which is how the
// policy itself gets reproducible tests.

#ifndef SRC_CORE_SIM_ENGINE_H_
#define SRC_CORE_SIM_ENGINE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "src/core/engine_options.h"
#include "src/core/metrics.h"
#include "src/core/scheduler.h"
#include "src/core/shard_core.h"
#include "src/graph/cell_registry.h"
#include "src/obs/trace.h"
#include "src/runtime/cost_model.h"
#include "src/runtime/event_queue.h"
#include "src/runtime/sim_worker.h"

namespace batchmaker {

// Simulator configuration. The common engine core (workers, shards,
// pipeline_depth, scheduler, tracing, admission) lives in EngineOptions;
// see src/core/engine_options.h.
struct SimEngineOptions : EngineOptions {
  // Virtual time has no completion→manager→schedule latency to hide: a
  // deeper stream buys nothing and *costs* batching (tasks form earlier,
  // before would-be joiners arrive), so the simulator's watermark defaults
  // to 1 — schedule only when a stream drains — and existing simulated
  // figures stay byte-identical. Depth >= 2 models a runtime that
  // pipelines task submission and exposes that trade-off in virtual time.
  SimEngineOptions() { pipeline_depth = 1; }
};

class SimEngine {
 public:
  SimEngine(const CellRegistry* registry, const CostModel* cost_model,
            SimEngineOptions options = {});

  // Schedules a request arrival at virtual time `at_micros` (>= current
  // virtual time). Returns the request id. Per-request parameters
  // (deadline override, terminate_after_node, priority) ride in `opts`;
  // the sim has no token values, so early termination is declared up front
  // via SubmitOptions::terminate_after_node.
  RequestId SubmitAt(double at_micros, CellGraph graph, SubmitOptions opts = {});

  // Runs the simulation until all events are processed, or until virtual
  // time reaches `deadline_micros`.
  void Run(double deadline_micros = std::numeric_limits<double>::infinity());

  EventQueue& events() { return events_; }
  const MetricsCollector& metrics() const { return metrics_; }
  const SimWorkerPool& workers() const { return *pool_; }
  // Shard 0's scheduler (the only shard unless num_shards > 1). Aggregate
  // across shards with TotalTasksFormed()/TotalMigrations() instead.
  const Scheduler& scheduler() const { return shards_[0]->scheduler(); }
  size_t NumActiveRequests() const;
  // Effective shard count (num_shards clamped to [1, num_workers]).
  int num_shards() const { return num_shards_; }
  // Requests migrated across shards (donated to a hungry shard).
  int64_t StealsExecuted() const { return metrics_.TotalSteals(); }
  int64_t TotalTasksFormed() const;
  int64_t TotalMigrations() const;

  // Event trace (virtual-time timestamps); enable via
  // EngineOptions::enable_tracing or trace().Enable().
  const TraceRecorder& trace() const { return trace_; }
  TraceRecorder& trace() { return trace_; }

 private:
  // The one live wake event of a shard: armed at `at` (+inf = none);
  // events of older generations were superseded and do nothing.
  struct WakeTimer {
    double at = std::numeric_limits<double>::infinity();
    uint64_t generation = 0;
  };

  // Ends one step of shard `shard`: dispatches the tasks its core formed
  // to the worker pool, then arms its wake event if it moved earlier.
  void Settle(int shard);
  // Hands the tasks `core` formed to their workers' streams.
  void Dispatch(ShardCore& core);
  ShardCore& ShardOfWorker(int worker);

  int num_shards_ = 1;
  EventQueue events_;
  MetricsCollector metrics_;
  TraceRecorder trace_;
  std::vector<std::unique_ptr<ShardCore>> shards_;
  std::vector<WakeTimer> wakes_;
  std::vector<int> shard_of_worker_;
  std::unique_ptr<SimWorkerPool> pool_;
  RequestId next_request_id_ = 1;
};

}  // namespace batchmaker

#endif  // SRC_CORE_SIM_ENGINE_H_
