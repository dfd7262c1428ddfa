// Structured event tracing for the serving engines (observability layer).
//
// The paper's analysis lives and dies on *where time goes* — Figure 5's
// execution timeline and Figure 9's queueing/computation breakdown — so the
// engines record typed events at every stage of a request's life:
// arrival, subgraph enqueue, batched-task formation (with the Algorithm 1
// criterion that chose the cell type), per-worker execution spans, subgraph
// migration, cancellation, completion and drop. The recorder also keeps
// aggregate counters, a batch-size histogram and a worker-occupancy
// histogram.
//
// Design constraints:
//   * Thread-aware: the threaded Server records from its manager and worker
//     threads concurrently. Events land in a small set of mutex-guarded
//     shards selected by thread id, so recording threads rarely contend.
//   * Near-zero cost when disabled: every Record* method first reads one
//     relaxed atomic flag and returns; no clock read, no lock, no
//     allocation. Engines keep tracing off by default.
//   * Engine-agnostic clock: timestamps are microseconds supplied by a
//     caller-provided ClockFn (virtual time for SimEngine, steady-clock
//     micros for Server/SyncEngine), so one trace format covers both.
//
// Export to the Chrome trace_event JSON format (chrome://tracing, Perfetto)
// lives in src/obs/trace_export.h.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "src/runtime/task.h"

namespace batchmaker {

enum class TraceEventKind : uint8_t {
  kRequestArrival = 0,  // id = request, value = num cell-graph nodes
  kSubgraphEnqueue,     // id = request, type, value = ready nodes released
  kTaskFormed,          // id = task, type, worker, value = batch size, criterion
  kExecBegin,           // id = task, type, worker, value = batch size
  kExecEnd,             // id = task, type, worker, value = batch size
  kMigration,           // id = request, worker = destination, value = source
  kCancellation,        // id = request, value = nodes cancelled
  kRequestComplete,     // id = request, aux_micros = first-exec timestamp
  kRequestDrop,         // id = request (shed before execution started)
  kStreamRefill,        // worker, value = tasks pushed onto its FIFO stream
  kGatherBegin,         // id = task, type, worker, value = batch size
  kGatherEnd,           // id = task, type, worker, value = batch size
  kWorkerIdle,          // worker; ts = gap begin, aux_micros = gap end
  kRequestReject,       // id = request (refused at admission, never admitted)
  kTaskFailed,          // id = task, type, worker, value = batch size
  kShardSteal,          // id = request, shard = thief, value = victim shard
  kBatchDelayed,        // type, worker, value = batch size, aux = delay micros
  kCostModelRefit,      // type, id = observations, value = fitted anchors
  kGemmKernel,          // value = Precision enum value; once per engine start
  kWorkerPinned,        // worker; value = NUMA node index, id = 1 if pinned
  kWorkerQuarantine,    // worker; value = tasks requeued, id = 1 if dead
  kWorkerReadmit,       // worker; aux_micros = quarantine-entry timestamp
  kWorkerRespawn,       // worker (dead exec thread replaced)
};
inline constexpr int kNumTraceEventKinds = 23;

// Name for logs/export, e.g. "request_arrival".
const char* TraceEventKindName(TraceEventKind kind);

// Which Algorithm 1 criterion selected a task's cell type:
// (a) full batch available, (b) ready work for a type with no running
// tasks, (c) any ready work.
enum class SchedCriterion : uint8_t {
  kFullBatch = 0,
  kStarvedType = 1,
  kAnyReady = 2,
  kNone = 3,  // event kinds other than kTaskFormed
};
const char* SchedCriterionName(SchedCriterion criterion);

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kRequestArrival;
  SchedCriterion criterion = SchedCriterion::kNone;
  CellTypeId type = kInvalidCellType;
  int worker = -1;
  double ts_micros = 0.0;
  // Secondary timestamp; kRequestComplete: when the request's first task
  // began executing (-1 if it never executed), so queueing/compute stages
  // can be derived from the trace alone.
  double aux_micros = -1.0;
  uint64_t id = 0;  // request id or task id, per kind
  int value = 0;    // kind-specific payload (batch size, node count, ...)
  // Manager shard the event belongs to (sharded manager, DESIGN.md); -1 on
  // single-manager engines and on threads with no shard affinity. Stamped
  // automatically from the recording thread's shard tag (SetThreadShard)
  // unless the Record* method set it explicitly (kShardSteal).
  int shard = -1;
};

class TraceRecorder {
 public:
  using ClockFn = std::function<double()>;

  // `clock` supplies default timestamps (micros). Recording starts disabled;
  // call Enable(). A recorder without a clock requires the explicit-ts
  // Record* overloads.
  explicit TraceRecorder(ClockFn clock = nullptr);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void set_clock(ClockFn clock) { clock_ = std::move(clock); }

  // ---- Event recording (all no-ops while disabled, all thread-safe) ----
  // Overloads without `ts` stamp the event with the clock.

  void RequestArrival(double ts, RequestId id, int num_nodes);
  void RequestArrival(RequestId id, int num_nodes);
  void SubgraphEnqueue(RequestId id, CellTypeId type, int ready_nodes);
  void TaskFormed(uint64_t task_id, CellTypeId type, int worker, int batch_size,
                  SchedCriterion criterion);
  void ExecBegin(double ts, uint64_t task_id, CellTypeId type, int worker, int batch_size);
  void ExecBegin(uint64_t task_id, CellTypeId type, int worker, int batch_size);
  void ExecEnd(uint64_t task_id, CellTypeId type, int worker, int batch_size);
  // Pipelined worker streams (see DESIGN.md "Pipelined worker streams"):
  // the manager refilled a worker's stream with `num_tasks` tasks...
  void StreamRefill(int worker, int num_tasks);
  // ...a worker's exec thread gathered a task's inputs...
  void GatherBegin(uint64_t task_id, CellTypeId type, int worker, int batch_size);
  void GatherEnd(uint64_t task_id, CellTypeId type, int worker, int batch_size);
  // ...and a worker's execution thread sat idle between tasks for the span
  // [begin, end) — the gap the watermark protocol exists to shrink.
  void WorkerIdle(double begin_micros, double end_micros, int worker);
  void Migration(RequestId id, int from_worker, int to_worker);
  void Cancellation(RequestId id, int nodes_cancelled);
  void RequestComplete(RequestId id, double exec_start_micros);
  void RequestDrop(RequestId id);
  // Overload/failure robustness: a submission refused at admission
  // (validation failure, bounded queue full, or shutdown race)...
  void RequestReject(RequestId id);
  // ...and a batched task whose execution failed (fault injection or a
  // thrown cell error); its innocent entries are reverted and requeued.
  void TaskFailed(uint64_t task_id, CellTypeId type, int worker, int batch_size);
  // Sharded manager: request `id` migrated from shard `from_shard` to
  // `to_shard` through the work-stealing protocol (recorded by the thief
  // when it adopts the request).
  void ShardSteal(RequestId id, int from_shard, int to_shard);
  // Slack-aware batch formation (DESIGN.md): a deferred cell type finally
  // launched a batch after `delay_micros` of deliberate waiting...
  void BatchDelayed(CellTypeId type, int worker, double delay_micros, int batch_size);
  // ...and the online cost model re-fitted a cell type's cost curve from
  // `observations` cumulative measured exec spans.
  void CostModelRefit(CellTypeId type, int num_anchors, int64_t observations);
  // Low-precision execution metadata, recorded once at engine start:
  // `precision` is the engine-wide Precision enum value. The trace export
  // resolves it to the precision/kernel names at export time, so a silent
  // fallback-to-scalar dispatch is diagnosable from the artifact alone.
  void GemmKernelInfo(int precision);
  // NUMA placement metadata, recorded once per worker at thread start
  // (numa_policy != none): which node index the worker was assigned and
  // whether the affinity mask actually took (false = the node's cpus were
  // excluded by taskset/cgroups and the worker runs unpinned).
  void WorkerPinned(int worker, int numa_node, bool pinned);
  // Worker failure domains (DESIGN.md): the watchdog quarantined a worker
  // (`dead` = its exec thread exited, vs hung) and its shard requeued
  // `tasks_requeued` in-flight tasks...
  void WorkerQuarantine(int worker, bool dead, int tasks_requeued);
  // ...the worker passed a recovery probe and re-admitted to scheduling
  // (`since_micros` = when it was quarantined, so time-to-recovery is
  // derivable from the trace alone)...
  void WorkerReadmit(int worker, double since_micros);
  // ...and a dead exec thread was respawned.
  void WorkerRespawn(int worker);

  // Tags the calling thread with a manager-shard id: every event recorded
  // from this thread carries it in TraceEvent::shard (unless the event set
  // its own). Engines tag their shard manager threads and workers once at
  // thread start; -1 clears the tag.
  static void SetThreadShard(int shard);
  static int ThreadShard();

  // ---- Aggregates (thread-safe) ----

  int64_t Count(TraceEventKind kind) const;
  size_t NumEvents() const;
  // Tasks whose batch size fell in [2^i, 2^(i+1)) for bucket i (bucket 0 is
  // batch size 1); the last bucket absorbs overflow.
  static constexpr int kBatchSizeBuckets = 12;
  int64_t BatchSizeBucket(int bucket) const;
  // Distribution of "how many workers were busy" sampled at each exec
  // begin (inclusive of the starting worker). Index w = w workers busy.
  static constexpr int kMaxOccupancy = 64;
  int64_t OccupancyBucket(int busy_workers) const;

  // Snapshot of all events, stably sorted by timestamp. Thread-safe, but
  // meant for after (or outside) the traced run.
  std::vector<TraceEvent> SortedEvents() const;

  void Clear();

 private:
  static constexpr int kNumShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::vector<TraceEvent> events;
  };

  void Record(TraceEvent event);
  double NowMicros() const { return clock_ ? clock_() : 0.0; }

  std::atomic<bool> enabled_{false};
  ClockFn clock_;
  std::array<Shard, kNumShards> shards_;
  std::array<std::atomic<int64_t>, kNumTraceEventKinds> counts_{};
  std::array<std::atomic<int64_t>, kBatchSizeBuckets> batch_hist_{};
  std::array<std::atomic<int64_t>, kMaxOccupancy + 1> occupancy_hist_{};
  std::atomic<int> busy_workers_{0};
};

}  // namespace batchmaker

#endif  // SRC_OBS_TRACE_H_
