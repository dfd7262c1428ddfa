// Scheduler: a faithful implementation of the paper's Algorithm 1
// ("Scheduling and Batching Algorithm", §4.3).
//
// For each cell type the scheduler keeps a queue of released subgraphs.
// Schedule(worker) picks a cell type by three criteria in order —
//   (a) types whose ready-node count reaches the type's maximum batch size,
//   (b) types with ready nodes but no running tasks,
//   (c) any type with ready nodes,
// breaking ties by cell priority — then forms up to MaxTasksToSubmit
// batched tasks from that type's subgraphs. Subgraphs touched by a task are
// pinned to the worker until all their in-flight tasks complete, which (with
// FIFO worker streams) guarantees cross-task data dependencies and
// preserves locality.

#ifndef SRC_CORE_SCHEDULER_H_
#define SRC_CORE_SCHEDULER_H_

#include <functional>
#include <limits>
#include <list>
#include <unordered_map>
#include <vector>

#include "src/core/request.h"
#include "src/core/request_processor.h"
#include "src/graph/cell_registry.h"
#include "src/obs/trace.h"
#include "src/runtime/task.h"

namespace batchmaker {

class CostModel;

// SLA-aware batch formation (DESIGN.md "SLA-aware batch formation"): when
// enabled, Schedule(worker, now) may *delay* a candidate cell type whose
// tightest per-node slack (deadline − now − estimated remaining
// critical-path cost from the cost model) comfortably covers waiting for a
// bigger batch, and *launch early* when the tightest deadline demands it.
// Engines embed this in EngineOptions::batch_policy.
struct BatchPolicyOptions {
  // Master switch. Off (the default) reproduces Algorithm 1's greedy
  // policy byte-for-byte — the new code paths are never entered.
  bool slack_batching = false;
  // Starvation bound: a cell type may be deferred at most this long past
  // its first deferral before it launches regardless of slack. 0 also
  // reproduces the greedy policy byte-for-byte even with slack_batching
  // set.
  double max_delay_micros = 2000.0;
  // Waiting must grow the batch cheaply: defer only while doubling the
  // formable batch improves per-item cost by at least this fraction
  // (i.e. the cost curve is still in its sub-linear region).
  double min_efficiency_gain = 0.05;
};

struct SchedulerOptions {
  // Algorithm 1's MaxTasksToSubmit: how many tasks one Schedule() call may
  // submit to a worker. Small values let new requests join sooner; larger
  // values reduce scheduling overhead (paper default: 5).
  int max_tasks_to_submit = 5;
  // Failure recovery: how many times one node may be reverted out of a
  // failed task as an innocent co-batched entry before its request is
  // terminated with kFailed. Bounds retry work under a deterministic fault
  // (e.g. an injector pinned to a rate) so a request cannot requeue forever.
  int max_node_retries = 8;
};

class Scheduler {
 public:
  Scheduler(const CellRegistry* registry, RequestProcessor* processor,
            SchedulerOptions options = {});

  // Adds a released subgraph to its cell type's queue. Typically wired as
  // the RequestProcessor's on_subgraph_ready callback.
  void EnqueueSubgraph(Subgraph* sg);

  // Algorithm 1, Schedule(worker): forms batched tasks for an idle worker.
  // Returned tasks must be submitted to that worker's FIFO stream in order.
  // Candidate cell types are tried in criterion-major, priority-minor order;
  // a type whose ready nodes are all pinned to other workers is skipped in
  // favour of the next candidate, so an empty result means this worker has
  // no compatible ready work at all (the invariant HasCompatibleReadyWork
  // documents and the regression tests assert) — unless slack-aware batch
  // formation (set_batch_policy) chose to *delay* a type, in which case
  // NextLaunchMicros() reports when the engine must call Schedule again.
  // `now_micros` is the engine's current time (virtual or real); it is
  // only consulted by the slack policy and may be 0 when the policy is
  // off.
  std::vector<BatchedTask> Schedule(int worker, double now_micros = 0.0);

  // Must be called when a task finishes: updates pins and per-type running
  // counts, then propagates completion through the RequestProcessor (which
  // may release new subgraphs back into the scheduler).
  void OnTaskCompleted(const BatchedTask& task);

  // Must be called instead of OnTaskCompleted when a task's execution
  // failed. `failed_entries` are indices into task.entries that did not
  // execute (the whole task for an injected fault, a poisoned subset for a
  // downstream cascade); `victim_entry` (index, or -1 for none) names the
  // entry blamed for the fault — its request is terminated with kFailed
  // and its remaining nodes cancelled. Innocent failed entries are
  // reverted to pending, their subgraphs parked until every in-flight task
  // drains, then re-enqueued for re-execution (possibly on another
  // worker); entries reverted more than max_node_retries times escalate
  // their request to kFailed. Entries not listed in `failed_entries`
  // completed normally and are propagated as usual.
  void OnTaskFailed(const BatchedTask& task, const std::vector<int>& failed_entries,
                    int victim_entry);

  // Requeues a scheduled-but-never-executed task through the failure
  // machinery with no victim: every entry is reverted to pending as an
  // innocent and re-enqueued for execution elsewhere. This is the
  // quarantine reclaim path (DESIGN.md "Worker failure domains") — a hung
  // or dead worker's stream is drained back into the scheduler, so its
  // requests are delayed, never lost. Unlike OnTaskFailed, a reclaim does
  // not charge the per-node retry budget: the entry never executed, so any
  // number of reclaims (e.g. from flapping workers) can never escalate a
  // request to kFailed.
  void RequeueTask(const BatchedTask& task);

  // Called right before a parked subgraph is re-enqueued, with its
  // in-flight count at zero. The server uses this to purge the subgraph's
  // reverted nodes from the failing worker's poison set — by unpark time no
  // in-flight task can reference them, and after re-scheduling a stale
  // entry would mis-poison a healthy re-execution.
  using UnparkHook = std::function<void(Subgraph*)>;
  void set_unpark_hook(UnparkHook hook) { unpark_hook_ = std::move(hook); }

  // Early termination: cancels every not-yet-scheduled node of the request
  // (keeping queue and ready-node accounting consistent) and finalizes the
  // request if it has no in-flight work left. Safe to call for unknown or
  // already-finished ids (no-op). Returns the number of cancelled nodes.
  int CancelRequest(RequestId id);

  // Cross-shard stealing support (DESIGN.md "Sharded manager"): removes
  // every queued subgraph of `state` from the per-type queues, reversing
  // EnqueueSubgraph's accounting. Only legal for a never-scheduled request
  // (no pinning, no in-flight tasks, no parked subgraphs); the caller then
  // extracts the state with RequestProcessor::ReleaseRequest.
  void DetachRequest(RequestState* state);

  // Partitions the task-id space across shards: ids are seed, seed+stride,
  // seed+2*stride, ... so per-shard schedulers never collide (trace and
  // fault-injection ids stay globally unique). Call before any task forms.
  void SetTaskIdSpace(uint64_t seed, uint64_t stride);

  // Optional event tracing; pass null to detach. The recorder must outlive
  // the scheduler (engines own both).
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  // ---- SLA-aware batch formation (DESIGN.md) ----

  // Cost model feeding the slack policy (and nothing else): per-type
  // batch→micros estimates for the delay/launch decision and the
  // remaining-critical-path term of per-node slack. Must outlive the
  // scheduler; null (the default) disables the policy regardless of
  // set_batch_policy.
  void set_cost_model(const CostModel* cost_model) { cost_model_ = cost_model; }
  void set_batch_policy(const BatchPolicyOptions& policy) { policy_ = policy; }

  // Earliest instant at which a currently-deferred cell type must be
  // offered to Schedule again (its starvation budget ends or its tightest
  // deadline-driven launch instant arrives), +inf when nothing is
  // deferred. Engines wake their scheduling loop no later than this.
  double NextLaunchMicros() const;

  // Silences launch hints that have passed without a launch (their nodes
  // were pinned to busy workers or every worker was at its watermark), so
  // an engine's timed wait does not spin on a hint it cannot act on. The
  // deferral itself stays recorded: the next Schedule call that can form
  // the batch launches it immediately (budget exhausted ⇒ greedy).
  void ExpireLaunchHints(double now_micros);

  // Batches that launched after at least one deferral, and the total
  // micros they spent deferred (BatchDelayMicros counter).
  int64_t TotalDelayedLaunches() const { return delayed_launches_; }
  double TotalBatchDelayMicros() const { return total_delay_micros_; }

  // Introspection (tests, metrics).
  int NumReadyNodes(CellTypeId type) const;
  int NumRunningTasks(CellTypeId type) const;
  bool HasReadyWork() const;
  // True if some queued subgraph has ready nodes this worker may run (i.e.
  // unpinned or pinned to `worker`). Schedule(worker) returns tasks exactly
  // when this holds; O(queued subgraphs), intended for tests/diagnostics.
  bool HasCompatibleReadyWork(int worker) const;
  int64_t TotalTasksFormed() const { return tasks_formed_; }
  // Subgraphs whose consecutive tasks ran on different workers (each such
  // occurrence implies a cross-device state copy).
  int64_t TotalMigrations() const { return total_migrations_; }

 private:
  // Shared body of OnTaskFailed / RequeueTask. `charge_retries` is false
  // only for victimless quarantine reclaims, which skip both the retry
  // increment and the max_node_retries escalation.
  void FailTask(const BatchedTask& task, const std::vector<int>& failed_entries,
                int victim_entry, bool charge_retries);

  struct TypeState {
    // FIFO of released subgraphs; each subgraph holds its own iterator so
    // removal on full scheduling is O(1).
    std::list<Subgraph*> queue;
    int ready_nodes = 0;
    int running_tasks = 0;
    // Slack policy state: when this type was first deferred (-1 = not
    // deferred) and the instant by which it must launch (min of the
    // starvation-budget end and the tightest deadline-driven launch
    // instant). Reset whenever a batch of this type forms or its ready
    // set drains.
    double deferred_since = -1.0;
    double wake_at = std::numeric_limits<double>::infinity();
  };

  // Algorithm 1, Batch(ct, worker). Appends formed tasks to `out`;
  // `criterion` is recorded with each task's formation event.
  void Batch(CellTypeId type, int worker, SchedCriterion criterion, double now_micros,
             std::vector<BatchedTask>* out);

  // The slack policy's delay/launch decision for one candidate type
  // (DESIGN.md "SLA-aware batch formation"). True = defer the type this
  // round (deferral state and wake hint updated); false = let Batch() run.
  bool ShouldDelay(CellTypeId type, TypeState& ts, int worker, double now_micros);

  // Computes NodeState::height (longest remaining path, in cells) for all
  // of `state`'s nodes, once per request, lazily on first use.
  void EnsureHeights(RequestState* state) const;

  void MaybeClearDeferral(TypeState& ts);

  // Algorithm 1, FormBatchedTask(ct, worker): gathers ready nodes from
  // subgraphs pinned to {None, worker}, up to the type's max batch. Each
  // subgraph contributes a prefix of its ready list; `by_subgraph` is
  // refilled with (subgraph, prefix length) in task order.
  BatchedTask FormBatchedTask(CellTypeId type, int worker,
                              std::vector<std::pair<Subgraph*, int>>* by_subgraph);

  void RemoveFromQueueIfDone(TypeState* ts, Subgraph* sg);

  // Failure recovery: takes a subgraph out of circulation (dequeue +
  // ready-node accounting) before its scheduled nodes are reverted, and
  // puts a drained one back (recomputing its ready set).
  void ParkSubgraph(Subgraph* sg);
  void UnparkSubgraph(Subgraph* sg);

  const CellRegistry* registry_;
  RequestProcessor* processor_;
  SchedulerOptions options_;
  UnparkHook unpark_hook_;
  TraceRecorder* trace_ = nullptr;
  const CostModel* cost_model_ = nullptr;
  BatchPolicyOptions policy_;
  std::vector<TypeState> types_;
  uint64_t next_task_id_ = 0;
  uint64_t task_id_stride_ = 1;
  int64_t tasks_formed_ = 0;
  int64_t total_migrations_ = 0;
  int64_t delayed_launches_ = 0;
  double total_delay_micros_ = 0.0;
  // Subgraphs touched by each in-flight task, for unpinning on completion.
  std::unordered_map<uint64_t, std::vector<Subgraph*>> inflight_subgraphs_;
  // Schedule / Batch scratch, reused across calls.
  std::vector<std::pair<CellTypeId, SchedCriterion>> candidates_;
  std::vector<uint8_t> seen_;
  std::vector<std::pair<Subgraph*, int>> by_subgraph_;
};

}  // namespace batchmaker

#endif  // SRC_CORE_SCHEDULER_H_
