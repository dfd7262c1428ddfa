// RequestProcessor: tracks per-request execution progress (paper §4.2:
// "The request processor tracks the progress of execution for each request"
// and §4.3: analyzes the cell graph of a request to find subgraphs to pass
// to the scheduler).
//
// The analysis runs once per distinct graph structure, not once per
// request: the processor caches up to kPlanCacheCapacity RequestPlans,
// keyed by node types plus input refs, and every request with a cached
// structure starts from the shared plan.

#ifndef SRC_CORE_REQUEST_PROCESSOR_H_
#define SRC_CORE_REQUEST_PROCESSOR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/request.h"
#include "src/graph/cell_registry.h"
#include "src/runtime/task.h"

namespace batchmaker {

class RequestProcessor {
 public:
  // `on_subgraph_ready` fires when a subgraph's external dependencies are
  // all satisfied (it should enqueue the subgraph with the scheduler).
  // `on_request_complete` fires when a request's last node completes; the
  // state remains valid during the callback and is destroyed afterwards.
  using SubgraphReadyFn = std::function<void(Subgraph*)>;
  using RequestCompleteFn = std::function<void(RequestState*)>;

  // Distinct graph structures whose plans stay cached. Beyond it the least
  // recently used plan is dropped (requests holding it keep it alive).
  static constexpr size_t kPlanCacheCapacity = 64;

  RequestProcessor(const CellRegistry* registry, SubgraphReadyFn on_subgraph_ready,
                   RequestCompleteFn on_request_complete);

  // Admits a request: looks up (or builds and caches) the plan for its
  // graph's structure, then releases dependency-free subgraphs via
  // on_subgraph_ready. The graph must already be valid against the
  // registry and the externals the rows were packed from: the engines
  // validate each submission once, before admission. `externals` is empty
  // in simulation mode. Returns the request state.
  RequestState* AddRequest(RequestId id, CellGraph graph, double arrival_micros,
                           ExternalRows externals = {});

  // Marks the first `count` nodes of sg->ready as scheduled (a task just
  // took them) and unlocks their same-subgraph successors (Algorithm 1,
  // UpdateNodesDependency). A real-compute request's output buffer is
  // allocated here, the first time any of its nodes is scheduled. Returns
  // the number of nodes that became ready (they are appended to sg->ready).
  int MarkScheduled(Subgraph* sg, int count);
  // Same, naming the taken nodes, which must be exactly the front of
  // sg->ready in order.
  int MarkScheduled(Subgraph* sg, const std::vector<int>& nodes);

  // Marks the nodes of a completed task as completed, propagates external
  // dependencies (possibly releasing subgraphs), and finalizes requests
  // whose last node completed.
  void MarkCompleted(const BatchedTask& task);

  // ---- Failure recovery (driven by Scheduler::OnTaskFailed) ----

  // Completes a subset of a task's entries (indices into task.entries)
  // without finalizing any request: the failure path must finish its node
  // surgery on the task's other entries before any request state may be
  // destroyed. Callers run FinalizeIfDone afterwards.
  void MarkCompletedEntries(const BatchedTask& task, const std::vector<int>& indices);

  // A scheduled node of a terminally-failed/shed/cancelled request will
  // never execute: transition it kScheduled -> kCancelled. Successor
  // bookkeeping is left alone — every successor belongs to the same
  // (terminal) request and is cancelled through the same machinery.
  void CancelScheduledNode(RequestState* state, int node_id);

  // Reverts one scheduled node of a *parked* subgraph back to kPending
  // after its task failed (inverse of MarkScheduled): restores
  // sg->unscheduled, bumps the node's retry count (unless `charge_retry`
  // is false — quarantine reclaims of never-executed work don't consume
  // the budget), returns the schedule-time dependency credit to
  // same-subgraph successors and demotes any kReady successor back to
  // kPending. The caller must park the subgraph first — reverting a
  // queued subgraph would corrupt the scheduler's ready-node accounting.
  void RevertScheduledNode(Subgraph* sg, int node_id, bool charge_retry = true);

  // Early termination support (e.g. the decoder emitted <eos>): cancels all
  // nodes of `sg` that are not yet scheduled or completed. Already
  // in-flight nodes still execute; their completions no longer unlock
  // anything in this subgraph. Clears sg->ready (the caller must adjust its
  // own ready-node accounting *before* calling). Returns the number of
  // nodes cancelled.
  int CancelSubgraphRemainder(Subgraph* sg);

  // Finalizes `state` if all of its nodes are completed or cancelled and
  // none are in flight. Used after cancellation, which can leave a request
  // with no outstanding work outside the normal completion path. Returns
  // true if the request was finalized (and destroyed).
  bool FinalizeIfDone(RequestState* state);

  // ---- Cross-shard request migration (sharded manager, DESIGN.md) ----

  // Removes a request from this processor and returns ownership of its
  // state, without firing any callback. Only legal for a request that has
  // never been scheduled (state->ever_scheduled == false): such a request
  // has no in-flight tasks, no pinned or parked subgraphs, and no written
  // tensors, so its state can move wholesale to another shard's processor.
  // The caller must first detach its queued subgraphs from the scheduler
  // (Scheduler::DetachRequest).
  std::unique_ptr<RequestState> ReleaseRequest(RequestId id);

  // Inverse of ReleaseRequest on the adopting shard: inserts the state and
  // re-announces its released subgraphs through on_subgraph_ready (in
  // subgraph-id order, matching the order AddRequest released them).
  // Returns the adopted state.
  RequestState* AdoptRequest(std::unique_ptr<RequestState> state);

  RequestState* FindRequest(RequestId id);
  size_t NumActiveRequests() const { return requests_.size(); }
  // Ids of every active (non-terminal-finalized) request, in ascending
  // order. Engines use it to diagnose and fail stuck requests when the
  // scheduler stalls with work outstanding (see SyncEngine).
  std::vector<RequestId> ActiveRequestIds() const {
    std::vector<RequestId> ids;
    ids.reserve(requests_.size());
    for (const auto& [id, state] : requests_) {
      ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }
  const CellRegistry& registry() const { return *registry_; }

  // Plan-cache introspection (tests, diagnostics).
  size_t PlanCacheSize() const { return plan_cache_.size(); }
  int64_t PlanCacheHits() const { return plan_hits_; }
  int64_t PlanCacheMisses() const { return plan_misses_; }

 private:
  struct CachedPlan {
    std::shared_ptr<const RequestPlan> plan;
    uint64_t last_use = 0;
  };

  // The cached plan for `graph`'s structure, built on a miss.
  std::shared_ptr<const RequestPlan> PlanFor(const CellGraph& graph);
  // The partition, counters, successor lists and output layout of `graph`.
  std::shared_ptr<RequestPlan> BuildPlan(const CellGraph& graph) const;
  void ReleaseSubgraph(Subgraph* sg);
  void CompleteEntry(const TaskEntry& entry, std::vector<RequestState*>* to_finalize);

  const CellRegistry* registry_;
  SubgraphReadyFn on_subgraph_ready_;
  RequestCompleteFn on_request_complete_;
  std::unordered_map<RequestId, std::unique_ptr<RequestState>> requests_;
  std::vector<CachedPlan> plan_cache_;
  uint64_t plan_clock_ = 0;
  int64_t plan_hits_ = 0;
  int64_t plan_misses_ = 0;
  // Scratch reused across calls: the structure key of the graph being
  // admitted, and the nodes MarkScheduled takes.
  std::vector<int> key_;
  std::vector<int> taken_;
};

}  // namespace batchmaker

#endif  // SRC_CORE_REQUEST_PROCESSOR_H_
