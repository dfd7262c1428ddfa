// ShardCore: one manager shard's whole scheduling policy, shared by the
// threaded Server and the virtual-time SimEngine (DESIGN.md "Sharded
// manager").
//
// A shard owns a RequestProcessor + Scheduler (Algorithm 1), a contiguous
// slice [worker_begin, worker_end) of the workers, the requests it owns
// and their submission bookkeeping, a deadline heap, per-worker stream
// accounting and the stealing state. The core never blocks and never reads
// a clock of its own: a driver feeds it one message at a time, runs Pass()
// after each burst (or Wake() when NextWakeMicros() passes first), and
// supplies only three things:
//   * a clock (Driver::now): real micros since Start, or virtual time;
//   * message delivery between shards (Driver::send): the Server's
//     inboxes, or SimEngine events at the current virtual instant;
//   * task dispatch: tasks the core formed wait in formed(), in stream
//     order, until the driver pushes them onto their workers' streams.
//
// Stealing is whole-request and surplus-only. A shard is *starved* when
// one of its non-quarantined workers has an empty stream and no
// compatible ready work. On becoming starved it sends every peer one
// HungerNotice, and sends no more until it adopts a migration or stops
// being starved. A shard gives a never-scheduled request to a hungry peer
// only from surplus: every non-quarantined worker it owns is at the
// watermark after its own refill. An adopted request is never stealable
// again, so a request migrates at most once.

#ifndef SRC_CORE_SHARD_CORE_H_
#define SRC_CORE_SHARD_CORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <set>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "src/core/engine_options.h"
#include "src/core/metrics.h"
#include "src/core/request_processor.h"
#include "src/core/scheduler.h"
#include "src/graph/cell_registry.h"
#include "src/obs/trace.h"

namespace batchmaker {

// The predicate SubmitOptions::terminate_after_node declares: true once
// `node` completes.
TerminationFn TerminateAfterNode(int node);

// A request as admitted to its home shard.
struct ShardArrival {
  RequestId id = 0;
  CellGraph graph;
  std::vector<Tensor> externals;  // empty in virtual time
  std::vector<ValueRef> outputs_wanted;
  ResponseFn on_response;  // may be null
  TerminationFn terminate;  // may be null
  double arrival_micros = 0.0;
  // Per-request SLA deadline (SubmitOptions::deadline_micros, verbatim):
  // 0 = none, negative opts out of shedding. The engine queue timeout is
  // stamped onto the RequestState separately at admission.
  double deadline_micros = 0.0;
  int priority = 0;
};

// ---- Cross-shard messages (the only traffic between shards) ----
// A starved shard's notice to a peer: give `from_shard` surplus work.
struct HungerNotice {
  int from_shard = 0;
};
// A never-scheduled request moving to another shard; its submission
// bookkeeping travels on the state.
struct Migration {
  std::unique_ptr<RequestState> state;
  int from_shard = 0;
};
using PeerMsg = std::variant<HungerNotice, Migration>;

struct ShardConfig {
  int id = 0;
  int num_shards = 1;
  int worker_begin = 0;
  int worker_end = 1;  // exclusive
  // Low watermark on each worker's in-flight task count.
  int pipeline_depth = 1;
  // AdmissionOptions::queue_timeout_micros, stamped on every arrival.
  double queue_timeout_micros = 0.0;
  SchedulerOptions scheduler;
  // NUMA node of each shard's workers, indexed by shard; empty with
  // placement off. Orders forced donations (same node first) and feeds the
  // cross-node steal counter.
  std::vector<int> shard_node;
};

class ShardCore {
 public:
  struct Driver {
    std::function<double()> now;
    std::function<void(int to_shard, PeerMsg msg)> send;
    // Optional: runs after a request's terminal callback fired, while its
    // state is still valid.
    std::function<void(RequestState*)> on_retired;
  };

  ShardCore(const CellRegistry* registry, ShardConfig config, Driver driver,
            MetricsCollector* metrics, TraceRecorder* trace);

  ShardCore(const ShardCore&) = delete;
  ShardCore& operator=(const ShardCore&) = delete;

  // ---- Messages ----
  void Admit(ShardArrival arrival);
  // A task of an owned worker finished. `failed_entries` index entries that
  // did not execute; `victim_entry` is the entry blamed for an injected
  // fault (-1 none). Runs early-termination predicates, then refills the
  // worker if it dropped below the watermark.
  void Complete(const BatchedTask& task, const std::vector<int>& failed_entries = {},
                int victim_entry = -1);
  // Cancels an owned request; a cancel for a request this shard does not
  // own leaves a tombstone in case the request is migrating here.
  void Cancel(RequestId id);
  void Receive(PeerMsg msg);
  // Worker failure domains: `worker` leaves every refill, hunger and
  // surplus scan, and its reclaimed tasks are requeued. A shard left with
  // no healthy worker donates every stealable request to its peers.
  void Quarantine(int worker, const std::vector<BatchedTask>& reclaimed);
  // Re-admits a quarantined worker and refills it; false if `worker` was
  // not quarantined (a stale or duplicate message).
  bool Readmit(int worker);
  // Requeues one task handed back unexecuted by a quarantined worker.
  void Requeue(const BatchedTask& task);

  // ---- Passes ----
  // After a burst of messages: shed expired requests, refill every worker
  // below the watermark, then donate surplus and report hunger.
  void Pass();
  // When NextWakeMicros() passed with no message: shed expired requests.
  void Wake();
  // The next shedding deadline, +inf if none. Discards dead deadline-heap
  // tops first.
  double NextWakeMicros();

  // Tasks formed since the driver last cleared this, in stream order per
  // worker (task.worker names the stream).
  std::vector<BatchedTask>& formed() { return formed_; }

  // Cancel tombstones are stale once nothing is in flight anywhere.
  bool HasTombstones() const { return !tombstones_.empty(); }
  void ClearTombstones() { tombstones_.clear(); }

  int id() const { return config_.id; }
  RequestProcessor& processor() { return *processor_; }
  Scheduler& scheduler() { return *scheduler_; }
  // Deadline-heap entries not yet discarded.
  size_t PendingDeadlines() const { return deadlines_.size(); }

 private:
  void OnRequestComplete(RequestState* state);
  // Takes ownership bookkeeping for an admitted or adopted request.
  void Own(RequestState* state);
  size_t Local(int worker) const;
  void TrySchedule(int worker);
  void Refill();
  void ExpireDeadlines(double now_micros);
  void PruneDeadlines();
  // Pops the lowest-priority, oldest stealable (never-scheduled, still
  // kOk) request, or null. Lazily discards stale candidates.
  RequestState* PopStealable();
  void MigrateOut(RequestState* state, int to_shard);
  void Adopt(Migration migration);
  // Every non-quarantined owned worker is at the watermark.
  bool HasSurplus() const;
  void Donate();
  void DonateAll();
  void ReportHunger();

  ShardConfig config_;
  Driver driver_;
  MetricsCollector* metrics_;
  TraceRecorder* trace_;
  std::unique_ptr<RequestProcessor> processor_;
  std::unique_ptr<Scheduler> scheduler_;
  std::vector<BatchedTask> formed_;

  int num_terminations_ = 0;  // owned requests with a live predicate

  // In-flight task count per owned worker, indexed worker - worker_begin.
  std::vector<int> outstanding_;
  int refill_start_ = 0;  // rotating scan start (local worker offset)
  // Workers the watchdog quarantined (indexed worker - worker_begin);
  // always all-zero with the watchdog off.
  std::vector<uint8_t> quarantined_;

  // Min-heap of (absolute shed deadline, request). Entries for requests
  // that finished, migrated away or began executing are discarded lazily.
  std::priority_queue<std::pair<double, RequestId>,
                      std::vector<std::pair<double, RequestId>>,
                      std::greater<std::pair<double, RequestId>>>
      deadlines_;

  // ---- Stealing ----
  // Donation candidates ordered by (priority, id): lowest priority first,
  // oldest first among equals. Entries go stale when a request is
  // scheduled or terminal; PopStealable discards them lazily. Kept only
  // with more than one shard: nothing reads it otherwise.
  std::set<std::pair<int, RequestId>> stealable_;
  // Peers whose hunger notice arrived and that have not been given a
  // request since.
  std::vector<int> hungry_;
  // This shard told its peers it is starved and has not adopted a
  // migration nor stopped being starved since.
  bool hunger_sent_ = false;
  // Cancels that arrived for requests this shard does not (yet) own: a
  // cancel broadcast can reach the adopter before the migration it races.
  std::unordered_set<RequestId> tombstones_;
};

}  // namespace batchmaker

#endif  // SRC_CORE_SHARD_CORE_H_
