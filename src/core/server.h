// Server: the real-time, multi-threaded BatchMaker serving engine (paper
// Figure 6).
//
// Manager shards (see DESIGN.md "Sharded manager"): scheduler state is
// partitioned into ServerOptions::num_shards independent shards. Each
// shard is a ShardCore (src/core/shard_core.h) — the same manager policy
// SimEngine drives in virtual time — plus the inbox and manager thread
// that drive it here, so arrival handling + Algorithm-1 scheduling +
// completion processing scale past one dispatcher thread. Arrivals are
// routed by request id; a starved shard sends its peers one hunger notice,
// and a peer with surplus donates a not-yet-scheduled request
// (whole-request migration, at most once per request, so the per-stream
// FIFO pinning invariant is preserved by construction: a migrated request
// has nothing pinned and re-pins to the adopter's workers).
// num_shards = 1 reproduces the single-manager behaviour exactly.
//
// One execution thread per worker (standing in for the paper's per-GPU
// workers) runs batched tasks from its FIFO task stream on the worker's
// device queue. Completed tasks flow back to the owning shard's manager
// through its inbox; the manager updates dependencies, schedules follow-up
// tasks, and fires the request callback when a request's last cell
// finishes — so a short request returns immediately even when batched with
// longer ones.
//
// Pipelined worker streams (see DESIGN.md "Pipelined worker streams"): the
// manager keeps every worker's stream `pipeline_depth` tasks deep
// (watermark refill on each completion), so a worker never drains its
// pipeline and then idles for a completion→manager→schedule round-trip.
// The execution thread gathers, executes and scatters each task before it
// pops the next, so a task only ever reads rows its stream has already
// scattered, and results are bitwise identical to SyncEngine at any depth
// and any shard count.
//
// Thread-safety contract: a request's tensors are only touched by the
// worker executing a task containing the request's nodes. The scheduler
// pins a subgraph to one worker while it has in-flight tasks, and
// cross-subgraph consumers are only scheduled after the producer's
// completion has passed through the manager — so no two threads ever race
// on the same tensor. Each task entry carries its request's state by
// pointer, recorded by the scheduler when it formed the task, so workers
// never read a manager's request map; cross-shard migration only moves
// requests that have never been scheduled, so no worker holds a pointer
// into them.
//
// Overload and failure semantics (see DESIGN.md): every Submit gets
// exactly one terminal answer through its callback, tagged with a
// RequestStatus — admission control rejects at Submit time (validation
// failure, full queue, shutdown race → kRejected, fired synchronously on
// the caller's thread), queue-timeout deadlines shed requests that have
// not begun executing (kShed), Server::Cancel aborts mid-flight requests
// (kCancelled), and failed task executions (see FaultInjector) terminate
// the blamed victim with kFailed while innocent co-batched requests are
// transparently re-queued and still complete kOk, bitwise identical to a
// fault-free run. All of these hold per shard and across migrations.

#ifndef SRC_CORE_SERVER_H_
#define SRC_CORE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "src/core/batch_assembler.h"
#include "src/core/engine_options.h"
#include "src/core/fault_injector.h"
#include "src/core/metrics.h"
#include "src/core/request_processor.h"
#include "src/core/scheduler.h"
#include "src/core/shard_core.h"
#include "src/device/device_backend.h"
#include "src/graph/cell_registry.h"
#include "src/obs/trace.h"
#include "src/runtime/online_cost_model.h"
#include "src/util/queue.h"

namespace batchmaker {

// Server configuration. The common engine core (device backend, workers,
// threads_per_worker, shards, pipeline_depth, scheduler, tracing,
// admission) lives in EngineOptions; see src/core/engine_options.h.
struct ServerOptions : EngineOptions {
  // Deterministic execution-fault injection (tests, failure drills).
  FaultInjectorOptions fault;
};

// Response and ResponseFn — the engines' shared terminal-answer types —
// live in src/core/engine_options.h with the rest of the uniform
// submission surface.

// Per-worker health classification (HealthOptions::health_watchdog; see
// DESIGN.md "Worker failure domains"). kSlow is advisory — the worker
// keeps serving; kHung and kDead are quarantined states — the worker's
// stream stops refilling and its in-flight tasks are requeued elsewhere
// until a recovery probe re-admits it.
enum class WorkerHealth : uint8_t {
  kHealthy = 0,
  kSlow,   // in-flight span exceeded slow_multiplier x predicted cost
  kHung,   // quarantined: exec thread alive but past the hang threshold
  kDead,   // quarantined: exec thread exited (respawned, awaiting re-admit)
};
const char* WorkerHealthName(WorkerHealth health);

// One row of Server::HealthReport().
struct WorkerHealthSnapshot {
  int worker = -1;
  WorkerHealth health = WorkerHealth::kHealthy;
  bool quarantined = false;
  // Monotonic count of exec-thread progress events (heartbeats).
  int64_t heartbeat_epoch = 0;
  // When the exec thread last made progress (micros since Start; 0 before
  // the first heartbeat).
  double heartbeat_micros = 0.0;
  // Stream seq of the task the exec thread is currently inside, -1 idle.
  int64_t busy_task_seq = -1;
  // Lifetime counters (mirrors of metrics().worker(i)).
  int64_t quarantines = 0;
  int64_t requeued_tasks = 0;
  int64_t respawns = 0;
};

class Server {
 public:
  // See the namespace-level ResponseFn; kept as a member alias for source
  // compatibility. Fires on the owning shard's manager thread when the
  // request finishes (kOk, kShed, kFailed, kCancelled), or synchronously
  // on the submitter's thread when admission rejects it (kRejected).
  using ResponseFn = batchmaker::ResponseFn;

  // Content-dependent early-termination predicate (src/core/shard_core.h),
  // evaluated on the manager thread after each of the request's nodes
  // completes. Richer than SubmitOptions::terminate_after_node, which
  // declares the terminating node up front.
  using TerminationFn = batchmaker::TerminationFn;

  Server(const CellRegistry* registry, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Starts manager and worker threads. Must be called exactly once.
  void Start();

  // Submits a request; thread-safe, including against a concurrent
  // Shutdown(). Always returns the request's id, and the callback always
  // fires exactly once with the terminal status: submissions that fail
  // validation, exceed admission.max_queued_requests, or race a Shutdown
  // are rejected with kRejected synchronously on the calling thread (never
  // enqueued). Accepted submissions reach a terminal status before
  // Shutdown returns. `outputs_wanted` name node outputs of `graph` to
  // return. Per-request parameters (deadline override, declared early
  // termination, priority) ride in `opts`; a content-dependent TerminationFn
  // may be passed instead of (not together with) opts.terminate_after_node.
  // An accepted request's externals are copied into one engine-owned block
  // (ExternalRows) and the tensors destroyed before Submit returns.
  RequestId Submit(CellGraph graph, std::vector<Tensor> externals,
                   std::vector<ValueRef> outputs_wanted, ResponseFn on_response,
                   SubmitOptions opts = {}, TerminationFn terminate = nullptr);

  // Convenience: submit and block until the terminal response arrives.
  // Response::status says how the request ended; outputs are only
  // meaningful for kOk (and may legitimately be empty there, e.g. when
  // every wanted output was cancelled by early termination).
  Response SubmitAndWait(CellGraph graph, std::vector<Tensor> externals,
                         std::vector<ValueRef> outputs_wanted, SubmitOptions opts = {});

  // Asynchronously cancels an in-flight request: its callback fires with
  // kCancelled once in-flight tasks drain (or kOk if completion won the
  // race). Unknown or already-terminal ids are ignored. Broadcast to every
  // shard; only the owner acts.
  void Cancel(RequestId id);

  // Waits for all in-flight work to finish, then stops the threads. Safe
  // to call more than once; the destructor calls it too.
  void Shutdown();

  // Completed-request metrics (real microseconds since Start). Latency
  // aggregates are only safe to read after Shutdown; the drop/reject/fail
  // counters, per-shard counters and steal totals are atomic and readable
  // at any time.
  const MetricsCollector& metrics() const { return metrics_; }
  int64_t TasksExecuted() const { return tasks_executed_.load(); }
  // Batched tasks whose execution failed (injected or real), whole or in
  // part (cascaded poisoning counts the original failure only).
  int64_t TasksFailed() const { return tasks_failed_.load(); }
  // Effective shard count (num_shards clamped to [1, num_workers]).
  int num_shards() const { return num_shards_; }
  // Requests migrated across shards (donated to a hungry shard, or forced
  // off a fully quarantined one).
  int64_t StealsExecuted() const { return metrics_.TotalSteals(); }

  // Total microseconds worker `worker`'s execution thread spent with
  // nothing to execute (waiting for the manager to refill its stream). The
  // watermark protocol exists to shrink this; fig07 reports it per depth.
  // Thread-safe; stable only after Shutdown.
  double WorkerIdleMicros(int worker) const;
  double TotalWorkerIdleMicros() const;

  // Event trace (enabled via EngineOptions::enable_tracing; timestamps are
  // real micros since Start). Aggregates are thread-safe at any time; read
  // events after Shutdown.
  const TraceRecorder& trace() const { return trace_; }
  TraceRecorder& trace() { return trace_; }

  // Deadline-heap entries not yet discarded, summed over shards. Entries
  // for terminal requests are purged lazily (before each wake-up wait and
  // whenever they surface), so after a drain this counts only requests
  // whose deadline lies ahead. Only safe to read after Shutdown.
  size_t PendingDeadlines() const;

  // The execution device this server was constructed with (see
  // EngineOptions::backend) and its capability flags. Never null once the
  // constructor returns.
  const DeviceBackend* device() const { return backend_.get(); }
  const DeviceCaps& device_caps() const { return caps_; }

  // The online-calibrated cost model pricing the health watchdog's hang
  // thresholds; null unless health.health_watchdog is set. No scheduling
  // decision reads it.
  const OnlineCostModel* online_cost_model() const {
    return online_cost_model_.get();
  }

  // ---- Worker failure domains (DESIGN.md "Worker failure domains") ----

  // Per-worker state-machine snapshot: health classification, heartbeat
  // progress, and lifetime quarantine/requeue/respawn counters. Thread-safe
  // at any time; all-healthy zeros when the watchdog is off.
  std::vector<WorkerHealthSnapshot> HealthReport() const;
  // Lifetime totals across workers (0 with the watchdog off).
  int64_t Quarantines() const { return metrics_.TotalQuarantines(); }
  int64_t RequeuedTasks() const { return metrics_.TotalRequeuedTasks(); }
  int64_t Respawns() const { return metrics_.TotalRespawns(); }

  // ---- NUMA placement introspection (DESIGN.md "NUMA-aware placement") ----

  // The topology placement was computed from. Meaningful only when
  // numa_policy != none (empty otherwise).
  const Topology& topology() const { return topology_; }
  // Nodes placement spreads over: topology size under a pin policy, 1
  // otherwise.
  int NumaNodes() const {
    return numa_on_ ? static_cast<int>(topology_.nodes.size()) : 1;
  }
  // Node *index* (into topology().nodes) worker `worker` was assigned;
  // -1 with numa_policy = none.
  int WorkerNode(int worker) const;
  // Whether worker `worker`'s exec-thread affinity mask actually took
  // (false until Start, when unpinnable — cpus excluded by taskset — or
  // with numa_policy = none). Thread-safe at any time.
  bool WorkerPinnedOk(int worker) const;
  int NumPinnedWorkers() const;
  // Requests stolen across a node boundary / estimated bytes gathered from
  // remote producers (sums of the per-node counters; 0 with the policy
  // off). Thread-safe at any time.
  int64_t CrossNodeSteals() const { return metrics_.TotalCrossNodeSteals(); }
  int64_t RemoteGatherBytes() const { return metrics_.TotalRemoteGatherBytes(); }

 private:
  struct CompletionMsg {
    BatchedTask task;
    // Indices into task.entries that did not execute (injected fault or
    // poisoned by an earlier failure in the stream); empty = clean task.
    std::vector<int> failed_entries;
    // Entry blamed for an injected fault (-1 for cascades: the blame was
    // assigned when the original fault fired).
    int victim_entry = -1;
  };
  struct CancelMsg {
    RequestId id;
  };
  // ---- Worker failure domains (DESIGN.md "Worker failure domains") ----
  // The watchdog never touches shard state directly: it asks the owning
  // shard to quarantine a flagged worker (reclaiming and requeueing its
  // undone stream)...
  struct QuarantineMsg {
    int worker;
    bool dead;  // exec thread exited (vs hung: alive but stalled)
  };
  // ...and later to re-admit it once a recovery probe passes.
  struct ReadmitMsg {
    int worker;
  };
  // An exec thread hands back a task it popped but will not run because
  // its worker was quarantined meanwhile.
  struct RequeueMsg {
    BatchedTask task;
  };
  // PeerMsg carries the cross-shard traffic: hunger notices and migrations
  // (src/core/shard_core.h).
  using ManagerMsg = std::variant<ShardArrival, CompletionMsg, CancelMsg, PeerMsg,
                                  QuarantineMsg, ReadmitMsg, RequeueMsg>;

  // Per-worker stream state shared by the exec thread, its shard manager
  // and the watchdog (defined in server.cc).
  struct WorkerPipeline;
  // One manager shard: its ShardCore, inbox and manager thread (defined in
  // server.cc).
  struct Shard;

  void ManagerLoop(Shard& shard);
  void HandleMsg(Shard& shard, ManagerMsg msg);
  // Pushes the tasks the shard's core formed onto their workers' streams.
  void Dispatch(ShardCore& core);
  // ---- Worker failure domains (shard manager thread only) ----
  // Pulls `msg.worker` from scheduling and reclaims its undone stream:
  // queued tasks and (dead only) the task the exec thread died inside, all
  // requeued via Scheduler::RequeueTask. A task the exec thread popped but
  // has not committed to comes back through a RequeueMsg.
  void HandleQuarantine(Shard& shard, const QuarantineMsg& msg);
  void HandleReadmit(Shard& shard, const ReadmitMsg& msg);
  // Watchdog thread: samples worker heartbeats every
  // health.check_interval_micros, classifies, quarantines, respawns dead
  // exec threads, and probes for re-admission with exponential backoff.
  void WatchdogLoop();
  // One watchdog pass over one worker (split out for clarity).
  void WatchdogCheckWorker(int worker, double now_micros);

  // ---- Worker threads ----
  // `idle_since` opens the thread's first idle interval: Start's instant,
  // or the respawn instant for a replacement thread.
  void ExecLoop(int worker, double idle_since);
  // The inbox of the shard that owns `worker`.
  BlockingQueue<ManagerMsg>& InboxOf(int worker);
  // Reports every entry of `task` failed; `victim_entry` is the entry
  // blamed for an injected fault, -1 for none.
  void FailWholeTask(BatchedTask task, int victim_entry);
  // Stream tail of one task (executed, failed or skipped): drops the
  // in-flight copy and releases the busy marker (watchdog on only).
  void RetireTask(WorkerPipeline& pipe);
  // Validation half of Submit; returns an error description or empty.
  std::string ValidateSubmission(const CellGraph& graph,
                                 const std::vector<Tensor>& externals,
                                 const std::vector<ValueRef>& outputs_wanted) const;
  double NowMicros() const;

  const CellRegistry* registry_;
  ServerOptions options_;
  AdmissionOptions admission_;
  int num_shards_ = 1;
  // The execution device (EngineOptions::backend via DeviceRegistry).
  // Owns gather/execute/scatter; the Server owns scheduling, failure
  // poisoning and the stream protocol. caps_ is a copy taken at construction.
  std::unique_ptr<DeviceBackend> backend_;
  DeviceCaps caps_;
  TraceRecorder trace_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<int> shard_of_worker_;

  // ---- NUMA placement state (constructor-computed, then read-only) ----
  // numa_on_ derives from options_.numa_policy; every placement-related
  // branch below gates on it so the kNone path stays byte-for-byte
  // identical to the pre-NUMA server.
  bool numa_on_ = false;          // policy != kNone
  Topology topology_;             // discovered only when numa_on_
  std::vector<int> worker_node_;  // worker -> node index; -1 when off
  std::vector<int> shard_node_;   // shard -> node of its workers; -1 when off
  // Pin outcome per worker's exec thread, written once at thread start.
  std::unique_ptr<std::atomic<bool>[]> worker_pinned_;

  MetricsCollector metrics_;
  FaultInjector fault_injector_;
  // Online-calibrated cost model (created when health_on_): workers feed
  // it measured exec spans; the watchdog queries it for hang thresholds.
  std::unique_ptr<OnlineCostModel> online_cost_model_;

  // ---- Worker failure-domain state (DESIGN.md "Worker failure domains") ----
  // Derived from options_.health.health_watchdog; gates every heartbeat
  // store, clock read and quarantine branch so the off path stays
  // byte-for-byte identical to the pre-watchdog server.
  bool health_on_ = false;
  // Published classification per worker (WorkerHealth), written by the
  // watchdog, read by HealthReport from any thread.
  std::unique_ptr<std::atomic<uint8_t>[]> worker_health_;
  // Watchdog-private per-worker state machine (only the watchdog thread
  // touches it).
  struct WorkerWatch {
    bool quarantined = false;
    double quarantined_at = 0.0;   // micros, for time-to-recovery traces
    double next_probe = 0.0;       // earliest next re-admission probe
    double backoff = 0.0;          // current probe backoff (micros)
    int64_t acks_wanted = 0;       // pipeline quarantine_acks value to wait for
    bool respawned = false;        // dead exec thread already replaced
  };
  std::vector<WorkerWatch> watch_;
  std::thread watchdog_thread_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;

  std::vector<std::unique_ptr<BlockingQueue<BatchedTask>>> task_queues_;
  std::vector<std::unique_ptr<WorkerPipeline>> pipelines_;

  // One exec thread per worker; the watchdog joins a dead one and respawns
  // it in place. Written by Start, then only by the watchdog thread until
  // it stops; Shutdown joins after the watchdog.
  std::vector<std::thread> exec_threads_;
  std::atomic<RequestId> next_request_id_{1};
  std::atomic<int64_t> tasks_executed_{0};
  std::atomic<int64_t> tasks_failed_{0};
  std::atomic<size_t> unfinished_requests_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> shutdown_{false};
  // Serializes Submit's {shutdown check, unfinished count, inbox push}
  // against Shutdown's {set flag, drain wait}: without it a racing Submit
  // can pass the check, lose the CPU, and push into a closed inbox — the
  // request is silently dropped and unfinished_requests_ never drains.
  std::mutex lifecycle_mu_;
  // Signaled when unfinished_requests_ reaches zero; Shutdown waits on it
  // instead of sleep-polling.
  std::condition_variable drained_cv_;
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace batchmaker

#endif  // SRC_CORE_SERVER_H_
