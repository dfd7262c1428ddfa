#include "src/core/server.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "src/device/device_registry.h"
#include "src/util/logging.h"
#include "src/util/topology.h"

namespace batchmaker {

namespace {

// Poison-set key for one (request, node) pair. Node indices are bounded by
// graph size (well under 2^20) and request ids are sequential from 1, so
// the packing cannot collide — a collision would be a correctness bug
// (erasing one pair's key would unpoison another's failed output).
uint64_t HazardKey(RequestId request, int node) {
  BM_CHECK_LT(node, 1 << 20);
  return (static_cast<uint64_t>(request) << 20) | static_cast<uint64_t>(node);
}

}  // namespace

const char* WorkerHealthName(WorkerHealth health) {
  switch (health) {
    case WorkerHealth::kHealthy:
      return "healthy";
    case WorkerHealth::kSlow:
      return "slow";
    case WorkerHealth::kHung:
      return "hung";
    case WorkerHealth::kDead:
      return "dead";
  }
  return "unknown";
}

// Shared state of one worker's execution thread, its shard manager and the
// watchdog.
//
// The execution thread runs the worker's FIFO task stream in order: it pops
// a task, gathers its inputs into `staging`, executes, scatters and retires
// it, and only then pops the next. A task therefore never reads a row its
// own stream has not scattered yet (the scheduler satisfies *internal*
// dependencies at schedule time, trusting stream order), and one staging
// arena per worker suffices. Fields shared with other threads are guarded
// by `mu` unless atomic.
//
// Failure poison (`failed_produced`): when a task fails to execute
// (injected fault or a throwing cell), its entries' (request, node) keys go
// here — the nodes produced nothing, and later tasks in this stream that
// consume them must not gather (there is nothing to read). The exec thread
// checks each entry's inputs against this set to build the task's poisoned
// mask; poisoned rows gather as zeros, are skipped by the scatter, and are
// reported to the manager as failed entries (a cascade). Keys are purged
// three ways so a re-scheduled healthy execution is never mis-poisoned:
// the exec thread self-cleans an entry's own stale key when it runs the
// entry cleanly, the scheduler's unpark hook erases a parked subgraph's
// keys once its in-flight tasks drain, and request finalization sweeps keys
// of nodes that were cancelled outright.
struct Server::WorkerPipeline {
  std::mutex mu;
  std::unordered_set<uint64_t> failed_produced;
  // Device staging buffer (backend_->CreateArena()); the CPU backend's
  // wraps a TensorArena, compute-free backends hand out a no-op arena.
  std::unique_ptr<DeviceArena> staging;
  // Stream seq of the next task the exec thread commits to (under mu).
  // Kept here, not on the thread's stack, so a respawned exec thread
  // continues the stream: chaos drills are keyed on (worker, seq).
  int64_t next_seq = 0;
  // Total exec-thread time with nothing to execute (see WorkerIdleMicros):
  // from Start (or a respawn) to the first task, between tasks, and from
  // the last task to exit. Written only by the exec thread; read from any
  // thread.
  std::atomic<double> idle_micros{0.0};

  // ---- Worker failure domains (written only when health_on_) ----------
  // Progress heartbeat: a monotonically increasing epoch plus a wall
  // stamp, bumped by the exec thread at gather / execute / scatter
  // boundaries. The watchdog reads both lock-free.
  std::atomic<int64_t> hb_epoch{0};
  std::atomic<double> hb_stamp{0.0};
  // The task the exec thread is currently inside: stream seq (-1 = idle,
  // published last with release so the fields below are valid when read
  // after an acquire load), entry instant, cell type and batch size. The
  // watchdog prices the expected span with the online cost model and
  // flags the worker hung when the actual span blows past it.
  std::atomic<double> busy_since{0.0};
  std::atomic<int> busy_type{-1};
  std::atomic<int> busy_batch{0};
  std::atomic<int64_t> busy_task_seq{-1};
  // Exec-thread liveness: 0 = not yet running, 1 = alive, 2 = exited. A
  // chaos thread-exit (or any early return) leaves 2 behind while the
  // watchdog is still running; normal shutdown exits only after the
  // watchdog stopped.
  std::atomic<int> exec_alive{0};
  // Quarantine flag (under mu): set by the owning shard manager when the
  // watchdog flags this worker. The exec thread hands back (via
  // RequeueMsg) any task it pops while this is set.
  bool quarantined = false;
  // In-flight task metadata for dead-worker reclamation: a copy of the
  // task the exec thread committed to (recorded under mu before
  // execution, cleared once it retires). A hung worker's in-flight task is
  // never reclaimed — it completes when the thread wakes; a dead worker's
  // never will, so the manager requeues this copy.
  BatchedTask inflight_task;
  bool inflight_valid = false;
  // Count of quarantine operations the shard manager has completed on
  // this pipeline. The watchdog records the value it expects before
  // sending a QuarantineMsg and probes for re-admission only after the
  // count reaches it, so a ReadmitMsg can never overtake its
  // QuarantineMsg through the inbox.
  std::atomic<int64_t> quarantine_acks{0};

  // Heartbeat: one unit of progress at `now` (watchdog on only).
  void Beat(double now) {
    hb_epoch.fetch_add(1, std::memory_order_relaxed);
    hb_stamp.store(now, std::memory_order_relaxed);
  }

  // The exec thread's commit to a popped task, one step under mu against
  // a concurrent quarantine: takes the task's stream seq, fills `poisoned`
  // (all ones for an injected fault; left empty while failed_produced is),
  // moves the entries' own keys into or out of failed_produced, and, with
  // the watchdog on, records the in-flight copy. Returns -1, committing
  // nothing, when the worker is quarantined.
  int64_t Commit(const BatchedTask& task, bool injected, bool health_on,
                 std::vector<uint8_t>* poisoned) {
    std::lock_guard<std::mutex> lock(mu);
    if (health_on && quarantined) {
      return -1;
    }
    const std::vector<TaskEntry>& entries = task.entries;
    if (injected) {
      poisoned->assign(entries.size(), 1);
    } else if (!failed_produced.empty()) {
      poisoned->assign(entries.size(), 0);
      for (size_t i = 0; i < entries.size(); ++i) {
        for (const ValueRef& ref : entries[i].state->graph.node(entries[i].node).inputs) {
          if (!ref.is_external() &&
              failed_produced.count(HazardKey(entries[i].request, ref.node)) != 0) {
            (*poisoned)[i] = 1;
            break;
          }
        }
      }
    }
    for (size_t i = 0; i < poisoned->size(); ++i) {
      const uint64_t key = HazardKey(entries[i].request, entries[i].node);
      if ((*poisoned)[i] != 0) {
        failed_produced.insert(key);  // propagate the cascade
      } else {
        // Self-clean: a node re-run here after a failed attempt (the
        // revert machinery re-scheduled it to this worker) supersedes its
        // stale poison key.
        failed_produced.erase(key);
      }
    }
    if (health_on) {
      inflight_task = task;
      inflight_valid = true;
    }
    return next_seq++;
  }
};

// One manager shard (DESIGN.md "Sharded manager"): the shard's ShardCore —
// its own RequestProcessor + Scheduler, submission bookkeeping, deadline
// heap, stealing state and a contiguous range of the workers — plus the
// inbox and thread that drive it. The only cross-shard traffic is
// ShardCore's PeerMsg (hunger notices and migrations) and the global drain
// counter; everything else a shard touches is owned by its manager thread
// alone.
struct Server::Shard {
  std::unique_ptr<ShardCore> core;
  BlockingQueue<ManagerMsg> inbox;
  std::thread thread;
};

Server::Server(const CellRegistry* registry, ServerOptions options)
    : registry_(registry),
      options_(options),
      admission_(options.admission),
      trace_([this] { return NowMicros(); }),
      fault_injector_(options_.fault) {
  BM_CHECK(registry != nullptr);
  BM_CHECK_GT(options_.num_workers, 0);
  BM_CHECK_GT(options_.threads_per_worker, 0);
  BM_CHECK_GT(options_.pipeline_depth, 0);
  BM_CHECK_GT(options_.num_shards, 0);
  num_shards_ = std::min(options_.num_shards, options_.num_workers);

  // Resolve the execution device (DESIGN.md "Device backend API"). The
  // Server drives any registered backend through the DeviceBackend seam;
  // empty selects the real-compute CPU backend, the pre-refactor
  // behaviour.
  DeviceConfig device_config;
  device_config.registry = registry;
  device_config.precision = options_.precision;
  device_config.null_latency_micros = options_.null_latency_micros;
  const std::string backend_name =
      options_.backend.empty() ? "cpu" : options_.backend;
  backend_ = DeviceRegistry::Instance().Create(backend_name, device_config);
  BM_CHECK(backend_ != nullptr)
      << "unknown or unavailable device backend '" << backend_name << "'";
  caps_ = backend_->caps();
  BM_CHECK(!caps_.virtual_time)
      << "backend '" << backend_name
      << "' models virtual time; drive it through SimEngine, not Server";
  BM_CHECK(caps_.supported_precisions[static_cast<int>(options_.precision)])
      << "backend '" << backend_name << "' does not support the requested "
      << "GEMM precision";
  if (options_.numa_policy != NumaPolicy::kNone && !caps_.supports_numa_pinning) {
    BM_LOG(Warning) << "backend '" << backend_name << "' does not support "
                    << "NUMA pinning; degrading numa_policy to none";
    options_.numa_policy = NumaPolicy::kNone;
  }
  if (options_.health.health_watchdog && !caps_.supports_watchdog) {
    BM_LOG(Warning) << "backend '" << backend_name << "' execution makes no "
                    << "heartbeat-visible progress; disabling health watchdog";
    options_.health.health_watchdog = false;
  }
  if (options_.enable_tracing) {
    trace_.Enable();
  }
  metrics_.InitShards(num_shards_);

  // The health watchdog prices its hang thresholds from an online cost
  // model: seeded with the static Figure-3 anchors, continuously re-fitted
  // from measured exec spans (DESIGN.md "Worker failure domains").
  health_on_ = options_.health.health_watchdog;
  if (health_on_) {
    online_cost_model_ = std::make_unique<OnlineCostModel>();
    // Key the calibrated curves by precision: exec spans measured at int8
    // must never re-fit the fp32 curve (or vice versa).
    online_cost_model_->set_active_precision(options_.precision);
    online_cost_model_->set_on_refit(
        [this](CellTypeId type, int num_anchors, int64_t observations) {
          trace_.CostModelRefit(type, num_anchors, observations);
        });
  }

  const int num_workers = options_.num_workers;
  shard_of_worker_.assign(static_cast<size_t>(num_workers), 0);
  for (int i = 0; i < num_workers; ++i) {
    task_queues_.push_back(std::make_unique<BlockingQueue<BatchedTask>>());
    auto pipe = std::make_unique<WorkerPipeline>();
    pipe->staging = backend_->CreateArena();
    pipelines_.push_back(std::move(pipe));
  }

  // Worker failure domains (DESIGN.md): published per-worker health and
  // the watchdog's private state machine. Allocated regardless of the
  // flag so HealthReport() is always safe to call; never written with the
  // watchdog off.
  metrics_.InitWorkers(num_workers);
  worker_health_ =
      std::make_unique<std::atomic<uint8_t>[]>(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    worker_health_[static_cast<size_t>(i)].store(
        static_cast<uint8_t>(WorkerHealth::kHealthy), std::memory_order_relaxed);
  }
  watch_.resize(static_cast<size_t>(num_workers));
  if (health_on_) {
    BM_CHECK_GT(options_.health.check_interval_micros, 0.0);
    BM_CHECK_GT(options_.health.probe_backoff_micros, 0.0);
  }

  // NUMA-aware placement (DESIGN.md): discover the topology, assign each
  // worker a node, and align shard boundaries with node boundaries so the
  // stealing protocol is the only deliberately cross-node traffic. With the
  // policy off, nothing is discovered and the proportional boundaries below
  // are computed exactly as before.
  numa_on_ = options_.numa_policy != NumaPolicy::kNone;
  worker_node_.assign(static_cast<size_t>(num_workers), -1);
  worker_pinned_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    worker_pinned_[static_cast<size_t>(i)].store(false, std::memory_order_relaxed);
  }
  std::vector<int> shard_bounds(static_cast<size_t>(num_shards_) + 1, 0);
  for (int s = 0; s <= num_shards_; ++s) {
    shard_bounds[static_cast<size_t>(s)] = s * num_workers / num_shards_;
  }
  if (numa_on_) {
    topology_ = DiscoverTopology(options_.numa_sysfs_root.empty()
                                     ? "/sys"
                                     : options_.numa_sysfs_root);
    worker_node_ = AssignWorkerNodes(num_workers,
                                     static_cast<int>(topology_.nodes.size()));
    shard_bounds = PartitionWorkersByNode(num_workers, num_shards_, worker_node_);
    metrics_.InitNodes(static_cast<int>(topology_.nodes.size()));
  }

  for (int s = 0; s < num_shards_; ++s) {
    const int begin = shard_bounds[static_cast<size_t>(s)];
    // A shard's workers share one node whenever shards don't outnumber
    // nodes (the boundary snapping above); its manager pins there too.
    shard_node_.push_back(numa_on_ ? worker_node_[static_cast<size_t>(begin)] : -1);
    for (int w = begin; w < shard_bounds[static_cast<size_t>(s) + 1]; ++w) {
      shard_of_worker_[static_cast<size_t>(w)] = s;
    }
  }

  for (int s = 0; s < num_shards_; ++s) {
    ShardConfig config;
    config.id = s;
    config.num_shards = num_shards_;
    config.worker_begin = shard_bounds[static_cast<size_t>(s)];
    config.worker_end = shard_bounds[static_cast<size_t>(s) + 1];
    config.pipeline_depth = options_.pipeline_depth;
    config.queue_timeout_micros = options_.admission.queue_timeout_micros;
    config.scheduler = options_.scheduler;
    if (numa_on_) {
      config.shard_node = shard_node_;
    }
    ShardCore::Driver driver;
    driver.now = [this] { return NowMicros(); };
    // Cannot land on a closed inbox: a migrating request is unfinished, so
    // Shutdown's drain wait has not released and no inbox is closed yet; a
    // hunger notice that races Shutdown is dropped harmlessly.
    driver.send = [this](int to_shard, PeerMsg msg) {
      shards_[static_cast<size_t>(to_shard)]->inbox.Push(ManagerMsg{std::move(msg)});
    };
    driver.on_retired = [this](RequestState* state) {
      // Sweep stale poison keys of nodes that were cancelled after a
      // failure (their keys sit in the failing worker's failed_produced
      // set and the request will never unpark anything to purge them).
      // Gated on an actual failure having happened, so the common path
      // never touches the pipeline locks from the manager.
      if (state->cancelled_nodes > 0 &&
          (fault_injector_.enabled() ||
           tasks_failed_.load(std::memory_order_relaxed) > 0)) {
        std::vector<uint64_t> keys;
        for (size_t n = 0; n < state->nodes.size(); ++n) {
          if (state->nodes[n].stage == NodeStage::kCancelled) {
            keys.push_back(HazardKey(state->id, static_cast<int>(n)));
          }
        }
        if (!keys.empty()) {
          for (auto& pipe : pipelines_) {
            std::lock_guard<std::mutex> lock(pipe->mu);
            for (uint64_t key : keys) {
              pipe->failed_produced.erase(key);
            }
          }
        }
      }
      if (unfinished_requests_.fetch_sub(1) == 1) {
        // Last in-flight request: wake a Shutdown() waiting for the
        // drain. Taking the mutex orders this notify after the waiter's
        // predicate check, so the wakeup cannot be missed.
        std::lock_guard<std::mutex> lock(lifecycle_mu_);
        drained_cv_.notify_all();
      }
    };
    auto shard = std::make_unique<Shard>();
    shard->core = std::make_unique<ShardCore>(registry, std::move(config), std::move(driver),
                                              &metrics_, &trace_);
    // When a failure-parked subgraph drains and is about to re-enqueue,
    // purge its nodes' poison keys from the worker that ran the failed task
    // (the pinned — hence last — worker): with zero tasks in flight nothing
    // can still consume them, and a healthy re-execution scheduled back to
    // that worker must not be mis-poisoned by the stale keys.
    shard->core->scheduler().set_unpark_hook([this](Subgraph* sg) {
      if (sg->last_worker < 0) {
        return;
      }
      WorkerPipeline& pipe = *pipelines_[static_cast<size_t>(sg->last_worker)];
      std::lock_guard<std::mutex> lock(pipe.mu);
      for (int node : sg->nodes) {
        pipe.failed_produced.erase(HazardKey(sg->owner->id, node));
      }
    });
    shards_.push_back(std::move(shard));
  }
}

Server::~Server() { Shutdown(); }

void Server::Start() {
  BM_CHECK(!started_.exchange(true)) << "Start() called twice";
  start_time_ = std::chrono::steady_clock::now();
  // Low-precision serving: quantize + pack every registered cell's weights
  // up front so the first batch doesn't pay the (one-time) quantization
  // cost, and record which kernel the dispatcher resolved the precision to.
  // Only real-compute backends read the packs.
  if (caps_.real_compute && options_.precision != Precision::kF32) {
    for (CellTypeId t = 0; t < registry_->NumTypes(); ++t) {
      registry_->executor(t).EnsurePacked(options_.precision);
    }
  }
  trace_.GemmKernelInfo(static_cast<int>(options_.precision));
  for (auto& shard : shards_) {
    Shard* sh = shard.get();
    sh->thread = std::thread([this, sh] {
      const int id = sh->core->id();
      SetCurrentThreadName("manager/" + std::to_string(id));
      if (numa_on_ && shard_node_[static_cast<size_t>(id)] >= 0) {
        // Keep the manager on its workers' node: refill messages and the
        // request map stay node-local. Best-effort, like every pin.
        PinCurrentThreadToCpus(
            topology_.nodes[static_cast<size_t>(shard_node_[static_cast<size_t>(id)])].cpus);
      }
      TraceRecorder::SetThreadShard(id);
      ManagerLoop(*sh);
    });
  }
  for (int i = 0; i < options_.num_workers; ++i) {
    const int shard = shard_of_worker_[static_cast<size_t>(i)];
    // Every exec thread is idle from Start (micros 0) until its first
    // task, however late the OS first runs it.
    exec_threads_.emplace_back([this, i, shard] {
      TraceRecorder::SetThreadShard(shard);
      ExecLoop(i, /*idle_since=*/0.0);
    });
  }
  if (health_on_) {
    watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
  }
}

int Server::WorkerNode(int worker) const {
  BM_CHECK_GE(worker, 0);
  BM_CHECK_LT(static_cast<size_t>(worker), worker_node_.size());
  return worker_node_[static_cast<size_t>(worker)];
}

bool Server::WorkerPinnedOk(int worker) const {
  BM_CHECK_GE(worker, 0);
  BM_CHECK_LT(worker, options_.num_workers);
  return worker_pinned_[static_cast<size_t>(worker)].load(std::memory_order_relaxed);
}

int Server::NumPinnedWorkers() const {
  int pinned = 0;
  for (int w = 0; w < options_.num_workers; ++w) {
    pinned += WorkerPinnedOk(w) ? 1 : 0;
  }
  return pinned;
}

double Server::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_time_)
             .count() /
         1000.0;
}

std::string Server::ValidateSubmission(const CellGraph& graph,
                                       const std::vector<Tensor>& externals,
                                       const std::vector<ValueRef>& outputs_wanted) const {
  if (graph.NumNodes() == 0) {
    return "empty cell graph";
  }
  if (externals.empty()) {
    return "real-compute submissions require external input tensors";
  }
  std::string err = graph.ValidateOrError(*registry_, externals);
  if (!err.empty()) {
    return err;
  }
  for (const ValueRef& ref : outputs_wanted) {
    if (ref.is_external()) {
      return "outputs_wanted must reference node outputs, not externals";
    }
    if (ref.node < 0 || ref.node >= graph.NumNodes()) {
      return "outputs_wanted references nonexistent node " + std::to_string(ref.node);
    }
    const CellDef& def = registry_->def(graph.node(ref.node).type);
    if (ref.output < 0 || ref.output >= def.NumOutputs()) {
      return "outputs_wanted references nonexistent output " + std::to_string(ref.output);
    }
  }
  return {};
}

RequestId Server::Submit(CellGraph graph, std::vector<Tensor> externals,
                         std::vector<ValueRef> outputs_wanted, ResponseFn on_response,
                         SubmitOptions opts, TerminationFn terminate) {
  BM_CHECK(started_.load()) << "Submit before Start";
  const RequestId id = next_request_id_.fetch_add(1);
  bool accepted = ValidateSubmission(graph, externals, outputs_wanted).empty();
  if (opts.terminate_after_node >= 0) {
    BM_CHECK(!terminate)
        << "pass terminate_after_node or a TerminationFn, not both";
    if (opts.terminate_after_node >= graph.NumNodes()) {
      accepted = false;
    } else {
      terminate = TerminateAfterNode(opts.terminate_after_node);
    }
  }
  if (accepted) {
    ShardArrival msg;
    msg.graph = std::move(graph);
    msg.externals = std::move(externals);
    msg.outputs_wanted = std::move(outputs_wanted);
    msg.on_response = std::move(on_response);
    msg.terminate = std::move(terminate);
    // The per-request SLA deadline rides verbatim; the engine-wide queue
    // timeout is stamped separately at arrival and shedding fires on
    // whichever of the two is tighter (RequestState::ShedDeadlineMicros).
    msg.deadline_micros = opts.deadline_micros;
    msg.priority = opts.priority;
    const int num_nodes = msg.graph.NumNodes();

    // The shutdown/admission check, unfinished-count increment and inbox
    // push must be one atomic step with respect to Shutdown: otherwise a
    // submission can pass the check, Shutdown can observe zero unfinished
    // requests and close the inboxes, and the late Push lands on a closed
    // queue — silently dropped with unfinished_requests_ stuck nonzero.
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (shutdown_.load()) {
      accepted = false;  // lost the race; never enqueued
    } else if (admission_.max_queued_requests > 0 &&
               unfinished_requests_.load() >= admission_.max_queued_requests) {
      accepted = false;  // admission control: the server is full
    } else {
      msg.id = id;
      msg.arrival_micros = NowMicros();
      trace_.RequestArrival(msg.arrival_micros, id, num_nodes);
      unfinished_requests_.fetch_add(1);
      // Arrival routing: requests spread across shards by id.
      shards_[static_cast<size_t>(id % static_cast<RequestId>(num_shards_))]
          ->inbox.Push(ManagerMsg{std::move(msg)});
      return id;
    }
    on_response = std::move(msg.on_response);  // reclaim for the rejection
  }
  // Rejected (invalid graph, full queue, or shutdown): the terminal answer
  // fires synchronously on the submitter's thread, outside lifecycle_mu_.
  metrics_.RecordRejected();
  trace_.RequestReject(id);
  if (on_response) {
    on_response(id, RequestStatus::kRejected, {});
  }
  return id;
}

Response Server::SubmitAndWait(CellGraph graph, std::vector<Tensor> externals,
                               std::vector<ValueRef> outputs_wanted, SubmitOptions opts) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  Submit(std::move(graph), std::move(externals), std::move(outputs_wanted),
         [&promise](RequestId, RequestStatus status, std::vector<Tensor> outputs) {
           promise.set_value(Response{status, std::move(outputs)});
         },
         opts);
  // Every submission — accepted or rejected — gets exactly one callback,
  // so the future always resolves.
  return future.get();
}

void Server::Cancel(RequestId id) {
  BM_CHECK(started_.load()) << "Cancel before Start";
  // Broadcast: only the owning shard acts, but ownership can be mid-flight
  // in a Migration, so every shard gets the message (non-owners keep a
  // tombstone; see ShardCore::Cancel). Push on a closed inbox is a
  // no-op: after Shutdown the request is already terminal, so there is
  // nothing left to cancel.
  for (auto& shard : shards_) {
    shard->inbox.Push(ManagerMsg{CancelMsg{id}});
  }
}

void Server::Shutdown() {
  if (!started_.load()) {
    return;
  }
  {
    std::unique_lock<std::mutex> lock(lifecycle_mu_);
    if (shutdown_.exchange(true)) {
      return;
    }
    // Drain: every accepted request must finish before the threads stop.
    // Setting shutdown_ under lifecycle_mu_ means no further Submit can
    // slip in, so unfinished_requests_ only decreases from here; the
    // completion callback signals when it hits zero. (With zero unfinished
    // requests no migration is in flight either — a migrating request
    // counts as unfinished — so no shard inbox holds live request state.)
    // The wait is unbounded by design — abandoning a live-but-hung exec
    // thread is unsound (on wake it would scatter into freed request
    // state) — but it must not be *silent*: a worker hung past every
    // recovery path (DESIGN.md "Worker failure domains") would wedge this
    // drain forever, so warn periodically with the stuck workers named.
    const auto warn_every = std::chrono::seconds(5);
    const auto pred = [this] { return unfinished_requests_.load() == 0; };
    while (!drained_cv_.wait_for(lock, warn_every, pred)) {
      std::ostringstream stuck;
      if (health_on_) {
        for (const WorkerHealthSnapshot& row : HealthReport()) {
          if (row.health != WorkerHealth::kHealthy) {
            stuck << "; worker " << row.worker << " "
                  << WorkerHealthName(row.health) << " (busy seq "
                  << row.busy_task_seq << ")";
          }
        }
      }
      BM_LOG(Warning) << "Shutdown drain stalled: " << unfinished_requests_.load()
                      << " unfinished request(s)" << stuck.str();
    }
  }
  // The watchdog must run through the drain (quarantine recovery is what
  // completes it under a fault) and stop before the inboxes close, so no
  // Quarantine/Readmit message can land on a closed queue.
  if (health_on_) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    if (watchdog_thread_.joinable()) {
      watchdog_thread_.join();
    }
  }
  for (auto& shard : shards_) {
    shard->inbox.Close();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) {
      shard->thread.join();
    }
  }
  // After the drain there are no tasks in flight: closing a task queue
  // lets that worker's exec thread exit.
  for (auto& queue : task_queues_) {
    queue->Close();
  }
  for (std::thread& t : exec_threads_) {
    // A chaos-killed exec thread the watchdog already joined (and maybe
    // replaced) leaves a non-joinable slot behind.
    if (t.joinable()) {
      t.join();
    }
  }
}

size_t Server::PendingDeadlines() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->core->PendingDeadlines();
  }
  return total;
}

double Server::WorkerIdleMicros(int worker) const {
  BM_CHECK_GE(worker, 0);
  BM_CHECK_LT(static_cast<size_t>(worker), pipelines_.size());
  return pipelines_[static_cast<size_t>(worker)]->idle_micros.load(
      std::memory_order_relaxed);
}

double Server::TotalWorkerIdleMicros() const {
  double total = 0.0;
  for (const auto& pipe : pipelines_) {
    total += pipe->idle_micros.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<WorkerHealthSnapshot> Server::HealthReport() const {
  std::vector<WorkerHealthSnapshot> out(
      static_cast<size_t>(options_.num_workers));
  for (int w = 0; w < options_.num_workers; ++w) {
    WorkerHealthSnapshot& snap = out[static_cast<size_t>(w)];
    const WorkerPipeline& pipe = *pipelines_[static_cast<size_t>(w)];
    snap.worker = w;
    snap.health = static_cast<WorkerHealth>(
        worker_health_[static_cast<size_t>(w)].load(std::memory_order_relaxed));
    snap.quarantined = snap.health == WorkerHealth::kHung ||
                       snap.health == WorkerHealth::kDead;
    snap.heartbeat_epoch = pipe.hb_epoch.load(std::memory_order_relaxed);
    snap.heartbeat_micros = pipe.hb_stamp.load(std::memory_order_relaxed);
    snap.busy_task_seq = pipe.busy_task_seq.load(std::memory_order_relaxed);
    const WorkerHealthCounters& counters = metrics_.worker(w);
    snap.quarantines = counters.quarantines.load(std::memory_order_relaxed);
    snap.requeued_tasks = counters.requeued_tasks.load(std::memory_order_relaxed);
    snap.respawns = counters.respawns.load(std::memory_order_relaxed);
  }
  return out;
}

void Server::ManagerLoop(Shard& shard) {
  ShardCore& core = *shard.core;
  for (;;) {
    // A shedding deadline bounds the wait, so a queued request is shed on
    // time even with no messages in flight.
    const double wake = core.NextWakeMicros();
    std::optional<ManagerMsg> msg;
    if (wake == std::numeric_limits<double>::infinity()) {
      msg = shard.inbox.Pop();
      if (!msg) {
        break;  // closed and drained
      }
    } else {
      const double wait = wake - NowMicros();
      if (wait > 0.0) {
        msg = shard.inbox.PopFor(std::chrono::duration<double, std::micro>(wait));
        if (!msg && shard.inbox.Closed()) {
          break;  // nullopt with the queue closed implies drained
        }
      }
      if (!msg) {
        core.Wake();
        Dispatch(core);
        continue;
      }
    }
    HandleMsg(shard, std::move(*msg));
    // Admit everything that queued up behind this message before the
    // pass: near-simultaneous requests batch together, and a burst of
    // completions is absorbed in one scan instead of one per message.
    while (auto more = shard.inbox.TryPop()) {
      HandleMsg(shard, std::move(*more));
    }
    core.Pass();
    Dispatch(core);
    if (core.HasTombstones() && unfinished_requests_.load(std::memory_order_relaxed) == 0) {
      // Fully drained ⇒ no migration in flight ⇒ every tombstone is stale.
      core.ClearTombstones();
    }
  }
}

void Server::HandleMsg(Shard& shard, ManagerMsg msg) {
  ShardCore& core = *shard.core;
  if (auto* arrival = std::get_if<ShardArrival>(&msg)) {
    core.Admit(std::move(*arrival));
  } else if (auto* done = std::get_if<CompletionMsg>(&msg)) {
    core.Complete(done->task, done->failed_entries, done->victim_entry);
    // The targeted refill's tasks go out now, before the manager touches
    // any other queued message.
    Dispatch(core);
  } else if (auto* cancel = std::get_if<CancelMsg>(&msg)) {
    core.Cancel(cancel->id);
  } else if (auto* peer = std::get_if<PeerMsg>(&msg)) {
    core.Receive(std::move(*peer));
  } else if (auto* quarantine = std::get_if<QuarantineMsg>(&msg)) {
    HandleQuarantine(shard, *quarantine);
  } else if (auto* readmit = std::get_if<ReadmitMsg>(&msg)) {
    HandleReadmit(shard, *readmit);
  } else {
    core.Requeue(std::get<RequeueMsg>(msg).task);
  }
}

void Server::Dispatch(ShardCore& core) {
  std::vector<BatchedTask>& formed = core.formed();
  for (BatchedTask& task : formed) {
    const int worker = task.worker;
    task_queues_[static_cast<size_t>(worker)]->Push(std::move(task));
  }
  formed.clear();
}

void Server::HandleQuarantine(Shard& shard, const QuarantineMsg& msg) {
  const int worker = msg.worker;
  WorkerPipeline& pipe = *pipelines_[static_cast<size_t>(worker)];

  // Reclaim the undone stream. Every task this worker was handed is in
  // exactly one place — the task queue, the exec thread's hands before it
  // commits, or running on the exec thread — and each resolves exactly
  // once: queued tasks are requeued here, a popped task comes back via
  // RequeueMsg (the exec thread sees the flag when it commits), and the
  // running task either completes on wake (hung) or is requeued from the
  // pipeline's copy (dead).
  std::vector<BatchedTask> reclaimed;
  {
    std::lock_guard<std::mutex> lock(pipe.mu);
    pipe.quarantined = true;
    if (msg.dead) {
      if (pipe.inflight_valid) {
        // Retire the dead task's poison keys: they would mis-poison a
        // later stream after re-admission.
        for (const TaskEntry& entry : pipe.inflight_task.entries) {
          pipe.failed_produced.erase(HazardKey(entry.request, entry.node));
        }
        reclaimed.push_back(std::move(pipe.inflight_task));
        pipe.inflight_valid = false;
      }
      // The dead thread left its busy marker set; clear it so the
      // watchdog's idle probe can pass once the replacement runs.
      pipe.busy_task_seq.store(-1, std::memory_order_release);
    }
  }
  // Ack strictly after the reclaim above is published: the watchdog only
  // probes for re-admission once the counter advances, so a ReadmitMsg can
  // never overtake this quarantine through the inbox.
  pipe.quarantine_acks.fetch_add(1);

  for (BatchedTask& task : task_queues_[static_cast<size_t>(worker)]->DrainAll()) {
    reclaimed.push_back(std::move(task));
  }
  shard.core->Quarantine(worker, reclaimed);
  metrics_.worker(worker).quarantines.fetch_add(1, std::memory_order_relaxed);
  trace_.WorkerQuarantine(worker, msg.dead, static_cast<int>(reclaimed.size()));
}

void Server::HandleReadmit(Shard& shard, const ReadmitMsg& msg) {
  const int worker = msg.worker;
  if (!shard.core->Readmit(worker)) {
    return;  // never quarantined here: stale or duplicate message
  }
  WorkerPipeline& pipe = *pipelines_[static_cast<size_t>(worker)];
  {
    std::lock_guard<std::mutex> lock(pipe.mu);
    pipe.quarantined = false;
  }
  metrics_.worker(worker).readmissions.fetch_add(1, std::memory_order_relaxed);
  // The refill Readmit formed goes out only now that the exec thread
  // accepts tasks again.
  Dispatch(*shard.core);
}

void Server::WatchdogLoop() {
  SetCurrentThreadName("watchdog");
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  const auto interval =
      std::chrono::duration<double, std::micro>(options_.health.check_interval_micros);
  // wait_for returns true only when watchdog_stop_ is set; each timeout is
  // one sampling pass over all workers.
  while (!watchdog_cv_.wait_for(lock, interval, [this] { return watchdog_stop_; })) {
    const double now = NowMicros();
    for (int w = 0; w < options_.num_workers; ++w) {
      WatchdogCheckWorker(w, now);
    }
  }
}

void Server::WatchdogCheckWorker(int worker, double now_micros) {
  WorkerPipeline& pipe = *pipelines_[static_cast<size_t>(worker)];
  WorkerWatch& watch = watch_[static_cast<size_t>(worker)];
  std::atomic<uint8_t>& health = worker_health_[static_cast<size_t>(worker)];
  const HealthOptions& opts = options_.health;
  const int owner_shard = shard_of_worker_[static_cast<size_t>(worker)];

  const auto begin_quarantine = [&](bool dead) {
    watch.quarantined = true;
    watch.respawned = false;
    watch.quarantined_at = now_micros;
    watch.acks_wanted = pipe.quarantine_acks.load() + 1;
    watch.backoff = opts.probe_backoff_micros;
    watch.next_probe = now_micros + watch.backoff;
    health.store(static_cast<uint8_t>(dead ? WorkerHealth::kDead : WorkerHealth::kHung),
                 std::memory_order_relaxed);
    shards_[static_cast<size_t>(owner_shard)]->inbox.Push(
        ManagerMsg{QuarantineMsg{worker, dead}});
  };

  if (watch.quarantined) {
    if (pipe.quarantine_acks.load() < watch.acks_wanted) {
      return;  // the shard manager has not processed the quarantine yet
    }
    // A dead worker's exec thread was joined before the quarantine was
    // requested; replace it once the manager's reclaim completed (the
    // replacement then only ever sees the reset pipeline).
    if (!watch.respawned &&
        health.load(std::memory_order_relaxed) ==
            static_cast<uint8_t>(WorkerHealth::kDead)) {
      exec_threads_[static_cast<size_t>(worker)] =
          std::thread([this, worker, owner_shard, respawned_at = NowMicros()] {
            TraceRecorder::SetThreadShard(owner_shard);
            ExecLoop(worker, respawned_at);
          });
      watch.respawned = true;
      metrics_.worker(worker).respawns.fetch_add(1, std::memory_order_relaxed);
      trace_.WorkerRespawn(worker);
    }
    if (now_micros < watch.next_probe) {
      return;
    }
    // Re-admission probe: the exec thread must be alive and idle (it holds
    // no task), so the re-admitted stream restarts clean.
    if (pipe.exec_alive.load() == 1 &&
        pipe.busy_task_seq.load(std::memory_order_acquire) == -1) {
      watch.quarantined = false;
      watch.respawned = false;
      watch.backoff = 0.0;
      health.store(static_cast<uint8_t>(WorkerHealth::kHealthy),
                   std::memory_order_relaxed);
      trace_.WorkerReadmit(worker, watch.quarantined_at);
      shards_[static_cast<size_t>(owner_shard)]->inbox.Push(
          ManagerMsg{ReadmitMsg{worker}});
      return;
    }
    // Still stuck: back off exponentially, bounded.
    watch.backoff = std::min(std::max(watch.backoff * 2.0, opts.probe_backoff_micros),
                             opts.probe_backoff_max_micros);
    watch.next_probe = now_micros + watch.backoff;
    return;
  }

  const int alive = pipe.exec_alive.load();
  if (alive == 0) {
    return;  // exec thread not yet running; nothing to judge
  }
  if (alive == 2) {
    // The exec thread exited outside shutdown: dead. Join the corpse so
    // its slot can be respawned, then ask the owning shard to quarantine
    // and reclaim (including the task the thread died inside).
    if (exec_threads_[static_cast<size_t>(worker)].joinable()) {
      exec_threads_[static_cast<size_t>(worker)].join();
    }
    begin_quarantine(/*dead=*/true);
    return;
  }
  const int64_t busy_seq = pipe.busy_task_seq.load(std::memory_order_acquire);
  if (busy_seq < 0) {
    // Idle is healthy by definition (the stream may simply be empty).
    if (health.load(std::memory_order_relaxed) ==
        static_cast<uint8_t>(WorkerHealth::kSlow)) {
      health.store(static_cast<uint8_t>(WorkerHealth::kHealthy),
                   std::memory_order_relaxed);
    }
    return;
  }
  // Busy: compare the in-flight span against the cost model's expectation
  // for this (type, batch). The model self-calibrates from measured spans,
  // so the thresholds track the machine, not a hardcoded constant.
  const double span = now_micros - pipe.busy_since.load(std::memory_order_relaxed);
  const double predicted = online_cost_model_->TaskMicros(
      static_cast<CellTypeId>(pipe.busy_type.load(std::memory_order_relaxed)),
      std::max(1, pipe.busy_batch.load(std::memory_order_relaxed)));
  const double hang_at =
      std::max(opts.min_hang_micros, opts.hang_multiplier * predicted);
  if (span >= hang_at) {
    begin_quarantine(/*dead=*/false);
    return;
  }
  if (opts.slow_multiplier > 0.0 && predicted > 0.0 &&
      span >= opts.slow_multiplier * predicted) {
    health.store(static_cast<uint8_t>(WorkerHealth::kSlow),
                 std::memory_order_relaxed);
    metrics_.worker(worker).slow_ticks.fetch_add(1, std::memory_order_relaxed);
  } else if (health.load(std::memory_order_relaxed) ==
             static_cast<uint8_t>(WorkerHealth::kSlow)) {
    health.store(static_cast<uint8_t>(WorkerHealth::kHealthy),
                 std::memory_order_relaxed);
  }
}

BlockingQueue<Server::ManagerMsg>& Server::InboxOf(int worker) {
  return shards_[static_cast<size_t>(shard_of_worker_[static_cast<size_t>(worker)])]->inbox;
}

void Server::FailWholeTask(BatchedTask task, int victim_entry) {
  const int batch = task.BatchSize();
  trace_.TaskFailed(task.id, task.type, task.worker, batch);
  CompletionMsg msg;
  msg.failed_entries.resize(static_cast<size_t>(batch));
  for (int i = 0; i < batch; ++i) {
    msg.failed_entries[static_cast<size_t>(i)] = i;
  }
  msg.victim_entry = victim_entry;
  const int worker = task.worker;
  msg.task = std::move(task);
  InboxOf(worker).Push(ManagerMsg{std::move(msg)});
}

void Server::RetireTask(WorkerPipeline& pipe) {
  if (!health_on_) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(pipe.mu);
    pipe.inflight_valid = false;
  }
  pipe.Beat(NowMicros());
  pipe.busy_task_seq.store(-1, std::memory_order_release);
}

void Server::ExecLoop(int worker, double idle_since) {
  SetCurrentThreadName("worker/" + std::to_string(worker) + "-exec");
  WorkerPipeline& pipe = *pipelines_[static_cast<size_t>(worker)];
  // Pin before constructing the pool: spawned pool threads inherit this
  // thread's affinity mask, so one pin covers the whole intra-task pool.
  const int my_node = numa_on_ ? worker_node_[static_cast<size_t>(worker)] : -1;
  if (my_node >= 0) {
    const bool pinned =
        PinCurrentThreadToCpus(topology_.nodes[static_cast<size_t>(my_node)].cpus);
    worker_pinned_[static_cast<size_t>(worker)].store(pinned,
                                                      std::memory_order_relaxed);
    trace_.WorkerPinned(worker, my_node, pinned);
    // First-touch the staging arena from the pinned owner: its steady-state
    // pages land on this node, so gathers write locally.
    pipe.staging->Prefault(size_t{1} << 20);
  }
  // This worker's execution resources — intra-task pool and scratch
  // arena — live inside its device queue, constructed here on the pinned
  // thread so backend allocations inherit the affinity and first-touch
  // placement. A respawned thread re-creates them with a fresh queue.
  DeviceQueueOptions qopts;
  qopts.worker = worker;
  qopts.threads = options_.threads_per_worker;
  qopts.thread_name_prefix = "pool/" + std::to_string(worker) + "-";
  qopts.numa_node = my_node;
  std::unique_ptr<DeviceQueue> queue = backend_->CreateQueue(qopts);
  BM_CHECK(queue != nullptr);
  auto& tasks = *task_queues_[static_cast<size_t>(worker)];
  // Completions go to the inbox of the shard that owns this worker.
  auto& inbox = InboxOf(worker);
  // Closes the open idle interval (idle_since >= 0): the gap the watermark
  // protocol exists to shrink, when this worker's stream was empty.
  // Accumulated onto the pipeline's total so a respawned thread keeps its
  // predecessor's share.
  const auto close_idle = [&] {
    if (idle_since < 0.0) {
      return;
    }
    const double idle_end = NowMicros();
    pipe.idle_micros.store(
        pipe.idle_micros.load(std::memory_order_relaxed) + (idle_end - idle_since),
        std::memory_order_relaxed);
    trace_.WorkerIdle(idle_since, idle_end, worker);
    idle_since = -1.0;
  };
  const bool chaos_on = fault_injector_.worker_chaos_enabled();
  if (health_on_) {
    pipe.exec_alive.store(1);
  }

  GatheredBatch gathered;
  // The task's request states (states[i] owns task.entries[i]), in the form
  // the device stages take; reused across tasks.
  std::vector<RequestState*> states;
  for (;;) {
    std::optional<BatchedTask> popped = tasks.TryPop();
    if (!popped) {
      // Nothing queued: this worker idles until the manager round-trips a
      // refill.
      if (idle_since < 0.0) {
        idle_since = NowMicros();
      }
      popped = tasks.Pop();
      if (!popped) {
        break;  // closed and drained
      }
    }
    close_idle();
    BatchedTask& task = *popped;
    states.clear();
    for (const TaskEntry& entry : task.entries) {
      states.push_back(entry.state);
    }
    const int batch = task.BatchSize();
    // Injected faults are decided before anything is gathered: the task
    // then produces nothing, exactly like a pure cascade.
    const bool injected = fault_injector_.ShouldFail(task.id);

    // A task popped after (or racing with) a quarantine goes straight
    // back: the manager's queue drain and the commit's check together
    // cover every task this thread could be holding.
    std::vector<uint8_t> poisoned;
    const int64_t seq = pipe.Commit(task, injected, health_on_, &poisoned);
    if (seq < 0) {
      inbox.Push(ManagerMsg{RequeueMsg{std::move(task)}});
      continue;
    }
    const int num_poisoned =
        static_cast<int>(std::count(poisoned.begin(), poisoned.end(), uint8_t{1}));
    if (num_poisoned == 0) {
      poisoned.clear();
    }

    if (health_on_) {
      // Heartbeat + busy marker: record what this thread is about to be
      // inside so the watchdog can price the expected span.
      const double now = NowMicros();
      pipe.Beat(now);
      pipe.busy_since.store(now, std::memory_order_relaxed);
      pipe.busy_type.store(static_cast<int>(task.type), std::memory_order_relaxed);
      pipe.busy_batch.store(batch, std::memory_order_relaxed);
      pipe.busy_task_seq.store(seq, std::memory_order_release);
    }
    double slowdown = 1.0;
    if (chaos_on) {
      // Deterministic worker chaos (watchdog drills), keyed on
      // (worker, stream seq): hang before executing, die before
      // executing, or stretch the exec span below.
      const WorkerChaos chaos = fault_injector_.ChaosAt(worker, seq);
      slowdown = chaos.slowdown_factor;
      if (chaos.hang_micros > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(chaos.hang_micros));
      }
      if (chaos.exit_thread) {
        // Crash drill: exit without executing, scattering or reporting.
        // inflight_valid stays set — the watchdog-initiated quarantine
        // reclaims the task from the pipeline's copy. The queue is torn
        // down like a normal exit (releasing any weight replicas) so the
        // respawned thread can re-create it.
        queue.reset();
        if (health_on_) {
          pipe.exec_alive.store(2);
        }
        return;
      }
    }

    if (num_poisoned == batch) {
      // Injected fault or pure cascade: nothing to gather or execute (the
      // entries' keys are already in failed_produced). Blame for a cascade
      // stays with the original fault.
      RetireTask(pipe);
      int victim = -1;
      if (injected) {
        victim = fault_injector_.VictimEntry(task.id, batch);
        tasks_failed_.fetch_add(1);  // cascades count the original fault only
      }
      FailWholeTask(std::move(task), victim);
      continue;
    }

    trace_.GatherBegin(task.id, task.type, worker, batch);
    // Compute-free backends stage nothing; the poison bookkeeping above
    // still ran, so stream-order invariants hold for every backend.
    if (caps_.requires_gather) {
      backend_->Gather(task, states, &gathered, pipe.staging.get(),
                       poisoned.empty() ? nullptr : &poisoned);
    }
    trace_.GatherEnd(task.id, task.type, worker, batch);
    if (health_on_) {
      pipe.Beat(NowMicros());
    }

    if (my_node >= 0) {
      // Estimated cross-node gather traffic: rows whose producing request
      // last scattered on another node, priced at the task's mean row
      // bytes. An upper bound (the row may have been node-local anyway
      // after a steal) and purely diagnostic.
      int64_t gathered_bytes = 0;
      for (const Tensor& t : gathered.inputs) {
        gathered_bytes +=
            t.NumElements() * static_cast<int64_t>(DTypeSize(t.dtype()));
      }
      int64_t remote_rows = 0;
      for (int i = 0; i < batch; ++i) {
        if (!poisoned.empty() && poisoned[static_cast<size_t>(i)] != 0) {
          continue;
        }
        const int producer_node = states[static_cast<size_t>(i)]->last_scatter_node.load(
            std::memory_order_relaxed);
        if (producer_node >= 0 && producer_node != my_node) {
          ++remote_rows;
        }
      }
      if (remote_rows > 0) {
        metrics_.node(my_node).remote_gather_bytes.fetch_add(
            gathered_bytes * remote_rows / batch, std::memory_order_relaxed);
      }
    }

    const double exec_start = NowMicros();
    // First-execution stamping happens here (not on the manager): any
    // worker may win the CAS, and readers only look after the completion
    // has round-tripped through the inbox. Poisoned entries did not begin
    // executing — they stay eligible for deadline shedding.
    for (int i = 0; i < batch; ++i) {
      if (poisoned.empty() || poisoned[static_cast<size_t>(i)] == 0) {
        states[static_cast<size_t>(i)]->MarkExecStarted(exec_start);
      }
    }
    trace_.ExecBegin(exec_start, task.id, task.type, worker, batch);
    // Run the task on the device queue. A failed result means the whole
    // task produced nothing — treated exactly like an injected fault with
    // no victim.
    DeviceEventPtr done = queue->Submit(task, gathered);
    const bool exec_threw = done->failed();
    std::vector<Tensor> outputs = done->TakeOutputs();
    if (slowdown > 1.0) {
      // Degraded-worker drill: stretch the measured span before the
      // post-execute heartbeat so both the watchdog's slow classifier and
      // the cost model's calibration observe the inflated span.
      std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(
          (slowdown - 1.0) * (NowMicros() - exec_start)));
    }
    // The gather buffers are dead: drop the arena-backed tensors, then
    // recycle the staging arena (the backend recycled its own scratch
    // inside Submit).
    gathered.inputs.clear();
    pipe.staging->Reset();

    if (exec_threw) {
      {
        std::lock_guard<std::mutex> lock(pipe.mu);
        for (const TaskEntry& entry : task.entries) {
          pipe.failed_produced.insert(HazardKey(entry.request, entry.node));
        }
      }
      RetireTask(pipe);
      tasks_failed_.fetch_add(1);
      FailWholeTask(std::move(task), /*victim_entry=*/-1);
      continue;
    }

    queue->Scatter(task, states, outputs, poisoned.empty() ? nullptr : &poisoned);
    if (my_node >= 0) {
      // Remember where these requests' outputs now live; later gathers use
      // it to estimate cross-node traffic (diagnostic only).
      for (int i = 0; i < batch; ++i) {
        if (poisoned.empty() || poisoned[static_cast<size_t>(i)] == 0) {
          states[static_cast<size_t>(i)]->last_scatter_node.store(
              my_node, std::memory_order_relaxed);
        }
      }
    }
    RetireTask(pipe);
    trace_.ExecEnd(task.id, task.type, worker, batch);
    tasks_executed_.fetch_add(1);
    if (online_cost_model_ != nullptr) {
      // Calibration sample: measured execute+scatter span for this
      // (type, batch). The EWMA smooths scheduling noise; every
      // refit_interval samples the model re-fits the type's cost curve.
      online_cost_model_->Observe(task.type, batch, NowMicros() - exec_start);
    }

    CompletionMsg msg;
    for (int i = 0; i < static_cast<int>(poisoned.size()); ++i) {
      if (poisoned[static_cast<size_t>(i)] != 0) {
        msg.failed_entries.push_back(i);
      }
    }
    msg.task = std::move(task);
    inbox.Push(ManagerMsg{std::move(msg)});
  }

  close_idle();
  queue.reset();
  if (health_on_) {
    pipe.exec_alive.store(2);
  }
}

}  // namespace batchmaker
