#include "src/core/server.h"

#include <algorithm>
#include <chrono>
#include <deque>
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

// Hazard-set key for one (request, node) pair. Node indices are bounded by
// graph size (well under 2^20) and request ids are sequential from 1, so
// the packing cannot collide — a collision would be a correctness bug
// (erasing one pair's key would unmask another's hazard).
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

// Shared state of one worker's staging/execution thread pair.
//
// The staging thread pops tasks from the worker's FIFO task queue, waits
// out the two hazards below, gathers the task's inputs into one of the two
// staging arenas, and appends the staged task to `staged`. The execution
// thread pops from `staged` in order, executes, resets the task's staging
// arena, scatters, and retires the task's hazard keys. All shared fields
// are guarded by `mu`; `cv` is signalled whenever either side makes
// progress the other may be waiting on.
//
// Hazard 1 (read-after-write): within a FIFO stream, task t+1 may consume
// outputs of task t that has not scattered yet (the scheduler satisfies
// *internal* dependencies at schedule time, trusting stream order). The
// stager must not gather an input row whose producer is in `unscattered` —
// the (request, node) keys of every popped-but-not-yet-scattered task.
// Keys are inserted after a task's gather (before the next pop) and erased
// after its scatter, so the blocking condition only ever clears, never
// reappears, while the stager waits.
//
// Hazard 2 (arena reuse): task seq gathers into staging[seq % 2], which is
// reset by the execution thread right after task seq executes. The stager
// may start gathering task seq only once task seq-2 has executed
// (executed_seq >= seq - 2), i.e. its buffers are dead and the arena
// recycled. This is what bounds staging memory to two tasks per worker.
//
// Failure poison (`failed_produced`): when a task fails to execute
// (injected fault or a throwing cell), its entries' (request, node) keys go
// here instead of `unscattered` — the nodes produced nothing, and later
// tasks in this stream that consume them must not gather (there is nothing
// to read) nor block forever on the hazard wait. The stager checks each
// entry's inputs against this set to build the task's poisoned mask;
// poisoned rows gather as zeros, are skipped by the scatter, and are
// reported to the manager as failed entries (a cascade). Keys are purged
// three ways so a re-scheduled healthy execution is never mis-poisoned:
// the stager self-cleans an entry's own stale key when it stages cleanly,
// the scheduler's unpark hook erases a parked subgraph's keys once its
// in-flight tasks drain, and request finalization sweeps keys of nodes
// that were cancelled outright.
struct Server::WorkerPipeline {
  struct StagedTask {
    WorkerTask wt;
    GatheredBatch gathered;
    int64_t seq = 0;
    // Per-entry cascade mask (empty = no poisoned entries).
    std::vector<uint8_t> poisoned;
    // Injected fault or every entry poisoned: nothing gathered, nothing to
    // execute; the exec thread just advances the stream and reports.
    bool skip = false;
    // Entry blamed for an injected fault; -1 for cascades.
    int victim = -1;
  };

  std::mutex mu;
  std::condition_variable cv;
  std::unordered_set<uint64_t> unscattered;
  std::unordered_set<uint64_t> failed_produced;
  std::deque<StagedTask> staged;
  int64_t executed_seq = -1;  // highest seq executed + scattered
  bool stage_done = false;    // staging thread exited; drain and stop
  // Device staging buffers (backend_->CreateArena()); the CPU backend's
  // wrap TensorArenas, compute-free backends hand out no-op arenas.
  std::unique_ptr<DeviceArena> staging[2];
  // Total exec-thread time with nothing to execute (see WorkerIdleMicros):
  // from Start (or a respawn) to the first task, between tasks, and from
  // the last task to exit. Written only by the exec thread; read from any
  // thread.
  std::atomic<double> idle_micros{0.0};

  // ---- Worker failure domains (written only when health_on_) ----------
  // Progress heartbeat: a monotonically increasing epoch plus a wall
  // stamp, bumped by the stager and exec threads at gather / execute /
  // scatter boundaries. The watchdog reads both lock-free.
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
  // watchdog flags this worker. The stager aborts any task it holds (and
  // refuses new ones) while this is set, handing them back via RequeueMsg.
  bool quarantined = false;
  // In-flight task metadata for dead-worker reclamation: a copy of the
  // task the exec thread popped (recorded under mu before execution,
  // cleared once its completion message is pushed). A hung worker's
  // in-flight task is never reclaimed — it completes when the thread
  // wakes; a dead worker's never will, so the manager requeues this copy.
  BatchedTask inflight_task;
  int64_t inflight_seq = -1;
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

  // Publishes a task that will not execute (injected fault or pure
  // cascade): nothing is gathered, and its entries' keys join
  // failed_produced so later consumers in this stream poison instead of
  // blocking. Returns false, publishing nothing, if the worker was
  // quarantined meanwhile (the caller hands the task back).
  bool PublishSkipped(StagedTask& st) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (quarantined) {
        return false;
      }
      for (const TaskEntry& entry : st.wt.task.entries) {
        failed_produced.insert(HazardKey(entry.request, entry.node));
      }
      staged.push_back(std::move(st));
    }
    cv.notify_all();
    return true;
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

  // Slack-aware batch formation (DESIGN.md): an online cost model —
  // seeded with the static Figure-3 anchors, continuously re-fitted from
  // measured exec spans — feeds every shard
  // scheduler's delay/launch decision. The health watchdog prices its
  // hang thresholds from the same model, so it is created for either
  // feature (the scheduler only consults it under slack_on_).
  slack_on_ = options_.batch_policy.slack_batching &&
              options_.batch_policy.max_delay_micros > 0.0;
  health_on_ = options_.health.health_watchdog;
  if (slack_on_ || health_on_) {
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
    task_queues_.push_back(std::make_unique<BlockingQueue<WorkerTask>>());
    auto pipe = std::make_unique<WorkerPipeline>();
    pipe->staging[0] = backend_->CreateArena();
    pipe->staging[1] = backend_->CreateArena();
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
  numa_replicate_ = options_.numa_policy == NumaPolicy::kPinReplicate;
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
    if (slack_on_) {
      config.slack_cost_model = online_cost_model_.get();
      config.batch_policy = options_.batch_policy;
    }
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
    stager_threads_.emplace_back([this, i, shard] {
      TraceRecorder::SetThreadShard(shard);
      StageLoop(i);
    });
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
  std::string err = graph.ValidateOrError(*registry_, static_cast<int>(externals.size()));
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
  // stops that worker's staging thread, which flags stage_done and lets
  // the execution thread drain `staged` (already empty) and exit.
  for (auto& queue : task_queues_) {
    queue->Close();
  }
  for (std::thread& t : stager_threads_) {
    t.join();
  }
  for (std::thread& t : exec_threads_) {
    // A chaos-killed exec thread the watchdog already joined (and maybe
    // replaced) leaves a non-joinable slot behind.
    if (t.joinable()) {
      t.join();
    }
  }
  // Fold the schedulers' delayed-launch totals into the per-shard metrics
  // now that their manager threads have stopped (exactly once: a second
  // Shutdown call returns at the exchange above).
  for (auto& shard : shards_) {
    const Scheduler& scheduler = shard->core->scheduler();
    ShardCounters& counters = metrics_.shard(shard->core->id());
    counters.delayed_batches.fetch_add(scheduler.TotalDelayedLaunches(),
                                       std::memory_order_relaxed);
    counters.batch_delay_micros.fetch_add(
        static_cast<int64_t>(scheduler.TotalBatchDelayMicros()),
        std::memory_order_relaxed);
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
    // A shedding deadline or deferred launch bounds the wait, so a queued
    // request is shed — and a deferred batch launched — on time even with
    // no messages in flight.
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
    WorkerTask wt;
    wt.states.reserve(task.entries.size());
    for (const TaskEntry& entry : task.entries) {
      RequestState* state = core.processor().FindRequest(entry.request);
      BM_CHECK(state != nullptr);
      wt.states.push_back(state);
    }
    const int worker = task.worker;
    wt.task = std::move(task);
    task_queues_[static_cast<size_t>(worker)]->Push(std::move(wt));
  }
  formed.clear();
}

void Server::HandleQuarantine(Shard& shard, const QuarantineMsg& msg) {
  const int worker = msg.worker;
  WorkerPipeline& pipe = *pipelines_[static_cast<size_t>(worker)];

  // Reclaim the undone stream. Every task this worker was handed is in
  // exactly one place — the task queue, the stager's hands, `staged`, or
  // the exec thread — and each resolves exactly once: queued and staged
  // tasks are requeued here, a task the stager holds comes back via
  // RequeueMsg (it sees the flag at its next lock acquisition), and the
  // exec thread's in-flight task either completes on wake (hung) or is
  // requeued from the pipeline's copy (dead).
  std::vector<BatchedTask> reclaimed;
  {
    std::lock_guard<std::mutex> lock(pipe.mu);
    pipe.quarantined = true;
    int64_t max_seq = pipe.executed_seq;
    bool reset_parity[2] = {false, false};
    for (WorkerPipeline::StagedTask& st : pipe.staged) {
      max_seq = std::max(max_seq, st.seq);
      reset_parity[st.seq & 1] = true;
      // Retire the spliced task's hazard keys: clean entries sit in
      // unscattered, poisoned/skipped ones in failed_produced, and either
      // would mis-block or mis-poison a later stream after re-admission.
      for (const TaskEntry& entry : st.wt.task.entries) {
        const uint64_t key = HazardKey(entry.request, entry.node);
        pipe.unscattered.erase(key);
        pipe.failed_produced.erase(key);
      }
      reclaimed.push_back(std::move(st.wt.task));
    }
    pipe.staged.clear();  // drops the gathered views into the arenas
    if (msg.dead) {
      if (pipe.inflight_valid) {
        max_seq = std::max(max_seq, pipe.inflight_seq);
        // The dead thread owned this parity (it was joined before the
        // message was sent), so resetting it here is single-threaded.
        reset_parity[pipe.inflight_seq & 1] = true;
        for (const TaskEntry& entry : pipe.inflight_task.entries) {
          const uint64_t key = HazardKey(entry.request, entry.node);
          pipe.unscattered.erase(key);
          pipe.failed_produced.erase(key);
        }
        reclaimed.push_back(std::move(pipe.inflight_task));
        pipe.inflight_valid = false;
        pipe.inflight_seq = -1;
      }
      // The dead thread left its busy marker set; clear it so the
      // watchdog's idle probe can pass once the replacement runs.
      pipe.busy_task_seq.store(-1, std::memory_order_release);
    } else if (pipe.inflight_valid) {
      // Hung: the exec thread still owns its task's arena — leave it; it
      // is reset on wake like any other completed task's.
      reset_parity[pipe.inflight_seq & 1] = false;
    }
    // Reset exactly the parities of the tasks reclaimed above — never
    // both unconditionally. The stager may be running a gather right now
    // without holding mu (it only checks `quarantined` before the hazard
    // wait and at publish); the seq it owns is gated by executed_seq to
    // at most one past every seq reclaimed here, so it is the *opposite*
    // parity of any reclaimed task, and the stager's own quarantine-abort
    // publish Reset()s that arena before handing its task back.
    for (int p = 0; p < 2; ++p) {
      if (reset_parity[p]) {
        pipe.staging[p]->Reset();
      }
    }
    // Spliced seqs will never execute; publishing them as "executed" keeps
    // the stager's arena-reuse wait from deadlocking on a hole.
    pipe.executed_seq = max_seq;
  }
  // Ack strictly after the reclaim above is published: the watchdog only
  // probes for re-admission once the counter advances, so a ReadmitMsg can
  // never overtake this quarantine through the inbox.
  pipe.quarantine_acks.fetch_add(1);
  pipe.cv.notify_all();

  for (WorkerTask& wt : task_queues_[static_cast<size_t>(worker)]->DrainAll()) {
    reclaimed.push_back(std::move(wt.task));
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
  // The refill Readmit formed goes out only now that the stager accepts
  // tasks again.
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
    // Re-admission probe: the exec thread must be alive and idle. Idle
    // means it holds no task, so every arena parity has been reset by its
    // last owner (quarantine splice, stager abort, or a completed
    // execution) and the re-admitted stream restarts clean.
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

void Server::HandBack(BatchedTask task) {
  const int worker = task.worker;
  InboxOf(worker).Push(ManagerMsg{RequeueMsg{std::move(task)}});
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

void Server::RetireTask(WorkerPipeline& pipe, std::unique_lock<std::mutex> lock,
                        int64_t seq) {
  // The max keeps a quarantine's splice — which may have published a
  // higher executed_seq already — from moving backwards.
  pipe.executed_seq = std::max(pipe.executed_seq, seq);
  if (health_on_) {
    pipe.inflight_valid = false;
    pipe.inflight_seq = -1;
  }
  lock.unlock();
  pipe.cv.notify_all();
  if (health_on_) {
    pipe.Beat(NowMicros());
    pipe.busy_task_seq.store(-1, std::memory_order_release);
  }
}

void Server::StageLoop(int worker) {
  SetCurrentThreadName("worker/" + std::to_string(worker) + "-stager");
  WorkerPipeline& pipe = *pipelines_[static_cast<size_t>(worker)];
  const int my_node = numa_on_ ? worker_node_[static_cast<size_t>(worker)] : -1;
  if (my_node >= 0) {
    PinCurrentThreadToCpus(topology_.nodes[static_cast<size_t>(my_node)].cpus);
    // First-touch the double-buffered staging arenas from the pinned owner:
    // their steady-state pages land on this node, so gathers write locally.
    pipe.staging[0]->Prefault(size_t{1} << 20);
    pipe.staging[1]->Prefault(size_t{1} << 20);
  }
  auto& queue = *task_queues_[static_cast<size_t>(worker)];
  // Stream seqs are consumed only when a task is *published* to `staged`:
  // a quarantine-aborted task is handed back without a seq, so the exec
  // thread's executed_seq never has to step over a hole.
  int64_t next_seq = 0;
  while (auto wt = queue.Pop()) {
    const int64_t seq = next_seq;
    const size_t batch = wt->task.entries.size();

    if (health_on_) {
      // A task popped after (or racing with) a quarantine goes straight
      // back: the manager's queue drain and this check together cover
      // every task the stager could be holding.
      bool reclaim;
      {
        std::lock_guard<std::mutex> lock(pipe.mu);
        reclaim = pipe.quarantined;
      }
      if (reclaim) {
        HandBack(std::move(wt->task));
        continue;
      }
      pipe.Beat(NowMicros());
    }

    WorkerPipeline::StagedTask st;
    st.seq = seq;

    // Injected faults are decided at stage time, before any gather: every
    // later task of this stream then sees the poison keys when it stages,
    // so a consumer can never block on (or read) the missing outputs.
    if (fault_injector_.ShouldFail(wt->task.id)) {
      st.skip = true;
      st.victim = fault_injector_.VictimEntry(wt->task.id, static_cast<int>(batch));
      st.wt = std::move(*wt);
      if (pipe.PublishSkipped(st)) {
        ++next_seq;
      } else {
        HandBack(std::move(st.wt.task));
      }
      continue;
    }

    // Keys of internal inputs: producers that must have scattered before
    // this task's rows can be gathered (hazard 1 above). A producer that
    // *failed* instead puts its key in failed_produced, never unscattered,
    // so the wait below cannot block on it; the poisoned mask is computed
    // under the same lock, after the wait, when every producer has either
    // scattered or failed for good.
    std::vector<uint64_t> input_keys;
    for (size_t i = 0; i < batch; ++i) {
      const TaskEntry& entry = wt->task.entries[i];
      const CellNode& node = wt->states[i]->graph.node(entry.node);
      for (const ValueRef& ref : node.inputs) {
        if (!ref.is_external()) {
          input_keys.push_back(HazardKey(entry.request, ref.node));
        }
      }
    }
    size_t num_poisoned = 0;
    {
      std::unique_lock<std::mutex> lock(pipe.mu);
      pipe.cv.wait(lock, [&] {
        if (health_on_ && pipe.quarantined) {
          return true;  // abort: the manager reclaimed this stream
        }
        if (pipe.executed_seq < seq - 2) {
          return false;  // staging[seq % 2] still holds task seq-2's buffers
        }
        for (uint64_t key : input_keys) {
          if (pipe.unscattered.count(key) != 0) {
            return false;  // a producer has not scattered yet
          }
        }
        return true;
      });
      if (health_on_ && pipe.quarantined) {
        lock.unlock();
        HandBack(std::move(wt->task));
        continue;
      }
      if (!pipe.failed_produced.empty()) {
        st.poisoned.assign(batch, 0);
        for (size_t i = 0; i < batch; ++i) {
          const TaskEntry& entry = wt->task.entries[i];
          const CellNode& node = wt->states[i]->graph.node(entry.node);
          for (const ValueRef& ref : node.inputs) {
            if (!ref.is_external() &&
                pipe.failed_produced.count(HazardKey(entry.request, ref.node)) != 0) {
              st.poisoned[i] = 1;
              num_poisoned++;
              break;
            }
          }
        }
        if (num_poisoned == 0) {
          st.poisoned.clear();
        }
      }
    }

    if (num_poisoned == batch) {
      // Every entry consumes a failed producer: a pure cascade, nothing to
      // gather or execute. Blame stays with the original fault.
      st.skip = true;
      st.poisoned.clear();
      st.wt = std::move(*wt);
      if (pipe.PublishSkipped(st)) {
        ++next_seq;
      } else {
        HandBack(std::move(st.wt.task));
      }
      continue;
    }

    trace_.GatherBegin(wt->task.id, wt->task.type, worker, wt->task.BatchSize());
    // Compute-free backends stage nothing; the hazard bookkeeping above and
    // below still ran, so stream-order invariants hold for every backend.
    if (caps_.requires_gather) {
      backend_->Gather(wt->task, wt->states, &st.gathered,
                       pipe.staging[seq & 1].get(),
                       st.poisoned.empty() ? nullptr : &st.poisoned);
    }
    trace_.GatherEnd(wt->task.id, wt->task.type, worker, wt->task.BatchSize());
    if (health_on_) {
      pipe.Beat(NowMicros());
    }

    if (my_node >= 0) {
      // Estimated cross-node gather traffic: rows whose producing request
      // last scattered on another node, priced at the task's mean row
      // bytes. An upper bound (the row may have been node-local anyway
      // after a steal) and purely diagnostic.
      int64_t gathered_bytes = 0;
      for (const Tensor& t : st.gathered.inputs) {
        gathered_bytes +=
            t.NumElements() * static_cast<int64_t>(DTypeSize(t.dtype()));
      }
      int64_t remote_rows = 0;
      for (size_t i = 0; i < batch; ++i) {
        if (!st.poisoned.empty() && st.poisoned[i] != 0) {
          continue;
        }
        const int producer_node =
            wt->states[i]->last_scatter_node.load(std::memory_order_relaxed);
        if (producer_node >= 0 && producer_node != my_node) {
          ++remote_rows;
        }
      }
      if (remote_rows > 0) {
        metrics_.node(my_node).remote_gather_bytes.fetch_add(
            gathered_bytes * remote_rows / static_cast<int64_t>(batch),
            std::memory_order_relaxed);
      }
    }

    bool reclaim = false;
    {
      std::lock_guard<std::mutex> lock(pipe.mu);
      if (health_on_ && pipe.quarantined) {
        // Quarantined between the hazard wait and this publish: the rows
        // just gathered will never execute. This thread still owns the
        // arena (the task was never published), so recycle it and hand the
        // task back without consuming the seq.
        st.gathered.inputs.clear();
        pipe.staging[seq & 1]->Reset();
        reclaim = true;
      } else {
        for (size_t i = 0; i < batch; ++i) {
          const TaskEntry& entry = wt->task.entries[i];
          const uint64_t key = HazardKey(entry.request, entry.node);
          if (!st.poisoned.empty() && st.poisoned[i] != 0) {
            pipe.failed_produced.insert(key);  // propagate the cascade
          } else {
            // Self-clean: a node re-staged here after a failed attempt (the
            // revert machinery re-scheduled it to this worker) supersedes its
            // stale poison key.
            pipe.failed_produced.erase(key);
            pipe.unscattered.insert(key);
          }
        }
        st.wt = std::move(*wt);
        pipe.staged.push_back(std::move(st));
        ++next_seq;
      }
    }
    if (reclaim) {
      HandBack(std::move(wt->task));
      continue;
    }
    pipe.cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(pipe.mu);
    pipe.stage_done = true;
  }
  pipe.cv.notify_all();
}

void Server::ExecLoop(int worker, double idle_since) {
  SetCurrentThreadName("worker/" + std::to_string(worker) + "-exec");
  // Pin before constructing the pool: spawned pool threads inherit this
  // thread's affinity mask, so one pin covers the whole intra-task pool.
  const int my_node = numa_on_ ? worker_node_[static_cast<size_t>(worker)] : -1;
  if (my_node >= 0) {
    const bool pinned =
        PinCurrentThreadToCpus(topology_.nodes[static_cast<size_t>(my_node)].cpus);
    worker_pinned_[static_cast<size_t>(worker)].store(pinned,
                                                      std::memory_order_relaxed);
    trace_.WorkerPinned(worker, my_node, pinned);
  }
  // This worker's execution resources — intra-task pool, scratch arena,
  // NUMA weight replicas — now live inside its device queue, constructed
  // here on the pinned thread so backend allocations inherit the affinity
  // and first-touch placement. Gather buffers live in the pipeline's
  // staging arenas instead, so a task's inputs survive while the previous
  // task executes here. Destroying the queue (normal exit, chaos exit)
  // releases the replicas, so a respawned thread re-acquires them by
  // re-creating it.
  DeviceQueueOptions qopts;
  qopts.worker = worker;
  qopts.threads = options_.threads_per_worker;
  qopts.thread_name_prefix = "pool/" + std::to_string(worker) + "-";
  qopts.numa_node = my_node;
  qopts.replicate_weights = numa_replicate_ && my_node >= 0;
  std::unique_ptr<DeviceQueue> queue = backend_->CreateQueue(qopts);
  BM_CHECK(queue != nullptr);
  WorkerPipeline& pipe = *pipelines_[static_cast<size_t>(worker)];
  // Completions go to the inbox of the shard that owns this worker.
  auto& inbox = InboxOf(worker);
  // Closes the open idle interval (idle_since >= 0): the gap the watermark
  // protocol exists to shrink, when this worker's cores had nothing staged
  // to run. Accumulated onto the pipeline's total so a respawned thread
  // keeps its predecessor's share.
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

  for (;;) {
    WorkerPipeline::StagedTask st;
    {
      std::unique_lock<std::mutex> lock(pipe.mu);
      if (pipe.staged.empty() && !pipe.stage_done) {
        // Nothing staged: this worker idles until the manager round-trips
        // a refill (or the stager finishes a gather).
        if (idle_since < 0.0) {
          idle_since = NowMicros();
        }
        pipe.cv.wait(lock,
                     [&] { return !pipe.staged.empty() || pipe.stage_done; });
      }
      if (pipe.staged.empty()) {
        break;  // stage_done and fully drained
      }
      st = std::move(pipe.staged.front());
      pipe.staged.pop_front();
    }
    close_idle();

    const int batch = st.wt.task.BatchSize();

    if (health_on_) {
      // Heartbeat + busy marker: record what this thread is about to be
      // inside so the watchdog can price the expected span. The in-flight
      // copy (under mu) is the manager's handle for reclaiming the task if
      // this thread dies inside it.
      const double now = NowMicros();
      pipe.Beat(now);
      pipe.busy_since.store(now, std::memory_order_relaxed);
      pipe.busy_type.store(static_cast<int>(st.wt.task.type),
                           std::memory_order_relaxed);
      pipe.busy_batch.store(batch, std::memory_order_relaxed);
      pipe.busy_task_seq.store(st.seq, std::memory_order_release);
      {
        std::lock_guard<std::mutex> lock(pipe.mu);
        pipe.inflight_task = st.wt.task;
        pipe.inflight_seq = st.seq;
        pipe.inflight_valid = true;
      }
    }
    double slowdown = 1.0;
    if (chaos_on) {
      // Deterministic worker chaos (watchdog drills), keyed on
      // (worker, stream seq): hang before executing, die before
      // executing, or stretch the exec span below.
      const WorkerChaos chaos = fault_injector_.ChaosAt(worker, st.seq);
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

    if (st.skip) {
      // Injected fault or pure cascade: nothing was gathered and nothing
      // executes. Advance the stream (the staging arena was never touched;
      // its keys are already in failed_produced) and report the failure.
      RetireTask(pipe, std::unique_lock<std::mutex>(pipe.mu), st.seq);
      if (st.victim >= 0) {
        tasks_failed_.fetch_add(1);  // cascades count the original fault only
      }
      FailWholeTask(std::move(st.wt.task), st.victim);
      continue;
    }

    const double exec_start = NowMicros();
    // First-execution stamping happens here (not on the manager): any
    // worker may win the CAS, and readers only look after the completion
    // has round-tripped through the inbox. Poisoned entries did not begin
    // executing — they stay eligible for deadline shedding.
    for (size_t i = 0; i < st.wt.states.size(); ++i) {
      if (st.poisoned.empty() || st.poisoned[i] == 0) {
        st.wt.states[i]->MarkExecStarted(exec_start);
      }
    }
    trace_.ExecBegin(exec_start, st.wt.task.id, st.wt.task.type, worker, batch);
    // Submit to the device stream and fence on completion. The CPU backend
    // executes inline (the event returns signalled); async backends overlap
    // device work with the next task's gather. A failed event means the
    // whole task produced nothing — treated exactly like an injected fault
    // with no victim.
    DeviceEventPtr done = queue->Submit(st.wt.task, st.gathered);
    done->Wait();
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
    // inside Submit). Resetting staging[seq % 2] before publishing
    // executed_seq (below, under mu) is what makes it safe for the stager
    // to reuse — its wait on executed_seq orders the reset before any new
    // gather into that arena.
    st.gathered.inputs.clear();
    pipe.staging[st.seq & 1]->Reset();

    if (exec_threw) {
      std::unique_lock<std::mutex> lock(pipe.mu);
      for (const TaskEntry& entry : st.wt.task.entries) {
        const uint64_t key = HazardKey(entry.request, entry.node);
        pipe.unscattered.erase(key);
        pipe.failed_produced.insert(key);
      }
      RetireTask(pipe, std::move(lock), st.seq);
      tasks_failed_.fetch_add(1);
      FailWholeTask(std::move(st.wt.task), /*victim_entry=*/-1);
      continue;
    }

    queue->Scatter(st.wt.task, st.wt.states, outputs,
                   st.poisoned.empty() ? nullptr : &st.poisoned);
    if (my_node >= 0) {
      // Remember where these requests' outputs now live; stagers use it to
      // estimate cross-node gather traffic (diagnostic only).
      for (size_t i = 0; i < st.wt.states.size(); ++i) {
        if (st.poisoned.empty() || st.poisoned[i] == 0) {
          st.wt.states[i]->last_scatter_node.store(my_node,
                                                   std::memory_order_relaxed);
        }
      }
    }
    {
      std::unique_lock<std::mutex> lock(pipe.mu);
      for (size_t i = 0; i < st.wt.task.entries.size(); ++i) {
        if (st.poisoned.empty() || st.poisoned[i] == 0) {
          const TaskEntry& entry = st.wt.task.entries[i];
          pipe.unscattered.erase(HazardKey(entry.request, entry.node));
        }
        // Poisoned keys were never in unscattered; they stay poisoned in
        // failed_produced until purged by unpark or finalization.
      }
      RetireTask(pipe, std::move(lock), st.seq);
    }
    trace_.ExecEnd(st.wt.task.id, st.wt.task.type, worker, batch);
    tasks_executed_.fetch_add(1);
    if (online_cost_model_ != nullptr) {
      // Calibration sample: measured execute+scatter span for this
      // (type, batch). The EWMA smooths scheduling noise; every
      // refit_interval samples the model re-fits the type's cost curve.
      online_cost_model_->Observe(st.wt.task.type, batch, NowMicros() - exec_start);
    }

    CompletionMsg msg;
    if (!st.poisoned.empty()) {
      for (int i = 0; i < batch; ++i) {
        if (st.poisoned[static_cast<size_t>(i)] != 0) {
          msg.failed_entries.push_back(i);
        }
      }
    }
    msg.task = std::move(st.wt.task);
    inbox.Push(ManagerMsg{std::move(msg)});
  }

  close_idle();
  queue.reset();
  if (health_on_) {
    pipe.exec_alive.store(2);
  }
}

}  // namespace batchmaker
