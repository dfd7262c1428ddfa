#include "src/core/sim_engine.h"

#include <algorithm>
#include <utility>

#include "src/util/logging.h"

namespace batchmaker {

SimEngine::SimEngine(const CellRegistry* registry, const CostModel* cost_model,
                     SimEngineOptions options)
    : trace_([this] { return events_.Now(); }) {
  BM_CHECK(registry != nullptr);
  BM_CHECK(cost_model != nullptr);
  BM_CHECK_GT(options.pipeline_depth, 0);
  BM_CHECK_GT(options.num_workers, 0);
  BM_CHECK_GT(options.num_shards, 0);
  num_shards_ = std::min(options.num_shards, options.num_workers);
  if (options.enable_tracing) {
    trace_.Enable();
  }
  metrics_.InitShards(num_shards_);

  shard_of_worker_.assign(static_cast<size_t>(options.num_workers), 0);
  for (int s = 0; s < num_shards_; ++s) {
    ShardConfig config;
    config.id = s;
    config.num_shards = num_shards_;
    config.worker_begin = s * options.num_workers / num_shards_;
    config.worker_end = (s + 1) * options.num_workers / num_shards_;
    config.pipeline_depth = options.pipeline_depth;
    config.queue_timeout_micros = options.admission.queue_timeout_micros;
    config.scheduler = options.scheduler;
    for (int w = config.worker_begin; w < config.worker_end; ++w) {
      shard_of_worker_[static_cast<size_t>(w)] = s;
    }
    ShardCore::Driver driver;
    driver.now = [this] { return events_.Now(); };
    driver.send = [this](int to_shard, PeerMsg msg) {
      // Delivered at the current instant, after every event already queued
      // for it: the receiving shard handles it in its own step, as the
      // Server's manager handles an inbox message.
      auto shared = std::make_shared<PeerMsg>(std::move(msg));
      events_.ScheduleAt(events_.Now(), [this, to_shard, shared] {
        ShardCore& core = *shards_[static_cast<size_t>(to_shard)];
        core.Receive(std::move(*shared));
        core.Pass();
        Settle(to_shard);
      });
    };
    shards_.push_back(std::make_unique<ShardCore>(registry, std::move(config),
                                                  std::move(driver), &metrics_, &trace_));
  }
  wakes_.resize(static_cast<size_t>(num_shards_));
  pool_ = std::make_unique<SimWorkerPool>(options.num_workers, &events_, cost_model);

  pool_->set_on_task_start([this](const BatchedTask& task) {
    // A request with an entry in flight is never finalized, so every
    // entry's state is live until the task completes.
    for (const TaskEntry& entry : task.entries) {
      entry.state->MarkExecStarted(events_.Now());
    }
    trace_.ExecBegin(task.id, task.type, task.worker, task.BatchSize());
  });
  pool_->set_on_task_done([this](const BatchedTask& task) {
    trace_.ExecEnd(task.id, task.type, task.worker, task.BatchSize());
    ShardCore& core = ShardOfWorker(task.worker);
    core.Complete(task);
    // The targeted refill starts before the pass sheds anything, as on the
    // Server, where it leaves before the manager's next message.
    Dispatch(core);
    core.Pass();
    Settle(core.id());
  });
}

ShardCore& SimEngine::ShardOfWorker(int worker) {
  return *shards_[static_cast<size_t>(shard_of_worker_[static_cast<size_t>(worker)])];
}

RequestId SimEngine::SubmitAt(double at_micros, CellGraph graph, SubmitOptions opts) {
  const RequestId id = next_request_id_++;
  auto arrival = std::make_shared<ShardArrival>();
  arrival->id = id;
  arrival->graph = std::move(graph);
  arrival->arrival_micros = at_micros;
  arrival->deadline_micros = opts.deadline_micros;
  arrival->priority = opts.priority;
  if (opts.terminate_after_node >= 0) {
    BM_CHECK_LT(opts.terminate_after_node, arrival->graph.NumNodes());
    arrival->terminate = TerminateAfterNode(opts.terminate_after_node);
  }
  // Arrival routing: requests spread across shards by id.
  const int home = static_cast<int>(id % static_cast<RequestId>(num_shards_));
  events_.ScheduleAt(at_micros, [this, home, arrival] {
    trace_.RequestArrival(arrival->arrival_micros, arrival->id,
                          arrival->graph.NumNodes());
    shards_[static_cast<size_t>(home)]->Admit(std::move(*arrival));
    // Run the pass in a separate same-time event so that all arrivals with
    // identical timestamps are admitted before any task is formed — the
    // real server likewise drains its inbox before its pass.
    events_.ScheduleAt(events_.Now(), [this, home] {
      shards_[static_cast<size_t>(home)]->Pass();
      Settle(home);
    });
  });
  return id;
}

void SimEngine::Dispatch(ShardCore& core) {
  for (BatchedTask& task : core.formed()) {
    const int worker = task.worker;
    pool_->Submit(worker, std::move(task));
  }
  core.formed().clear();
}

void SimEngine::Settle(int shard) {
  ShardCore& core = *shards_[static_cast<size_t>(shard)];
  Dispatch(core);
  const double wake = core.NextWakeMicros();
  WakeTimer& timer = wakes_[static_cast<size_t>(shard)];
  if (wake >= timer.at) {
    return;  // nothing due, or an event no later is already armed
  }
  timer.at = wake;
  const uint64_t generation = ++timer.generation;
  // A deadline already passed fires at the current instant, as the
  // Server's zero-length wait does.
  events_.ScheduleAt(std::max(wake, events_.Now()), [this, shard, generation] {
    WakeTimer& armed = wakes_[static_cast<size_t>(shard)];
    if (armed.generation != generation) {
      return;  // superseded by an earlier wake
    }
    armed.at = std::numeric_limits<double>::infinity();
    shards_[static_cast<size_t>(shard)]->Wake();
    Settle(shard);
  });
}

void SimEngine::Run(double deadline_micros) {
  if (deadline_micros == std::numeric_limits<double>::infinity()) {
    events_.RunAll();
  } else {
    events_.RunUntil(deadline_micros);
  }
}

size_t SimEngine::NumActiveRequests() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->processor().NumActiveRequests();
  }
  return total;
}

int64_t SimEngine::TotalTasksFormed() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->scheduler().TotalTasksFormed();
  }
  return total;
}

int64_t SimEngine::TotalMigrations() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->scheduler().TotalMigrations();
  }
  return total;
}

}  // namespace batchmaker
