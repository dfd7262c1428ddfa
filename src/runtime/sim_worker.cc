#include "src/runtime/sim_worker.h"

#include <utility>

#include "src/util/logging.h"

namespace batchmaker {

SimWorkerPool::SimWorkerPool(int num_workers, EventQueue* events,
                             const CostModel* cost_model)
    : events_(events), cost_model_(cost_model), workers_(static_cast<size_t>(num_workers)) {
  BM_CHECK_GT(num_workers, 0);
  BM_CHECK(events != nullptr);
}

bool SimWorkerPool::IsIdle(int worker) const {
  const Worker& w = workers_[static_cast<size_t>(worker)];
  return !w.running && w.stream.empty();
}

int SimWorkerPool::FindIdleWorker() const {
  for (int i = 0; i < NumWorkers(); ++i) {
    if (IsIdle(i)) {
      return i;
    }
  }
  return -1;
}

int SimWorkerPool::QueueDepth(int worker) const {
  // The running task stays at the stream front until completion, so the
  // stream size already counts it.
  return static_cast<int>(workers_[static_cast<size_t>(worker)].stream.size());
}

void SimWorkerPool::Submit(int worker, BatchedTask task) {
  BM_CHECK_GE(worker, 0);
  BM_CHECK_LT(worker, NumWorkers());
  BM_CHECK_GT(task.BatchSize(), 0) << "refusing to submit an empty task";
  task.worker = worker;
  Worker& w = workers_[static_cast<size_t>(worker)];
  w.stream.push_back(std::move(task));
  if (!w.running) {
    StartNext(worker);
  }
}

void SimWorkerPool::StartNext(int worker) {
  Worker& w = workers_[static_cast<size_t>(worker)];
  BM_CHECK(!w.running);
  BM_CHECK(!w.stream.empty());
  w.running = true;
  const BatchedTask& task = w.stream.front();
  BM_CHECK(cost_model_ != nullptr ||
           (task.explicit_cost_micros >= 0.0 && task.migrated_subgraphs == 0))
      << "task " << task.id << " needs a cost model to price it";
  double cost = task.explicit_cost_micros >= 0.0
                    ? task.explicit_cost_micros
                    : cost_model_->TaskMicros(task.type, task.BatchSize());
  if (task.migrated_subgraphs > 0) {
    cost += task.migrated_subgraphs * cost_model_->MigrationPenaltyMicros();
  }
  w.busy_micros += cost;
  w.items += task.BatchSize();
  w.tasks += 1;
  if (on_task_start_) {
    on_task_start_(task);
  }
  events_->ScheduleAfter(cost, [this, worker] { OnTaskFinished(worker); });
}

void SimWorkerPool::OnTaskFinished(int worker) {
  Worker& w = workers_[static_cast<size_t>(worker)];
  BM_CHECK(w.running);
  BM_CHECK(!w.stream.empty());
  BatchedTask task = std::move(w.stream.front());
  w.stream.pop_front();
  w.running = false;
  if (on_task_done_) {
    on_task_done_(task);
  }
  // on_task_done may have submitted more work already.
  if (!w.running) {
    if (!w.stream.empty()) {
      StartNext(worker);
    } else if (on_idle_) {
      on_idle_(worker);
    }
  }
}

double SimWorkerPool::BusyMicros(int worker) const {
  return workers_[static_cast<size_t>(worker)].busy_micros;
}

int64_t SimWorkerPool::ItemsExecuted(int worker) const {
  return workers_[static_cast<size_t>(worker)].items;
}

int64_t SimWorkerPool::TasksExecuted(int worker) const {
  return workers_[static_cast<size_t>(worker)].tasks;
}

}  // namespace batchmaker
