// SimWorkerPool: virtual-time GPU workers.
//
// Each worker models one GPU with a FIFO stream (paper §5: kernels pushed
// to the same stream execute in submission order, which is what makes
// pipelined task submission and subgraph pinning correct). Submitting to a
// busy worker queues the task; tasks run back to back with durations priced
// by a CostModel (or the task's explicit cost). Two callbacks drive the
// serving engine:
//   * on_task_done  — fired at each task's completion time;
//   * on_idle       — fired when a worker's stream drains (the paper's
//                     "Schedule is invoked whenever some worker becomes
//                     idle").

#ifndef SRC_RUNTIME_SIM_WORKER_H_
#define SRC_RUNTIME_SIM_WORKER_H_

#include <deque>
#include <functional>
#include <vector>

#include "src/runtime/cost_model.h"
#include "src/runtime/event_queue.h"
#include "src/runtime/task.h"

namespace batchmaker {

class SimWorkerPool {
 public:
  using TaskStartFn = std::function<void(const BatchedTask&)>;
  using TaskDoneFn = std::function<void(const BatchedTask&)>;
  using IdleFn = std::function<void(int worker)>;

  // `cost_model` prices every task duration and migration penalty and must
  // outlive the pool. It may be null only if every submitted task carries
  // its own explicit_cost_micros (the graph-batching baselines).
  SimWorkerPool(int num_workers, EventQueue* events, const CostModel* cost_model);

  // Fired when a task begins executing (used for queueing-time metrics).
  void set_on_task_start(TaskStartFn fn) { on_task_start_ = std::move(fn); }
  void set_on_task_done(TaskDoneFn fn) { on_task_done_ = std::move(fn); }
  void set_on_idle(IdleFn fn) { on_idle_ = std::move(fn); }

  int NumWorkers() const { return static_cast<int>(workers_.size()); }

  // True if the worker has no running task and an empty stream.
  bool IsIdle(int worker) const;
  // Index of some idle worker, or -1 if all are busy.
  int FindIdleWorker() const;
  // Tasks queued or running on the worker.
  int QueueDepth(int worker) const;

  // Enqueues the task on the worker's stream; starts it immediately if the
  // worker is idle. Sets task.worker.
  void Submit(int worker, BatchedTask task);

  // Total virtual time each worker spent executing tasks (for utilization
  // reporting).
  double BusyMicros(int worker) const;
  // Total batched items executed, and total tasks, per worker.
  int64_t ItemsExecuted(int worker) const;
  int64_t TasksExecuted(int worker) const;

 private:
  struct Worker {
    std::deque<BatchedTask> stream;
    bool running = false;
    double busy_micros = 0.0;
    int64_t items = 0;
    int64_t tasks = 0;
  };

  void StartNext(int worker);
  void OnTaskFinished(int worker);

  EventQueue* events_;
  const CostModel* cost_model_;
  TaskStartFn on_task_start_;
  TaskDoneFn on_task_done_;
  IdleFn on_idle_;
  std::vector<Worker> workers_;
};

}  // namespace batchmaker

#endif  // SRC_RUNTIME_SIM_WORKER_H_
