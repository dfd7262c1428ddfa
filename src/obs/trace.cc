#include "src/obs/trace.h"

#include <algorithm>
#include <thread>

namespace batchmaker {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kRequestArrival: return "request_arrival";
    case TraceEventKind::kSubgraphEnqueue: return "subgraph_enqueue";
    case TraceEventKind::kTaskFormed: return "task_formed";
    case TraceEventKind::kExecBegin: return "exec_begin";
    case TraceEventKind::kExecEnd: return "exec_end";
    case TraceEventKind::kMigration: return "migration";
    case TraceEventKind::kCancellation: return "cancellation";
    case TraceEventKind::kRequestComplete: return "request_complete";
    case TraceEventKind::kRequestDrop: return "request_drop";
    case TraceEventKind::kStreamRefill: return "stream_refill";
    case TraceEventKind::kGatherBegin: return "gather_begin";
    case TraceEventKind::kGatherEnd: return "gather_end";
    case TraceEventKind::kWorkerIdle: return "worker_idle";
    case TraceEventKind::kRequestReject: return "request_reject";
    case TraceEventKind::kTaskFailed: return "task_failed";
    case TraceEventKind::kShardSteal: return "shard_steal";
    case TraceEventKind::kCostModelRefit: return "cost_model_refit";
    case TraceEventKind::kGemmKernel: return "gemm_kernel";
    case TraceEventKind::kWorkerPinned: return "worker_pinned";
    case TraceEventKind::kWorkerQuarantine: return "worker_quarantine";
    case TraceEventKind::kWorkerReadmit: return "worker_readmit";
    case TraceEventKind::kWorkerRespawn: return "worker_respawn";
  }
  return "unknown";
}

namespace {
// Manager-shard tag of the current thread; -1 = no affinity.
thread_local int t_thread_shard = -1;
}  // namespace

void TraceRecorder::SetThreadShard(int shard) { t_thread_shard = shard; }

int TraceRecorder::ThreadShard() { return t_thread_shard; }

const char* SchedCriterionName(SchedCriterion criterion) {
  switch (criterion) {
    case SchedCriterion::kFullBatch: return "a:full_batch";
    case SchedCriterion::kStarvedType: return "b:starved_type";
    case SchedCriterion::kAnyReady: return "c:any_ready";
    case SchedCriterion::kNone: return "none";
  }
  return "unknown";
}

TraceRecorder::TraceRecorder(ClockFn clock) : clock_(std::move(clock)) {}

void TraceRecorder::Record(TraceEvent event) {
  if (event.shard < 0) {
    event.shard = t_thread_shard;
  }
  const size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kNumShards;
  Shard& s = shards_[shard];
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.events.push_back(event);
  }
  counts_[static_cast<size_t>(event.kind)].fetch_add(1, std::memory_order_relaxed);
}

void TraceRecorder::RequestArrival(double ts, RequestId id, int num_nodes) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kRequestArrival, .ts_micros = ts, .id = id,
                    .value = num_nodes});
}

void TraceRecorder::RequestArrival(RequestId id, int num_nodes) {
  if (!enabled()) {
    return;
  }
  RequestArrival(NowMicros(), id, num_nodes);
}

void TraceRecorder::SubgraphEnqueue(RequestId id, CellTypeId type, int ready_nodes) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kSubgraphEnqueue, .type = type,
                    .ts_micros = NowMicros(), .id = id, .value = ready_nodes});
}

void TraceRecorder::TaskFormed(uint64_t task_id, CellTypeId type, int worker,
                               int batch_size, SchedCriterion criterion) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kTaskFormed, .criterion = criterion,
                    .type = type, .worker = worker, .ts_micros = NowMicros(),
                    .id = task_id, .value = batch_size});
  int bucket = 0;
  while ((1 << (bucket + 1)) <= batch_size && bucket + 1 < kBatchSizeBuckets) {
    ++bucket;
  }
  batch_hist_[static_cast<size_t>(bucket)].fetch_add(1, std::memory_order_relaxed);
}

void TraceRecorder::ExecBegin(double ts, uint64_t task_id, CellTypeId type, int worker,
                              int batch_size) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kExecBegin, .type = type, .worker = worker,
                    .ts_micros = ts, .id = task_id, .value = batch_size});
  const int busy =
      std::clamp(busy_workers_.fetch_add(1, std::memory_order_relaxed) + 1, 0,
                 kMaxOccupancy);
  occupancy_hist_[static_cast<size_t>(busy)].fetch_add(1, std::memory_order_relaxed);
}

void TraceRecorder::ExecBegin(uint64_t task_id, CellTypeId type, int worker,
                              int batch_size) {
  if (!enabled()) {
    return;
  }
  ExecBegin(NowMicros(), task_id, type, worker, batch_size);
}

void TraceRecorder::ExecEnd(uint64_t task_id, CellTypeId type, int worker,
                            int batch_size) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kExecEnd, .type = type, .worker = worker,
                    .ts_micros = NowMicros(), .id = task_id, .value = batch_size});
  busy_workers_.fetch_sub(1, std::memory_order_relaxed);
}

void TraceRecorder::StreamRefill(int worker, int num_tasks) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kStreamRefill, .worker = worker,
                    .ts_micros = NowMicros(), .value = num_tasks});
}

void TraceRecorder::GatherBegin(uint64_t task_id, CellTypeId type, int worker,
                                int batch_size) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kGatherBegin, .type = type, .worker = worker,
                    .ts_micros = NowMicros(), .id = task_id, .value = batch_size});
}

void TraceRecorder::GatherEnd(uint64_t task_id, CellTypeId type, int worker,
                              int batch_size) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kGatherEnd, .type = type, .worker = worker,
                    .ts_micros = NowMicros(), .id = task_id, .value = batch_size});
}

void TraceRecorder::WorkerIdle(double begin_micros, double end_micros, int worker) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kWorkerIdle, .worker = worker,
                    .ts_micros = begin_micros, .aux_micros = end_micros});
}

void TraceRecorder::Migration(RequestId id, int from_worker, int to_worker) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kMigration, .worker = to_worker,
                    .ts_micros = NowMicros(), .id = id, .value = from_worker});
}

void TraceRecorder::Cancellation(RequestId id, int nodes_cancelled) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kCancellation, .ts_micros = NowMicros(),
                    .id = id, .value = nodes_cancelled});
}

void TraceRecorder::RequestComplete(RequestId id, double exec_start_micros) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kRequestComplete, .ts_micros = NowMicros(),
                    .aux_micros = exec_start_micros, .id = id});
}

void TraceRecorder::RequestDrop(RequestId id) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kRequestDrop, .ts_micros = NowMicros(),
                    .id = id});
}

void TraceRecorder::RequestReject(RequestId id) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kRequestReject, .ts_micros = NowMicros(),
                    .id = id});
}

void TraceRecorder::TaskFailed(uint64_t task_id, CellTypeId type, int worker,
                               int batch_size) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kTaskFailed, .type = type, .worker = worker,
                    .ts_micros = NowMicros(), .id = task_id, .value = batch_size});
}

void TraceRecorder::ShardSteal(RequestId id, int from_shard, int to_shard) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kShardSteal, .ts_micros = NowMicros(),
                    .id = id, .value = from_shard, .shard = to_shard});
}

void TraceRecorder::CostModelRefit(CellTypeId type, int num_anchors,
                                   int64_t observations) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kCostModelRefit, .type = type,
                    .ts_micros = NowMicros(),
                    .id = static_cast<uint64_t>(observations), .value = num_anchors});
}

void TraceRecorder::GemmKernelInfo(int precision) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kGemmKernel, .ts_micros = NowMicros(),
                    .value = precision});
}

void TraceRecorder::WorkerPinned(int worker, int numa_node, bool pinned) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kWorkerPinned, .worker = worker,
                    .ts_micros = NowMicros(), .id = pinned ? 1u : 0u,
                    .value = numa_node});
}

void TraceRecorder::WorkerQuarantine(int worker, bool dead, int tasks_requeued) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kWorkerQuarantine, .worker = worker,
                    .ts_micros = NowMicros(), .id = dead ? 1u : 0u,
                    .value = tasks_requeued});
}

void TraceRecorder::WorkerReadmit(int worker, double since_micros) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kWorkerReadmit, .worker = worker,
                    .ts_micros = NowMicros(), .aux_micros = since_micros});
}

void TraceRecorder::WorkerRespawn(int worker) {
  if (!enabled()) {
    return;
  }
  Record(TraceEvent{.kind = TraceEventKind::kWorkerRespawn, .worker = worker,
                    .ts_micros = NowMicros()});
}

int64_t TraceRecorder::Count(TraceEventKind kind) const {
  return counts_[static_cast<size_t>(kind)].load(std::memory_order_relaxed);
}

size_t TraceRecorder::NumEvents() const {
  size_t total = 0;
  for (int k = 0; k < kNumTraceEventKinds; ++k) {
    total += static_cast<size_t>(counts_[static_cast<size_t>(k)].load());
  }
  return total;
}

int64_t TraceRecorder::BatchSizeBucket(int bucket) const {
  return batch_hist_[static_cast<size_t>(bucket)].load(std::memory_order_relaxed);
}

int64_t TraceRecorder::OccupancyBucket(int busy_workers) const {
  return occupancy_hist_[static_cast<size_t>(busy_workers)].load(
      std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceRecorder::SortedEvents() const {
  std::vector<TraceEvent> out;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    out.insert(out.end(), s.events.begin(), s.events.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_micros < b.ts_micros;
                   });
  return out;
}

void TraceRecorder::Clear() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.events.clear();
  }
  for (auto& c : counts_) {
    c.store(0);
  }
  for (auto& c : batch_hist_) {
    c.store(0);
  }
  for (auto& c : occupancy_hist_) {
    c.store(0);
  }
  busy_workers_.store(0);
}

}  // namespace batchmaker
