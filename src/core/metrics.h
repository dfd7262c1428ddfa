// Per-request serving metrics: queueing time (arrival -> start of first
// task), computation time (start -> completion) and total latency, matching
// the paper's measurement methodology (§7.3, Figure 9).

#ifndef SRC_CORE_METRICS_H_
#define SRC_CORE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/runtime/task.h"
#include "src/util/stats.h"

namespace batchmaker {

struct RequestRecord {
  RequestId id = 0;
  double arrival_micros = 0.0;
  double exec_start_micros = -1.0;
  double completion_micros = -1.0;
  int num_nodes = 0;

  double LatencyMicros() const { return completion_micros - arrival_micros; }
  double QueueingMicros() const { return exec_start_micros - arrival_micros; }
  double ComputeMicros() const { return completion_micros - exec_start_micros; }
};

// Per-manager-shard activity counters (sharded manager, DESIGN.md). All
// atomic: each shard's manager thread writes its own row, but readers
// (tests, benches) may sum them at any time.
struct ShardCounters {
  std::atomic<int64_t> arrivals{0};     // requests routed to this shard
  std::atomic<int64_t> completions{0};  // terminal callbacks fired here
  std::atomic<int64_t> steals_in{0};    // requests this shard stole/received
  std::atomic<int64_t> steals_out{0};   // requests migrated away from here
  // Slack-aware batch formation (DESIGN.md): batches this shard launched
  // after at least one deliberate deferral, and the total micros those
  // batches spent deferred.
  std::atomic<int64_t> delayed_batches{0};
  std::atomic<int64_t> batch_delay_micros{0};
};

// Per-NUMA-node activity counters (numa_policy != none, DESIGN.md
// "NUMA-aware placement"). Indexed by node *index* in the discovered
// topology. Written by manager/worker threads of that node; readers may
// sum at any time.
struct NodeCounters {
  // Requests stolen across a node boundary into this node — the only
  // deliberately cross-node traffic under the pin policies (shard
  // boundaries align with node boundaries, so same-node steals don't
  // count here).
  std::atomic<int64_t> cross_node_steals{0};
  // Estimated bytes this node's workers gathered from producer outputs
  // last scattered on another node (an upper-bound estimate: rows whose
  // producing task ran remotely, priced at the gathered row size).
  std::atomic<int64_t> remote_gather_bytes{0};
};

// Per-worker health counters (health_watchdog, DESIGN.md "Worker failure
// domains"). Indexed by global worker id. Written by the watchdog and the
// owning shard's manager thread; readers may sum at any time.
struct WorkerHealthCounters {
  // Times this worker was quarantined (hung or dead).
  std::atomic<int64_t> quarantines{0};
  // Tasks reclaimed from this worker's stream and requeued through the
  // fault-recovery machinery (no request lost, only delayed).
  std::atomic<int64_t> requeued_tasks{0};
  // Dead exec threads respawned for this worker.
  std::atomic<int64_t> respawns{0};
  // Quarantined workers re-admitted to scheduling.
  std::atomic<int64_t> readmissions{0};
  // Watchdog ticks that classified this worker as slow (advisory).
  std::atomic<int64_t> slow_ticks{0};
};

class MetricsCollector {
 public:
  // Thread-safe: with a sharded manager, several shard threads record
  // completions concurrently.
  void Record(RequestRecord record) {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(record);
  }
  // Counts a request shed before execution (queue timeout); dropped
  // requests never enter the latency/throughput samples. The drop/reject/
  // fail counters are atomic because rejections are recorded on Submit
  // caller threads while the manager thread records completions.
  void RecordDropped() { dropped_.fetch_add(1, std::memory_order_relaxed); }
  // Counts a submission refused at admission (validation failure, bounded
  // queue full, or shutdown race).
  void RecordRejected() { rejected_.fetch_add(1, std::memory_order_relaxed); }
  // Counts a request terminated because a task containing its nodes failed.
  void RecordFailed() { failed_.fetch_add(1, std::memory_order_relaxed); }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    records_.clear();
    dropped_.store(0, std::memory_order_relaxed);
    rejected_.store(0, std::memory_order_relaxed);
    failed_.store(0, std::memory_order_relaxed);
    for (auto& shard : shard_counters_) {
      shard->arrivals.store(0, std::memory_order_relaxed);
      shard->completions.store(0, std::memory_order_relaxed);
      shard->steals_in.store(0, std::memory_order_relaxed);
      shard->steals_out.store(0, std::memory_order_relaxed);
      shard->delayed_batches.store(0, std::memory_order_relaxed);
      shard->batch_delay_micros.store(0, std::memory_order_relaxed);
    }
    for (auto& node : node_counters_) {
      node->cross_node_steals.store(0, std::memory_order_relaxed);
      node->remote_gather_bytes.store(0, std::memory_order_relaxed);
    }
    for (auto& worker : worker_counters_) {
      worker->quarantines.store(0, std::memory_order_relaxed);
      worker->requeued_tasks.store(0, std::memory_order_relaxed);
      worker->respawns.store(0, std::memory_order_relaxed);
      worker->readmissions.store(0, std::memory_order_relaxed);
      worker->slow_ticks.store(0, std::memory_order_relaxed);
    }
  }

  // ---- Per-shard counters (sharded manager) ----

  // Sizes the per-shard counter table; called once by the engine before
  // any thread records. Re-initializing resets the counters.
  void InitShards(int num_shards) {
    shard_counters_.clear();
    for (int i = 0; i < num_shards; ++i) {
      shard_counters_.push_back(std::make_unique<ShardCounters>());
    }
  }
  int NumShards() const { return static_cast<int>(shard_counters_.size()); }
  ShardCounters& shard(int i) { return *shard_counters_[static_cast<size_t>(i)]; }
  const ShardCounters& shard(int i) const {
    return *shard_counters_[static_cast<size_t>(i)];
  }
  // Requests that crossed a shard boundary (sum of steals_in).
  int64_t TotalSteals() const {
    int64_t total = 0;
    for (const auto& shard : shard_counters_) {
      total += shard->steals_in.load(std::memory_order_relaxed);
    }
    return total;
  }
  // Slack-aware batch formation: deliberately delayed batch launches and
  // the total micros they waited (sums across shards; 0 with the policy
  // off).
  int64_t TotalDelayedBatches() const {
    int64_t total = 0;
    for (const auto& shard : shard_counters_) {
      total += shard->delayed_batches.load(std::memory_order_relaxed);
    }
    return total;
  }
  int64_t TotalBatchDelayMicros() const {
    int64_t total = 0;
    for (const auto& shard : shard_counters_) {
      total += shard->batch_delay_micros.load(std::memory_order_relaxed);
    }
    return total;
  }

  // ---- Per-node counters (NUMA-aware placement) ----

  // Sizes the per-node counter table; called once by the Server before any
  // thread records (only when numa_policy != none). Empty with the policy
  // off — the counting call sites are themselves policy-gated.
  void InitNodes(int num_nodes) {
    node_counters_.clear();
    for (int i = 0; i < num_nodes; ++i) {
      node_counters_.push_back(std::make_unique<NodeCounters>());
    }
  }
  int NumNodes() const { return static_cast<int>(node_counters_.size()); }
  NodeCounters& node(int i) { return *node_counters_[static_cast<size_t>(i)]; }
  const NodeCounters& node(int i) const {
    return *node_counters_[static_cast<size_t>(i)];
  }
  int64_t TotalCrossNodeSteals() const {
    int64_t total = 0;
    for (const auto& node : node_counters_) {
      total += node->cross_node_steals.load(std::memory_order_relaxed);
    }
    return total;
  }
  int64_t TotalRemoteGatherBytes() const {
    int64_t total = 0;
    for (const auto& node : node_counters_) {
      total += node->remote_gather_bytes.load(std::memory_order_relaxed);
    }
    return total;
  }

  // ---- Per-worker health counters (health_watchdog) ----

  // Sizes the per-worker counter table; called once by the Server before
  // any thread records. The counting sites are health-gated, so the table
  // stays all-zero with the watchdog off.
  void InitWorkers(int num_workers) {
    worker_counters_.clear();
    for (int i = 0; i < num_workers; ++i) {
      worker_counters_.push_back(std::make_unique<WorkerHealthCounters>());
    }
  }
  int NumWorkers() const { return static_cast<int>(worker_counters_.size()); }
  WorkerHealthCounters& worker(int i) {
    return *worker_counters_[static_cast<size_t>(i)];
  }
  const WorkerHealthCounters& worker(int i) const {
    return *worker_counters_[static_cast<size_t>(i)];
  }
  int64_t TotalQuarantines() const {
    int64_t total = 0;
    for (const auto& worker : worker_counters_) {
      total += worker->quarantines.load(std::memory_order_relaxed);
    }
    return total;
  }
  int64_t TotalRequeuedTasks() const {
    int64_t total = 0;
    for (const auto& worker : worker_counters_) {
      total += worker->requeued_tasks.load(std::memory_order_relaxed);
    }
    return total;
  }
  int64_t TotalRespawns() const {
    int64_t total = 0;
    for (const auto& worker : worker_counters_) {
      total += worker->respawns.load(std::memory_order_relaxed);
    }
    return total;
  }

  // Unsynchronized view of the raw records; only safe once the recording
  // threads have stopped (after Shutdown / Run). Live readers should use
  // the locking accessors below.
  const std::vector<RequestRecord>& records() const { return records_; }
  size_t NumCompleted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_.size();
  }
  size_t NumDropped() const { return dropped_.load(std::memory_order_relaxed); }
  size_t NumRejected() const { return rejected_.load(std::memory_order_relaxed); }
  size_t NumFailed() const { return failed_.load(std::memory_order_relaxed); }

  // Window semantics: every windowed query below selects requests whose
  // *completion* falls in [from, to) micros. Keying by completion (rather
  // than arrival) keeps the sample sets and ThroughputRps consistent with
  // each other, and keeps saturation detection honest — under overload a
  // run's drain phase completes the arrival backlog, so an arrival-keyed
  // throughput would report the offered rate instead of the achieved one.
  SampleSet Latencies(double from = 0.0, double to = 1e300) const;
  SampleSet QueueingTimes(double from = 0.0, double to = 1e300) const;
  SampleSet ComputeTimes(double from = 0.0, double to = 1e300) const;

  // Completed requests per second over completions in [from, to) micros.
  double ThroughputRps(double from, double to) const;

 private:
  template <typename F>
  SampleSet Collect(double from, double to, F f) const {
    std::lock_guard<std::mutex> lock(mu_);
    SampleSet out;
    for (const RequestRecord& r : records_) {
      if (r.completion_micros >= from && r.completion_micros < to) {
        out.Add(f(r));
      }
    }
    return out;
  }

  mutable std::mutex mu_;
  std::vector<RequestRecord> records_;
  // unique_ptr keeps the atomics at stable addresses (vectors of atomics
  // are not movable).
  std::vector<std::unique_ptr<ShardCounters>> shard_counters_;
  std::vector<std::unique_ptr<NodeCounters>> node_counters_;
  std::vector<std::unique_ptr<WorkerHealthCounters>> worker_counters_;
  std::atomic<size_t> dropped_{0};
  std::atomic<size_t> rejected_{0};
  std::atomic<size_t> failed_{0};
};

}  // namespace batchmaker

#endif  // SRC_CORE_METRICS_H_
