#include "src/baselines/graph_merge_system.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "src/util/logging.h"

namespace batchmaker {

GraphMergeOptions GraphMergeOptions::Fold() {
  GraphMergeOptions options;
  // Graph construction/merging "takes much longer than performing the
  // actual computation" (§7.5) and kernels run on TF v1.0 / CUDA 8.0
  // (~20% slower). Constants calibrated against the Figure 14 ratios; see
  // EXPERIMENTS.md.
  options.construct_per_node_micros = 21.5;
  options.per_level_overhead_micros = 60.0;
  options.cell_curve = GpuTreeCellOldCurve();
  return options;
}

GraphMergeOptions GraphMergeOptions::DyNet() {
  GraphMergeOptions options;
  // DyNet's on-the-fly merge is much cheaper than Fold's but batches at
  // single-operator granularity, adding per-level overhead (§7.5).
  options.construct_per_node_micros = 10.0;
  options.per_level_overhead_micros = 150.0;
  options.cell_curve = GpuTreeCellCurve();
  return options;
}

GraphMergeSystem::GraphMergeSystem(GraphMergeOptions options, std::string name)
    : options_(std::move(options)), name_(std::move(name)) {
  BM_CHECK_GT(options_.max_batch_requests, 0);
  pool_ = std::make_unique<SimWorkerPool>(1, &events_, /*cost_model=*/nullptr);
  pool_->set_on_task_start([this](const BatchedTask& task) {
    const auto it = inflight_.find(task.id);
    BM_CHECK(it != inflight_.end());
    it->second.exec_start = events_.Now();
  });
  pool_->set_on_task_done([this](const BatchedTask& task) {
    OnBatchDone(task);
    TryStartConstruction();
  });
}

void GraphMergeSystem::SubmitAt(double at_micros, const WorkItem& item) {
  const RequestId id = next_id_++;
  events_.ScheduleAt(at_micros, [this, id, at_micros, item] {
    pending_.push_back(Pending{id, at_micros, item});
    events_.ScheduleAt(at_micros, [this] { TryStartConstruction(); });
  });
}

std::vector<int> GraphMergeSystem::MergedLevelCounts(const std::vector<WorkItem>& batch) {
  std::vector<int> counts;
  auto bump = [&counts](int level) {
    if (static_cast<size_t>(level) >= counts.size()) {
      counts.resize(static_cast<size_t>(level) + 1, 0);
    }
    counts[static_cast<size_t>(level)]++;
  };
  for (const WorkItem& item : batch) {
    switch (item.kind) {
      case WorkItem::Kind::kChain:
        for (int t = 0; t < item.length; ++t) {
          bump(t);
        }
        break;
      case WorkItem::Kind::kSeq2Seq:
        for (int t = 0; t < item.src_len + item.dec_len; ++t) {
          bump(t);
        }
        break;
      case WorkItem::Kind::kTree: {
        const BinaryTree& tree = item.tree;
        std::vector<int> level(tree.nodes.size(), -1);
        std::function<int(int)> level_of = [&](int id) -> int {
          int& memo = level[static_cast<size_t>(id)];
          if (memo >= 0) {
            return memo;
          }
          const auto& n = tree.nodes[static_cast<size_t>(id)];
          memo = n.is_leaf() ? 0
                             : 1 + std::max(level_of(n.left), level_of(n.right));
          return memo;
        };
        for (int id = 0; id < tree.NumNodes(); ++id) {
          bump(level_of(id));
        }
        break;
      }
    }
  }
  return counts;
}

void GraphMergeSystem::TryStartConstruction() {
  // Construct the next merged graph only when the GPU is not already
  // backlogged: construction of batch k+1 overlaps execution of batch k
  // (double buffering).
  if (constructing_ || pending_.empty() || pool_->QueueDepth(0) > 1) {
    return;
  }
  const int batch_size =
      std::min<int>(options_.max_batch_requests, static_cast<int>(pending_.size()));
  std::vector<Pending> batch;
  batch.reserve(static_cast<size_t>(batch_size));
  int total_nodes = 0;
  for (int i = 0; i < batch_size; ++i) {
    total_nodes += pending_.front().item.NumCells();
    batch.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  inflight_count_ += batch.size();
  constructing_ = true;
  const double construct_micros = options_.construct_per_node_micros * total_nodes;
  events_.ScheduleAfter(construct_micros, [this, moved = std::move(batch)]() mutable {
    OnConstructionDone(std::move(moved));
  });
}

void GraphMergeSystem::OnConstructionDone(std::vector<Pending> batch) {
  constructing_ = false;
  // Level-wise execution cost of the merged graph.
  std::vector<WorkItem> items;
  items.reserve(batch.size());
  for (const Pending& p : batch) {
    items.push_back(p.item);
  }
  const std::vector<int> levels = MergedLevelCounts(items);
  double exec_micros = 0.0;
  for (int count : levels) {
    if (count > 0) {
      exec_micros += options_.cell_curve.Micros(count) + options_.per_level_overhead_micros;
    }
  }

  BatchedTask task;
  task.id = next_task_id_++;
  task.type = 0;
  task.explicit_cost_micros = exec_micros;
  for (const Pending& p : batch) {
    task.entries.push_back(TaskEntry{p.id, 0});
  }
  inflight_.emplace(task.id, InflightBatch{std::move(batch), -1.0});
  pool_->Submit(0, std::move(task));

  // Overlap: immediately begin constructing the next batch if allowed.
  TryStartConstruction();
}

void GraphMergeSystem::OnBatchDone(const BatchedTask& task) {
  const auto it = inflight_.find(task.id);
  BM_CHECK(it != inflight_.end());
  const double now = events_.Now();
  for (const Pending& p : it->second.requests) {
    RequestRecord record;
    record.id = p.id;
    record.arrival_micros = p.arrival_micros;
    record.exec_start_micros = std::max(p.arrival_micros, it->second.exec_start);
    record.completion_micros = now;
    record.num_nodes = p.item.NumCells();
    metrics_.Record(record);
  }
  inflight_count_ -= it->second.requests.size();
  inflight_.erase(it);
}

void GraphMergeSystem::Run(double deadline_micros) {
  if (deadline_micros == std::numeric_limits<double>::infinity()) {
    events_.RunAll();
  } else {
    events_.RunUntil(deadline_micros);
  }
}

}  // namespace batchmaker
