#include "src/baselines/padding_system.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/util/logging.h"

namespace batchmaker {

PaddingSystem::PaddingSystem(PaddingSystemOptions options, std::string name)
    : options_(std::move(options)), name_(std::move(name)) {
  BM_CHECK_GT(options_.bucket_width, 0);
  BM_CHECK_GT(options_.max_len, 0);
  BM_CHECK_GT(options_.max_batch, 0);
  const int num_buckets =
      (options_.max_len + options_.bucket_width - 1) / options_.bucket_width;
  buckets_.resize(static_cast<size_t>(num_buckets));
  pool_ = std::make_unique<SimWorkerPool>(options_.num_workers, &events_,
                                          /*cost_model=*/nullptr);
  pool_->set_on_task_done([this](const BatchedTask& task) { OnBatchDone(task); });
  pool_->set_on_idle([this](int worker) { TryDispatch(worker); });
}

void PaddingSystem::SubmitAt(double at_micros, const WorkItem& item) {
  BM_CHECK(item.kind != WorkItem::Kind::kTree)
      << "padding cannot batch tree-structured inputs (paper §2.3)";
  const RequestId id = next_id_++;
  events_.ScheduleAt(at_micros, [this, id, at_micros, item] {
    const int len = item.kind == WorkItem::Kind::kChain ? item.length : item.src_len;
    BM_CHECK_GT(len, 0);
    BM_CHECK_LE(len, options_.max_len);
    const int bucket = (len - 1) / options_.bucket_width;
    buckets_[static_cast<size_t>(bucket)].push_back(Pending{id, at_micros, item});
    ++pending_count_;
    // Kick dispatch after same-instant arrivals are all enqueued.
    events_.ScheduleAt(at_micros, [this] {
      for (int w = 0; w < pool_->NumWorkers(); ++w) {
        if (pool_->IsIdle(w)) {
          TryDispatch(w);
        }
      }
    });
  });
}

double PaddingSystem::BatchCostMicros(int batch, int steps, int dec_steps) const {
  double cost = steps * (options_.step_curve.Micros(batch) + options_.per_step_overhead_micros);
  if (dec_steps > 0) {
    cost +=
        dec_steps * (options_.decoder_curve.Micros(batch) + options_.per_step_overhead_micros);
  }
  return cost;
}

void PaddingSystem::TryDispatch(int worker) {
  if (pending_count_ == 0) {
    return;
  }
  // Round-robin: next non-empty bucket gets its turn.
  const int num_buckets = NumBuckets();
  int bucket = -1;
  for (int probe = 0; probe < num_buckets; ++probe) {
    const int candidate = (rr_next_ + probe) % num_buckets;
    if (!buckets_[static_cast<size_t>(candidate)].empty()) {
      bucket = candidate;
      break;
    }
  }
  BM_CHECK_GE(bucket, 0);
  rr_next_ = (bucket + 1) % num_buckets;

  auto& queue = buckets_[static_cast<size_t>(bucket)];
  const int batch = std::min<int>(options_.max_batch, static_cast<int>(queue.size()));
  std::vector<Pending> taken;
  taken.reserve(static_cast<size_t>(batch));
  for (int i = 0; i < batch; ++i) {
    taken.push_back(std::move(queue.front()));
    queue.pop_front();
  }
  pending_count_ -= static_cast<size_t>(batch);
  inflight_count_ += static_cast<size_t>(batch);

  // The materialized per-bucket graph executes the bucket's full padded
  // length (or, under the idealized policy, the longest request in the
  // batch); for Seq2Seq, decoding runs until the longest decode finishes.
  int padded_steps = 0;
  if (options_.pad_to_bucket_top) {
    padded_steps = std::min((bucket + 1) * options_.bucket_width, options_.max_len);
  } else {
    for (const Pending& p : taken) {
      const int len =
          p.item.kind == WorkItem::Kind::kChain ? p.item.length : p.item.src_len;
      padded_steps = std::max(padded_steps, len);
    }
  }
  int dec_steps = 0;
  for (const Pending& p : taken) {
    if (p.item.kind == WorkItem::Kind::kSeq2Seq) {
      dec_steps = std::max(dec_steps, p.item.dec_len);
    }
  }

  BatchedTask task;
  task.id = next_task_id_++;
  task.type = 0;
  task.explicit_cost_micros = BatchCostMicros(batch, padded_steps, dec_steps);
  for (const Pending& p : taken) {
    task.entries.push_back(TaskEntry{p.id, 0});
  }
  inflight_.emplace(task.id, std::move(taken));
  pool_->Submit(worker, std::move(task));
}

void PaddingSystem::OnBatchDone(const BatchedTask& task) {
  const auto it = inflight_.find(task.id);
  BM_CHECK(it != inflight_.end());
  const double now = events_.Now();
  const double exec_start =
      now - task.explicit_cost_micros;  // the batch ran back to back
  for (const Pending& p : it->second) {
    RequestRecord record;
    record.id = p.id;
    record.arrival_micros = p.arrival_micros;
    record.exec_start_micros = std::max(p.arrival_micros, exec_start);
    record.completion_micros = now;
    record.num_nodes = p.item.NumCells();
    metrics_.Record(record);
  }
  inflight_count_ -= it->second.size();
  inflight_.erase(it);
}

void PaddingSystem::Run(double deadline_micros) {
  if (deadline_micros == std::numeric_limits<double>::infinity()) {
    events_.RunAll();
  } else {
    events_.RunUntil(deadline_micros);
  }
}

}  // namespace batchmaker
