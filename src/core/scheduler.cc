#include "src/core/scheduler.h"

#include <algorithm>

#include "src/util/logging.h"

namespace batchmaker {

Scheduler::Scheduler(const CellRegistry* registry, RequestProcessor* processor,
                     SchedulerOptions options)
    : registry_(registry), processor_(processor), options_(options) {
  BM_CHECK(registry != nullptr);
  BM_CHECK(processor != nullptr);
  BM_CHECK_GT(options_.max_tasks_to_submit, 0);
  types_.resize(static_cast<size_t>(registry_->NumTypes()));
}

void Scheduler::EnqueueSubgraph(Subgraph* sg) {
  BM_CHECK(sg != nullptr);
  BM_CHECK(sg->released);
  BM_CHECK(!sg->in_queue);
  BM_CHECK_GE(sg->type, 0);
  BM_CHECK_LT(sg->type, static_cast<CellTypeId>(types_.size()));
  TypeState& ts = types_[static_cast<size_t>(sg->type)];
  sg->in_queue = true;
  sg->queue_pos = ts.queue.insert(ts.queue.end(), sg);
  ts.ready_nodes += static_cast<int>(sg->ready.size());
  if (trace_ != nullptr) {
    trace_->SubgraphEnqueue(sg->owner->id, sg->type, static_cast<int>(sg->ready.size()));
  }
}

std::vector<BatchedTask> Scheduler::Schedule(int worker) {
  // Candidate cell types in criterion-major, priority-minor order:
  //   (a) a full batch is available;
  //   (b) ready work for a type with nothing running (avoids starving a
  //       type entirely);
  //   (c) any ready work.
  // The global ready-node counts ignore pinning, so the preferred type's
  // ready nodes may all belong to subgraphs pinned to *other* workers and
  // yield no task for this one. Falling through to the next candidate keeps
  // the worker busy whenever any compatible ready work exists, instead of
  // idling it until the next completion.
  std::vector<std::pair<CellTypeId, SchedCriterion>>& candidates = candidates_;
  std::vector<uint8_t>& seen = seen_;
  candidates.clear();
  seen.assign(types_.size(), 0);
  const auto add_group = [&](SchedCriterion criterion, auto&& qualifies) {
    const size_t group_start = candidates.size();
    for (CellTypeId ct = 0; ct < static_cast<CellTypeId>(types_.size()); ++ct) {
      if (seen[static_cast<size_t>(ct)] == 0 && qualifies(types_[static_cast<size_t>(ct)], ct)) {
        seen[static_cast<size_t>(ct)] = 1;
        candidates.emplace_back(ct, criterion);
      }
    }
    // Within a criterion, higher priority first; stable to keep the
    // original first-wins tie-break on equal priorities.
    std::stable_sort(candidates.begin() + static_cast<std::ptrdiff_t>(group_start),
                     candidates.end(), [this](const auto& a, const auto& b) {
                       return registry_->info(a.first).priority >
                              registry_->info(b.first).priority;
                     });
  };
  add_group(SchedCriterion::kFullBatch, [this](const TypeState& ts, CellTypeId ct) {
    return ts.ready_nodes >= registry_->info(ct).max_batch;
  });
  add_group(SchedCriterion::kStarvedType, [](const TypeState& ts, CellTypeId) {
    return ts.running_tasks == 0 && ts.ready_nodes > 0;
  });
  add_group(SchedCriterion::kAnyReady, [](const TypeState& ts, CellTypeId) {
    return ts.ready_nodes > 0;
  });

  for (const auto& [ct, criterion] : candidates) {
    std::vector<BatchedTask> out;
    Batch(ct, worker, criterion, &out);
    if (!out.empty()) {
      return out;
    }
  }
  return {};
}

void Scheduler::Batch(CellTypeId type, int worker, SchedCriterion criterion,
                      std::vector<BatchedTask>* out) {
  TypeState& ts = types_[static_cast<size_t>(type)];
  const CellTypeInfo& info = registry_->info(type);
  int num_tasks = 0;
  while (num_tasks < options_.max_tasks_to_submit) {
    std::vector<std::pair<Subgraph*, int>>& by_subgraph = by_subgraph_;
    BatchedTask task = FormBatchedTask(type, worker, &by_subgraph);
    if (task.entries.empty()) {
      break;
    }
    // Algorithm 1 line 16: always submit the first task; subsequent tasks
    // only if they meet the minimum batch size.
    if (task.BatchSize() < info.min_batch && num_tasks > 0) {
      break;
    }

    task.id = next_task_id_;
    next_task_id_ += task_id_stride_;
    ++tasks_formed_;
    task.type = type;
    task.worker = worker;

    // UpdateNodesDependency + pinning (Algorithm 1 lines 18-21).
    std::vector<Subgraph*> touched;
    touched.reserve(by_subgraph.size());
    for (const auto& [sg, taken] : by_subgraph) {
      const int newly_ready = processor_->MarkScheduled(sg, taken);
      ts.ready_nodes += newly_ready - taken;
      BM_CHECK(sg->pinned_worker == -1 || sg->pinned_worker == worker);
      sg->pinned_worker = worker;
      if (sg->last_worker != -1 && sg->last_worker != worker) {
        task.migrated_subgraphs++;  // state copy from the previous device
        ++total_migrations_;
        if (trace_ != nullptr) {
          trace_->Migration(sg->owner->id, sg->last_worker, worker);
        }
      }
      sg->last_worker = worker;
      sg->inflight_tasks++;
      touched.push_back(sg);
      RemoveFromQueueIfDone(&ts, sg);
    }
    BM_CHECK_GE(ts.ready_nodes, 0);
    inflight_subgraphs_.emplace(task.id, std::move(touched));
    ts.running_tasks++;
    if (trace_ != nullptr) {
      trace_->TaskFormed(task.id, type, worker, task.BatchSize(), criterion);
    }
    out->push_back(std::move(task));
    num_tasks++;
  }
}

BatchedTask Scheduler::FormBatchedTask(CellTypeId type, int worker,
                                       std::vector<std::pair<Subgraph*, int>>* by_subgraph) {
  TypeState& ts = types_[static_cast<size_t>(type)];
  const int max_batch = registry_->info(type).max_batch;
  by_subgraph->clear();
  BatchedTask task;
  task.entries.reserve(static_cast<size_t>(std::min(max_batch, ts.ready_nodes)));
  for (Subgraph* sg : ts.queue) {
    if (sg->pinned_worker != -1 && sg->pinned_worker != worker) {
      continue;  // pinned to another worker
    }
    if (sg->ready.empty()) {
      continue;
    }
    // A prefix of the subgraph's ready list, in order.
    const int taken = std::min(static_cast<int>(sg->ready.size()), max_batch - task.BatchSize());
    for (int i = 0; i < taken; ++i) {
      task.entries.push_back(TaskEntry{sg->owner->id, sg->ready[static_cast<size_t>(i)], sg->owner});
    }
    by_subgraph->emplace_back(sg, taken);
    if (task.BatchSize() == max_batch) {
      break;
    }
  }
  return task;
}

void Scheduler::RemoveFromQueueIfDone(TypeState* ts, Subgraph* sg) {
  if (sg->unscheduled > 0) {
    return;
  }
  // Fully scheduled: nothing left to batch from this subgraph. Remove it
  // from the queue eagerly so no dangling pointer survives the request's
  // completion. The stored iterator makes this O(1).
  BM_CHECK(sg->ready.empty());
  BM_CHECK(sg->in_queue);
  sg->in_queue = false;
  ts->queue.erase(sg->queue_pos);
}

void Scheduler::OnTaskCompleted(const BatchedTask& task) {
  TypeState& ts = types_[static_cast<size_t>(task.type)];
  BM_CHECK_GT(ts.running_tasks, 0);
  ts.running_tasks--;

  const auto it = inflight_subgraphs_.find(task.id);
  BM_CHECK(it != inflight_subgraphs_.end()) << "completion for unknown task " << task.id;
  for (Subgraph* sg : it->second) {
    BM_CHECK_GT(sg->inflight_tasks, 0);
    if (--sg->inflight_tasks == 0) {
      sg->pinned_worker = -1;  // unpin (Algorithm 1's counter reaching zero)
      if (sg->parked) {
        // The last in-flight task of a failure-parked subgraph drained; it
        // is now safe to re-schedule the reverted nodes.
        UnparkSubgraph(sg);
      }
    }
  }
  inflight_subgraphs_.erase(it);

  // Propagate completion last: this may destroy finished requests and
  // their subgraphs, and may enqueue newly released subgraphs.
  processor_->MarkCompleted(task);
}

void Scheduler::ParkSubgraph(Subgraph* sg) {
  BM_CHECK(!sg->parked);
  if (sg->in_queue) {
    TypeState& ts = types_[static_cast<size_t>(sg->type)];
    ts.ready_nodes -= static_cast<int>(sg->ready.size());
    BM_CHECK_GE(ts.ready_nodes, 0);
    ts.queue.erase(sg->queue_pos);
    sg->in_queue = false;
  }
  sg->parked = true;
}

void Scheduler::UnparkSubgraph(Subgraph* sg) {
  BM_CHECK(sg->parked);
  BM_CHECK_EQ(sg->inflight_tasks, 0);
  sg->parked = false;
  if (unpark_hook_) {
    unpark_hook_(sg);
  }
  if (sg->cancelled || sg->unscheduled == 0) {
    return;  // cancelled while parked; nothing left to schedule
  }
  // Recompute the ready set from the dependency counters: reverted nodes
  // whose (re-credited) predecessors are all scheduled-or-completed become
  // ready again. With zero tasks in flight the chain must bottom out in at
  // least one ready node.
  RequestState* state = sg->owner;
  for (int id : sg->nodes) {
    NodeState& node = state->nodes[static_cast<size_t>(id)];
    if (node.stage == NodeStage::kPending && node.unmet_internal == 0 &&
        node.unmet_external == 0) {
      node.stage = NodeStage::kReady;
      sg->ready.push_back(id);
    }
  }
  BM_CHECK(!sg->ready.empty()) << "unparked subgraph has work but no ready nodes";
  EnqueueSubgraph(sg);
}

void Scheduler::OnTaskFailed(const BatchedTask& task,
                             const std::vector<int>& failed_entries, int victim_entry) {
  FailTask(task, failed_entries, victim_entry, /*charge_retries=*/true);
}

void Scheduler::FailTask(const BatchedTask& task, const std::vector<int>& failed_entries,
                         int victim_entry, bool charge_retries) {
  TypeState& ts = types_[static_cast<size_t>(task.type)];
  BM_CHECK_GT(ts.running_tasks, 0);
  ts.running_tasks--;

  const auto it = inflight_subgraphs_.find(task.id);
  BM_CHECK(it != inflight_subgraphs_.end()) << "failure for unknown task " << task.id;
  const std::vector<Subgraph*> touched = std::move(it->second);
  inflight_subgraphs_.erase(it);
  for (Subgraph* sg : touched) {
    BM_CHECK_GT(sg->inflight_tasks, 0);
    if (--sg->inflight_tasks == 0) {
      sg->pinned_worker = -1;
    }
  }

  std::vector<bool> failed_mask(task.entries.size(), false);
  for (int i : failed_entries) {
    BM_CHECK_GE(i, 0);
    BM_CHECK_LT(static_cast<size_t>(i), task.entries.size());
    failed_mask[static_cast<size_t>(i)] = true;
  }

  // Terminal-status decisions first, so the per-entry pass below sees them:
  // the blamed victim fails outright, and an innocent entry reverted too
  // many times escalates its request rather than looping forever.
  if (victim_entry >= 0) {
    BM_CHECK(failed_mask[static_cast<size_t>(victim_entry)]);
    RequestState* victim = processor_->FindRequest(task.entries[static_cast<size_t>(victim_entry)].request);
    BM_CHECK(victim != nullptr);
    victim->MarkTerminal(RequestStatus::kFailed);
  }
  // Victimless quarantine reclaims (charge_retries false) neither consume
  // nor judge the retry budget: the entry never executed, so repeated
  // reclaims from flapping workers must only delay it, never fail it.
  if (charge_retries) {
    for (int i : failed_entries) {
      const TaskEntry& entry = task.entries[static_cast<size_t>(i)];
      RequestState* state = processor_->FindRequest(entry.request);
      BM_CHECK(state != nullptr);
      if (state->status == RequestStatus::kOk &&
          state->nodes[static_cast<size_t>(entry.node)].retries >= options_.max_node_retries) {
        state->MarkTerminal(RequestStatus::kFailed);
      }
    }
  }

  // Per-entry disposition. Failed entries of terminal requests are
  // cancelled (they will never run); innocent ones are reverted and their
  // subgraphs parked. Clean entries completed normally — but completion
  // propagation is deferred past the surgery, and finalization past
  // everything, so no request state is destroyed while pointers into the
  // task are still live.
  std::vector<int> clean;
  std::vector<RequestId> to_cancel;
  clean.reserve(task.entries.size());
  for (size_t i = 0; i < task.entries.size(); ++i) {
    if (!failed_mask[i]) {
      clean.push_back(static_cast<int>(i));
      continue;
    }
    const TaskEntry& entry = task.entries[i];
    RequestState* state = processor_->FindRequest(entry.request);
    BM_CHECK(state != nullptr);
    if (state->status != RequestStatus::kOk) {
      processor_->CancelScheduledNode(state, entry.node);
      if (std::find(to_cancel.begin(), to_cancel.end(), entry.request) == to_cancel.end()) {
        to_cancel.push_back(entry.request);
      }
    } else {
      Subgraph* sg =
          state->subgraphs[static_cast<size_t>(state->nodes[static_cast<size_t>(entry.node)].subgraph)]
              .get();
      if (!sg->parked) {
        ParkSubgraph(sg);
      }
      processor_->RevertScheduledNode(sg, entry.node, charge_retries);
    }
  }
  processor_->MarkCompletedEntries(task, clean);

  // Drained parked subgraphs go back into circulation before any request
  // is finalized (finalization may destroy subgraphs the touched list
  // still points at).
  for (Subgraph* sg : touched) {
    if (sg->parked && sg->inflight_tasks == 0) {
      UnparkSubgraph(sg);
    }
  }

  // Cancel the rest of every terminal request, then finalize whatever
  // drained. Re-lookup by id each time: CancelRequest and FinalizeIfDone
  // destroy finished requests.
  for (RequestId id : to_cancel) {
    CancelRequest(id);
  }
  for (const TaskEntry& entry : task.entries) {
    RequestState* state = processor_->FindRequest(entry.request);
    if (state != nullptr) {
      processor_->FinalizeIfDone(state);
    }
  }
}

void Scheduler::RequeueTask(const BatchedTask& task) {
  std::vector<int> all(task.entries.size());
  for (size_t i = 0; i < task.entries.size(); ++i) {
    all[i] = static_cast<int>(i);
  }
  FailTask(task, all, /*victim_entry=*/-1, /*charge_retries=*/false);
}

int Scheduler::CancelRequest(RequestId id) {
  RequestState* state = processor_->FindRequest(id);
  if (state == nullptr) {
    return 0;
  }
  int total_cancelled = 0;
  for (const auto& sg_ptr : state->subgraphs) {
    Subgraph* sg = sg_ptr.get();
    TypeState& ts = types_[static_cast<size_t>(sg->type)];
    if (sg->in_queue) {
      ts.ready_nodes -= static_cast<int>(sg->ready.size());
      BM_CHECK_GE(ts.ready_nodes, 0);
    }
    total_cancelled += processor_->CancelSubgraphRemainder(sg);
    if (sg->in_queue) {
      RemoveFromQueueIfDone(&ts, sg);
    }
  }
  if (trace_ != nullptr && total_cancelled > 0) {
    trace_->Cancellation(id, total_cancelled);
  }
  // If nothing is in flight, the request is done now; otherwise the last
  // in-flight completion finalizes it via MarkCompleted.
  processor_->FinalizeIfDone(state);
  return total_cancelled;
}

void Scheduler::DetachRequest(RequestState* state) {
  BM_CHECK(state != nullptr);
  BM_CHECK(!state->ever_scheduled) << "cannot detach a request with scheduled work";
  for (const auto& sg_ptr : state->subgraphs) {
    Subgraph* sg = sg_ptr.get();
    BM_CHECK_EQ(sg->inflight_tasks, 0);
    BM_CHECK(!sg->parked);
    BM_CHECK_EQ(sg->pinned_worker, -1);
    if (!sg->in_queue) {
      continue;
    }
    TypeState& ts = types_[static_cast<size_t>(sg->type)];
    ts.ready_nodes -= static_cast<int>(sg->ready.size());
    BM_CHECK_GE(ts.ready_nodes, 0);
    ts.queue.erase(sg->queue_pos);
    sg->in_queue = false;
  }
}

void Scheduler::SetTaskIdSpace(uint64_t seed, uint64_t stride) {
  BM_CHECK_EQ(tasks_formed_, 0) << "task-id space must be set before any task forms";
  BM_CHECK_GT(stride, 0u);
  BM_CHECK_LT(seed, stride);
  next_task_id_ = seed;
  task_id_stride_ = stride;
}

int Scheduler::NumReadyNodes(CellTypeId type) const {
  BM_CHECK_GE(type, 0);
  BM_CHECK_LT(type, static_cast<CellTypeId>(types_.size()));
  return types_[static_cast<size_t>(type)].ready_nodes;
}

int Scheduler::NumRunningTasks(CellTypeId type) const {
  BM_CHECK_GE(type, 0);
  BM_CHECK_LT(type, static_cast<CellTypeId>(types_.size()));
  return types_[static_cast<size_t>(type)].running_tasks;
}

bool Scheduler::HasReadyWork() const {
  for (const TypeState& ts : types_) {
    if (ts.ready_nodes > 0) {
      return true;
    }
  }
  return false;
}

bool Scheduler::HasCompatibleReadyWork(int worker) const {
  for (const TypeState& ts : types_) {
    for (const Subgraph* sg : ts.queue) {
      if (!sg->ready.empty() &&
          (sg->pinned_worker == -1 || sg->pinned_worker == worker)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace batchmaker
