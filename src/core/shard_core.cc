#include "src/core/shard_core.h"

#include <algorithm>
#include <limits>

#include "src/util/logging.h"

namespace batchmaker {

TerminationFn TerminateAfterNode(int node) {
  return [node](const RequestState&, int completed_node) { return completed_node == node; };
}

ShardCore::ShardCore(const CellRegistry* registry, ShardConfig config, Driver driver,
                     MetricsCollector* metrics, TraceRecorder* trace)
    : config_(std::move(config)),
      driver_(std::move(driver)),
      metrics_(metrics),
      trace_(trace) {
  BM_CHECK(driver_.now != nullptr);
  BM_CHECK(metrics_ != nullptr);
  BM_CHECK(trace_ != nullptr);
  BM_CHECK_LT(config_.worker_begin, config_.worker_end);
  BM_CHECK_GT(config_.pipeline_depth, 0);
  const size_t num_workers =
      static_cast<size_t>(config_.worker_end - config_.worker_begin);
  outstanding_.assign(num_workers, 0);
  quarantined_.assign(num_workers, 0);
  processor_ = std::make_unique<RequestProcessor>(
      registry,
      /*on_subgraph_ready=*/[this](Subgraph* sg) { scheduler_->EnqueueSubgraph(sg); },
      /*on_request_complete=*/[this](RequestState* state) { OnRequestComplete(state); });
  scheduler_ = std::make_unique<Scheduler>(registry, processor_.get(), config_.scheduler);
  scheduler_->set_trace(trace_);
  // Task ids partition across shards (seed s, stride S) so trace and
  // fault-injection ids stay globally unique without coordination; with
  // one shard this is the identity numbering.
  scheduler_->SetTaskIdSpace(static_cast<uint64_t>(config_.id),
                             static_cast<uint64_t>(config_.num_shards));
}

size_t ShardCore::Local(int worker) const {
  return static_cast<size_t>(worker - config_.worker_begin);
}

// ---- Admission and the completion record ----------------------------------

void ShardCore::Own(RequestState* state) {
  if (state->terminate) {
    ++num_terminations_;
  }
  const double shed = state->ShedDeadlineMicros();
  if (shed > 0.0) {
    deadlines_.emplace(state->arrival_micros + shed, state->id);
  }
}

void ShardCore::Admit(ShardArrival arrival) {
  metrics_->shard(config_.id).arrivals.fetch_add(1, std::memory_order_relaxed);
  RequestState* state = processor_->AddRequest(arrival.id, std::move(arrival.graph),
                                               arrival.arrival_micros,
                                               std::move(arrival.externals));
  state->priority = arrival.priority;
  state->deadline_micros = arrival.deadline_micros;
  state->queue_timeout_micros = config_.queue_timeout_micros;
  state->outputs_wanted = std::move(arrival.outputs_wanted);
  state->on_response = std::move(arrival.on_response);
  state->terminate = std::move(arrival.terminate);
  Own(state);
  // Every request starts never-scheduled, hence stealable; the candidacy
  // goes stale the moment the first task forms.
  if (config_.num_shards > 1) {
    stealable_.insert({state->priority, state->id});
  }
}

void ShardCore::OnRequestComplete(RequestState* state) {
  const RequestStatus status = state->status;
  switch (status) {
    case RequestStatus::kOk: {
      RequestRecord record;
      record.id = state->id;
      record.arrival_micros = state->arrival_micros;
      record.exec_start_micros = state->ExecStartMicros();
      record.completion_micros = driver_.now();
      record.num_nodes = state->graph.NumNodes();
      metrics_->Record(record);
      metrics_->shard(config_.id).completions.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    case RequestStatus::kShed:
      metrics_->RecordDropped();
      break;
    case RequestStatus::kFailed:
      metrics_->RecordFailed();
      break;
    case RequestStatus::kCancelled:
      break;  // caller-initiated; neither a completion nor a drop
    case RequestStatus::kRejected:
      break;  // unreachable: rejected requests are never admitted
  }

  // The request is terminal: drop its steal candidacy eagerly
  // (PopStealable would discard it lazily anyway).
  if (config_.num_shards > 1) {
    stealable_.erase({state->priority, state->id});
  }

  if (state->terminate) {
    --num_terminations_;
  }
  // Collect wanted outputs (kOk only — other terminal states carry none)
  // and fire the callback exactly once.
  std::vector<Tensor> outputs;
  if (status == RequestStatus::kOk) {
    outputs.reserve(state->outputs_wanted.size());
    for (const ValueRef& ref : state->outputs_wanted) {
      if (state->nodes[static_cast<size_t>(ref.node)].stage == NodeStage::kCancelled) {
        continue;  // early termination cancelled this producer
      }
      outputs.push_back(state->NodeOutput(ref.node, ref.output));
    }
  }
  if (state->on_response) {
    state->on_response(state->id, status, std::move(outputs));
  }
  if (status == RequestStatus::kShed) {
    trace_->RequestDrop(state->id);
  } else {
    trace_->RequestComplete(state->id, state->ExecStartMicros());
  }
  if (driver_.on_retired) {
    driver_.on_retired(state);
  }
}

// ---- Messages --------------------------------------------------------------

void ShardCore::Complete(const BatchedTask& task, const std::vector<int>& failed_entries,
                         int victim_entry) {
  const int worker = task.worker;
  BM_CHECK_GE(worker, config_.worker_begin);
  BM_CHECK_LT(worker, config_.worker_end);
  const size_t local = Local(worker);
  outstanding_[local]--;
  BM_CHECK_GE(outstanding_[local], 0);
  if (failed_entries.empty()) {
    scheduler_->OnTaskCompleted(task);
  } else {
    scheduler_->OnTaskFailed(task, failed_entries, victim_entry);
  }
  // Early-termination predicates (the request may already be finalized, in
  // which case it is no longer owned and nothing happens). Skipped entirely
  // when no owned request registered one — the common case. Failed entries
  // are skipped: their nodes did not complete.
  if (num_terminations_ > 0) {
    std::vector<bool> failed(task.entries.size(), false);
    for (int i : failed_entries) {
      failed[static_cast<size_t>(i)] = true;
    }
    for (size_t i = 0; i < task.entries.size(); ++i) {
      if (failed[i]) {
        continue;
      }
      const TaskEntry& entry = task.entries[i];
      // By id, not entry.state: the completion may have finalized it.
      RequestState* state = processor_->FindRequest(entry.request);
      if (state == nullptr || !state->terminate) {
        continue;
      }
      if (state->terminate(*state, entry.node)) {
        state->terminate = nullptr;
        --num_terminations_;
        scheduler_->CancelRequest(entry.request);
      }
    }
  }
  // Targeted refill: this completion may have dropped the worker below the
  // watermark and unlocked successors it can run; hand them over now,
  // before the driver delivers any other message.
  if (outstanding_[local] < config_.pipeline_depth) {
    TrySchedule(worker);
  }
}

void ShardCore::Cancel(RequestId id) {
  RequestState* state = processor_->FindRequest(id);
  if (state == nullptr) {
    // Not owned here — but it may be owned *nowhere* right now (in flight
    // between shards). Tombstone so an adoption that lost the race to this
    // broadcast still honours the cancel.
    if (config_.num_shards > 1) {
      tombstones_.insert(id);
    }
    return;
  }
  if (!state->MarkTerminal(RequestStatus::kCancelled)) {
    return;  // already finished (kOk won the race) or terminal
  }
  scheduler_->CancelRequest(id);
}

void ShardCore::Receive(PeerMsg msg) {
  if (const HungerNotice* notice = std::get_if<HungerNotice>(&msg)) {
    if (std::find(hungry_.begin(), hungry_.end(), notice->from_shard) == hungry_.end()) {
      hungry_.push_back(notice->from_shard);
    }
    return;
  }
  Adopt(std::move(std::get<Migration>(msg)));
}

void ShardCore::Quarantine(int worker, const std::vector<BatchedTask>& reclaimed) {
  BM_CHECK_GE(worker, config_.worker_begin);
  BM_CHECK_LT(worker, config_.worker_end);
  quarantined_[Local(worker)] = 1;
  for (const BatchedTask& task : reclaimed) {
    Requeue(task);
  }
  // A shard with every worker quarantined cannot run the reclaimed work;
  // hand never-scheduled requests to healthy peers rather than sitting on
  // them for the whole recovery.
  if (std::find(quarantined_.begin(), quarantined_.end(), 0) == quarantined_.end()) {
    DonateAll();
  }
}

bool ShardCore::Readmit(int worker) {
  BM_CHECK_GE(worker, config_.worker_begin);
  BM_CHECK_LT(worker, config_.worker_end);
  const size_t local = Local(worker);
  if (quarantined_[local] == 0) {
    return false;
  }
  quarantined_[local] = 0;
  TrySchedule(worker);
  return true;
}

void ShardCore::Requeue(const BatchedTask& task) {
  const size_t local = Local(task.worker);
  outstanding_[local]--;
  BM_CHECK_GE(outstanding_[local], 0);
  metrics_->worker(task.worker).requeued_tasks.fetch_add(1, std::memory_order_relaxed);
  scheduler_->RequeueTask(task);
}

// ---- Passes ----------------------------------------------------------------

void ShardCore::Pass() {
  ExpireDeadlines(driver_.now());
  Refill();
  if (config_.num_shards > 1) {
    Donate();
    ReportHunger();
  }
}

void ShardCore::Wake() { ExpireDeadlines(driver_.now()); }

double ShardCore::NextWakeMicros() {
  PruneDeadlines();
  return deadlines_.empty() ? std::numeric_limits<double>::infinity()
                            : deadlines_.top().first;
}

void ShardCore::TrySchedule(int worker) {
  const size_t local = Local(worker);
  if (quarantined_[local] != 0) {
    return;  // the stream stops refilling until the watchdog re-admits
  }
  std::vector<BatchedTask> tasks = scheduler_->Schedule(worker);
  if (tasks.empty()) {
    return;
  }
  trace_->StreamRefill(worker, static_cast<int>(tasks.size()));
  outstanding_[local] += static_cast<int>(tasks.size());
  for (BatchedTask& task : tasks) {
    formed_.push_back(std::move(task));
  }
}

void ShardCore::Refill() {
  if (!scheduler_->HasReadyWork()) {
    return;
  }
  // Watermark refill: top up every owned worker whose stream has fewer
  // than pipeline_depth tasks in flight. The scan start rotates so that
  // under light load (work for one task, everyone below watermark) the
  // first fresh subgraph does not always pin to the shard's first worker.
  const int n = config_.worker_end - config_.worker_begin;
  const int start = refill_start_;
  refill_start_ = (refill_start_ + 1) % n;
  for (int i = 0; i < n; ++i) {
    const size_t local = static_cast<size_t>((start + i) % n);
    if (quarantined_[local] != 0) {
      continue;
    }
    if (outstanding_[local] < config_.pipeline_depth) {
      TrySchedule(config_.worker_begin + static_cast<int>(local));
      if (!scheduler_->HasReadyWork()) {
        break;
      }
    }
  }
}

void ShardCore::PruneDeadlines() {
  while (!deadlines_.empty()) {
    RequestState* state = processor_->FindRequest(deadlines_.top().second);
    if (state == nullptr || state->ExecStarted() || state->status != RequestStatus::kOk) {
      // Finished, migrated away, already executing, or terminal: this
      // entry can never shed anything — drop it before it shapes a wait.
      deadlines_.pop();
      continue;
    }
    break;
  }
}

void ShardCore::ExpireDeadlines(double now_micros) {
  while (!deadlines_.empty() && deadlines_.top().first <= now_micros) {
    const RequestId id = deadlines_.top().second;
    deadlines_.pop();
    RequestState* state = processor_->FindRequest(id);
    if (state == nullptr || state->ExecStarted() || state->status != RequestStatus::kOk) {
      continue;  // finished, migrated away, running, or already terminal
    }
    // A request sheds only if it has not begun executing when its
    // deadline fires. (On the Server the ExecStarted read races benignly
    // with a worker's first-execution CAS; losing it just means the
    // request completes normally.)
    state->MarkTerminal(RequestStatus::kShed);
    scheduler_->CancelRequest(id);
  }
}

// ---- Stealing --------------------------------------------------------------

RequestState* ShardCore::PopStealable() {
  while (!stealable_.empty()) {
    const auto it = stealable_.begin();
    const RequestId id = it->second;
    stealable_.erase(it);
    RequestState* state = processor_->FindRequest(id);
    if (state == nullptr || state->ever_scheduled || state->status != RequestStatus::kOk) {
      continue;  // stale candidate: gone, already pinned work, or terminal
    }
    return state;
  }
  return nullptr;
}

void ShardCore::MigrateOut(RequestState* state, int to_shard) {
  const RequestId id = state->id;
  Migration migration;
  migration.from_shard = config_.id;
  // Unhook the queued subgraphs from the scheduler first (the processor
  // checks the request really was never scheduled), then move the state,
  // submission bookkeeping included, wholesale. The stale deadline-heap
  // entry stays behind; FindRequest discards it lazily.
  scheduler_->DetachRequest(state);
  if (state->terminate) {
    --num_terminations_;
  }
  migration.state = processor_->ReleaseRequest(id);
  metrics_->shard(config_.id).steals_out.fetch_add(1, std::memory_order_relaxed);
  driver_.send(to_shard, PeerMsg{std::move(migration)});
}

void ShardCore::Adopt(Migration migration) {
  // An adoption ends this shard's hunger episode: if it is still starved
  // once the newcomer is scheduled, it may tell its peers again.
  hunger_sent_ = false;
  const int from_shard = migration.from_shard;
  RequestState* state = processor_->AdoptRequest(std::move(migration.state));
  const RequestId id = state->id;
  // Re-keys the deadline on this shard's heap. The request is not listed
  // as stealable again: a request migrates at most once.
  Own(state);
  metrics_->shard(config_.id).steals_in.fetch_add(1, std::memory_order_relaxed);
  if (!config_.shard_node.empty()) {
    // With node-aligned shard boundaries, a steal between shards on
    // different nodes is the only deliberately cross-node traffic; count it
    // separately so the locality bench can report it.
    const int to_node = config_.shard_node[static_cast<size_t>(config_.id)];
    const int from_node = config_.shard_node[static_cast<size_t>(from_shard)];
    if (to_node >= 0 && from_node >= 0 && to_node != from_node) {
      metrics_->node(to_node).cross_node_steals.fetch_add(1, std::memory_order_relaxed);
    }
  }
  trace_->ShardSteal(id, from_shard, config_.id);
  const auto tomb_it = tombstones_.find(id);
  if (tomb_it != tombstones_.end()) {
    // A cancel broadcast beat the migration here; honour it now.
    tombstones_.erase(tomb_it);
    if (state->MarkTerminal(RequestStatus::kCancelled)) {
      scheduler_->CancelRequest(id);
    }
  }
}

bool ShardCore::HasSurplus() const {
  // Quarantined workers don't count: their streams are deliberately empty
  // and must not make the shard look under-committed forever.
  for (size_t local = 0; local < outstanding_.size(); ++local) {
    if (quarantined_[local] == 0 && outstanding_[local] < config_.pipeline_depth) {
      return false;
    }
  }
  return true;
}

void ShardCore::Donate() {
  // Donate only surplus: with every owned worker at the watermark, local
  // scheduling cannot absorb a stealable request any time soon.
  if (hungry_.empty() || !HasSurplus()) {
    return;
  }
  while (!hungry_.empty()) {
    RequestState* state = PopStealable();
    if (state == nullptr) {
      return;  // no surplus left; keep the hungry peers for the next burst
    }
    const int to_shard = hungry_.front();
    hungry_.erase(hungry_.begin());
    MigrateOut(state, to_shard);
  }
}

void ShardCore::DonateAll() {
  if (config_.num_shards <= 1) {
    return;
  }
  // Same-node peers first, so the forced migration respects numa_policy's
  // node boundaries whenever a same-node shard exists.
  const auto same_node = [this](int s) {
    return !config_.shard_node.empty() &&
           config_.shard_node[static_cast<size_t>(s)] ==
               config_.shard_node[static_cast<size_t>(config_.id)];
  };
  std::vector<int> peers;
  for (const bool near : {true, false}) {
    for (int s = 0; s < config_.num_shards; ++s) {
      if (s != config_.id && same_node(s) == near) {
        peers.push_back(s);
      }
    }
  }
  for (size_t next = 0;; ++next) {
    RequestState* state = PopStealable();
    if (state == nullptr) {
      return;
    }
    MigrateOut(state, peers[next % peers.size()]);
  }
}

void ShardCore::ReportHunger() {
  // Starved: an owned worker with an empty stream that the refill pass
  // just failed to feed (no compatible ready work). A quarantined worker
  // is empty by design, not starved.
  bool starved = false;
  for (int w = config_.worker_begin; w < config_.worker_end && !starved; ++w) {
    const size_t local = Local(w);
    if (quarantined_[local] != 0) {
      continue;
    }
    starved = outstanding_[local] == 0 && !scheduler_->HasCompatibleReadyWork(w);
  }
  if (!starved) {
    hunger_sent_ = false;
    return;
  }
  if (hunger_sent_) {
    return;
  }
  hunger_sent_ = true;
  for (int s = 0; s < config_.num_shards; ++s) {
    if (s != config_.id) {
      driver_.send(s, PeerMsg{HungerNotice{config_.id}});
    }
  }
}

}  // namespace batchmaker
