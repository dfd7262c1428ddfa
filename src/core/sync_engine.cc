#include "src/core/sync_engine.h"

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/util/logging.h"

namespace batchmaker {

namespace {

// For the stall check: each active request's nodes that never became ready
// and its ready-but-unscheduled nodes (the first 8 of each).
std::string StallDiagnostic(RequestProcessor& processor) {
  std::ostringstream out;
  for (const RequestId id : processor.ActiveRequestIds()) {
    const RequestState* state = processor.FindRequest(id);
    std::ostringstream pending;
    std::ostringstream ready;
    int num_pending = 0;
    int num_ready = 0;
    for (size_t n = 0; n < state->nodes.size(); ++n) {
      const NodeStage stage = state->nodes[n].stage;
      if (stage == NodeStage::kPending) {
        if (num_pending++ < 8) {
          pending << (num_pending > 1 ? " " : "") << n;
        }
      } else if (stage == NodeStage::kReady || stage == NodeStage::kScheduled) {
        if (num_ready++ < 8) {
          ready << (num_ready > 1 ? " " : "") << n;
        }
      }
    }
    out << " request " << id << " has " << num_pending
        << " node(s) that never became ready [" << pending.str()
        << (num_pending > 8 ? " ..." : "") << "] and " << num_ready
        << " ready-but-unscheduled node(s) [" << ready.str()
        << (num_ready > 8 ? " ..." : "") << "];";
  }
  return out.str();
}

}  // namespace

SyncEngine::SyncEngine(const CellRegistry* registry, SchedulerOptions options)
    : registry_(registry),
      trace_([this] { return NowMicros(); }),
      start_time_(std::chrono::steady_clock::now()),
      assembler_(registry) {
  BM_CHECK(registry != nullptr);
  processor_ = std::make_unique<RequestProcessor>(
      registry,
      /*on_subgraph_ready=*/[this](Subgraph* sg) { scheduler_->EnqueueSubgraph(sg); },
      /*on_request_complete=*/
      [this](RequestState* state) {
        const auto it = outputs_wanted_.find(state->id);
        BM_CHECK(it != outputs_wanted_.end());
        Response response;
        response.status = state->status;
        if (response.status == RequestStatus::kOk) {
          response.outputs.reserve(it->second.size());
          for (const ValueRef& ref : it->second) {
            BM_CHECK(!ref.is_external()) << "outputs must reference node outputs";
            if (state->nodes[static_cast<size_t>(ref.node)].stage ==
                NodeStage::kCancelled) {
              continue;  // early termination cancelled this producer
            }
            response.outputs.push_back(state->NodeOutput(ref.node, ref.output));
          }
        }
        completed_.emplace(state->id, std::move(response));
        outputs_wanted_.erase(it);
        terminate_after_.erase(state->id);
        trace_.RequestComplete(state->id, state->ExecStartMicros());
      });
  scheduler_ = std::make_unique<Scheduler>(registry, processor_.get(), options);
  scheduler_->set_trace(&trace_);
}

double SyncEngine::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_time_)
             .count() /
         1000.0;
}

RequestId SyncEngine::Submit(CellGraph graph, std::vector<Tensor> externals,
                             std::vector<ValueRef> outputs_wanted, SubmitOptions opts) {
  BM_CHECK(!externals.empty()) << "SyncEngine runs in real-compute mode";
  const std::string err = graph.ValidateOrError(*registry_, externals);
  BM_CHECK(err.empty()) << err;
  const RequestId id = next_request_id_++;
  for (const ValueRef& ref : outputs_wanted) {
    BM_CHECK(!ref.is_external());
    BM_CHECK_LT(ref.node, graph.NumNodes());
  }
  if (opts.terminate_after_node >= 0) {
    BM_CHECK_LT(opts.terminate_after_node, graph.NumNodes());
    terminate_after_.emplace(id, opts.terminate_after_node);
  }
  outputs_wanted_.emplace(id, std::move(outputs_wanted));
  trace_.RequestArrival(id, graph.NumNodes());
  processor_->AddRequest(id, std::move(graph), /*arrival_micros=*/0.0,
                         std::move(externals));
  return id;
}

void SyncEngine::RunToCompletion() {
  // Single synthetic worker 0; tasks execute inline so the worker is
  // "idle" again immediately after each Schedule round.
  std::vector<RequestState*> states;  // states[i] owns the task's entries[i]
  for (;;) {
    std::vector<BatchedTask> tasks = scheduler_->Schedule(/*worker=*/0);
    if (tasks.empty()) {
      // Algorithm 1 forms a task whenever worker 0 has a ready node, and
      // nothing here pins work to another worker: a round with no task
      // while requests remain active is a broken invariant.
      BM_CHECK_EQ(processor_->NumActiveRequests(), 0u)
          << "scheduler stalled:" << StallDiagnostic(*processor_);
      return;
    }
    for (BatchedTask& task : tasks) {
      const double exec_start = NowMicros();
      states.clear();
      for (const TaskEntry& entry : task.entries) {
        entry.state->MarkExecStarted(exec_start);
        states.push_back(entry.state);
      }
      trace_.ExecBegin(exec_start, task.id, task.type, task.worker, task.BatchSize());
      const ExecContext ctx{/*pool=*/nullptr, &arena_, precision_};
      assembler_.ExecuteTask(task, states, &ctx);
      trace_.ExecEnd(task.id, task.type, task.worker, task.BatchSize());
      ++tasks_executed_;
      task_batch_sizes_.push_back(task.BatchSize());
      scheduler_->OnTaskCompleted(task);
      // Early termination: if a terminating node just completed, cancel the
      // request's remaining cells (same rule as the other engines; no-op if
      // the request already finished).
      if (!terminate_after_.empty()) {
        for (const TaskEntry& entry : task.entries) {
          const auto it = terminate_after_.find(entry.request);
          if (it != terminate_after_.end() && it->second == entry.node) {
            terminate_after_.erase(it);
            scheduler_->CancelRequest(entry.request);
          }
        }
      }
    }
  }
}

Response SyncEngine::TakeResponse(RequestId id) {
  const auto it = completed_.find(id);
  BM_CHECK(it != completed_.end()) << "request " << id << " has not completed";
  Response out = std::move(it->second);
  completed_.erase(it);
  return out;
}

}  // namespace batchmaker
