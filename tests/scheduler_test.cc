// Tests for the Scheduler (paper Algorithm 1): batching across requests,
// MaxTasksToSubmit pipelining, cell-type priorities, the three selection
// criteria, and subgraph pinning across workers.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/core/request_processor.h"
#include "src/core/scheduler.h"
#include "tests/test_models.h"

namespace batchmaker {
namespace {

// Wires processor + scheduler and executes tasks on demand.
class SchedulerHarness {
 public:
  SchedulerHarness(const CellRegistry* registry, SchedulerOptions options = {}) {
    processor_ = std::make_unique<RequestProcessor>(
        registry, [this](Subgraph* sg) { scheduler_->EnqueueSubgraph(sg); },
        [this](RequestState* state) { completed_.push_back(state->id); });
    scheduler_ = std::make_unique<Scheduler>(registry, processor_.get(), options);
  }

  RequestProcessor& processor() { return *processor_; }
  Scheduler& scheduler() { return *scheduler_; }
  const std::vector<RequestId>& completed() const { return completed_; }

  // Runs Schedule(worker) once and completes the returned tasks in order.
  std::vector<BatchedTask> ScheduleAndComplete(int worker) {
    std::vector<BatchedTask> tasks = scheduler_->Schedule(worker);
    for (const BatchedTask& t : tasks) {
      scheduler_->OnTaskCompleted(t);
    }
    return tasks;
  }

  // Drives everything to completion on one worker; returns batch sizes in
  // execution order.
  std::vector<int> RunAll(int worker = 0) {
    std::vector<int> sizes;
    for (;;) {
      const auto tasks = ScheduleAndComplete(worker);
      if (tasks.empty()) {
        return sizes;
      }
      for (const auto& t : tasks) {
        sizes.push_back(t.BatchSize());
      }
    }
  }

 private:
  std::unique_ptr<RequestProcessor> processor_;
  std::unique_ptr<Scheduler> scheduler_;
  std::vector<RequestId> completed_;
};

// ---------- Cross-request batching ----------

TEST(SchedulerTest, BatchesSameStepAcrossRequests) {
  TinyLstmFixture fix;
  SchedulerHarness h(&fix.registry);
  for (RequestId id = 1; id <= 4; ++id) {
    h.processor().AddRequest(id, fix.model.Unfold(3), 0.0);
  }
  const auto tasks = h.scheduler().Schedule(0);
  ASSERT_FALSE(tasks.empty());
  // One LSTM step batched over all 4 requests.
  EXPECT_EQ(tasks[0].BatchSize(), 4);
}

TEST(SchedulerTest, MaxTasksToSubmitPipelinesSteps) {
  TinyLstmFixture fix;
  SchedulerHarness h(&fix.registry, SchedulerOptions{.max_tasks_to_submit = 5});
  h.processor().AddRequest(1, fix.model.Unfold(10), 0.0);
  const auto tasks = h.scheduler().Schedule(0);
  // A chain unlocks one successor per scheduled step, so one Schedule()
  // call pipelines exactly MaxTasksToSubmit steps.
  EXPECT_EQ(tasks.size(), 5u);
  for (const auto& t : tasks) {
    EXPECT_EQ(t.BatchSize(), 1);
  }
  for (const auto& t : tasks) {
    h.scheduler().OnTaskCompleted(t);
  }
}

TEST(SchedulerTest, MaxTasksToSubmitOneLimitsPipelining) {
  TinyLstmFixture fix;
  SchedulerHarness h(&fix.registry, SchedulerOptions{.max_tasks_to_submit = 1});
  h.processor().AddRequest(1, fix.model.Unfold(10), 0.0);
  const auto tasks = h.scheduler().Schedule(0);
  EXPECT_EQ(tasks.size(), 1u);
  h.scheduler().OnTaskCompleted(tasks[0]);
}

TEST(SchedulerTest, MaxBatchCapsTaskSize) {
  TinyLstmFixture fix;
  fix.registry.SetMaxBatch(fix.model.cell_type(), 3);
  SchedulerHarness h(&fix.registry);
  for (RequestId id = 1; id <= 5; ++id) {
    h.processor().AddRequest(id, fix.model.Unfold(1), 0.0);
  }
  const auto tasks = h.scheduler().Schedule(0);
  ASSERT_GE(tasks.size(), 2u);
  EXPECT_EQ(tasks[0].BatchSize(), 3);
  EXPECT_EQ(tasks[1].BatchSize(), 2);
  for (const auto& t : tasks) {
    h.scheduler().OnTaskCompleted(t);
  }
}

TEST(SchedulerTest, CompletesAllRequests) {
  TinyLstmFixture fix;
  SchedulerHarness h(&fix.registry);
  for (RequestId id = 1; id <= 7; ++id) {
    h.processor().AddRequest(id, fix.model.Unfold(static_cast<int>(id)), 0.0);
  }
  h.RunAll();
  EXPECT_EQ(h.completed().size(), 7u);
  EXPECT_EQ(h.processor().NumActiveRequests(), 0u);
  EXPECT_FALSE(h.scheduler().HasReadyWork());
}

TEST(SchedulerTest, NewRequestJoinsOngoingExecution) {
  // The core cellular-batching property (paper §3.2): a request arriving
  // mid-flight is batched with existing requests' later cells.
  TinyLstmFixture fix;
  SchedulerHarness h(&fix.registry, SchedulerOptions{.max_tasks_to_submit = 1});
  h.processor().AddRequest(1, fix.model.Unfold(4), 0.0);

  auto tasks = h.ScheduleAndComplete(0);
  EXPECT_EQ(tasks[0].BatchSize(), 1);
  // Request 2 arrives after request 1 already ran one step.
  h.processor().AddRequest(2, fix.model.Unfold(4), 0.0);
  tasks = h.ScheduleAndComplete(0);
  ASSERT_EQ(tasks.size(), 1u);
  // The next task batches request 1's step 1 with request 2's step 0.
  EXPECT_EQ(tasks[0].BatchSize(), 2);
  std::vector<RequestId> ids;
  for (const TaskEntry& e : tasks[0].entries) {
    ids.push_back(e.request);
  }
  EXPECT_EQ(ids, (std::vector<RequestId>{1, 2}));
}

TEST(SchedulerTest, ShortRequestLeavesEarly) {
  TinyLstmFixture fix;
  SchedulerHarness h(&fix.registry, SchedulerOptions{.max_tasks_to_submit = 1});
  h.processor().AddRequest(1, fix.model.Unfold(1), 0.0);
  h.processor().AddRequest(2, fix.model.Unfold(5), 0.0);
  h.ScheduleAndComplete(0);
  // After one batched step the short request is done; the long one is not.
  EXPECT_EQ(h.completed(), std::vector<RequestId>{1});
  EXPECT_EQ(h.processor().NumActiveRequests(), 1u);
}

// ---------- Priorities ----------

TEST(SchedulerTest, HigherPriorityTypeWinsAtEqualCriterion) {
  TinySeq2SeqFixture fix;
  SchedulerHarness h(&fix.registry, SchedulerOptions{.max_tasks_to_submit = 1});
  // Request A is in its decoding phase; request B just arrived.
  h.processor().AddRequest(1, fix.model.Unfold(1, 3), 0.0);
  auto tasks = h.ScheduleAndComplete(0);  // encoder step of A
  EXPECT_EQ(tasks[0].type, fix.model.encoder_type());
  h.processor().AddRequest(2, fix.model.Unfold(3, 3), 0.0);
  // Both decoder (A) and encoder (B) have 1 ready node and 0 running
  // tasks; decoder must win on priority.
  tasks = h.ScheduleAndComplete(0);
  ASSERT_FALSE(tasks.empty());
  EXPECT_EQ(tasks[0].type, fix.model.decoder_type());
}

TEST(SchedulerTest, TreeInternalPreferredOverLeaf) {
  TinyTreeLstmFixture fix;
  SchedulerHarness h(&fix.registry, SchedulerOptions{.max_tasks_to_submit = 1});
  h.processor().AddRequest(1, fix.model.Unfold(BinaryTree::Complete(4)), 0.0);
  // Execute the 4 leaves (one batched leaf task).
  auto tasks = h.ScheduleAndComplete(0);
  EXPECT_EQ(tasks[0].type, fix.model.leaf_type());
  EXPECT_EQ(tasks[0].BatchSize(), 4);
  // A new request's leaves now compete with request 1's internals.
  h.processor().AddRequest(2, fix.model.Unfold(BinaryTree::Complete(4)), 0.0);
  tasks = h.ScheduleAndComplete(0);
  ASSERT_FALSE(tasks.empty());
  EXPECT_EQ(tasks[0].type, fix.model.internal_type());
}

// ---------- Selection criteria ----------

TEST(SchedulerTest, FullBatchCriterionBeatsPriority) {
  TinySeq2SeqFixture fix;
  fix.registry.SetMaxBatch(fix.model.encoder_type(), 2);
  fix.registry.SetMaxBatch(fix.model.decoder_type(), 2);
  SchedulerHarness h(&fix.registry, SchedulerOptions{.max_tasks_to_submit = 1});
  // One request decoding (1 ready decoder node < max batch), two requests
  // with encoder nodes ready (= max batch). Criterion (a) selects the
  // encoder even though the decoder has higher priority.
  h.processor().AddRequest(1, fix.model.Unfold(1, 2), 0.0);
  auto tasks = h.ScheduleAndComplete(0);  // run A's encoder
  EXPECT_EQ(tasks[0].type, fix.model.encoder_type());
  h.processor().AddRequest(2, fix.model.Unfold(2, 1), 0.0);
  h.processor().AddRequest(3, fix.model.Unfold(2, 1), 0.0);
  EXPECT_EQ(h.scheduler().NumReadyNodes(fix.model.encoder_type()), 2);
  EXPECT_EQ(h.scheduler().NumReadyNodes(fix.model.decoder_type()), 1);
  tasks = h.ScheduleAndComplete(0);
  EXPECT_EQ(tasks[0].type, fix.model.encoder_type());
  EXPECT_EQ(tasks[0].BatchSize(), 2);
}

TEST(SchedulerTest, StarvedTypeCriterionRunsIdleType) {
  // Criterion (b): a type with no running tasks gets scheduled ahead of a
  // (higher-priority) type that already has tasks in flight.
  TinySeq2SeqFixture fix;
  SchedulerHarness h(&fix.registry, SchedulerOptions{.max_tasks_to_submit = 1});
  h.processor().AddRequest(1, fix.model.Unfold(1, 4), 0.0);
  auto enc = h.ScheduleAndComplete(0);
  EXPECT_EQ(enc[0].type, fix.model.encoder_type());

  // Start a decoder task but do NOT complete it.
  auto dec_tasks = h.scheduler().Schedule(0);
  ASSERT_EQ(dec_tasks.size(), 1u);
  EXPECT_EQ(dec_tasks[0].type, fix.model.decoder_type());

  // New request's encoder nodes: decoder has a running task, encoder does
  // not -> criterion (b) picks the encoder despite lower priority.
  h.processor().AddRequest(2, fix.model.Unfold(2, 1), 0.0);
  auto tasks = h.scheduler().Schedule(0);
  ASSERT_FALSE(tasks.empty());
  EXPECT_EQ(tasks[0].type, fix.model.encoder_type());
  h.scheduler().OnTaskCompleted(dec_tasks[0]);
  for (const auto& t : tasks) {
    h.scheduler().OnTaskCompleted(t);
  }
}

// ---------- Pinning across workers ----------

TEST(SchedulerTest, InflightSubgraphPinnedToWorker) {
  TinyLstmFixture fix;
  SchedulerHarness h(&fix.registry, SchedulerOptions{.max_tasks_to_submit = 1});
  h.processor().AddRequest(1, fix.model.Unfold(4), 0.0);

  // Worker 0 takes step 0; the chain's remaining steps are pinned.
  auto tasks0 = h.scheduler().Schedule(0);
  ASSERT_EQ(tasks0.size(), 1u);
  // Worker 1 asks for work while worker 0's task is in flight: nothing
  // schedulable (the only subgraph is pinned to worker 0).
  const auto tasks1 = h.scheduler().Schedule(1);
  EXPECT_TRUE(tasks1.empty());

  // After completion the subgraph is unpinned; worker 1 can now take it.
  h.scheduler().OnTaskCompleted(tasks0[0]);
  const auto tasks2 = h.scheduler().Schedule(1);
  ASSERT_EQ(tasks2.size(), 1u);
  EXPECT_EQ(tasks2[0].worker, 1);
  h.scheduler().OnTaskCompleted(tasks2[0]);
}

TEST(SchedulerTest, UnpinnedOnlyWhenAllInflightTasksDone) {
  TinyLstmFixture fix;
  SchedulerHarness h(&fix.registry, SchedulerOptions{.max_tasks_to_submit = 2});
  h.processor().AddRequest(1, fix.model.Unfold(4), 0.0);
  auto tasks = h.scheduler().Schedule(0);
  ASSERT_EQ(tasks.size(), 2u);
  h.scheduler().OnTaskCompleted(tasks[0]);
  // One task still in flight: still pinned away from worker 1.
  EXPECT_TRUE(h.scheduler().Schedule(1).empty());
  h.scheduler().OnTaskCompleted(tasks[1]);
  EXPECT_FALSE(h.scheduler().Schedule(1).empty());
}

TEST(SchedulerTest, WatermarkRefillNeverViolatesPinning) {
  // The pipelined server refills below-watermark workers while earlier
  // tasks are still in flight — i.e. it calls Schedule again with no
  // intervening OnTaskCompleted. Such a refill must never hand another
  // worker nodes of a subgraph pinned to the first, and a same-worker
  // refill must pipeline successor steps onto the same stream.
  TinyLstmFixture fix;
  SchedulerHarness h(&fix.registry, SchedulerOptions{.max_tasks_to_submit = 2});
  h.processor().AddRequest(1, fix.model.Unfold(8), 0.0);

  const auto first = h.scheduler().Schedule(0);
  ASSERT_EQ(first.size(), 2u);  // a chain pipelines MaxTasksToSubmit steps
  // Successors unlocked at schedule time, so ready work remains — but all
  // of it is pinned to worker 0's stream: worker 1's refill gets nothing.
  EXPECT_TRUE(h.scheduler().HasReadyWork());
  EXPECT_FALSE(h.scheduler().HasCompatibleReadyWork(1));
  EXPECT_TRUE(h.scheduler().Schedule(1).empty());

  // Refilling worker 0 with both tasks still in flight extends its stream.
  const auto refill = h.scheduler().Schedule(0);
  ASSERT_EQ(refill.size(), 2u);
  for (const auto& t : refill) {
    EXPECT_EQ(t.worker, 0);
    EXPECT_EQ(t.entries[0].request, 1u);
  }

  // A new request's subgraph is unpinned: worker 1's refill picks it up
  // without touching request 1's pinned chain.
  h.processor().AddRequest(2, fix.model.Unfold(3), 0.0);
  EXPECT_TRUE(h.scheduler().HasCompatibleReadyWork(1));
  const auto other = h.scheduler().Schedule(1);
  ASSERT_FALSE(other.empty());
  for (const auto& t : other) {
    EXPECT_EQ(t.worker, 1);
    for (const auto& e : t.entries) {
      EXPECT_EQ(e.request, 2u);
    }
  }

  // Retire everything in stream order; both requests then run to the end.
  for (const auto& t : first) h.scheduler().OnTaskCompleted(t);
  for (const auto& t : refill) h.scheduler().OnTaskCompleted(t);
  for (const auto& t : other) h.scheduler().OnTaskCompleted(t);
  h.RunAll(0);
  EXPECT_EQ(h.completed().size(), 2u);
  EXPECT_FALSE(h.scheduler().HasReadyWork());
}

TEST(SchedulerTest, OtherRequestsScheduleOnSecondWorker) {
  TinyLstmFixture fix;
  SchedulerHarness h(&fix.registry, SchedulerOptions{.max_tasks_to_submit = 1});
  h.processor().AddRequest(1, fix.model.Unfold(4), 0.0);
  auto t0 = h.scheduler().Schedule(0);
  // A second request arrives; worker 1 can serve it even though request
  // 1's subgraph is pinned to worker 0.
  h.processor().AddRequest(2, fix.model.Unfold(4), 0.0);
  auto t1 = h.scheduler().Schedule(1);
  ASSERT_EQ(t1.size(), 1u);
  EXPECT_EQ(t1[0].entries[0].request, 2u);
  h.scheduler().OnTaskCompleted(t0[0]);
  h.scheduler().OnTaskCompleted(t1[0]);
}

// ---------- Counters ----------

TEST(SchedulerTest, RunningTaskCounter) {
  TinyLstmFixture fix;
  SchedulerHarness h(&fix.registry, SchedulerOptions{.max_tasks_to_submit = 3});
  h.processor().AddRequest(1, fix.model.Unfold(5), 0.0);
  const CellTypeId ct = fix.model.cell_type();
  EXPECT_EQ(h.scheduler().NumRunningTasks(ct), 0);
  auto tasks = h.scheduler().Schedule(0);
  EXPECT_EQ(h.scheduler().NumRunningTasks(ct), 3);
  h.scheduler().OnTaskCompleted(tasks[0]);
  EXPECT_EQ(h.scheduler().NumRunningTasks(ct), 2);
  h.scheduler().OnTaskCompleted(tasks[1]);
  h.scheduler().OnTaskCompleted(tasks[2]);
  EXPECT_EQ(h.scheduler().NumRunningTasks(ct), 0);
}

TEST(SchedulerTest, ReadyNodeCounterTracksChain) {
  TinyLstmFixture fix;
  SchedulerHarness h(&fix.registry, SchedulerOptions{.max_tasks_to_submit = 1});
  const CellTypeId ct = fix.model.cell_type();
  h.processor().AddRequest(1, fix.model.Unfold(3), 0.0);
  EXPECT_EQ(h.scheduler().NumReadyNodes(ct), 1);
  auto tasks = h.ScheduleAndComplete(0);
  EXPECT_EQ(h.scheduler().NumReadyNodes(ct), 1);  // next step ready
  h.ScheduleAndComplete(0);
  h.ScheduleAndComplete(0);
  EXPECT_EQ(h.scheduler().NumReadyNodes(ct), 0);
  (void)tasks;
}

// ---------- Worker-idling regression ----------

TEST(SchedulerTest, FallsBackToNextTypeWhenChosenTypeIsFullyPinned) {
  // Regression: Schedule() used to pick the candidate cell type from the
  // global ready counts, which include subgraphs pinned to other workers.
  // If every ready node of the chosen type was pinned elsewhere, the formed
  // task was empty and Schedule() returned {} even though another type had
  // work this worker could run — leaving the worker idle.
  TinySeq2SeqFixture fix;
  fix.registry.SetMaxBatch(fix.model.encoder_type(), 2);
  SchedulerHarness h(&fix.registry, SchedulerOptions{.max_tasks_to_submit = 1});

  // Request 3 finishes its encoder so an unpinned decoder node is ready.
  h.processor().AddRequest(3, fix.model.Unfold(1, 3), 0.0);
  auto warm = h.ScheduleAndComplete(0);
  ASSERT_EQ(warm.size(), 1u);
  ASSERT_EQ(warm[0].type, fix.model.encoder_type());

  // Two 3-step encoder chains: 2 ready encoder nodes == max batch.
  h.processor().AddRequest(1, fix.model.Unfold(3, 1), 0.0);
  h.processor().AddRequest(2, fix.model.Unfold(3, 1), 0.0);
  ASSERT_EQ(h.scheduler().NumReadyNodes(fix.model.encoder_type()), 2);

  // Worker 0 takes the full encoder batch, pinning both chains to itself;
  // scheduling the first steps releases the second steps, so the encoder
  // still shows a full batch of (pinned) ready nodes.
  auto t0 = h.scheduler().Schedule(0);
  ASSERT_EQ(t0.size(), 1u);
  ASSERT_EQ(t0[0].type, fix.model.encoder_type());
  ASSERT_EQ(t0[0].BatchSize(), 2);
  ASSERT_EQ(h.scheduler().NumReadyNodes(fix.model.encoder_type()), 2);

  // Worker 1: criterion (a) nominates the encoder, but all its ready nodes
  // are pinned to worker 0. The decoder node of request 3 is compatible, so
  // Schedule(1) must fall back to it rather than return empty.
  ASSERT_TRUE(h.scheduler().HasCompatibleReadyWork(1));
  auto t1 = h.scheduler().Schedule(1);
  ASSERT_EQ(t1.size(), 1u);
  EXPECT_EQ(t1[0].type, fix.model.decoder_type());
  EXPECT_EQ(t1[0].entries[0].request, 3u);

  h.scheduler().OnTaskCompleted(t0[0]);
  h.scheduler().OnTaskCompleted(t1[0]);
}

TEST(SchedulerTest, WorkerNeverIdlesWithCompatibleReadyWork) {
  // Property over a mixed two-worker run: whenever Schedule(w) comes back
  // empty, there must be no ready subgraph that worker w was allowed to
  // run (the Algorithm 1 non-idling invariant).
  TinySeq2SeqFixture fix;
  fix.registry.SetMaxBatch(fix.model.encoder_type(), 2);
  fix.registry.SetMaxBatch(fix.model.decoder_type(), 2);
  SchedulerHarness h(&fix.registry, SchedulerOptions{.max_tasks_to_submit = 1});

  const int src_lens[6] = {1, 3, 2, 3, 1, 2};
  const int dst_lens[6] = {3, 1, 2, 1, 4, 2};
  for (RequestId id = 1; id <= 6; ++id) {
    h.processor().AddRequest(id, fix.model.Unfold(src_lens[id - 1], dst_lens[id - 1]),
                             0.0);
  }

  // Interleave the two workers; each completes its task before the other
  // schedules again, so subgraphs bounce between pinned and free states.
  std::vector<BatchedTask> in_flight[2];
  int rounds = 0;
  for (;;) {
    bool any = false;
    for (int w = 0; w < 2; ++w) {
      std::vector<BatchedTask> tasks = h.scheduler().Schedule(w);
      if (tasks.empty()) {
        EXPECT_FALSE(h.scheduler().HasCompatibleReadyWork(w))
            << "worker " << w << " idles while compatible work is ready";
      } else {
        any = true;
        for (BatchedTask& t : tasks) {
          in_flight[w].push_back(std::move(t));
        }
      }
    }
    // Complete worker 1's tasks first so pinning state varies.
    for (int w = 1; w >= 0; --w) {
      for (const BatchedTask& t : in_flight[w]) {
        h.scheduler().OnTaskCompleted(t);
      }
      in_flight[w].clear();
    }
    if (!any) {
      break;
    }
    ASSERT_LT(++rounds, 1000) << "scheduler did not converge";
  }
  EXPECT_EQ(h.completed().size(), 6u);
}

TEST(SchedulerTest, TreeLstmWholeRequestBatchesLeaves) {
  TinyTreeLstmFixture fix;
  fix.registry.SetMaxBatch(fix.model.leaf_type(), 64);
  fix.registry.SetMaxBatch(fix.model.internal_type(), 64);
  SchedulerHarness h(&fix.registry);
  h.processor().AddRequest(1, fix.model.Unfold(BinaryTree::Complete(16)), 0.0);
  const auto sizes = h.RunAll();
  // 16 leaves in one task, then internal levels 8, 4, 2, 1.
  EXPECT_EQ(sizes, (std::vector<int>{16, 8, 4, 2, 1}));
  EXPECT_EQ(h.completed().size(), 1u);
}

// ---------- Quarantine requeues vs the retry budget ----------

// Wiring that captures the terminal status alongside the id, which the
// shared harness discards.
struct StatusHarness {
  explicit StatusHarness(const CellRegistry* registry, SchedulerOptions options = {}) {
    processor = std::make_unique<RequestProcessor>(
        registry, [this](Subgraph* sg) { scheduler->EnqueueSubgraph(sg); },
        [this](RequestState* state) {
          finalized.emplace_back(state->id, state->status);
        });
    scheduler = std::make_unique<Scheduler>(registry, processor.get(), options);
  }

  std::unique_ptr<RequestProcessor> processor;
  std::unique_ptr<Scheduler> scheduler;
  std::vector<std::pair<RequestId, RequestStatus>> finalized;
};

TEST(SchedulerTest, QuarantineRequeueNeverExhaustsRetryBudget) {
  TinyLstmFixture fix;
  SchedulerOptions options;
  options.max_node_retries = 3;
  StatusHarness h(&fix.registry, options);
  h.processor->AddRequest(1, fix.model.Unfold(2), 0.0);
  // Reclaim far more times than the retry budget allows for real failures:
  // a quarantine requeue is victimless (the task never executed), so it
  // must never escalate the request to kFailed — "delayed, never lost".
  for (int round = 0; round < 4 * options.max_node_retries; ++round) {
    const std::vector<BatchedTask> tasks = h.scheduler->Schedule(0);
    ASSERT_FALSE(tasks.empty()) << "round " << round;
    for (const BatchedTask& t : tasks) {
      h.scheduler->RequeueTask(t);
    }
  }
  for (;;) {
    const std::vector<BatchedTask> tasks = h.scheduler->Schedule(0);
    if (tasks.empty()) {
      break;
    }
    for (const BatchedTask& t : tasks) {
      h.scheduler->OnTaskCompleted(t);
    }
  }
  ASSERT_EQ(h.finalized.size(), 1u);
  EXPECT_EQ(h.finalized[0].first, 1u);
  EXPECT_EQ(h.finalized[0].second, RequestStatus::kOk);
}

TEST(SchedulerTest, RepeatedExecutionFailuresStillExhaustRetryBudget) {
  TinyLstmFixture fix;
  SchedulerOptions options;
  options.max_node_retries = 3;
  StatusHarness h(&fix.registry, options);
  h.processor->AddRequest(1, fix.model.Unfold(1), 0.0);
  // Real victimless execution failures keep charging the budget; the
  // request escalates to kFailed instead of retrying forever.
  for (int round = 0; round < 100 && h.finalized.empty(); ++round) {
    const std::vector<BatchedTask> tasks = h.scheduler->Schedule(0);
    ASSERT_FALSE(tasks.empty()) << "round " << round;
    for (const BatchedTask& t : tasks) {
      std::vector<int> all(t.entries.size());
      for (size_t i = 0; i < t.entries.size(); ++i) {
        all[i] = static_cast<int>(i);
      }
      h.scheduler->OnTaskFailed(t, all, /*victim_entry=*/-1);
    }
  }
  ASSERT_EQ(h.finalized.size(), 1u);
  EXPECT_EQ(h.finalized[0].second, RequestStatus::kFailed);
}

}  // namespace
}  // namespace batchmaker
