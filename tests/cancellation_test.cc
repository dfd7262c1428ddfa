// Tests for early termination (request cancellation): the serving-side
// analogue of stopping Seq2Seq decoding at <eos> (paper §7.4 notes deployed
// systems do exactly this).

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <memory>

#include "src/core/server.h"
#include "src/core/sim_engine.h"
#include "tests/test_models.h"

namespace batchmaker {
namespace {

// Harness mirroring scheduler_test's, with completion tracking.
class CancelHarness {
 public:
  explicit CancelHarness(const CellRegistry* registry, SchedulerOptions options = {}) {
    processor_ = std::make_unique<RequestProcessor>(
        registry, [this](Subgraph* sg) { scheduler_->EnqueueSubgraph(sg); },
        [this](RequestState* state) { completed_.push_back(state->id); });
    scheduler_ = std::make_unique<Scheduler>(registry, processor_.get(), options);
  }

  RequestProcessor& processor() { return *processor_; }
  Scheduler& scheduler() { return *scheduler_; }
  const std::vector<RequestId>& completed() const { return completed_; }

  int RunAll(int worker = 0) {
    int executed = 0;
    for (;;) {
      const auto tasks = scheduler_->Schedule(worker);
      if (tasks.empty()) {
        return executed;
      }
      for (const auto& t : tasks) {
        executed += t.BatchSize();
        scheduler_->OnTaskCompleted(t);
      }
    }
  }

 private:
  std::unique_ptr<RequestProcessor> processor_;
  std::unique_ptr<Scheduler> scheduler_;
  std::vector<RequestId> completed_;
};

TEST(CancelTest, CancelIdleRequestFinalizesImmediately) {
  TinyLstmFixture fix;
  CancelHarness h(&fix.registry);
  h.processor().AddRequest(1, fix.model.Unfold(10), 0.0);
  const int cancelled = h.scheduler().CancelRequest(1);
  EXPECT_EQ(cancelled, 10);
  EXPECT_EQ(h.completed(), std::vector<RequestId>{1});
  EXPECT_EQ(h.processor().NumActiveRequests(), 0u);
  EXPECT_FALSE(h.scheduler().HasReadyWork());
  // Nothing left to run.
  EXPECT_EQ(h.RunAll(), 0);
}

TEST(CancelTest, CancelUnknownRequestIsNoop) {
  TinyLstmFixture fix;
  CancelHarness h(&fix.registry);
  EXPECT_EQ(h.scheduler().CancelRequest(77), 0);
}

TEST(CancelTest, CancelWithInflightWaitsForCompletion) {
  TinyLstmFixture fix;
  CancelHarness h(&fix.registry, SchedulerOptions{.max_tasks_to_submit = 2});
  h.processor().AddRequest(1, fix.model.Unfold(10), 0.0);
  const auto tasks = h.scheduler().Schedule(0);  // steps 0 and 1 in flight
  ASSERT_EQ(tasks.size(), 2u);

  const int cancelled = h.scheduler().CancelRequest(1);
  EXPECT_EQ(cancelled, 8);  // steps 2..9
  // Not finalized yet: two nodes are still in flight.
  EXPECT_TRUE(h.completed().empty());
  EXPECT_EQ(h.processor().NumActiveRequests(), 1u);

  h.scheduler().OnTaskCompleted(tasks[0]);
  EXPECT_TRUE(h.completed().empty());
  h.scheduler().OnTaskCompleted(tasks[1]);
  EXPECT_EQ(h.completed(), std::vector<RequestId>{1});
  EXPECT_EQ(h.processor().NumActiveRequests(), 0u);
  EXPECT_EQ(h.RunAll(), 0);
}

TEST(CancelTest, CancelOneRequestLeavesOthersIntact) {
  TinyLstmFixture fix;
  CancelHarness h(&fix.registry);
  h.processor().AddRequest(1, fix.model.Unfold(6), 0.0);
  h.processor().AddRequest(2, fix.model.Unfold(6), 0.0);
  h.scheduler().CancelRequest(1);
  const int executed = h.RunAll();
  EXPECT_EQ(executed, 6);  // only request 2's cells ran
  EXPECT_EQ(h.completed().size(), 2u);
}

TEST(CancelTest, ReadyNodeAccountingStaysConsistent) {
  TinyLstmFixture fix;
  CancelHarness h(&fix.registry);
  const CellTypeId ct = fix.model.cell_type();
  h.processor().AddRequest(1, fix.model.Unfold(4), 0.0);
  h.processor().AddRequest(2, fix.model.Unfold(4), 0.0);
  EXPECT_EQ(h.scheduler().NumReadyNodes(ct), 2);
  h.scheduler().CancelRequest(1);
  EXPECT_EQ(h.scheduler().NumReadyNodes(ct), 1);
  h.RunAll();
  EXPECT_EQ(h.scheduler().NumReadyNodes(ct), 0);
}

TEST(CancelTest, UnreleasedSubgraphNeverReleases) {
  // Cancel a Seq2Seq request while encoding: the decoder subgraph (not yet
  // released) must be cancelled outright and never reach the scheduler.
  TinySeq2SeqFixture fix;
  CancelHarness h(&fix.registry, SchedulerOptions{.max_tasks_to_submit = 1});
  h.processor().AddRequest(1, fix.model.Unfold(3, 5), 0.0);
  const auto tasks = h.scheduler().Schedule(0);  // encoder step 0 in flight
  ASSERT_EQ(tasks.size(), 1u);

  const int cancelled = h.scheduler().CancelRequest(1);
  EXPECT_EQ(cancelled, 2 + 5);  // encoder steps 1-2 + all 5 decoder steps
  h.scheduler().OnTaskCompleted(tasks[0]);
  EXPECT_EQ(h.completed(), std::vector<RequestId>{1});
  // The decoder type never sees work.
  EXPECT_EQ(h.scheduler().NumReadyNodes(fix.model.decoder_type()), 0);
  EXPECT_EQ(h.RunAll(), 0);
}

TEST(CancelTest, TreeInternalSubgraphCancelledBeforeRelease) {
  TinyTreeLstmFixture fix;
  CancelHarness h(&fix.registry);
  h.processor().AddRequest(1, fix.model.Unfold(BinaryTree::Complete(8)), 0.0);
  // Run the leaf task only.
  auto tasks = h.scheduler().Schedule(0);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].BatchSize(), 8);
  const int cancelled = h.scheduler().CancelRequest(1);
  EXPECT_EQ(cancelled, 7);  // the internal nodes
  h.scheduler().OnTaskCompleted(tasks[0]);
  EXPECT_EQ(h.completed(), std::vector<RequestId>{1});
  EXPECT_EQ(h.RunAll(), 0);
}

TEST(CancelTest, DoubleCancelIsIdempotent) {
  TinyLstmFixture fix;
  CancelHarness h(&fix.registry, SchedulerOptions{.max_tasks_to_submit = 1});
  h.processor().AddRequest(1, fix.model.Unfold(5), 0.0);
  const auto tasks = h.scheduler().Schedule(0);
  EXPECT_EQ(h.scheduler().CancelRequest(1), 4);
  EXPECT_EQ(h.scheduler().CancelRequest(1), 0);
  h.scheduler().OnTaskCompleted(tasks[0]);
  EXPECT_EQ(h.scheduler().CancelRequest(1), 0);  // already finalized
  EXPECT_EQ(h.completed().size(), 1u);
}

// ---------- SimEngine terminate_after_node ----------

TEST(CancelSimTest, EarlyTerminationShortensLatency) {
  TinyLstmFixture fix;
  CostModel cost;
  cost.SetCurve(fix.model.cell_type(), UnitCostCurve());
  SimEngineOptions options;
  options.scheduler.max_tasks_to_submit = 1;
  SimEngine engine(&fix.registry, &cost, options);
  // 30-step chain that "emits <eos>" after node 4.
  engine.SubmitAt(0.0, fix.model.Unfold(30), SubmitOptions{.terminate_after_node = 4});
  engine.Run();
  ASSERT_EQ(engine.metrics().NumCompleted(), 1u);
  // Completes right after the 5th unit-cost step (pipelining may have a
  // couple of extra steps in flight with max_tasks 1 -> none here).
  EXPECT_DOUBLE_EQ(engine.metrics().records()[0].completion_micros, 5.0);
  EXPECT_EQ(engine.workers().ItemsExecuted(0), 5);
}

TEST(CancelSimTest, PipelinedInflightStepsStillExecute) {
  TinyLstmFixture fix;
  CostModel cost;
  cost.SetCurve(fix.model.cell_type(), UnitCostCurve());
  SimEngineOptions options;
  options.scheduler.max_tasks_to_submit = 5;  // steps run ahead of completions
  SimEngine engine(&fix.registry, &cost, options);
  engine.SubmitAt(0.0, fix.model.Unfold(30), SubmitOptions{.terminate_after_node = 2});
  engine.Run();
  ASSERT_EQ(engine.metrics().NumCompleted(), 1u);
  // With a pipeline depth of 5, up to 5 steps were submitted before the
  // terminating node completed; those run, the remaining 25 never do.
  EXPECT_GE(engine.workers().ItemsExecuted(0), 3);
  EXPECT_LE(engine.workers().ItemsExecuted(0), 30 - 20);
}

TEST(CancelSimTest, MixedTerminatedAndFullRequests) {
  TinyLstmFixture fix;
  CostModel cost;
  cost.SetCurve(fix.model.cell_type(), UnitCostCurve());
  SimEngineOptions options;
  options.scheduler.max_tasks_to_submit = 1;
  SimEngine engine(&fix.registry, &cost, options);
  engine.SubmitAt(0.0, fix.model.Unfold(10), SubmitOptions{.terminate_after_node = 1});
  engine.SubmitAt(0.0, fix.model.Unfold(10));
  engine.Run();
  std::map<RequestId, double> done;
  for (const auto& r : engine.metrics().records()) {
    done[r.id] = r.completion_micros;
  }
  EXPECT_DOUBLE_EQ(done[1], 2.0);
  EXPECT_DOUBLE_EQ(done[2], 10.0);
  EXPECT_EQ(engine.workers().ItemsExecuted(0), 2 + 10);
}

// ---------- Queue-timeout load shedding ----------

TEST(LoadSheddingTest, LateRequestIsDroppedNotServed) {
  TinyLstmFixture fix;
  fix.registry.SetMaxBatch(fix.model.cell_type(), 1);  // serialize requests
  CostModel cost;
  cost.SetCurve(fix.model.cell_type(), CostCurve({{1, 100.0}}));
  SimEngineOptions options;
  options.scheduler.max_tasks_to_submit = 1;
  options.admission.queue_timeout_micros = 150.0;
  SimEngine engine(&fix.registry, &cost, options);
  // Request 1 occupies the worker for 1000us; request 2 arrives at t=10
  // and cannot start within 150us -> dropped.
  engine.SubmitAt(0.0, fix.model.Unfold(10));
  engine.SubmitAt(10.0, fix.model.Unfold(10));
  engine.Run();
  EXPECT_EQ(engine.metrics().NumCompleted(), 1u);
  EXPECT_EQ(engine.metrics().NumDropped(), 1u);
  EXPECT_EQ(engine.metrics().records()[0].id, 1u);
  // The dropped request consumed no worker time beyond request 1's cells.
  EXPECT_EQ(engine.workers().ItemsExecuted(0), 10);
}

TEST(LoadSheddingTest, NoDropsUnderLightLoad) {
  TinyLstmFixture fix;
  CostModel cost;
  cost.SetCurve(fix.model.cell_type(), UnitCostCurve());
  SimEngineOptions options;
  options.admission.queue_timeout_micros = 1000.0;
  SimEngine engine(&fix.registry, &cost, options);
  for (int i = 0; i < 5; ++i) {
    engine.SubmitAt(i * 100.0, fix.model.Unfold(5));
  }
  engine.Run();
  EXPECT_EQ(engine.metrics().NumCompleted(), 5u);
  EXPECT_EQ(engine.metrics().NumDropped(), 0u);
}

TEST(LoadSheddingTest, ExecutingRequestIsNeverShed) {
  TinyLstmFixture fix;
  CostModel cost;
  cost.SetCurve(fix.model.cell_type(), CostCurve({{1, 100.0}}));
  SimEngineOptions options;
  options.scheduler.max_tasks_to_submit = 1;
  // Timeout far shorter than the request's total runtime: it must still
  // finish because execution started before the deadline.
  options.admission.queue_timeout_micros = 150.0;
  SimEngine engine(&fix.registry, &cost, options);
  engine.SubmitAt(0.0, fix.model.Unfold(20));  // runs 2000us, starts at 0
  engine.Run();
  EXPECT_EQ(engine.metrics().NumCompleted(), 1u);
  EXPECT_EQ(engine.metrics().NumDropped(), 0u);
}

// ---------- Server TerminationFn ----------

TEST(CancelServerTest, DecoderStopsAtPredicate) {
  TinySeq2SeqFixture fix;
  Server server(&fix.registry);
  server.Start();

  const int src_len = 2;
  const int max_dec = 8;
  const CellGraph graph = fix.model.Unfold(src_len, max_dec);
  std::vector<Tensor> externals;
  externals.push_back(ExternalTokenTensor(3));
  externals.push_back(ExternalTokenTensor(9));
  externals.push_back(ExternalTokenTensor(0));  // <go>
  externals.push_back(ExternalZeroVecTensor(4));
  externals.push_back(ExternalZeroVecTensor(4));

  std::vector<ValueRef> wanted;
  for (int t = 0; t < max_dec; ++t) {
    wanted.push_back(ValueRef::Output(src_len + t, 2));
  }

  std::promise<std::vector<Tensor>> promise;
  auto future = promise.get_future();
  // Stop decoding after the 3rd decoder step, regardless of token value
  // (a content-based <eos> check would read the node's token output from
  // the state exactly the same way).
  server.Submit(CellGraph(graph), std::move(externals), wanted,
                [&promise](RequestId, RequestStatus, std::vector<Tensor> outputs) {
                  promise.set_value(std::move(outputs));
                },
                SubmitOptions{},
                [src_len](const RequestState&, int completed_node) {
                  return completed_node >= src_len + 2;
                });
  const auto outputs = future.get();
  server.Shutdown();
  // Only the executed decoder steps are returned.
  EXPECT_GE(outputs.size(), 3u);
  EXPECT_LT(outputs.size(), static_cast<size_t>(max_dec));
}

TEST(CancelServerTest, ContentBasedEosStopsDecoding) {
  TinySeq2SeqFixture fix;
  Server server(&fix.registry);
  server.Start();

  const int src_len = 2;
  const int max_dec = 10;
  const CellGraph graph = fix.model.Unfold(src_len, max_dec);

  // Run once without termination to learn which tokens get emitted.
  std::vector<Tensor> externals;
  externals.push_back(ExternalTokenTensor(3));
  externals.push_back(ExternalTokenTensor(9));
  externals.push_back(ExternalTokenTensor(0));
  externals.push_back(ExternalZeroVecTensor(4));
  externals.push_back(ExternalZeroVecTensor(4));
  std::vector<ValueRef> wanted;
  for (int t = 0; t < max_dec; ++t) {
    wanted.push_back(ValueRef::Output(src_len + t, 2));
  }
  const Response full = server.SubmitAndWait(CellGraph(graph), externals, wanted);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full.outputs.size(), static_cast<size_t>(max_dec));
  // Treat the token emitted at decoder step 2 as "<eos>".
  const int32_t eos = full.outputs[2].IntAt(0, 0);

  std::vector<Tensor> externals2;
  externals2.push_back(ExternalTokenTensor(3));
  externals2.push_back(ExternalTokenTensor(9));
  externals2.push_back(ExternalTokenTensor(0));
  externals2.push_back(ExternalZeroVecTensor(4));
  externals2.push_back(ExternalZeroVecTensor(4));
  std::promise<std::vector<Tensor>> promise;
  auto future = promise.get_future();
  server.Submit(CellGraph(graph), std::move(externals2), wanted,
                [&promise](RequestId, RequestStatus, std::vector<Tensor> outputs) {
                  promise.set_value(std::move(outputs));
                },
                SubmitOptions{},
                [src_len, eos](const RequestState& state, int completed_node) {
                  if (completed_node < src_len) {
                    return false;  // still encoding
                  }
                  return state.NodeOutput(completed_node, 2).IntAt(0, 0) == eos;
                });
  const auto stopped = future.get();
  server.Shutdown();
  // Decoding is deterministic, so the same token appears at step 2 and
  // decoding stops; in-flight pipelined steps may still have run.
  EXPECT_GE(stopped.size(), 3u);
  EXPECT_LE(stopped.size(), static_cast<size_t>(max_dec));
  EXPECT_EQ(stopped[2].IntAt(0, 0), eos);
}

}  // namespace
}  // namespace batchmaker
