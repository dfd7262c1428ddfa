// Tests for SimEngine: end-to-end virtual-time serving with the real
// scheduler, including the paper's Figure 5 scenario.

#include <gtest/gtest.h>

#include <map>

#include "src/core/sim_engine.h"
#include "tests/test_models.h"

namespace batchmaker {
namespace {

CostModel UnitCostModel(const CellRegistry& registry) {
  CostModel model;
  for (CellTypeId t = 0; t < registry.NumTypes(); ++t) {
    model.SetCurve(t, UnitCostCurve());
  }
  return model;
}

TEST(SimEngineTest, SingleRequestCompletes) {
  TinyLstmFixture fix;
  const CostModel cost = UnitCostModel(fix.registry);
  SimEngine engine(&fix.registry, &cost);
  engine.SubmitAt(0.0, fix.model.Unfold(5));
  engine.Run();
  ASSERT_EQ(engine.metrics().NumCompleted(), 1u);
  const RequestRecord& r = engine.metrics().records()[0];
  // 5 unit-cost steps, executed back to back from t=0.
  EXPECT_DOUBLE_EQ(r.completion_micros, 5.0);
  EXPECT_DOUBLE_EQ(r.exec_start_micros, 0.0);
  EXPECT_DOUBLE_EQ(r.QueueingMicros(), 0.0);
}

TEST(SimEngineTest, LatencyAccountsForQueueing) {
  TinyLstmFixture fix;
  CostModel cost = UnitCostModel(fix.registry);
  SimEngineOptions options;
  options.scheduler.max_tasks_to_submit = 1;
  SimEngine engine(&fix.registry, &cost, options);
  engine.SubmitAt(0.0, fix.model.Unfold(10));
  engine.SubmitAt(0.5, fix.model.Unfold(1));  // arrives mid-task
  engine.Run();
  ASSERT_EQ(engine.metrics().NumCompleted(), 2u);
  // The short request joins at the end of the in-flight unit task (t=1)
  // and finishes at t=2 batched with the long request's second step.
  std::map<RequestId, RequestRecord> by_id;
  for (const auto& r : engine.metrics().records()) {
    by_id[r.id] = r;
  }
  EXPECT_DOUBLE_EQ(by_id[2].exec_start_micros, 1.0);
  EXPECT_DOUBLE_EQ(by_id[2].completion_micros, 2.0);
  EXPECT_DOUBLE_EQ(by_id[2].QueueingMicros(), 0.5);
  EXPECT_DOUBLE_EQ(by_id[1].completion_micros, 10.0);
}

TEST(SimEngineTest, Figure5CellularBatchingTimeline) {
  // Paper Figure 5(b): 8 chain requests, unit-cost cells, batch size 4.
  // req1-4 (lengths 2,3,3,5) arrive at t=0; req5(5), req6(7), req7(3),
  // req8(1) arrive while the first four are running. Under cellular
  // batching req1 completes at t=2 and new requests join immediately.
  TinyLstmFixture fix;
  fix.registry.SetMaxBatch(fix.model.cell_type(), 4);
  CostModel cost = UnitCostModel(fix.registry);
  SimEngineOptions options;
  options.scheduler.max_tasks_to_submit = 1;  // join at every step boundary
  SimEngine engine(&fix.registry, &cost, options);

  const int lengths[8] = {2, 3, 3, 5, 5, 7, 3, 1};
  const double arrivals[8] = {0, 0, 0, 0, 1.5, 2.5, 2.5, 4.5};
  for (int i = 0; i < 8; ++i) {
    engine.SubmitAt(arrivals[i], fix.model.Unfold(lengths[i]));
  }
  engine.Run();
  ASSERT_EQ(engine.metrics().NumCompleted(), 8u);
  std::map<RequestId, double> done;
  for (const auto& r : engine.metrics().records()) {
    done[r.id] = r.completion_micros;
  }
  // req1 (len 2) leaves after two fully-batched steps.
  EXPECT_DOUBLE_EQ(done[1], 2.0);
  // req2, req3 (len 3) leave at t=3; req5 joined at t=2 in their place.
  EXPECT_DOUBLE_EQ(done[2], 3.0);
  EXPECT_DOUBLE_EQ(done[3], 3.0);
  // req4 (len 5) never waits: done at 5.
  EXPECT_DOUBLE_EQ(done[4], 5.0);
  // req8 (len 1, arrives 4.5) completes with the step ending at 6 at the
  // latest — it joins the running batch instead of waiting for it.
  EXPECT_LE(done[8], 6.0);
  // Under graph batching the second batch would finish at t=12; cellular
  // batching finishes everything by t=9 (req6: arrives 2.5, 7 steps).
  for (const auto& [id, t] : done) {
    EXPECT_LE(t, 10.0) << "request " << id;
  }
}

TEST(SimEngineTest, PipelineDepthTradesBatchingForStreamDepth) {
  // The watermark-refill knob mirrors the real server's pipelined worker
  // streams. In virtual time there is no completion->manager->schedule
  // latency to hide, so a deeper stream cannot help — it only forms tasks
  // *earlier*, before would-be joiners arrive, splitting batches. This is
  // exactly why SimEngineOptions defaults to depth 1 (legacy timeline,
  // asserted exactly by Figure5CellularBatchingTimeline) while the real
  // server defaults deeper. The knob must still complete every request at
  // any depth, and deeper streams can only increase the task count.
  const int lengths[8] = {2, 3, 3, 5, 5, 7, 3, 1};
  const double arrivals[8] = {0, 0, 0, 0, 1.5, 2.5, 2.5, 4.5};

  int64_t prev_tasks = 0;
  for (const int depth : {1, 2, 4}) {
    TinyLstmFixture fix;
    fix.registry.SetMaxBatch(fix.model.cell_type(), 4);
    const CostModel cost = UnitCostModel(fix.registry);
    SimEngineOptions options;
    options.num_workers = 2;
    options.pipeline_depth = depth;
    options.scheduler.max_tasks_to_submit = 1;
    SimEngine engine(&fix.registry, &cost, options);
    for (int i = 0; i < 8; ++i) {
      engine.SubmitAt(arrivals[i], fix.model.Unfold(lengths[i]));
    }
    engine.Run();
    ASSERT_EQ(engine.metrics().NumCompleted(), 8u) << "depth " << depth;
    const int64_t tasks = engine.scheduler().TotalTasksFormed();
    if (depth > 1) {
      EXPECT_GE(tasks, prev_tasks) << "depth " << depth;
    }
    prev_tasks = tasks;
  }
}

TEST(SimEngineTest, ThroughputUsesBothWorkers) {
  TinyLstmFixture fix;
  CostModel cost;
  cost.SetCurve(fix.model.cell_type(), CostCurve({{1, 100.0}}));
  SimEngineOptions options;
  options.num_workers = 2;
  options.scheduler.max_tasks_to_submit = 1;
  SimEngine engine(&fix.registry, &cost, options);
  // Two requests arriving at the same instant would be batched onto one
  // worker (batching wins); staggered arrivals exercise the second worker:
  // request 2 arrives while request 1's chain is pinned to worker 0.
  engine.SubmitAt(0.0, fix.model.Unfold(4));
  engine.SubmitAt(50.0, fix.model.Unfold(4));
  engine.Run();
  ASSERT_EQ(engine.metrics().NumCompleted(), 2u);
  std::map<RequestId, RequestRecord> by_id;
  for (const auto& r : engine.metrics().records()) {
    by_id[r.id] = r;
  }
  EXPECT_DOUBLE_EQ(by_id[1].completion_micros, 400.0);
  // Request 2 runs concurrently on worker 1 instead of queueing behind
  // request 1: it completes at 450, not 800.
  EXPECT_DOUBLE_EQ(by_id[2].completion_micros, 450.0);
  EXPECT_GT(engine.workers().TasksExecuted(0), 0);
  EXPECT_GT(engine.workers().TasksExecuted(1), 0);
}

TEST(SimEngineTest, TreeRequestCompletesThroughBothPhases) {
  TinyTreeLstmFixture fix;
  fix.registry.SetMaxBatch(fix.model.leaf_type(), 64);
  fix.registry.SetMaxBatch(fix.model.internal_type(), 64);
  const CostModel cost = UnitCostModel(fix.registry);
  SimEngine engine(&fix.registry, &cost);
  engine.SubmitAt(0.0, fix.model.Unfold(BinaryTree::Complete(16)));
  engine.Run();
  ASSERT_EQ(engine.metrics().NumCompleted(), 1u);
  // 1 leaf task + 4 internal-level tasks, 1us each.
  EXPECT_DOUBLE_EQ(engine.metrics().records()[0].completion_micros, 5.0);
}

TEST(SimEngineTest, Seq2SeqDecoderPrioritized) {
  TinySeq2SeqFixture fix;
  const CostModel cost = UnitCostModel(fix.registry);
  SimEngineOptions options;
  options.scheduler.max_tasks_to_submit = 1;
  SimEngine engine(&fix.registry, &cost, options);
  engine.SubmitAt(0.0, fix.model.Unfold(3, 3));
  engine.Run();
  ASSERT_EQ(engine.metrics().NumCompleted(), 1u);
  EXPECT_DOUBLE_EQ(engine.metrics().records()[0].completion_micros, 6.0);
}

TEST(SimEngineTest, SaturationBacklogGrows) {
  TinyLstmFixture fix;
  CostModel cost;
  cost.SetCurve(fix.model.cell_type(), CostCurve({{1, 100.0}}));
  fix.registry.SetMaxBatch(fix.model.cell_type(), 1);  // no batching possible
  SimEngine engine(&fix.registry, &cost);
  // Offered load 2x capacity: 10-step requests every 500us, each takes
  // 1000us of exclusive worker time.
  for (int i = 0; i < 20; ++i) {
    engine.SubmitAt(i * 500.0, fix.model.Unfold(10));
  }
  engine.Run(/*deadline_micros=*/10000.0);
  // At t=10ms the worker has executed at most 10ms/100us = 100 steps of
  // the 200 requested -> at most 10 of 20 requests completed.
  EXPECT_LE(engine.metrics().NumCompleted(), 10u);
  EXPECT_GT(engine.NumActiveRequests(), 0u);
}

TEST(SimEngineTest, MetricsThroughputWindow) {
  TinyLstmFixture fix;
  const CostModel cost = UnitCostModel(fix.registry);
  SimEngine engine(&fix.registry, &cost);
  for (int i = 0; i < 10; ++i) {
    engine.SubmitAt(i * 10.0, fix.model.Unfold(1));
  }
  engine.Run();
  EXPECT_EQ(engine.metrics().NumCompleted(), 10u);
  const double rps = engine.metrics().ThroughputRps(0.0, 100.0);
  EXPECT_NEAR(rps, 10.0 / 100e-6, 1.0);
}

}  // namespace
}  // namespace batchmaker
