// Tests for src/runtime: cost curves, autotuning, the event queue, and the
// simulated worker pool.

#include <gtest/gtest.h>

#include <vector>

#include "src/runtime/cost_model.h"
#include "src/runtime/event_queue.h"
#include "src/runtime/sim_worker.h"

namespace batchmaker {
namespace {

// ---------- CostCurve ----------

TEST(CostCurveTest, HitsAnchorsExactly) {
  const CostCurve curve({{1, 100.0}, {64, 200.0}, {512, 800.0}});
  EXPECT_NEAR(curve.Micros(1), 100.0, 1e-9);
  EXPECT_NEAR(curve.Micros(64), 200.0, 1e-9);
  EXPECT_NEAR(curve.Micros(512), 800.0, 1e-9);
}

TEST(CostCurveTest, InterpolatesMonotonically) {
  const CostCurve curve({{1, 100.0}, {64, 200.0}, {512, 800.0}});
  double prev = 0.0;
  for (int b = 1; b <= 512; b *= 2) {
    const double t = curve.Micros(b);
    EXPECT_GT(t, prev);
    prev = t;
  }
  EXPECT_GT(curve.Micros(32), 100.0);
  EXPECT_LT(curve.Micros(32), 200.0);
}

TEST(CostCurveTest, ExtrapolatesBeyondLastAnchor) {
  // Last segment doubles time per doubling of batch: extrapolation keeps
  // that slope.
  const CostCurve curve({{256, 400.0}, {512, 800.0}});
  EXPECT_NEAR(curve.Micros(1024), 1600.0, 1.0);
  EXPECT_NEAR(curve.Micros(2048), 3200.0, 2.0);
}

TEST(CostCurveTest, SingleAnchorIsConstant) {
  const CostCurve curve({{1, 5.0}});
  EXPECT_DOUBLE_EQ(curve.Micros(1), 5.0);
  EXPECT_DOUBLE_EQ(curve.Micros(100), 5.0);
}

TEST(CostCurveTest, ThroughputDefinition) {
  const CostCurve curve({{1, 100.0}, {64, 200.0}});
  EXPECT_NEAR(curve.Throughput(64), 64.0 / 200e-6, 1.0);
}

// ---------- Paper-derived preset curves ----------

TEST(PresetCurveTest, GpuLstmMatchesPaperNumbers) {
  const CostCurve curve = GpuLstmCurve();
  // §7.3: "batch size 64 ... takes about 185 microseconds".
  EXPECT_NEAR(curve.Micros(64), 185.0, 1.0);
  // §7.3: "the execution time of one LSTM cell is approximately 784
  // microseconds for the batch size 512".
  EXPECT_NEAR(curve.Micros(512), 784.0, 1.0);
  // Fig. 3: throughput peaks around b=512 at ~650k ops/s.
  EXPECT_GT(curve.Throughput(512), 600000.0);
  // §2.2: "When b > 512, the execution time approximately doubles as b
  // doubles" => little throughput gain past 512.
  EXPECT_LT(curve.Throughput(4096), curve.Throughput(512) * 1.05);
}

TEST(PresetCurveTest, GpuLstmFlatAtSmallBatch) {
  const CostCurve curve = GpuLstmCurve();
  // "execution time of a batch remains almost unchanged first".
  EXPECT_LT(curve.Micros(64) / curve.Micros(1), 1.15);
}

TEST(PresetCurveTest, AutotuneLstmPicks512) {
  EXPECT_EQ(AutotuneMaxBatch(GpuLstmCurve(), 4096), 512);
}

TEST(PresetCurveTest, AutotuneDecoderPicks256) {
  EXPECT_EQ(AutotuneMaxBatch(GpuDecoderCurve(), 2048), 256);
}

TEST(PresetCurveTest, DecoderRoughlyTripleEncoder) {
  // §7.4: decoding is ~75% of Seq2Seq compute at equal step counts.
  const double ratio = GpuDecoderCurve().Micros(256) / GpuLstmCurve().Micros(256);
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 3.6);
}

TEST(PresetCurveTest, OldTreeCurveIs20PercentSlower) {
  EXPECT_NEAR(GpuTreeCellOldCurve().Micros(64) / GpuTreeCellCurve().Micros(64), 1.2, 1e-6);
}

TEST(PresetCurveTest, CpuFarSlowerThanGpu) {
  EXPECT_GT(CpuLstmCurve().Micros(512) / GpuLstmCurve().Micros(512), 5.0);
}

TEST(PresetCurveTest, FixedLengthCeilingMatchesPaperArithmetic) {
  // §7.3: 1 / (784us * 24) * 512 ≈ 27136 req/s for fixed length-24 inputs.
  const double ceiling = 512.0 / (GpuLstmCurve().Micros(512) * 1e-6 * 24.0);
  EXPECT_NEAR(ceiling, 27136.0, 300.0);
}

// ---------- CostModel ----------

TEST(CostModelTest, OverheadAddsPerTask) {
  CostModel model;
  model.SetCurve(0, CostCurve({{1, 100.0}}));
  model.SetPerTaskOverheadMicros(65.0);
  EXPECT_DOUBLE_EQ(model.TaskMicros(0, 1), 165.0);
}

TEST(CostModelTest, PaperStepTimeWithOverhead) {
  // §7.3: ~250us per LSTM step at batch 64 including scheduling/gather.
  CostModel model;
  model.SetCurve(0, GpuLstmCurve());
  model.SetPerTaskOverheadMicros(kBatchMakerTaskOverheadMicros);
  model.SetPerItemOverheadMicros(kBatchMakerPerItemOverheadMicros);
  EXPECT_NEAR(model.TaskMicros(0, 64), 250.0, 5.0);
}

TEST(CostModelTest, PerItemOverheadScalesWithBatch) {
  CostModel model;
  model.SetCurve(0, CostCurve({{1, 100.0}}));
  model.SetPerTaskOverheadMicros(10.0);
  model.SetPerItemOverheadMicros(0.5);
  EXPECT_DOUBLE_EQ(model.TaskMicros(0, 1), 110.5);
  EXPECT_DOUBLE_EQ(model.TaskMicros(0, 100), 160.0);
}

TEST(CostModelDeathTest, MissingCurveAborts) {
  CostModel model;
  EXPECT_DEATH(model.TaskMicros(3, 1), "no cost curve");
}

// ---------- EventQueue ----------

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30.0, [&] { order.push_back(3); });
  q.ScheduleAt(10.0, [&] { order.push_back(1); });
  q.ScheduleAt(20.0, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.Now(), 30.0);
}

TEST(EventQueueTest, FifoAtEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(1.0, [&] {
    ++fired;
    q.ScheduleAfter(5.0, [&] { ++fired; });
  });
  q.RunAll();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.Now(), 6.0);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(10.0, [&] { ++fired; });
  q.ScheduleAt(100.0, [&] { ++fired; });
  q.RunUntil(50.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.Now(), 50.0);
  EXPECT_EQ(q.Size(), 1u);
}

TEST(EventQueueDeathTest, PastSchedulingAborts) {
  EventQueue q;
  q.ScheduleAt(10.0, [] {});
  q.RunAll();
  EXPECT_DEATH(q.ScheduleAt(5.0, [] {}), "past");
}

// ---------- SimWorkerPool ----------

class SimWorkerPoolTest : public ::testing::Test {
 protected:
  SimWorkerPoolTest() {
    model_.SetCurve(0, CostCurve({{1, 100.0}}));  // constant 100us tasks
  }

  BatchedTask MakeTask(uint64_t id, int batch = 1) {
    BatchedTask task;
    task.id = id;
    task.type = 0;
    for (int i = 0; i < batch; ++i) {
      task.entries.push_back(TaskEntry{id, i});
    }
    return task;
  }

  EventQueue events_;
  CostModel model_;
};

TEST_F(SimWorkerPoolTest, ExecutesSubmittedTask) {
  SimWorkerPool pool(1, &events_, &model_);
  std::vector<uint64_t> done;
  pool.set_on_task_done([&](const BatchedTask& t) { done.push_back(t.id); });
  pool.Submit(0, MakeTask(7));
  events_.RunAll();
  EXPECT_EQ(done, (std::vector<uint64_t>{7}));
  EXPECT_DOUBLE_EQ(events_.Now(), 100.0);
}

TEST_F(SimWorkerPoolTest, StreamIsFifoAndSequential) {
  SimWorkerPool pool(1, &events_, &model_);
  std::vector<std::pair<uint64_t, double>> done;
  pool.set_on_task_done([&](const BatchedTask& t) { done.emplace_back(t.id, events_.Now()); });
  pool.Submit(0, MakeTask(1));
  pool.Submit(0, MakeTask(2));
  pool.Submit(0, MakeTask(3));
  events_.RunAll();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].first, 1u);
  EXPECT_DOUBLE_EQ(done[0].second, 100.0);
  EXPECT_DOUBLE_EQ(done[1].second, 200.0);
  EXPECT_DOUBLE_EQ(done[2].second, 300.0);
}

TEST_F(SimWorkerPoolTest, IdleFiresWhenStreamDrains) {
  SimWorkerPool pool(1, &events_, &model_);
  int idle_count = 0;
  pool.set_on_idle([&](int worker) {
    EXPECT_EQ(worker, 0);
    ++idle_count;
  });
  pool.Submit(0, MakeTask(1));
  pool.Submit(0, MakeTask(2));
  events_.RunAll();
  EXPECT_EQ(idle_count, 1);
}

TEST_F(SimWorkerPoolTest, TaskStartFiresBeforeDone) {
  SimWorkerPool pool(1, &events_, &model_);
  std::vector<std::string> log;
  pool.set_on_task_start([&](const BatchedTask&) { log.push_back("start@" + std::to_string(events_.Now())); });
  pool.set_on_task_done([&](const BatchedTask&) { log.push_back("done@" + std::to_string(events_.Now())); });
  pool.Submit(0, MakeTask(1));
  pool.Submit(0, MakeTask(2));
  events_.RunAll();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].substr(0, 7), "start@0");
  EXPECT_EQ(log[1].substr(0, 6), "done@1");  // 100.0
}

TEST_F(SimWorkerPoolTest, WorkersRunInParallel) {
  SimWorkerPool pool(2, &events_, &model_);
  std::vector<double> done_times;
  pool.set_on_task_done([&](const BatchedTask&) { done_times.push_back(events_.Now()); });
  pool.Submit(0, MakeTask(1));
  pool.Submit(1, MakeTask(2));
  events_.RunAll();
  ASSERT_EQ(done_times.size(), 2u);
  EXPECT_DOUBLE_EQ(done_times[0], 100.0);
  EXPECT_DOUBLE_EQ(done_times[1], 100.0);  // concurrent, not 200
}

TEST_F(SimWorkerPoolTest, ExplicitCostOverridesModel) {
  SimWorkerPool pool(1, &events_, &model_);
  BatchedTask task = MakeTask(1);
  task.explicit_cost_micros = 42.0;
  pool.Submit(0, std::move(task));
  events_.RunAll();
  EXPECT_DOUBLE_EQ(events_.Now(), 42.0);
}

TEST_F(SimWorkerPoolTest, MigratedSubgraphsPayTheModelsPenaltyEach) {
  model_.SetMigrationPenaltyMicros(7.5);
  SimWorkerPool pool(1, &events_, &model_);
  BatchedTask task = MakeTask(1);
  task.migrated_subgraphs = 2;
  pool.Submit(0, std::move(task));
  events_.RunAll();
  EXPECT_DOUBLE_EQ(events_.Now(), 115.0);  // 100 us + 2 x 7.5 us
  EXPECT_DOUBLE_EQ(pool.BusyMicros(0), 115.0);
}

// Without a cost model the pool prices only tasks that carry their own cost.
TEST(SimWorkerPoolDeathTest, TaskWithoutExplicitCostNeedsACostModel) {
  EventQueue events;
  SimWorkerPool pool(1, &events, /*cost_model=*/nullptr);
  BatchedTask task;
  task.id = 3;
  task.entries.push_back(TaskEntry{3, 0});
  EXPECT_DEATH(pool.Submit(0, std::move(task)), "needs a cost model");
}

TEST_F(SimWorkerPoolTest, SubmitFromDoneCallbackContinuesStream) {
  SimWorkerPool pool(1, &events_, &model_);
  int completions = 0;
  pool.set_on_task_done([&](const BatchedTask& t) {
    ++completions;
    if (t.id == 1) {
      pool.Submit(0, MakeTask(2));
    }
  });
  pool.Submit(0, MakeTask(1));
  events_.RunAll();
  EXPECT_EQ(completions, 2);
  EXPECT_DOUBLE_EQ(events_.Now(), 200.0);
}

TEST_F(SimWorkerPoolTest, AccountingCounters) {
  SimWorkerPool pool(1, &events_, &model_);
  pool.Submit(0, MakeTask(1, /*batch=*/4));
  pool.Submit(0, MakeTask(2, /*batch=*/2));
  events_.RunAll();
  EXPECT_EQ(pool.TasksExecuted(0), 2);
  EXPECT_EQ(pool.ItemsExecuted(0), 6);
  EXPECT_DOUBLE_EQ(pool.BusyMicros(0), 200.0);
}

TEST_F(SimWorkerPoolTest, FindIdleWorker) {
  SimWorkerPool pool(2, &events_, &model_);
  EXPECT_EQ(pool.FindIdleWorker(), 0);
  pool.Submit(0, MakeTask(1));
  EXPECT_EQ(pool.FindIdleWorker(), 1);
  pool.Submit(1, MakeTask(2));
  EXPECT_EQ(pool.FindIdleWorker(), -1);
  events_.RunAll();
  EXPECT_EQ(pool.FindIdleWorker(), 0);
}

TEST_F(SimWorkerPoolTest, QueueDepthTracksStream) {
  SimWorkerPool pool(1, &events_, &model_);
  EXPECT_EQ(pool.QueueDepth(0), 0);
  pool.Submit(0, MakeTask(1));
  pool.Submit(0, MakeTask(2));
  EXPECT_EQ(pool.QueueDepth(0), 2);
  events_.RunAll();
  EXPECT_EQ(pool.QueueDepth(0), 0);
}

}  // namespace
}  // namespace batchmaker
