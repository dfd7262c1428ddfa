// Tests for the observability layer (src/obs/): TraceRecorder semantics,
// thread safety, Chrome trace_event export and trace-derived stage
// breakdowns, plus end-to-end integration with SimEngine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "src/core/server.h"
#include "src/core/sim_engine.h"
#include "src/obs/trace.h"
#include "src/obs/trace_export.h"
#include "src/util/json.h"
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

TEST(TraceRecorderTest, DisabledRecorderRecordsNothing) {
  TraceRecorder trace;  // no clock: the explicit-ts overloads still work
  EXPECT_FALSE(trace.enabled());
  trace.RequestArrival(/*ts=*/1.0, /*id=*/1, /*num_nodes=*/3);
  trace.ExecBegin(/*ts=*/2.0, /*task_id=*/1, /*type=*/0, /*worker=*/0, /*batch_size=*/1);
  trace.ExecEnd(/*task_id=*/1, /*type=*/0, /*worker=*/0, /*batch_size=*/1);
  trace.RequestComplete(/*id=*/1, /*exec_start_micros=*/2.0);
  EXPECT_EQ(trace.NumEvents(), 0u);
  EXPECT_EQ(trace.Count(TraceEventKind::kRequestArrival), 0);
  EXPECT_EQ(trace.Count(TraceEventKind::kExecBegin), 0);
}

TEST(TraceRecorderTest, CountersAndHistogramsTrackEvents) {
  TraceRecorder trace;
  trace.Enable();
  trace.RequestArrival(/*ts=*/0.0, /*id=*/1, /*num_nodes=*/4);
  trace.TaskFormed(/*task_id=*/1, /*type=*/0, /*worker=*/0, /*batch_size=*/1,
                   SchedCriterion::kAnyReady);
  trace.TaskFormed(/*task_id=*/2, /*type=*/0, /*worker=*/0, /*batch_size=*/4,
                   SchedCriterion::kFullBatch);
  trace.TaskFormed(/*task_id=*/3, /*type=*/0, /*worker=*/1, /*batch_size=*/5,
                   SchedCriterion::kStarvedType);
  trace.RequestComplete(/*id=*/1, /*exec_start_micros=*/1.0);
  EXPECT_EQ(trace.Count(TraceEventKind::kRequestArrival), 1);
  EXPECT_EQ(trace.Count(TraceEventKind::kTaskFormed), 3);
  EXPECT_EQ(trace.Count(TraceEventKind::kRequestComplete), 1);
  EXPECT_EQ(trace.NumEvents(), 5u);
  // Batch sizes 1, 4, 5 -> buckets 0 ([1,2)), 2 ([4,8)), 2.
  EXPECT_EQ(trace.BatchSizeBucket(0), 1);
  EXPECT_EQ(trace.BatchSizeBucket(1), 0);
  EXPECT_EQ(trace.BatchSizeBucket(2), 2);
  trace.Clear();
  EXPECT_EQ(trace.NumEvents(), 0u);
  EXPECT_EQ(trace.Count(TraceEventKind::kTaskFormed), 0);
  EXPECT_EQ(trace.BatchSizeBucket(2), 0);
}

TEST(TraceRecorderTest, OccupancySampledAtExecBegin) {
  TraceRecorder trace;
  trace.Enable();
  // Two overlapping spans: the second ExecBegin sees 2 busy workers.
  trace.ExecBegin(/*ts=*/0.0, /*task_id=*/1, /*type=*/0, /*worker=*/0, /*batch_size=*/1);
  trace.ExecBegin(/*ts=*/1.0, /*task_id=*/2, /*type=*/0, /*worker=*/1, /*batch_size=*/1);
  trace.ExecEnd(/*task_id=*/1, /*type=*/0, /*worker=*/0, /*batch_size=*/1);
  trace.ExecEnd(/*task_id=*/2, /*type=*/0, /*worker=*/1, /*batch_size=*/1);
  EXPECT_EQ(trace.OccupancyBucket(1), 1);
  EXPECT_EQ(trace.OccupancyBucket(2), 1);
}

TEST(TraceRecorderTest, SortedEventsOrderedByTimestamp) {
  TraceRecorder trace;
  trace.Enable();
  trace.RequestArrival(/*ts=*/5.0, /*id=*/2, /*num_nodes=*/1);
  trace.RequestArrival(/*ts=*/1.0, /*id=*/1, /*num_nodes=*/1);
  trace.ExecBegin(/*ts=*/3.0, /*task_id=*/9, /*type=*/0, /*worker=*/0, /*batch_size=*/1);
  const std::vector<TraceEvent> events = trace.SortedEvents();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return a.ts_micros < b.ts_micros;
                             }));
  EXPECT_EQ(events[0].id, 1u);
  EXPECT_EQ(events[2].id, 2u);
}

TEST(TraceRecorderTest, ConcurrentRecordingLosesNoEvents) {
  TraceRecorder trace;
  trace.Enable();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t id = static_cast<uint64_t>(t) * kPerThread + i;
        trace.RequestArrival(/*ts=*/static_cast<double>(i), id, /*num_nodes=*/1);
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(trace.NumEvents(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(trace.Count(TraceEventKind::kRequestArrival), kThreads * kPerThread);
  // Every id recorded exactly once.
  std::set<uint64_t> ids;
  for (const TraceEvent& e : trace.SortedEvents()) {
    ids.insert(e.id);
  }
  EXPECT_EQ(ids.size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST(TraceExportTest, ChromeTraceJsonHasExpectedEvents) {
  // Fake clock ticking one microsecond per event keeps the stream ordered.
  double now = 0.0;
  TraceRecorder trace([&now] { return now += 1.0; });
  trace.Enable();
  trace.RequestArrival(/*ts=*/0.0, /*id=*/7, /*num_nodes=*/2);
  trace.TaskFormed(/*task_id=*/1, /*type=*/0, /*worker=*/0, /*batch_size=*/1,
                   SchedCriterion::kAnyReady);
  trace.ExecBegin(/*ts=*/2.0, /*task_id=*/1, /*type=*/0, /*worker=*/0, /*batch_size=*/1);
  trace.ExecEnd(/*task_id=*/1, /*type=*/0, /*worker=*/0, /*batch_size=*/1);
  trace.RequestComplete(/*id=*/7, /*exec_start_micros=*/2.0);

  const Json doc = ChromeTraceJson(trace, [](CellTypeId) { return std::string("lstm"); });
  // Round-trip through the serializer: the output must be valid JSON.
  const Json parsed = Json::Parse(doc.Dump());
  const Json& events = parsed.Get("traceEvents");
  ASSERT_TRUE(events.is_array());
  int complete_spans = 0, async_begin = 0, async_end = 0, instants = 0;
  for (size_t i = 0; i < events.Size(); ++i) {
    const std::string ph = events.At(i).Get("ph").AsString();
    if (ph == "X") ++complete_spans;
    if (ph == "b") ++async_begin;
    if (ph == "e") ++async_end;
    if (ph == "i") ++instants;
  }
  EXPECT_EQ(complete_spans, 1);  // one exec span
  EXPECT_EQ(async_begin, 1);     // request 7 lifetime begin
  EXPECT_EQ(async_end, 1);       // request 7 lifetime end
  EXPECT_GE(instants, 1);        // task formation
}

TEST(TraceExportTest, WriteChromeTraceRoundTrips) {
  TraceRecorder trace;
  trace.Enable();
  trace.RequestArrival(/*ts=*/0.0, /*id=*/1, /*num_nodes=*/1);
  trace.RequestComplete(/*id=*/1, /*exec_start_micros=*/0.5);
  const std::string path = "obs_test.trace.json";
  ASSERT_TRUE(WriteChromeTrace(trace, path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const Json parsed = Json::Parse(buffer.str());
  EXPECT_TRUE(parsed.Get("traceEvents").is_array());
  std::remove(path.c_str());
}

TEST(TraceExportTest, BreakdownFromTraceMatchesStages) {
  TraceRecorder trace;
  trace.Enable();
  // Request 1: arrival 0, first exec 40, completion 100.
  trace.RequestArrival(/*ts=*/0.0, /*id=*/1, /*num_nodes=*/1);
  trace.ExecBegin(/*ts=*/40.0, /*task_id=*/1, /*type=*/0, /*worker=*/0, /*batch_size=*/1);
  trace.ExecEnd(/*task_id=*/1, /*type=*/0, /*worker=*/0, /*batch_size=*/1);
  // RequestComplete's clock is unset, so stamp completion via a clocked
  // recorder instead: use set_clock to fake completion time.
  trace.set_clock([] { return 100.0; });
  trace.RequestComplete(/*id=*/1, /*exec_start_micros=*/40.0);

  const TraceStageBreakdown breakdown = BreakdownFromTrace(trace);
  ASSERT_EQ(breakdown.total.Count(), 1u);
  EXPECT_DOUBLE_EQ(breakdown.queueing.Max(), 40.0);
  EXPECT_DOUBLE_EQ(breakdown.compute.Max(), 60.0);
  EXPECT_DOUBLE_EQ(breakdown.total.Max(), 100.0);
  // Window keyed by completion: a window ending before 100 excludes it.
  EXPECT_EQ(BreakdownFromTrace(trace, 0.0, 99.0).total.Count(), 0u);
}

TEST(TraceExportTest, PipelineEventsExport) {
  // The pipelined-stream event kinds: stream refills export as instants,
  // gather begin/end pairs and worker idle gaps as complete ("X") spans.
  TraceRecorder trace;
  trace.Enable();
  trace.set_clock([] { return 1.0; });
  trace.StreamRefill(/*worker=*/0, /*num_tasks=*/2);
  trace.GatherBegin(/*task_id=*/1, /*type=*/0, /*worker=*/0, /*batch_size=*/3);
  trace.set_clock([] { return 4.0; });
  trace.GatherEnd(/*task_id=*/1, /*type=*/0, /*worker=*/0, /*batch_size=*/3);
  trace.WorkerIdle(/*begin_micros=*/5.0, /*end_micros=*/9.0, /*worker=*/1);

  EXPECT_EQ(trace.Count(TraceEventKind::kStreamRefill), 1);
  EXPECT_EQ(trace.Count(TraceEventKind::kGatherBegin), 1);
  EXPECT_EQ(trace.Count(TraceEventKind::kGatherEnd), 1);
  EXPECT_EQ(trace.Count(TraceEventKind::kWorkerIdle), 1);

  const Json doc = ChromeTraceJson(trace);
  const Json parsed = Json::Parse(doc.Dump());
  const Json& events = parsed.Get("traceEvents");
  int gather_spans = 0, idle_spans = 0, refill_instants = 0;
  for (size_t i = 0; i < events.Size(); ++i) {
    const Json& e = events.At(i);
    if (e.Get("ph").AsString() != "M" && e.Get("name").AsString() == "stream_refill") {
      ++refill_instants;
      EXPECT_EQ(e.Get("ph").AsString(), "i");
    }
    if (e.Get("ph").AsString() == "X") {
      const std::string cat = e.Get("cat").AsString();
      if (cat == "gather") {
        ++gather_spans;
        EXPECT_DOUBLE_EQ(e.Get("ts").AsDouble(), 1.0);
        EXPECT_DOUBLE_EQ(e.Get("dur").AsDouble(), 3.0);
      } else if (cat == "idle") {
        ++idle_spans;
        EXPECT_DOUBLE_EQ(e.Get("ts").AsDouble(), 5.0);
        EXPECT_DOUBLE_EQ(e.Get("dur").AsDouble(), 4.0);
      }
    }
  }
  EXPECT_EQ(refill_instants, 1);
  EXPECT_EQ(gather_spans, 1);
  EXPECT_EQ(idle_spans, 1);
}

TEST(TraceIntegrationTest, ServerTracesPipelinedStreams) {
  // End to end on the real server: every executed task was refilled into a
  // stream and gathered by its worker's exec thread, so the pipeline event
  // counts line up with the exec spans.
  TinyLstmFixture fix;
  ServerOptions options;
  options.num_workers = 2;
  options.pipeline_depth = 2;
  options.enable_tracing = true;
  Server server(&fix.registry, options);
  server.Start();
  Rng data_rng(11);
  for (int i = 0; i < 6; ++i) {
    std::vector<Tensor> ext;
    for (int t = 0; t < 3; ++t) {
      ext.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng));
    }
    ext.push_back(ExternalZeroVecTensor(4));
    ext.push_back(ExternalZeroVecTensor(4));
    server.SubmitAndWait(fix.model.Unfold(3), std::move(ext), {ValueRef::Output(2, 0)});
  }
  server.Shutdown();

  const TraceRecorder& trace = server.trace();
  const int64_t execs = trace.Count(TraceEventKind::kExecBegin);
  EXPECT_GT(execs, 0);
  EXPECT_EQ(trace.Count(TraceEventKind::kGatherBegin), execs);
  EXPECT_EQ(trace.Count(TraceEventKind::kGatherEnd), execs);
  EXPECT_GT(trace.Count(TraceEventKind::kStreamRefill), 0);
  // The refill events' task counts sum to the number of executed tasks.
  int64_t refilled = 0;
  for (const TraceEvent& e : trace.SortedEvents()) {
    if (e.kind == TraceEventKind::kStreamRefill) {
      refilled += e.value;
    }
  }
  EXPECT_EQ(refilled, execs);
  // Idle gaps were recorded (workers waited for work at least at startup),
  // and they agree with the aggregate metric.
  EXPECT_GT(trace.Count(TraceEventKind::kWorkerIdle), 0);
  EXPECT_GT(server.TotalWorkerIdleMicros(), 0.0);
}

TEST(TraceIntegrationTest, SimEngineTracesEveryRequest) {
  TinyLstmFixture fix;
  const CostModel cost = UnitCostModel(fix.registry);
  SimEngineOptions options;
  options.num_workers = 2;
  options.enable_tracing = true;
  SimEngine engine(&fix.registry, &cost, options);
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    engine.SubmitAt(i * 0.5, fix.model.Unfold(3 + i % 3));
  }
  engine.Run();
  ASSERT_EQ(engine.metrics().NumCompleted(), static_cast<size_t>(kRequests));

  const TraceRecorder& trace = engine.trace();
  EXPECT_EQ(trace.Count(TraceEventKind::kRequestArrival), kRequests);
  EXPECT_EQ(trace.Count(TraceEventKind::kRequestComplete), kRequests);
  EXPECT_EQ(trace.Count(TraceEventKind::kExecBegin),
            trace.Count(TraceEventKind::kExecEnd));
  EXPECT_GT(trace.Count(TraceEventKind::kSubgraphEnqueue), 0);
  // Every scheduled task was recorded at formation time.
  EXPECT_EQ(trace.Count(TraceEventKind::kTaskFormed),
            static_cast<int64_t>(engine.scheduler().TotalTasksFormed()));

  // Per-request lifecycle: arrival before completion, exec spans between.
  std::set<uint64_t> arrived, completed;
  for (const TraceEvent& e : trace.SortedEvents()) {
    if (e.kind == TraceEventKind::kRequestArrival) {
      arrived.insert(e.id);
    } else if (e.kind == TraceEventKind::kRequestComplete) {
      EXPECT_TRUE(arrived.count(e.id)) << "completion before arrival for " << e.id;
      EXPECT_GE(e.aux_micros, 0.0) << "completed request never executed";
      completed.insert(e.id);
    }
  }
  EXPECT_EQ(completed.size(), static_cast<size_t>(kRequests));

  // The trace-derived breakdown agrees with MetricsCollector exactly: both
  // observe the same arrival / first-exec / completion instants.
  const TraceStageBreakdown breakdown = BreakdownFromTrace(trace);
  ASSERT_EQ(breakdown.total.Count(), engine.metrics().Latencies().Count());
  EXPECT_DOUBLE_EQ(breakdown.total.Mean(), engine.metrics().Latencies().Mean());
  EXPECT_DOUBLE_EQ(breakdown.queueing.Mean(), engine.metrics().QueueingTimes().Mean());

  // And the export is valid JSON with a span per executed task.
  const Json doc = ChromeTraceJson(engine.trace());
  const Json parsed = Json::Parse(doc.Dump());
  int spans = 0;
  const Json& events = parsed.Get("traceEvents");
  for (size_t i = 0; i < events.Size(); ++i) {
    if (events.At(i).Get("ph").AsString() == "X") {
      ++spans;
    }
  }
  EXPECT_EQ(spans, static_cast<int>(engine.scheduler().TotalTasksFormed()));
}

}  // namespace
}  // namespace batchmaker
