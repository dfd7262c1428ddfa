// Property-based tests: randomized workloads driven through the full
// scheduling machinery, checking system invariants rather than specific
// outcomes. Parameterized over seeds and configurations (TEST_P).
//
// Invariants checked:
//   * liveness: every admitted request completes;
//   * conservation: executed cell count == unfolded cell count;
//   * typing: every task batches exactly one cell type;
//   * batching bound: no task exceeds its type's max batch;
//   * dependency order: a node never executes before its producers, with
//     cross-subgraph producers fully *completed* first;
//   * semantic transparency: batched execution equals sequential execution.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "src/core/sim_engine.h"
#include "src/core/sync_engine.h"
#include "src/graph/executor.h"
#include "src/graph/serialize.h"
#include "src/util/json.h"
#include "src/workload/datasets.h"
#include "tests/test_models.h"

namespace batchmaker {
namespace {

// ---------- Scheduler invariants under random mixed load (sim) ----------

struct SimPropertyParams {
  uint64_t seed;
  int max_batch;
  int max_tasks_to_submit;
  int num_workers;
};

class SimInvariantTest : public ::testing::TestWithParam<SimPropertyParams> {};

TEST_P(SimInvariantTest, RandomTreeWorkloadSatisfiesInvariants) {
  const SimPropertyParams params = GetParam();
  TinyTreeLstmFixture fix;
  fix.registry.SetMaxBatch(fix.model.leaf_type(), params.max_batch);
  fix.registry.SetMaxBatch(fix.model.internal_type(), params.max_batch);

  CostModel cost;
  cost.SetCurve(fix.model.leaf_type(), CostCurve({{1, 50.0}}));
  cost.SetCurve(fix.model.internal_type(), CostCurve({{1, 70.0}}));

  SimEngineOptions options;
  options.num_workers = params.num_workers;
  options.scheduler.max_tasks_to_submit = params.max_tasks_to_submit;
  SimEngine engine(&fix.registry, &cost, options);

  // Instrumentation: observe every task start/done.
  struct Observed {
    std::vector<BatchedTask> tasks;
    std::map<std::pair<RequestId, int>, int> exec_count;
  };
  // (We tap the engine's worker pool through a local copy of completions by
  // re-checking the metrics afterwards; per-task observation uses the
  // public counters.)

  Rng rng(params.seed);
  int total_cells = 0;
  int num_requests = 0;
  double t = 0.0;
  for (int i = 0; i < 40; ++i) {
    const int leaves = 1 + static_cast<int>(rng.NextBelow(24));
    const BinaryTree tree = BinaryTree::RandomParse(leaves, 32, &rng);
    total_cells += tree.NumNodes();
    engine.SubmitAt(t, fix.model.Unfold(tree));
    ++num_requests;
    t += rng.NextExponential(1.0 / 300.0);  // ~300us mean gap
  }
  engine.Run();

  // Liveness.
  EXPECT_EQ(engine.metrics().NumCompleted(), static_cast<size_t>(num_requests));
  EXPECT_EQ(engine.NumActiveRequests(), 0u);
  // Conservation across all workers.
  int64_t executed = 0;
  for (int w = 0; w < params.num_workers; ++w) {
    executed += engine.workers().ItemsExecuted(w);
  }
  EXPECT_EQ(executed, total_cells);
  // Sanity on recorded timings.
  for (const auto& r : engine.metrics().records()) {
    EXPECT_GE(r.exec_start_micros, r.arrival_micros);
    EXPECT_GE(r.completion_micros, r.exec_start_micros);
  }
}

TEST_P(SimInvariantTest, RandomChainWorkloadCompletes) {
  const SimPropertyParams params = GetParam();
  TinyLstmFixture fix;
  fix.registry.SetMaxBatch(fix.model.cell_type(), params.max_batch);
  CostModel cost;
  cost.SetCurve(fix.model.cell_type(), CostCurve({{1, 40.0}, {64, 60.0}}));

  SimEngineOptions options;
  options.num_workers = params.num_workers;
  options.scheduler.max_tasks_to_submit = params.max_tasks_to_submit;
  SimEngine engine(&fix.registry, &cost, options);

  Rng rng(params.seed ^ 0xabcdef);
  int total_cells = 0;
  double t = 0.0;
  for (int i = 0; i < 60; ++i) {
    const int len = 1 + static_cast<int>(rng.NextBelow(40));
    total_cells += len;
    engine.SubmitAt(t, fix.model.Unfold(len));
    t += rng.NextExponential(1.0 / 200.0);
  }
  engine.Run();
  EXPECT_EQ(engine.metrics().NumCompleted(), 60u);
  int64_t executed = 0;
  for (int w = 0; w < params.num_workers; ++w) {
    executed += engine.workers().ItemsExecuted(w);
  }
  EXPECT_EQ(executed, total_cells);
  // A request can never complete faster than its critical path (its length
  // times the fastest possible task duration).
  for (const auto& r : engine.metrics().records()) {
    EXPECT_GE(r.LatencyMicros() + 1e-6, r.num_nodes * 40.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SimInvariantTest,
    ::testing::Values(SimPropertyParams{1, 16, 5, 1}, SimPropertyParams{2, 16, 5, 2},
                      SimPropertyParams{3, 4, 1, 1}, SimPropertyParams{4, 4, 2, 3},
                      SimPropertyParams{5, 64, 10, 1}, SimPropertyParams{6, 1, 5, 2},
                      SimPropertyParams{7, 7, 3, 4}, SimPropertyParams{8, 128, 5, 1}),
    [](const ::testing::TestParamInfo<SimPropertyParams>& info) {
      const auto& p = info.param;
      return "seed" + std::to_string(p.seed) + "_b" + std::to_string(p.max_batch) + "_t" +
             std::to_string(p.max_tasks_to_submit) + "_w" + std::to_string(p.num_workers);
    });

// ---------- Task-level invariants observed through the scheduler ----------

struct TaskObservation {
  std::vector<BatchedTask> tasks;
};

class TaskInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TaskInvariantTest, TasksRespectTypingBatchingAndDependencies) {
  const uint64_t seed = GetParam();
  TinyTreeLstmFixture fix;
  const int max_batch = 8;
  fix.registry.SetMaxBatch(fix.model.leaf_type(), max_batch);
  fix.registry.SetMaxBatch(fix.model.internal_type(), max_batch);

  // Drive the scheduler directly so every formed task can be inspected.
  std::unique_ptr<Scheduler> scheduler;
  std::vector<RequestId> completed;
  RequestProcessor processor(
      &fix.registry, [&](Subgraph* sg) { scheduler->EnqueueSubgraph(sg); },
      [&](RequestState* state) { completed.push_back(state->id); });
  scheduler = std::make_unique<Scheduler>(&fix.registry, &processor,
                                          SchedulerOptions{.max_tasks_to_submit = 3});

  Rng rng(seed);
  std::map<RequestId, CellGraph> graphs;
  int total_cells = 0;
  for (RequestId id = 1; id <= 25; ++id) {
    const int leaves = 1 + static_cast<int>(rng.NextBelow(16));
    CellGraph graph = fix.model.Unfold(BinaryTree::RandomParse(leaves, 32, &rng));
    total_cells += graph.NumNodes();
    graphs.emplace(id, graph);
    processor.AddRequest(id, std::move(graph), 0.0);
  }

  // Execute to completion, remembering per-node completion order.
  std::set<std::pair<RequestId, int>> scheduled_nodes;
  std::set<std::pair<RequestId, int>> completed_nodes;
  int executed = 0;
  for (;;) {
    std::vector<BatchedTask> tasks = scheduler->Schedule(/*worker=*/0);
    if (tasks.empty()) {
      break;
    }
    for (const BatchedTask& task : tasks) {
      EXPECT_LE(task.BatchSize(), max_batch);
      EXPECT_GE(task.BatchSize(), 1);
      for (const TaskEntry& entry : task.entries) {
        // Typing: every node in the task has the task's cell type.
        const CellGraph& graph = graphs.at(entry.request);
        EXPECT_EQ(graph.NodeType(entry.node), task.type);
        // No double scheduling.
        EXPECT_TRUE(scheduled_nodes.emplace(entry.request, entry.node).second)
            << "node scheduled twice";
        // Dependencies: node-producers must be scheduled already (same
        // worker FIFO order in this single-stream harness means executed).
        for (const ValueRef& ref : graph.NodeInputs(entry.node)) {
          if (!ref.is_external()) {
            EXPECT_TRUE(scheduled_nodes.count({entry.request, ref.node}) > 0)
                << "consumed before produced";
          }
        }
      }
      executed += task.BatchSize();
      for (const TaskEntry& entry : task.entries) {
        completed_nodes.emplace(entry.request, entry.node);
      }
      scheduler->OnTaskCompleted(task);
    }
  }
  EXPECT_EQ(executed, total_cells);
  EXPECT_EQ(completed.size(), 25u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaskInvariantTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u, 88u, 99u,
                                           111u));

// ---------- Semantic transparency of batching (real compute) ----------

class BatchTransparencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchTransparencyTest, BatchedChainsEqualSequentialExecution) {
  const uint64_t seed = GetParam();
  TinyLstmFixture fix;
  Rng rng(seed);
  // Random max-batch too: scheduling decisions must never change results.
  fix.registry.SetMaxBatch(fix.model.cell_type(),
                           1 + static_cast<int>(rng.NextBelow(16)));

  SyncEngine engine(&fix.registry,
                    SchedulerOptions{.max_tasks_to_submit =
                                         1 + static_cast<int>(rng.NextBelow(8))});
  const CellExecutor& exec = fix.registry.executor(fix.model.cell_type());

  struct Submitted {
    RequestId id;
    std::vector<Tensor> xs;
    int len;
  };
  std::vector<Submitted> submitted;
  for (int i = 0; i < 12; ++i) {
    const int len = 1 + static_cast<int>(rng.NextBelow(9));
    std::vector<Tensor> xs;
    for (int t = 0; t < len; ++t) {
      xs.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &rng));
    }
    std::vector<Tensor> externals = xs;
    externals.push_back(ExternalZeroVecTensor(4));
    externals.push_back(ExternalZeroVecTensor(4));
    const RequestId id = engine.Submit(fix.model.Unfold(len), std::move(externals),
                                       {ValueRef::Output(len - 1, 0)});
    submitted.push_back(Submitted{id, std::move(xs), len});
  }
  engine.RunToCompletion();

  for (const Submitted& s : submitted) {
    Tensor h = Tensor::Zeros(Shape{1, 4});
    Tensor c = Tensor::Zeros(Shape{1, 4});
    for (const Tensor& x : s.xs) {
      auto out = exec.Execute({&x, &h, &c});
      h = std::move(out[0]);
      c = std::move(out[1]);
    }
    const auto outputs = engine.TakeResponse(s.id).outputs;
    EXPECT_TRUE(outputs[0].AllClose(h, 1e-5f)) << "request " << s.id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchTransparencyTest,
                         ::testing::Range<uint64_t>(100u, 110u));

// ---------- JSON parser robustness ----------

class JsonFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonFuzzTest, MutatedCellJsonNeverCrashesTryParse) {
  Rng rng(GetParam());
  auto def = BuildLstmCell(LstmSpec{.input_dim = 2, .hidden = 2}, &rng, "fuzz");
  std::string text = CellDefToJsonText(*def, /*pretty=*/false);
  // Apply random byte mutations; TryParse must return cleanly either way.
  for (int round = 0; round < 200; ++round) {
    std::string mutated = text;
    const int edits = 1 + static_cast<int>(rng.NextBelow(5));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = static_cast<size_t>(rng.NextBelow(mutated.size()));
      switch (rng.NextBelow(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.NextBelow(256));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>('!' + rng.NextBelow(90)));
          break;
      }
      if (mutated.empty()) {
        break;
      }
    }
    Json out;
    std::string error;
    (void)Json::TryParse(mutated, &out, &error);  // must not crash or hang
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzzTest, ::testing::Values(1u, 2u, 3u, 4u));

// ---------- Preset cost-curve properties ----------

class CurvePropertyTest
    : public ::testing::TestWithParam<std::tuple<const char*, CostCurve>> {};

TEST_P(CurvePropertyTest, MonotoneNondecreasingTime) {
  const CostCurve& curve = std::get<1>(GetParam());
  double prev = 0.0;
  for (int b = 1; b <= 8192; b = b * 3 / 2 + 1) {
    const double t = curve.Micros(b);
    EXPECT_GE(t, prev * 0.999) << "time decreased at batch " << b;
    prev = t;
  }
}

TEST_P(CurvePropertyTest, ThroughputNeverDecreasesMuchThenCollapses) {
  // Sanity: per-item cost (micros/batch) is non-increasing up to the
  // autotuned optimum.
  const CostCurve& curve = std::get<1>(GetParam());
  const int best = AutotuneMaxBatch(curve, 4096);
  double prev_per_item = 1e18;
  for (int b = 1; b <= best; b *= 2) {
    const double per_item = curve.Micros(b) / b;
    EXPECT_LE(per_item, prev_per_item * 1.001) << "batch " << b;
    prev_per_item = per_item;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, CurvePropertyTest,
    ::testing::Values(std::make_tuple("gpu_lstm", GpuLstmCurve()),
                      std::make_tuple("gpu_decoder", GpuDecoderCurve()),
                      std::make_tuple("gpu_tree", GpuTreeCellCurve()),
                      std::make_tuple("gpu_tree_old", GpuTreeCellOldCurve()),
                      std::make_tuple("cpu_lstm", CpuLstmCurve())),
    [](const ::testing::TestParamInfo<std::tuple<const char*, CostCurve>>& info) {
      return std::get<0>(info.param);
    });

}  // namespace
}  // namespace batchmaker
