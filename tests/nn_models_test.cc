// Tests for the extended model zoo: GRU, stacked LSTM, bidirectional LSTM
// — numerics against hand references, unfold structure, and scheduling
// behaviour of the 2-D stacked lattice.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "src/core/sim_engine.h"
#include "src/core/sync_engine.h"
#include "src/graph/executor.h"
#include "src/nn/gru.h"
#include "src/nn/stacked_lstm.h"
#include "src/util/rng.h"

namespace batchmaker {
namespace {

float SigmoidRef(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// ---------- GRU ----------

// Hand-rolled single-row GRU matching BuildGruCell's weight layout.
struct RefGru {
  std::vector<float> w_zr, b_zr, w_xn, w_hn, b_n;
  int64_t in_dim, hidden;

  void Step(const std::vector<float>& x, std::vector<float>* h) const {
    const int64_t d = in_dim + hidden;
    std::vector<float> gates(static_cast<size_t>(2 * hidden), 0.0f);
    for (int64_t r = 0; r < d; ++r) {
      const float v = r < in_dim ? x[static_cast<size_t>(r)]
                                 : (*h)[static_cast<size_t>(r - in_dim)];
      for (int64_t c = 0; c < 2 * hidden; ++c) {
        gates[static_cast<size_t>(c)] += v * w_zr[static_cast<size_t>(r * 2 * hidden + c)];
      }
    }
    std::vector<float> z(static_cast<size_t>(hidden));
    std::vector<float> r_gate(static_cast<size_t>(hidden));
    for (int64_t i = 0; i < hidden; ++i) {
      z[static_cast<size_t>(i)] =
          SigmoidRef(gates[static_cast<size_t>(i)] + b_zr[static_cast<size_t>(i)]);
      r_gate[static_cast<size_t>(i)] = SigmoidRef(gates[static_cast<size_t>(hidden + i)] +
                                                  b_zr[static_cast<size_t>(hidden + i)]);
    }
    std::vector<float> n(static_cast<size_t>(hidden), 0.0f);
    for (int64_t r = 0; r < in_dim; ++r) {
      for (int64_t c = 0; c < hidden; ++c) {
        n[static_cast<size_t>(c)] +=
            x[static_cast<size_t>(r)] * w_xn[static_cast<size_t>(r * hidden + c)];
      }
    }
    for (int64_t r = 0; r < hidden; ++r) {
      const float rh = r_gate[static_cast<size_t>(r)] * (*h)[static_cast<size_t>(r)];
      for (int64_t c = 0; c < hidden; ++c) {
        n[static_cast<size_t>(c)] += rh * w_hn[static_cast<size_t>(r * hidden + c)];
      }
    }
    for (int64_t i = 0; i < hidden; ++i) {
      const float cand =
          std::tanh(n[static_cast<size_t>(i)] + b_n[static_cast<size_t>(i)]);
      const float hi = (*h)[static_cast<size_t>(i)];
      (*h)[static_cast<size_t>(i)] =
          hi + z[static_cast<size_t>(i)] * (cand - hi);
    }
  }
};

RefGru ExtractGruWeights(const CellDef& def, int64_t in_dim, int64_t hidden) {
  RefGru ref;
  ref.in_dim = in_dim;
  ref.hidden = hidden;
  auto grab = [&def](const char* name) {
    for (int id = 0; id < def.NumOps(); ++id) {
      const OpNode& node = def.op(id);
      if (node.kind == OpKind::kParam && node.name == name) {
        return std::vector<float>(node.weight.f32(),
                                  node.weight.f32() + node.weight.NumElements());
      }
    }
    ADD_FAILURE() << "missing param " << name;
    return std::vector<float>();
  };
  ref.w_zr = grab("W_zr");
  ref.b_zr = grab("b_zr");
  ref.w_xn = grab("W_xn");
  ref.w_hn = grab("W_hn");
  ref.b_n = grab("b_n");
  return ref;
}

TEST(GruTest, CellMatchesReference) {
  Rng rng(31);
  const GruSpec spec{.input_dim = 3, .hidden = 4};
  auto def = BuildGruCell(spec, &rng);
  const RefGru ref = ExtractGruWeights(*def, 3, 4);
  const CellExecutor exec(def.get());

  Rng data_rng(32);
  const Tensor x = Tensor::RandomUniform(Shape{1, 3}, 1.0f, &data_rng);
  const Tensor h0 = Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng);
  const auto out = exec.Execute({&x, &h0});

  std::vector<float> h(h0.f32(), h0.f32() + 4);
  const std::vector<float> xv(x.f32(), x.f32() + 3);
  ref.Step(xv, &h);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(out[0].At(0, i), h[static_cast<size_t>(i)], 1e-5f) << "h[" << i << "]";
  }
}

TEST(GruTest, OutputBounded) {
  // h' is a convex combination of h and tanh(...) so stays in (-1, 1) when
  // h0 does.
  Rng rng(33);
  const GruSpec spec{.input_dim = 4, .hidden = 4};
  auto def = BuildGruCell(spec, &rng);
  const CellExecutor exec(def.get());
  Rng data_rng(34);
  Tensor h = Tensor::Zeros(Shape{1, 4});
  for (int step = 0; step < 20; ++step) {
    const Tensor x = Tensor::RandomUniform(Shape{1, 4}, 2.0f, &data_rng);
    auto out = exec.Execute({&x, &h});
    h = std::move(out[0]);
    for (int i = 0; i < 4; ++i) {
      EXPECT_LT(std::fabs(h.At(0, i)), 1.0f);
    }
  }
}

TEST(GruTest, UnfoldChainEndToEnd) {
  CellRegistry registry;
  Rng rng(35);
  const GruModel model(&registry, GruSpec{.input_dim = 4, .hidden = 4}, &rng);
  const CellGraph g = model.Unfold(5);
  EXPECT_EQ(g.NumNodes(), 5);
  g.Validate(registry, 6);

  // Through the sync engine against step-by-step execution.
  SyncEngine engine(&registry);
  Rng data_rng(36);
  std::vector<Tensor> xs;
  for (int t = 0; t < 5; ++t) {
    xs.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng));
  }
  std::vector<Tensor> externals = xs;
  externals.push_back(ExternalZeroVecTensor(4));
  const RequestId id =
      engine.Submit(model.Unfold(5), std::move(externals), {ValueRef::Output(4, 0)});
  engine.RunToCompletion();
  const auto outputs = engine.TakeResponse(id).outputs;

  const CellExecutor& exec = registry.executor(model.cell_type());
  Tensor h = Tensor::Zeros(Shape{1, 4});
  for (const Tensor& x : xs) {
    auto out = exec.Execute({&x, &h});
    h = std::move(out[0]);
  }
  EXPECT_TRUE(outputs[0].AllClose(h, 1e-5f));
}

// ---------- Stacked LSTM ----------

TEST(StackedLstmTest, RegistersOneTypePerLayer) {
  CellRegistry registry;
  Rng rng(41);
  const StackedLstmModel model(
      &registry, StackedLstmSpec{.input_dim = 4, .hidden = 4, .num_layers = 3}, &rng);
  EXPECT_EQ(registry.NumTypes(), 3);
  // Layers have distinct weights hence distinct types.
  EXPECT_NE(model.layer_type(0), model.layer_type(1));
  EXPECT_NE(model.layer_type(1), model.layer_type(2));
  // Deeper layers carry higher priority.
  EXPECT_GT(registry.info(model.layer_type(2)).priority,
            registry.info(model.layer_type(0)).priority);
}

TEST(StackedLstmTest, UnfoldLatticeStructure) {
  CellRegistry registry;
  Rng rng(42);
  const StackedLstmModel model(
      &registry, StackedLstmSpec{.input_dim = 4, .hidden = 4, .num_layers = 2}, &rng);
  const int length = 4;
  const CellGraph g = model.Unfold(length);
  EXPECT_EQ(g.NumNodes(), 8);
  g.Validate(registry, length + 2 * 2);
  // Layer-1 step-2 consumes layer-0 step-2's h and layer-1 step-1's state.
  const std::span<const ValueRef> inputs = g.NodeInputs(StackedLstmModel::NodeId(length, 1, 2));
  EXPECT_EQ(inputs[0].node, StackedLstmModel::NodeId(length, 0, 2));
  EXPECT_EQ(inputs[1].node, StackedLstmModel::NodeId(length, 1, 1));
}

TEST(StackedLstmTest, MatchesManualTwoLayerRun) {
  CellRegistry registry;
  Rng rng(43);
  const StackedLstmModel model(
      &registry, StackedLstmSpec{.input_dim = 4, .hidden = 4, .num_layers = 2}, &rng);
  const int length = 6;

  Rng data_rng(44);
  std::vector<Tensor> xs;
  for (int t = 0; t < length; ++t) {
    xs.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng));
  }
  std::vector<Tensor> externals = xs;
  for (int l = 0; l < 2; ++l) {
    externals.push_back(ExternalZeroVecTensor(4));
    externals.push_back(ExternalZeroVecTensor(4));
  }
  SyncEngine engine(&registry);
  const int top_last = StackedLstmModel::NodeId(length, 1, length - 1);
  const RequestId id = engine.Submit(model.Unfold(length), std::move(externals),
                                     {ValueRef::Output(top_last, 0)});
  engine.RunToCompletion();
  const auto outputs = engine.TakeResponse(id).outputs;

  // Manual: run layer 0 over xs, then layer 1 over layer 0's h outputs.
  const CellExecutor& l0 = registry.executor(model.layer_type(0));
  const CellExecutor& l1 = registry.executor(model.layer_type(1));
  std::vector<Tensor> mid;
  Tensor h = Tensor::Zeros(Shape{1, 4});
  Tensor c = Tensor::Zeros(Shape{1, 4});
  for (const Tensor& x : xs) {
    auto out = l0.Execute({&x, &h, &c});
    h = out[0];
    c = out[1];
    mid.push_back(out[0]);
  }
  h = Tensor::Zeros(Shape{1, 4});
  c = Tensor::Zeros(Shape{1, 4});
  for (const Tensor& x : mid) {
    auto out = l1.Execute({&x, &h, &c});
    h = std::move(out[0]);
    c = std::move(out[1]);
  }
  EXPECT_TRUE(outputs[0].AllClose(h, 1e-5f));
}

TEST(StackedLstmTest, SubgraphReleaseIsPerLayer) {
  // Paper semantics (§4.3): a subgraph is released only once ALL its
  // external dependencies complete. Each layer is one subgraph, so a
  // single request's layer 1 starts only after its whole layer 0 finished:
  // makespan for one request is exactly 2L unit steps. (Pipelining happens
  // across requests — see LayersPipelineAcrossRequests.)
  CellRegistry registry;
  Rng rng(45);
  const StackedLstmModel model(
      &registry, StackedLstmSpec{.input_dim = 4, .hidden = 4, .num_layers = 2}, &rng);
  CostModel cost;
  cost.SetCurve(model.layer_type(0), UnitCostCurve());
  cost.SetCurve(model.layer_type(1), UnitCostCurve());
  SimEngineOptions options;
  options.num_workers = 2;
  options.scheduler.max_tasks_to_submit = 1;
  SimEngine engine(&registry, &cost, options);
  const int length = 10;
  engine.SubmitAt(0.0, model.Unfold(length));
  engine.Run();
  ASSERT_EQ(engine.metrics().NumCompleted(), 1u);
  EXPECT_DOUBLE_EQ(engine.metrics().records()[0].completion_micros, 2.0 * length);
}

TEST(StackedLstmTest, LayersPipelineAcrossRequests) {
  // Two staggered requests: request B's layer 0 can execute on the second
  // worker while request A's layer 1 runs on the first, so the combined
  // makespan is well below serial execution (4L for two 2-layer requests
  // on one worker).
  CellRegistry registry;
  Rng rng(46);
  const StackedLstmModel model(
      &registry, StackedLstmSpec{.input_dim = 4, .hidden = 4, .num_layers = 2}, &rng);
  CostModel cost;
  cost.SetCurve(model.layer_type(0), UnitCostCurve());
  cost.SetCurve(model.layer_type(1), UnitCostCurve());
  SimEngineOptions options;
  options.num_workers = 2;
  options.scheduler.max_tasks_to_submit = 1;
  SimEngine engine(&registry, &cost, options);
  const int length = 10;
  engine.SubmitAt(0.0, model.Unfold(length));
  engine.SubmitAt(0.5, model.Unfold(length));
  engine.Run();
  ASSERT_EQ(engine.metrics().NumCompleted(), 2u);
  double last = 0.0;
  for (const auto& r : engine.metrics().records()) {
    last = std::max(last, r.completion_micros);
  }
  EXPECT_LT(last, 3.0 * length);  // overlap beats the 4L serial bound
  EXPECT_GT(engine.workers().TasksExecuted(0), 0);
  EXPECT_GT(engine.workers().TasksExecuted(1), 0);
}

// ---------- Bidirectional LSTM ----------

TEST(BidiLstmTest, RegistersThreeTypes) {
  CellRegistry registry;
  Rng rng(51);
  const BidiLstmModel model(&registry, BidiLstmSpec{.input_dim = 4, .hidden = 4}, &rng);
  EXPECT_EQ(registry.NumTypes(), 3);
  EXPECT_NE(model.forward_type(), model.backward_type());
}

TEST(BidiLstmTest, UnfoldValidatesAndCombines) {
  CellRegistry registry;
  Rng rng(52);
  const BidiLstmModel model(&registry, BidiLstmSpec{.input_dim = 4, .hidden = 4}, &rng);
  const int length = 5;
  const CellGraph g = model.Unfold(length);
  EXPECT_EQ(g.NumNodes(), 3 * length);
  g.Validate(registry, length + 4);
  // Combiner for position 0 fuses forward node 0 and backward node
  // length + (length-1).
  const std::span<const ValueRef> comb = g.NodeInputs(BidiLstmModel::CombinerNode(length, 0));
  EXPECT_EQ(comb[0].node, 0);
  EXPECT_EQ(comb[1].node, length + length - 1);
}

TEST(BidiLstmTest, MatchesManualBidirectionalRun) {
  CellRegistry registry;
  Rng rng(53);
  const BidiLstmModel model(&registry, BidiLstmSpec{.input_dim = 4, .hidden = 4}, &rng);
  const int length = 4;

  Rng data_rng(54);
  std::vector<Tensor> xs;
  for (int t = 0; t < length; ++t) {
    xs.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng));
  }
  std::vector<Tensor> externals = xs;
  for (int i = 0; i < 4; ++i) {
    externals.push_back(ExternalZeroVecTensor(4));
  }
  SyncEngine engine(&registry);
  std::vector<ValueRef> wanted;
  for (int t = 0; t < length; ++t) {
    wanted.push_back(ValueRef::Output(BidiLstmModel::CombinerNode(length, t), 0));
  }
  const RequestId id = engine.Submit(model.Unfold(length), std::move(externals), wanted);
  engine.RunToCompletion();
  const auto outputs = engine.TakeResponse(id).outputs;

  // Manual forward and backward passes.
  const CellExecutor& fwd = registry.executor(model.forward_type());
  const CellExecutor& bwd = registry.executor(model.backward_type());
  const CellExecutor& comb = registry.executor(model.combine_type());
  std::vector<Tensor> fwd_h(static_cast<size_t>(length));
  std::vector<Tensor> bwd_h(static_cast<size_t>(length));
  Tensor h = Tensor::Zeros(Shape{1, 4});
  Tensor c = Tensor::Zeros(Shape{1, 4});
  for (int t = 0; t < length; ++t) {
    auto out = fwd.Execute({&xs[static_cast<size_t>(t)], &h, &c});
    h = out[0];
    c = out[1];
    fwd_h[static_cast<size_t>(t)] = out[0];
  }
  h = Tensor::Zeros(Shape{1, 4});
  c = Tensor::Zeros(Shape{1, 4});
  for (int t = length - 1; t >= 0; --t) {
    auto out = bwd.Execute({&xs[static_cast<size_t>(t)], &h, &c});
    h = out[0];
    c = out[1];
    bwd_h[static_cast<size_t>(t)] = out[0];
  }
  for (int t = 0; t < length; ++t) {
    auto ref =
        comb.Execute({&fwd_h[static_cast<size_t>(t)], &bwd_h[static_cast<size_t>(t)]});
    EXPECT_TRUE(outputs[static_cast<size_t>(t)].AllClose(ref[0], 1e-5f))
        << "position " << t;
  }
}

TEST(BidiLstmTest, ChainsRunConcurrentlyInSim) {
  // Forward and backward chains are independent subgraphs: with two
  // workers they run in parallel, so the makespan for one request is far
  // below the 2*length+combiners serial bound. (It is not exactly
  // length+1: middle combiners become ready mid-run and the scheduler's
  // later-stage priority interleaves them with chain steps.)
  CellRegistry registry;
  Rng rng(55);
  const BidiLstmModel model(&registry, BidiLstmSpec{.input_dim = 4, .hidden = 4}, &rng);
  CostModel cost;
  for (CellTypeId t = 0; t < registry.NumTypes(); ++t) {
    cost.SetCurve(t, UnitCostCurve());
  }
  SimEngineOptions options;
  options.num_workers = 2;
  options.scheduler.max_tasks_to_submit = 1;
  SimEngine engine(&registry, &cost, options);
  const int length = 12;
  engine.SubmitAt(0.0, model.Unfold(length));
  engine.Run();
  ASSERT_EQ(engine.metrics().NumCompleted(), 1u);
  // Serial on one worker would be 2*length chain steps + combiner tasks.
  EXPECT_LT(engine.metrics().records()[0].completion_micros, 2.0 * length);
  EXPECT_GT(engine.workers().TasksExecuted(0), 0);
  EXPECT_GT(engine.workers().TasksExecuted(1), 0);
}

}  // namespace
}  // namespace batchmaker
