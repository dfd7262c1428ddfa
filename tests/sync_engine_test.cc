// Tests for SyncEngine: real-compute end-to-end correctness. The key
// property is semantic transparency of cellular batching: results of
// batched multi-request execution must equal isolated sequential runs.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/sync_engine.h"
#include "src/graph/executor.h"
#include "tests/test_models.h"

namespace batchmaker {
namespace {

// Sequentially executes a chain LSTM with the registry's executor (no
// batching, no scheduler) as the reference.
std::pair<Tensor, Tensor> ReferenceChain(const CellRegistry& registry, CellTypeId type,
                                         const std::vector<Tensor>& xs) {
  const CellExecutor& exec = registry.executor(type);
  Tensor h = Tensor::Zeros(Shape{1, 4});
  Tensor c = Tensor::Zeros(Shape{1, 4});
  for (const Tensor& x : xs) {
    auto out = exec.Execute({&x, &h, &c});
    h = std::move(out[0]);
    c = std::move(out[1]);
  }
  return {h, c};
}

std::vector<Tensor> MakeChainExternals(const std::vector<Tensor>& xs) {
  std::vector<Tensor> ext = xs;
  ext.push_back(ExternalZeroVecTensor(4));  // h0
  ext.push_back(ExternalZeroVecTensor(4));  // c0
  return ext;
}

TEST(SyncEngineTest, SingleChainMatchesSequentialReference) {
  TinyLstmFixture fix;
  Rng data_rng(100);
  std::vector<Tensor> xs;
  for (int t = 0; t < 6; ++t) {
    xs.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng));
  }
  const auto [ref_h, ref_c] = ReferenceChain(fix.registry, fix.model.cell_type(), xs);

  SyncEngine engine(&fix.registry);
  const CellGraph graph = fix.model.Unfold(6);
  const RequestId id = engine.Submit(CellGraph(graph), MakeChainExternals(xs),
                                     {ValueRef::Output(5, 0), ValueRef::Output(5, 1)});
  engine.RunToCompletion();
  const auto outputs = engine.TakeResponse(id).outputs;
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_TRUE(outputs[0].AllClose(ref_h, 1e-5f));
  EXPECT_TRUE(outputs[1].AllClose(ref_c, 1e-5f));
}

TEST(SyncEngineTest, BatchedRequestsMatchIsolatedRuns) {
  TinyLstmFixture fix;
  Rng data_rng(200);

  // Three requests of different lengths submitted together: the scheduler
  // batches their steps; results must match isolated sequential execution.
  const int lengths[3] = {2, 5, 3};
  std::vector<std::vector<Tensor>> all_xs;
  for (int len : lengths) {
    std::vector<Tensor> xs;
    for (int t = 0; t < len; ++t) {
      xs.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng));
    }
    all_xs.push_back(std::move(xs));
  }

  SyncEngine engine(&fix.registry);
  std::vector<RequestId> ids;
  for (int i = 0; i < 3; ++i) {
    const int last = lengths[i] - 1;
    ids.push_back(engine.Submit(fix.model.Unfold(lengths[i]),
                                MakeChainExternals(all_xs[static_cast<size_t>(i)]),
                                {ValueRef::Output(last, 0)}));
  }
  engine.RunToCompletion();

  // Batching happened: fewer tasks than total steps.
  EXPECT_LT(engine.TasksExecuted(), 2 + 5 + 3);
  EXPECT_EQ(engine.TaskBatchSizes().front(), 3);  // first step fully batched

  for (int i = 0; i < 3; ++i) {
    const auto [ref_h, ref_c] =
        ReferenceChain(fix.registry, fix.model.cell_type(), all_xs[static_cast<size_t>(i)]);
    const auto outputs = engine.TakeResponse(ids[static_cast<size_t>(i)]).outputs;
    EXPECT_TRUE(outputs[0].AllClose(ref_h, 1e-5f)) << "request " << i;
  }
}

TEST(SyncEngineTest, TreeLstmMatchesRecursiveReference) {
  TinyTreeLstmFixture fix;
  Rng tree_rng(300);
  const BinaryTree tree = BinaryTree::RandomParse(7, 32, &tree_rng);
  const CellGraph graph = fix.model.Unfold(tree);

  // Reference: direct recursive evaluation.
  const CellExecutor& leaf_exec = fix.registry.executor(fix.model.leaf_type());
  const CellExecutor& internal_exec = fix.registry.executor(fix.model.internal_type());
  std::function<std::pair<Tensor, Tensor>(int)> eval = [&](int id) {
    const auto& n = tree.nodes[static_cast<size_t>(id)];
    if (n.is_leaf()) {
      const Tensor token = ExternalTokenTensor(n.token);
      auto out = leaf_exec.Execute({&token});
      return std::make_pair(out[0], out[1]);
    }
    const auto [hl, cl] = eval(n.left);
    const auto [hr, cr] = eval(n.right);
    auto out = internal_exec.Execute({&hl, &cl, &hr, &cr});
    return std::make_pair(out[0], out[1]);
  };
  const auto [ref_h, ref_c] = eval(tree.root);

  // Engine run.
  std::vector<Tensor> externals;
  for (const auto& n : tree.nodes) {
    if (n.is_leaf()) {
      externals.push_back(ExternalTokenTensor(n.token));
    }
  }
  SyncEngine engine(&fix.registry);
  const int root_node = graph.NumNodes() - 1;  // root is added last
  const RequestId id = engine.Submit(CellGraph(graph), std::move(externals),
                                     {ValueRef::Output(root_node, 0)});
  engine.RunToCompletion();
  const auto outputs = engine.TakeResponse(id).outputs;
  EXPECT_TRUE(outputs[0].AllClose(ref_h, 1e-5f));
}

TEST(SyncEngineTest, Seq2SeqFeedPreviousDecodesGreedily) {
  TinySeq2SeqFixture fix;
  const CellGraph graph = fix.model.Unfold(3, 4);

  // Reference: run encoder then greedy decode manually.
  const CellExecutor& enc = fix.registry.executor(fix.model.encoder_type());
  const CellExecutor& dec = fix.registry.executor(fix.model.decoder_type());
  const int32_t src[3] = {5, 9, 11};
  Tensor h = Tensor::Zeros(Shape{1, 4});
  Tensor c = Tensor::Zeros(Shape{1, 4});
  for (int32_t tok : src) {
    const Tensor t = ExternalTokenTensor(tok);
    auto out = enc.Execute({&t, &h, &c});
    h = std::move(out[0]);
    c = std::move(out[1]);
  }
  Tensor token = ExternalTokenTensor(0);  // <go>
  std::vector<int32_t> ref_tokens;
  for (int step = 0; step < 4; ++step) {
    auto out = dec.Execute({&token, &h, &c});
    h = std::move(out[0]);
    c = std::move(out[1]);
    token = std::move(out[2]);
    ref_tokens.push_back(token.IntAt(0, 0));
  }

  // Engine run: externals are src tokens, <go>, h0, c0.
  std::vector<Tensor> externals;
  for (int32_t tok : src) {
    externals.push_back(ExternalTokenTensor(tok));
  }
  externals.push_back(ExternalTokenTensor(0));
  externals.push_back(ExternalZeroVecTensor(4));
  externals.push_back(ExternalZeroVecTensor(4));

  std::vector<ValueRef> wanted;
  for (int i = 0; i < 4; ++i) {
    wanted.push_back(ValueRef::Output(3 + i, 2));  // each decoder token
  }
  SyncEngine engine(&fix.registry);
  const RequestId id = engine.Submit(CellGraph(graph), std::move(externals), wanted);
  engine.RunToCompletion();
  const auto outputs = engine.TakeResponse(id).outputs;
  ASSERT_EQ(outputs.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(outputs[static_cast<size_t>(i)].IntAt(0, 0),
              ref_tokens[static_cast<size_t>(i)])
        << "decoder step " << i;
  }
}

TEST(SyncEngineTest, ManyMixedRequestsAllComplete) {
  TinyLstmFixture fix;
  Rng data_rng(400);
  SyncEngine engine(&fix.registry);
  std::vector<RequestId> ids;
  for (int i = 0; i < 20; ++i) {
    const int len = 1 + static_cast<int>(data_rng.NextBelow(8));
    std::vector<Tensor> xs;
    for (int t = 0; t < len; ++t) {
      xs.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng));
    }
    ids.push_back(engine.Submit(fix.model.Unfold(len), MakeChainExternals(xs),
                                {ValueRef::Output(len - 1, 0)}));
  }
  engine.RunToCompletion();
  for (const RequestId id : ids) {
    const auto outputs = engine.TakeResponse(id).outputs;
    EXPECT_EQ(outputs.size(), 1u);
  }
}

TEST(SyncEngineDeathTest, TakeResponseBeforeCompletionAborts) {
  TinyLstmFixture fix;
  SyncEngine engine(&fix.registry);
  EXPECT_DEATH(engine.TakeResponse(99), "not completed");
}

}  // namespace
}  // namespace batchmaker
