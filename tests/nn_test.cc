// Tests for src/nn: LSTM / Seq2Seq / TreeLSTM cell numerics (against
// hand-rolled references) and unfold structure.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/graph/executor.h"
#include "src/nn/lstm.h"
#include "src/nn/seq2seq.h"
#include "src/nn/tree_lstm.h"
#include "src/util/rng.h"

namespace batchmaker {
namespace {

float SigmoidRef(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// Hand-rolled single-row LSTM step for cross-checking the cell graph.
// Weights laid out as in BuildLstmCell: W [in+h, 4h] with gate order
// i, f, g, o; biases [4h].
struct RefLstm {
  std::vector<float> w;  // row-major [in_dim + hidden, 4*hidden]
  std::vector<float> b;
  int64_t in_dim;
  int64_t hidden;

  void Step(const std::vector<float>& x, std::vector<float>* h, std::vector<float>* c) const {
    const int64_t rows = in_dim + hidden;
    std::vector<float> gates(static_cast<size_t>(4 * hidden), 0.0f);
    std::vector<float> xh(static_cast<size_t>(rows));
    for (int64_t i = 0; i < in_dim; ++i) {
      xh[static_cast<size_t>(i)] = x[static_cast<size_t>(i)];
    }
    for (int64_t i = 0; i < hidden; ++i) {
      xh[static_cast<size_t>(in_dim + i)] = (*h)[static_cast<size_t>(i)];
    }
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t cix = 0; cix < 4 * hidden; ++cix) {
        gates[static_cast<size_t>(cix)] +=
            xh[static_cast<size_t>(r)] * w[static_cast<size_t>(r * 4 * hidden + cix)];
      }
    }
    for (int64_t i = 0; i < 4 * hidden; ++i) {
      gates[static_cast<size_t>(i)] += b[static_cast<size_t>(i)];
    }
    for (int64_t i = 0; i < hidden; ++i) {
      const float ig = SigmoidRef(gates[static_cast<size_t>(i)]);
      const float fg = SigmoidRef(gates[static_cast<size_t>(hidden + i)]);
      const float gg = std::tanh(gates[static_cast<size_t>(2 * hidden + i)]);
      const float og = SigmoidRef(gates[static_cast<size_t>(3 * hidden + i)]);
      const float c_new = fg * (*c)[static_cast<size_t>(i)] + ig * gg;
      (*c)[static_cast<size_t>(i)] = c_new;
      (*h)[static_cast<size_t>(i)] = og * std::tanh(c_new);
    }
  }
};

RefLstm ExtractRefWeights(const CellDef& def, int64_t in_dim, int64_t hidden) {
  // Find the W and b params by name.
  RefLstm ref;
  ref.in_dim = in_dim;
  ref.hidden = hidden;
  for (int id = 0; id < def.NumOps(); ++id) {
    const OpNode& node = def.op(id);
    if (node.kind == OpKind::kParam && node.name == "W") {
      ref.w.assign(node.weight.f32(), node.weight.f32() + node.weight.NumElements());
    }
    if (node.kind == OpKind::kParam && node.name == "b") {
      ref.b.assign(node.weight.f32(), node.weight.f32() + node.weight.NumElements());
    }
  }
  EXPECT_FALSE(ref.w.empty());
  EXPECT_FALSE(ref.b.empty());
  return ref;
}

// ---------- LSTM ----------

TEST(LstmTest, CellMatchesReference) {
  Rng rng(11);
  const LstmSpec spec{.input_dim = 5, .hidden = 4};
  auto def = BuildLstmCell(spec, &rng);
  const RefLstm ref = ExtractRefWeights(*def, spec.input_dim, spec.hidden);

  const CellExecutor exec(def.get());
  Rng data_rng(12);
  const Tensor x = Tensor::RandomUniform(Shape{1, 5}, 1.0f, &data_rng);
  const Tensor h0 = Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng);
  const Tensor c0 = Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng);
  const auto out = exec.Execute({&x, &h0, &c0});

  std::vector<float> h(h0.f32(), h0.f32() + 4);
  std::vector<float> c(c0.f32(), c0.f32() + 4);
  const std::vector<float> xv(x.f32(), x.f32() + 5);
  ref.Step(xv, &h, &c);

  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(out[0].At(0, i), h[static_cast<size_t>(i)], 1e-5f) << "h[" << i << "]";
    EXPECT_NEAR(out[1].At(0, i), c[static_cast<size_t>(i)], 1e-5f) << "c[" << i << "]";
  }
}

TEST(LstmTest, ZeroWeightsGiveKnownOutput) {
  // With all-zero W and b, gates are sigmoid(0)=0.5, g=tanh(0)=0, so
  // c' = 0.5*c and h' = 0.5*tanh(0.5*c).
  auto def = std::make_unique<CellDef>("z");
  const int x = def->AddInput("x", Shape{2});
  const int h_prev = def->AddInput("h_prev", Shape{2});
  const int c_prev = def->AddInput("c_prev", Shape{2});
  const int w = def->AddParam("W", Tensor::Zeros(Shape{4, 8}));
  const int b = def->AddParam("b", Tensor::Zeros(Shape{8}));
  const int xh = def->AddOp(OpKind::kConcat, "xh", {x, h_prev});
  const LstmCoreOps core = AddLstmCoreOps(def.get(), xh, c_prev, w, b, 2);
  def->MarkOutput(core.h);
  def->MarkOutput(core.c);
  def->Finalize();

  const CellExecutor exec(def.get());
  const Tensor xi = Tensor::FromVector(Shape{1, 2}, {1, 1});
  const Tensor hi = Tensor::FromVector(Shape{1, 2}, {1, 1});
  const Tensor ci = Tensor::FromVector(Shape{1, 2}, {0.8f, -0.4f});
  const auto out = exec.Execute({&xi, &hi, &ci});
  EXPECT_NEAR(out[1].At(0, 0), 0.4f, 1e-6f);
  EXPECT_NEAR(out[1].At(0, 1), -0.2f, 1e-6f);
  EXPECT_NEAR(out[0].At(0, 0), 0.5f * std::tanh(0.4f), 1e-6f);
}

TEST(LstmTest, UnfoldChainStructure) {
  CellRegistry registry;
  Rng rng(1);
  const LstmModel model(&registry, LstmSpec{.input_dim = 3, .hidden = 3}, &rng);
  const CellGraph g = model.Unfold(4);
  EXPECT_EQ(g.NumNodes(), 4);
  // Node 0 uses externals only; later nodes chain h/c.
  EXPECT_TRUE(g.NodeInputs(0)[1].is_external());
  EXPECT_FALSE(g.NodeInputs(1)[1].is_external());
  EXPECT_EQ(g.NodeInputs(3)[1].node, 2);
  EXPECT_EQ(g.NodeInputs(3)[2].output, 1);
  g.Validate(registry, /*num_externals=*/6);
}

TEST(LstmTest, ModelRegistersOneType) {
  CellRegistry registry;
  Rng rng(1);
  const LstmModel model(&registry, LstmSpec{.input_dim = 3, .hidden = 3}, &rng);
  EXPECT_EQ(registry.NumTypes(), 1);
  EXPECT_EQ(model.cell_type(), 0);
}

TEST(LstmTest, ChainedStepsMatchReference) {
  Rng rng(21);
  const LstmSpec spec{.input_dim = 3, .hidden = 3};
  auto def = BuildLstmCell(spec, &rng);
  const RefLstm ref = ExtractRefWeights(*def, 3, 3);
  const CellExecutor exec(def.get());

  Rng data_rng(22);
  std::vector<float> h(3, 0.0f);
  std::vector<float> c(3, 0.0f);
  Tensor ht = Tensor::Zeros(Shape{1, 3});
  Tensor ct = Tensor::Zeros(Shape{1, 3});
  for (int step = 0; step < 5; ++step) {
    const Tensor x = Tensor::RandomUniform(Shape{1, 3}, 1.0f, &data_rng);
    const auto out = exec.Execute({&x, &ht, &ct});
    ht = out[0];
    ct = out[1];
    const std::vector<float> xv(x.f32(), x.f32() + 3);
    ref.Step(xv, &h, &c);
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(ht.At(0, i), h[static_cast<size_t>(i)], 1e-4f);
  }
}

// ---------- Seq2Seq ----------

TEST(Seq2SeqTest, RegistersTwoTypesWithDecoderPriority) {
  CellRegistry registry;
  Rng rng(2);
  const Seq2SeqModel model(&registry,
                           Seq2SeqSpec{.vocab = 50, .embed_dim = 4, .hidden = 4}, &rng);
  EXPECT_EQ(registry.NumTypes(), 2);
  EXPECT_GT(registry.info(model.decoder_type()).priority,
            registry.info(model.encoder_type()).priority);
}

TEST(Seq2SeqTest, UnfoldShapeAndFeedPrevious) {
  CellRegistry registry;
  Rng rng(2);
  const Seq2SeqModel model(&registry,
                           Seq2SeqSpec{.vocab = 50, .embed_dim = 4, .hidden = 4}, &rng);
  const CellGraph g = model.Unfold(3, 2);
  EXPECT_EQ(g.NumNodes(), 5);
  EXPECT_EQ(g.NodeType(2), model.encoder_type());
  EXPECT_EQ(g.NodeType(3), model.decoder_type());
  // First decoder consumes the <go> external and encoder state.
  EXPECT_TRUE(g.NodeInputs(3)[0].is_external());
  EXPECT_EQ(g.NodeInputs(3)[1].node, 2);
  // Second decoder consumes the previous decoder's token output (index 2).
  EXPECT_EQ(g.NodeInputs(4)[0].node, 3);
  EXPECT_EQ(g.NodeInputs(4)[0].output, 2);
  g.Validate(registry, 6);
}

TEST(Seq2SeqTest, DecoderEmitsTokenInVocabRange) {
  CellRegistry registry;
  Rng rng(3);
  const Seq2SeqSpec spec{.vocab = 20, .embed_dim = 4, .hidden = 4};
  const Seq2SeqModel model(&registry, spec, &rng);
  const CellExecutor& exec = registry.executor(model.decoder_type());
  const Tensor token = Tensor::FromIntVector(Shape{1, 1}, {5});
  const Tensor h = Tensor::Zeros(Shape{1, 4});
  const Tensor c = Tensor::Zeros(Shape{1, 4});
  const auto out = exec.Execute({&token, &h, &c});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2].dtype(), DType::kI32);
  EXPECT_GE(out[2].IntAt(0, 0), 0);
  EXPECT_LT(out[2].IntAt(0, 0), 20);
}

TEST(Seq2SeqTest, EncoderDecoderDoNotShareWeights) {
  CellRegistry registry;
  Rng rng(4);
  const Seq2SeqModel model(&registry,
                           Seq2SeqSpec{.vocab = 10, .embed_dim = 3, .hidden = 3}, &rng);
  EXPECT_NE(model.encoder_type(), model.decoder_type());
}

// ---------- BinaryTree ----------

TEST(BinaryTreeTest, CompleteTreeCounts) {
  const BinaryTree tree = BinaryTree::Complete(16);
  tree.Validate();
  EXPECT_EQ(tree.NumLeaves(), 16);
  EXPECT_EQ(tree.NumInternal(), 15);
  EXPECT_EQ(tree.NumNodes(), 31);
  EXPECT_EQ(tree.Depth(), 5);
}

TEST(BinaryTreeTest, SingleLeafComplete) {
  const BinaryTree tree = BinaryTree::Complete(1);
  tree.Validate();
  EXPECT_EQ(tree.NumNodes(), 1);
  EXPECT_EQ(tree.Depth(), 1);
}

TEST(BinaryTreeTest, RandomParseHasCorrectLeafCount) {
  Rng rng(5);
  for (int leaves : {1, 2, 7, 24, 60}) {
    const BinaryTree tree = BinaryTree::RandomParse(leaves, 100, &rng);
    tree.Validate();
    EXPECT_EQ(tree.NumLeaves(), leaves);
    EXPECT_EQ(tree.NumInternal(), leaves - 1);
  }
}

TEST(BinaryTreeTest, RandomParseTokensInRange) {
  Rng rng(6);
  const BinaryTree tree = BinaryTree::RandomParse(20, 7, &rng);
  for (const auto& n : tree.nodes) {
    if (n.is_leaf()) {
      EXPECT_GE(n.token, 0);
      EXPECT_LT(n.token, 7);
    }
  }
}

TEST(BinaryTreeDeathTest, ValidateRejectsOneChild) {
  BinaryTree tree;
  tree.nodes.push_back(BinaryTree::Node{});
  BinaryTree::Node bad;
  bad.left = 0;
  tree.nodes.push_back(bad);
  tree.root = 1;
  EXPECT_DEATH(tree.Validate(), "0 or 2 children");
}

// ---------- TreeLSTM ----------

TEST(TreeLstmTest, RegistersTwoTypesWithInternalPriority) {
  CellRegistry registry;
  Rng rng(7);
  const TreeLstmModel model(&registry,
                            TreeLstmSpec{.vocab = 30, .embed_dim = 4, .hidden = 4}, &rng);
  EXPECT_EQ(registry.NumTypes(), 2);
  EXPECT_GT(registry.info(model.internal_type()).priority,
            registry.info(model.leaf_type()).priority);
}

TEST(TreeLstmTest, UnfoldCompleteTree) {
  CellRegistry registry;
  Rng rng(7);
  const TreeLstmModel model(&registry,
                            TreeLstmSpec{.vocab = 30, .embed_dim = 4, .hidden = 4}, &rng);
  const BinaryTree tree = BinaryTree::Complete(16);
  const CellGraph g = model.Unfold(tree);
  EXPECT_EQ(g.NumNodes(), 31);
  int leaves = 0;
  int internals = 0;
  for (int i = 0; i < g.NumNodes(); ++i) {
    if (g.NodeType(i) == model.leaf_type()) {
      ++leaves;
    } else {
      ++internals;
    }
  }
  EXPECT_EQ(leaves, 16);
  EXPECT_EQ(internals, 15);
  g.Validate(registry, 16);
}

TEST(TreeLstmTest, InternalCellCombinesChildren) {
  CellRegistry registry;
  Rng rng(8);
  const TreeLstmSpec spec{.vocab = 10, .embed_dim = 3, .hidden = 3};
  const TreeLstmModel model(&registry, spec, &rng);
  const CellExecutor& exec = registry.executor(model.internal_type());
  Rng data_rng(9);
  const Tensor hl = Tensor::RandomUniform(Shape{1, 3}, 1.0f, &data_rng);
  const Tensor cl = Tensor::RandomUniform(Shape{1, 3}, 1.0f, &data_rng);
  const Tensor hr = Tensor::RandomUniform(Shape{1, 3}, 1.0f, &data_rng);
  const Tensor cr = Tensor::RandomUniform(Shape{1, 3}, 1.0f, &data_rng);
  const auto out = exec.Execute({&hl, &cl, &hr, &cr});
  ASSERT_EQ(out.size(), 2u);
  // Outputs must be bounded: h = sigmoid * tanh in (-1, 1).
  for (int i = 0; i < 3; ++i) {
    EXPECT_LT(std::fabs(out[0].At(0, i)), 1.0f);
  }
  // Not symmetric in children (separate forget gates).
  const auto swapped = exec.Execute({&hr, &cr, &hl, &cl});
  EXPECT_FALSE(out[0].AllClose(swapped[0], 1e-6f));
}

TEST(TreeLstmTest, UnfoldRandomTreeValidates) {
  CellRegistry registry;
  Rng rng(10);
  const TreeLstmModel model(&registry,
                            TreeLstmSpec{.vocab = 30, .embed_dim = 4, .hidden = 4}, &rng);
  for (int leaves : {1, 2, 9, 33}) {
    const BinaryTree tree = BinaryTree::RandomParse(leaves, 30, &rng);
    const CellGraph g = model.Unfold(tree);
    EXPECT_EQ(g.NumNodes(), 2 * leaves - 1);
    g.Validate(registry, leaves);
  }
}

}  // namespace
}  // namespace batchmaker
