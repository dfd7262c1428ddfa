// Tests for the attention Seq2Seq extension: the online-softmax cell chain
// must compute exactly the same context as direct softmax attention, and
// the full model must decode correctly through the serving engine.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/core/sim_engine.h"
#include "src/core/sync_engine.h"
#include "src/graph/executor.h"
#include "src/graph/serialize.h"
#include "src/nn/attention.h"
#include "src/util/rng.h"

namespace batchmaker {
namespace {

constexpr int64_t kH = 4;
constexpr float kNegInf = -1e30f;

std::vector<Tensor> AttnInitExternals() {
  std::vector<Tensor> ext;
  ext.push_back(Tensor::Full(Shape{1, 1}, kNegInf));  // m0
  ext.push_back(Tensor::Zeros(Shape{1, 1}));          // s0
  ext.push_back(Tensor::Zeros(Shape{1, kH}));         // acc0
  return ext;
}

// Direct reference: softmax(q . k_i) weighted sum of v_i.
Tensor DirectAttention(const Tensor& q, const std::vector<Tensor>& keys) {
  std::vector<float> scores;
  for (const Tensor& k : keys) {
    float dot = 0.0f;
    for (int d = 0; d < kH; ++d) {
      dot += q.At(0, d) * k.At(0, d);
    }
    scores.push_back(dot);
  }
  float max_score = scores[0];
  for (float s : scores) {
    max_score = std::max(max_score, s);
  }
  float denom = 0.0f;
  std::vector<float> weights;
  for (float s : scores) {
    weights.push_back(std::exp(s - max_score));
    denom += weights.back();
  }
  Tensor context = Tensor::Zeros(Shape{1, kH});
  for (size_t i = 0; i < keys.size(); ++i) {
    for (int d = 0; d < kH; ++d) {
      context.At(0, d) += (weights[i] / denom) * keys[i].At(0, d);
    }
  }
  return context;
}

TEST(AttentionCellTest, OnlineSoftmaxMatchesDirectAttention) {
  const auto step_def = BuildAttnStepCell(kH);
  const auto finish_def = BuildAttnContextCell(kH);
  const CellExecutor step(step_def.get());
  const CellExecutor finish(finish_def.get());

  Rng rng(1);
  const Tensor q = Tensor::RandomUniform(Shape{1, kH}, 2.0f, &rng);
  std::vector<Tensor> keys;
  for (int i = 0; i < 7; ++i) {
    keys.push_back(Tensor::RandomUniform(Shape{1, kH}, 2.0f, &rng));
  }

  // Chain the accumulate cell over positions (k = v = encoder state).
  auto state = AttnInitExternals();
  Tensor m = std::move(state[0]);
  Tensor s = std::move(state[1]);
  Tensor acc = std::move(state[2]);
  for (const Tensor& k : keys) {
    auto out = step.Execute({&q, &k, &k, &m, &s, &acc});
    m = std::move(out[0]);
    s = std::move(out[1]);
    acc = std::move(out[2]);
  }
  const auto context = finish.Execute({&s, &acc});
  EXPECT_TRUE(context[0].AllClose(DirectAttention(q, keys), 1e-5f));
}

TEST(AttentionCellTest, NewOpsSurviveJsonRoundTrip) {
  // The online-softmax cell uses the reduce_sum/max/exp/recip/scale_rows
  // operators; its JSON round trip covers their (de)serialization.
  const auto def = BuildAttnStepCell(kH);
  const auto parsed = CellDefFromJsonText(CellDefToJsonText(*def));
  EXPECT_TRUE(def->ContentEquals(*parsed));
  const CellExecutor a(def.get());
  const CellExecutor b(parsed.get());
  Rng rng(9);
  const Tensor q = Tensor::RandomUniform(Shape{2, kH}, 1.0f, &rng);
  const Tensor k = Tensor::RandomUniform(Shape{2, kH}, 1.0f, &rng);
  const Tensor m = Tensor::Full(Shape{2, 1}, kNegInf);
  const Tensor s0 = Tensor::Zeros(Shape{2, 1});
  const Tensor acc = Tensor::Zeros(Shape{2, kH});
  const auto out_a = a.Execute({&q, &k, &k, &m, &s0, &acc});
  const auto out_b = b.Execute({&q, &k, &k, &m, &s0, &acc});
  for (size_t i = 0; i < out_a.size(); ++i) {
    EXPECT_TRUE(out_a[i].AllClose(out_b[i], 1e-6f));
  }
}

TEST(AttentionCellTest, StepCellHasNoParameters) {
  const auto def = BuildAttnStepCell(kH);
  for (int id = 0; id < def->NumOps(); ++id) {
    EXPECT_NE(def->op(id).kind, OpKind::kParam);
  }
}

TEST(AttentionCellTest, WeightlessCellsDeduplicateAcrossModels) {
  // Two independently built models share the attn_step/attn_context types
  // (no weights + same shapes => same cell type), so their attention cells
  // batch together across models as well as requests.
  CellRegistry registry;
  Rng rng(2);
  const AttentionSeq2SeqSpec spec{.vocab = 32, .embed_dim = 4, .hidden = kH};
  const AttentionSeq2SeqModel a(&registry, spec, &rng);
  const AttentionSeq2SeqModel b(&registry, spec, &rng);
  EXPECT_EQ(a.attn_step_type(), b.attn_step_type());
  EXPECT_EQ(a.attn_context_type(), b.attn_context_type());
  // Weighted cells differ (different random weights).
  EXPECT_NE(a.decoder_type(), b.decoder_type());
}

class AttentionModelTest : public ::testing::Test {
 protected:
  AttentionModelTest()
      : rng_(3),
        model_(&registry_, AttentionSeq2SeqSpec{.vocab = 32, .embed_dim = 4, .hidden = kH},
               &rng_) {}

  std::vector<Tensor> MakeExternals(const std::vector<int32_t>& src) {
    std::vector<Tensor> ext;
    for (int32_t tok : src) {
      ext.push_back(ExternalTokenTensor(tok));
    }
    ext.push_back(ExternalTokenTensor(0));  // <go>
    ext.push_back(ExternalZeroVecTensor(kH));
    ext.push_back(ExternalZeroVecTensor(kH));
    for (auto& t : AttnInitExternals()) {
      ext.push_back(std::move(t));
    }
    return ext;
  }

  CellRegistry registry_;
  Rng rng_;
  AttentionSeq2SeqModel model_;
};

TEST_F(AttentionModelTest, UnfoldStructureAndValidation) {
  const int src = 5;
  const int dec = 3;
  const CellGraph g = model_.Unfold(src, dec);
  EXPECT_EQ(g.NumNodes(), src + dec * (src + 2));
  g.Validate(registry_, src + 6);
  // Decoder nodes land where DecoderNode says.
  for (int t = 0; t < dec; ++t) {
    EXPECT_EQ(g.NodeType(model_.DecoderNode(src, t)), model_.decoder_type());
  }
}

TEST_F(AttentionModelTest, EndToEndMatchesManualDecode) {
  const int src_len = 4;
  const int dec_len = 3;
  const std::vector<int32_t> src = {5, 9, 11, 2};

  // Manual reference.
  const CellExecutor& enc = registry_.executor(model_.encoder_type());
  const CellExecutor& dec = registry_.executor(model_.decoder_type());
  std::vector<Tensor> enc_h;
  Tensor h = Tensor::Zeros(Shape{1, kH});
  Tensor c = Tensor::Zeros(Shape{1, kH});
  for (int32_t tok : src) {
    const Tensor t = ExternalTokenTensor(tok);
    auto out = enc.Execute({&t, &h, &c});
    h = out[0];
    c = out[1];
    enc_h.push_back(out[0]);
  }
  Tensor token = ExternalTokenTensor(0);
  std::vector<int32_t> ref_tokens;
  Tensor q = h;
  for (int t = 0; t < dec_len; ++t) {
    const Tensor context = DirectAttention(q, enc_h);
    auto out = dec.Execute({&token, &h, &c, &context});
    h = std::move(out[0]);
    c = std::move(out[1]);
    token = std::move(out[2]);
    q = h;
    ref_tokens.push_back(token.IntAt(0, 0));
  }

  // Engine run.
  SyncEngine engine(&registry_);
  const CellGraph graph = model_.Unfold(src_len, dec_len);
  std::vector<ValueRef> wanted;
  for (int t = 0; t < dec_len; ++t) {
    wanted.push_back(ValueRef::Output(model_.DecoderNode(src_len, t), 2));
  }
  const RequestId id = engine.Submit(CellGraph(graph), MakeExternals(src), wanted);
  engine.RunToCompletion();
  const auto outputs = engine.TakeResponse(id).outputs;
  ASSERT_EQ(outputs.size(), static_cast<size_t>(dec_len));
  for (int t = 0; t < dec_len; ++t) {
    EXPECT_EQ(outputs[static_cast<size_t>(t)].IntAt(0, 0),
              ref_tokens[static_cast<size_t>(t)])
        << "decode step " << t;
  }
}

TEST_F(AttentionModelTest, AttentionCellsBatchAcrossRequests) {
  // Two concurrent requests: their attention chains (same weightless cell
  // type) must batch together.
  registry_.SetMaxBatch(model_.attn_step_type(), 64);
  SyncEngine engine(&registry_);
  const std::vector<int32_t> src = {3, 7, 1};
  std::vector<RequestId> ids;
  for (int r = 0; r < 2; ++r) {
    const CellGraph graph = model_.Unfold(3, 2);
    ids.push_back(engine.Submit(CellGraph(graph), MakeExternals(src),
                                {ValueRef::Output(model_.DecoderNode(3, 1), 2)}));
  }
  engine.RunToCompletion();
  // Identical requests must produce identical tokens and batch heavily:
  // total cells = 2 * (3 + 2*5) = 26; with pairwise batching the task
  // count is half that.
  const auto out_a = engine.TakeResponse(ids[0]).outputs;
  const auto out_b = engine.TakeResponse(ids[1]).outputs;
  EXPECT_TRUE(out_a[0].ElementsEqual(out_b[0]));
  EXPECT_LE(engine.TasksExecuted(), 13 + 2);
}

TEST_F(AttentionModelTest, RunsThroughSimEngine) {
  CostModel cost;
  for (CellTypeId t = 0; t < registry_.NumTypes(); ++t) {
    cost.SetCurve(t, UnitCostCurve());
  }
  SimEngine engine(&registry_, &cost);
  Rng arrivals(4);
  for (int i = 0; i < 10; ++i) {
    engine.SubmitAt(i * 3.0, model_.Unfold(2 + static_cast<int>(arrivals.NextBelow(6)),
                                           1 + static_cast<int>(arrivals.NextBelow(5))));
  }
  engine.Run();
  EXPECT_EQ(engine.metrics().NumCompleted(), 10u);
}

}  // namespace
}  // namespace batchmaker
