// End-to-end tests for the low-precision execution path: the precision an
// ExecContext carries into CellExecutor, the engine-wide
// EngineOptions::precision knob, and the accuracy/determinism contract of
// int8 inference against the fp32 reference (DESIGN.md "Low-precision
// execution").

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "src/core/server.h"
#include "src/core/sync_engine.h"
#include "src/graph/executor.h"
#include "src/nn/lstm.h"
#include "src/tensor/gemm.h"
#include "tests/test_models.h"

namespace batchmaker {
namespace {

// End-to-end logit tolerances. LSTM outputs pass through saturating gate
// nonlinearities, so elementwise error stays close to the raw GEMM error;
// bounds carry headroom over measured values (see DESIGN.md accuracy
// table).
constexpr float kInt8Tol = 6e-2f;

// A mid-sized LSTM so quantization error is exercised across a real
// reduction dimension (input+hidden = 48, 4*hidden = 128).
constexpr int64_t kInputDim = 16;
constexpr int64_t kHidden = 32;

struct LstmPair {
  // Same Rng seed => bitwise-identical weights in both registries.
  LstmPair()
      : ref_rng(77),
        low_rng(77),
        ref_model(&ref_registry, LstmSpec{kInputDim, kHidden}, &ref_rng),
        low_model(&low_registry, LstmSpec{kInputDim, kHidden}, &low_rng) {}

  CellRegistry ref_registry;
  CellRegistry low_registry;
  Rng ref_rng;
  Rng low_rng;
  LstmModel ref_model;
  LstmModel low_model;
};

// Runs the cell over `xs` at `precision`, as an engine would: the
// precision rides in the ExecContext.
std::pair<Tensor, Tensor> RunChain(const CellExecutor& exec, const std::vector<Tensor>& xs,
                                   Precision precision = Precision::kF32) {
  const ExecContext ctx{/*pool=*/nullptr, /*arena=*/nullptr, precision};
  Tensor h = Tensor::Zeros(Shape{1, kHidden});
  Tensor c = Tensor::Zeros(Shape{1, kHidden});
  for (const Tensor& x : xs) {
    auto out = exec.Execute({&x, &h, &c}, &ctx);
    h = std::move(out[0]);
    c = std::move(out[1]);
  }
  return {h, c};
}

std::vector<Tensor> RandomInputs(int steps, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> xs;
  for (int t = 0; t < steps; ++t) {
    xs.push_back(Tensor::RandomUniform(Shape{1, kInputDim}, 1.0f, &rng));
  }
  return xs;
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.NumElements() == b.NumElements() &&
         std::memcmp(a.f32(), b.f32(),
                     static_cast<size_t>(a.NumElements()) * sizeof(float)) == 0;
}

TEST(PrecisionTest, Int8ChainTracksFp32Reference) {
  LstmPair pair;
  const auto xs = RandomInputs(8, 502);
  const auto [ref_h, ref_c] =
      RunChain(pair.ref_registry.executor(pair.ref_model.cell_type()), xs);
  const auto [h, c] = RunChain(pair.low_registry.executor(pair.low_model.cell_type()), xs,
                               Precision::kInt8);
  EXPECT_TRUE(h.AllClose(ref_h, kInt8Tol));
  EXPECT_TRUE(c.AllClose(ref_c, kInt8Tol));
  // And int8 differs from fp32 *somewhere*: the low-precision path really
  // ran (a silent fall-through to fp32 would pass any tolerance).
  EXPECT_FALSE(BitwiseEqual(h, ref_h));
}

TEST(PrecisionTest, LowPrecisionChainsAreBitwiseRepeatable) {
  LstmPair pair;
  const auto xs = RandomInputs(6, 503);
  const CellExecutor& exec = pair.low_registry.executor(pair.low_model.cell_type());
  const auto [h1, c1] = RunChain(exec, xs, Precision::kInt8);
  const auto [h2, c2] = RunChain(exec, xs, Precision::kInt8);
  EXPECT_TRUE(BitwiseEqual(h1, h2));
  EXPECT_TRUE(BitwiseEqual(c1, c2));
}

TEST(PrecisionTest, SyncEnginePrecisionKnobTracksReference) {
  LstmPair pair;
  const int kLen = 6;
  const auto xs = RandomInputs(kLen, 504);
  const auto [ref_h, ref_c] =
      RunChain(pair.ref_registry.executor(pair.ref_model.cell_type()), xs);

  SyncEngine engine(&pair.low_registry);
  engine.set_precision(Precision::kInt8);
  EXPECT_EQ(engine.precision(), Precision::kInt8);
  std::vector<Tensor> ext = xs;
  ext.push_back(ExternalZeroVecTensor(kHidden));
  ext.push_back(ExternalZeroVecTensor(kHidden));
  const RequestId id =
      engine.Submit(pair.low_model.Unfold(kLen), std::move(ext),
                    {ValueRef::Output(kLen - 1, 0), ValueRef::Output(kLen - 1, 1)});
  engine.RunToCompletion();
  const auto outputs = engine.TakeResponse(id).outputs;
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_TRUE(outputs[0].AllClose(ref_h, kInt8Tol));
  EXPECT_TRUE(outputs[1].AllClose(ref_c, kInt8Tol));
}

TEST(PrecisionTest, ServerPrecisionOptionTracksReference) {
  LstmPair pair;
  const int kLen = 5;
  const auto xs = RandomInputs(kLen, 505);
  const auto [ref_h, ref_c] =
      RunChain(pair.ref_registry.executor(pair.ref_model.cell_type()), xs);

  ServerOptions options;
  options.precision = Precision::kInt8;
  Server server(&pair.low_registry, options);
  server.Start();
  std::vector<Tensor> ext = xs;
  ext.push_back(ExternalZeroVecTensor(kHidden));
  ext.push_back(ExternalZeroVecTensor(kHidden));
  const Response res =
      server.SubmitAndWait(pair.low_model.Unfold(kLen), std::move(ext),
                           {ValueRef::Output(kLen - 1, 0)});
  server.Shutdown();
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.outputs.size(), 1u);
  EXPECT_TRUE(res.outputs[0].AllClose(ref_h, kInt8Tol));
}

// precision=fp32 (the default) must not change anything: a registry whose
// executors were never touched and an engine with the default knob produce
// bitwise the same outputs as the plain executor path.
TEST(PrecisionTest, DefaultFp32IsBitwiseUnchanged) {
  LstmPair pair;
  const int kLen = 4;
  const auto xs = RandomInputs(kLen, 506);
  const auto [ref_h, ref_c] =
      RunChain(pair.ref_registry.executor(pair.ref_model.cell_type()), xs);

  SyncEngine engine(&pair.low_registry);  // default precision
  std::vector<Tensor> ext = xs;
  ext.push_back(ExternalZeroVecTensor(kHidden));
  ext.push_back(ExternalZeroVecTensor(kHidden));
  const RequestId id = engine.Submit(pair.low_model.Unfold(kLen), std::move(ext),
                                     {ValueRef::Output(kLen - 1, 0)});
  engine.RunToCompletion();
  const auto outputs = engine.TakeResponse(id).outputs;
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_TRUE(BitwiseEqual(outputs[0], ref_h));
}

}  // namespace
}  // namespace batchmaker
