// The determinism contract, end to end: the threaded Server with an
// intra-task ThreadPool (threads_per_worker > 1) and worker-local arenas
// must produce request outputs bitwise identical to the single-threaded
// SyncEngine. Batching, thread count, and arena recycling may change *how*
// the numbers are computed, never *which* numbers come out. The contract
// holds within each GEMM precision, so the core case runs at int8 too.

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "src/core/server.h"
#include "src/core/sync_engine.h"
#include "src/nn/lstm.h"
#include "src/util/rng.h"
#include "tests/test_models.h"

namespace batchmaker {
namespace {

// Hidden size 40 -> gate GEMMs are [b, 80] x [80, 160]: ten 16-wide B
// panels, so the pooled GEMM actually takes its parallel partition, and
// batch sizes reach 2 * threads so gather/scatter fan out too.
struct WideLstmFixture {
  WideLstmFixture()
      : rng(4321), model(&registry, LstmSpec{.input_dim = 24, .hidden = 40}, &rng) {}

  CellRegistry registry;
  Rng rng;
  LstmModel model;
};

struct RequestSpec {
  int length;
  std::vector<Tensor> xs;  // one [1, input_dim] tensor per step
};

std::vector<RequestSpec> MakeRequests(int count, int64_t input_dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<RequestSpec> reqs;
  reqs.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    RequestSpec spec;
    spec.length = 1 + static_cast<int>(rng.NextBelow(8));
    for (int t = 0; t < spec.length; ++t) {
      spec.xs.push_back(Tensor::RandomUniform(Shape{1, input_dim}, 1.0f, &rng));
    }
    reqs.push_back(std::move(spec));
  }
  return reqs;
}

std::vector<Tensor> ChainExternals(const RequestSpec& spec, int64_t hidden) {
  std::vector<Tensor> ext = spec.xs;
  ext.push_back(ExternalZeroVecTensor(hidden));
  ext.push_back(ExternalZeroVecTensor(hidden));
  return ext;
}

// One engine precision, and the Server's pipeline depth.
struct PrecisionDepth {
  Precision precision;
  int pipeline_depth;
};

class ServerSyncBitwiseTest : public ::testing::TestWithParam<PrecisionDepth> {};

TEST_P(ServerSyncBitwiseTest, ThreadedServerMatchesSyncEngineBitwise) {
  const PrecisionDepth param = GetParam();
  constexpr int kRequests = 24;
  constexpr int64_t kInputDim = 24;
  constexpr int64_t kHidden = 40;
  const auto requests = MakeRequests(kRequests, kInputDim, /*seed=*/77);

  // Reference: the serial engine (no pool, arena-backed scratch).
  WideLstmFixture ref_fix;
  std::vector<std::vector<Tensor>> ref_outputs(kRequests);
  {
    SyncEngine engine(&ref_fix.registry);
    engine.set_precision(param.precision);
    std::vector<RequestId> ids;
    for (const RequestSpec& spec : requests) {
      ids.push_back(engine.Submit(ref_fix.model.Unfold(spec.length),
                                  ChainExternals(spec, kHidden),
                                  {ValueRef::Output(spec.length - 1, 0),
                                   ValueRef::Output(spec.length - 1, 1)}));
    }
    engine.RunToCompletion();
    for (int i = 0; i < kRequests; ++i) {
      ref_outputs[static_cast<size_t>(i)] =
          engine.TakeResponse(ids[static_cast<size_t>(i)]).outputs;
    }
  }

  // Same weights: a fixture constructed with the same seed re-registers a
  // bit-identical model in a fresh registry, so the two engines cannot
  // share mutable state.
  WideLstmFixture srv_fix;
  ASSERT_EQ(srv_fix.registry.executor(srv_fix.model.cell_type()).NumPackedWeights(),
            ref_fix.registry.executor(ref_fix.model.cell_type()).NumPackedWeights());

  ServerOptions options;
  options.num_workers = 2;
  options.threads_per_worker = 4;
  options.pipeline_depth = param.pipeline_depth;
  options.precision = param.precision;
  Server server(&srv_fix.registry, options);
  server.Start();

  std::vector<std::promise<std::vector<Tensor>>> promises(kRequests);
  std::vector<std::future<std::vector<Tensor>>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(promises[static_cast<size_t>(i)].get_future());
  }
  for (int i = 0; i < kRequests; ++i) {
    const RequestSpec& spec = requests[static_cast<size_t>(i)];
    auto* promise = &promises[static_cast<size_t>(i)];
    server.Submit(srv_fix.model.Unfold(spec.length), ChainExternals(spec, kHidden),
                  {ValueRef::Output(spec.length - 1, 0),
                   ValueRef::Output(spec.length - 1, 1)},
                  [promise](RequestId, RequestStatus, std::vector<Tensor> outputs) {
                    promise->set_value(std::move(outputs));
                  });
  }
  for (int i = 0; i < kRequests; ++i) {
    const std::vector<Tensor> outputs = futures[static_cast<size_t>(i)].get();
    const std::vector<Tensor>& want = ref_outputs[static_cast<size_t>(i)];
    ASSERT_EQ(outputs.size(), want.size()) << "request " << i;
    for (size_t j = 0; j < outputs.size(); ++j) {
      // Bitwise, not approximately: ElementsEqual is an exact memcmp.
      EXPECT_TRUE(outputs[j].ElementsEqual(want[j]))
          << "request " << i << " output " << j
          << " differs between threaded server and sync engine";
    }
  }
  server.Shutdown();
}

INSTANTIATE_TEST_SUITE_P(
    PrecisionsAndDepths, ServerSyncBitwiseTest,
    ::testing::Values(PrecisionDepth{Precision::kF32, 2}, PrecisionDepth{Precision::kInt8, 1},
                      PrecisionDepth{Precision::kInt8, 2}),
    [](const ::testing::TestParamInfo<PrecisionDepth>& info) {
      return std::string(PrecisionName(info.param.precision)) + "_depth" +
             std::to_string(info.param.pipeline_depth);
    });

TEST(DeterminismTest, PipelinedStreamsMatchSyncEngineBitwiseAtAnyDepth) {
  // The pipelined worker streams (watermark refill + overlapped
  // gather/execute/scatter) must not perturb a single bit: at every
  // pipeline_depth x num_workers combination the server's outputs equal
  // the serial SyncEngine's exactly.
  constexpr int kRequests = 20;
  constexpr int64_t kInputDim = 24;
  constexpr int64_t kHidden = 40;
  const auto requests = MakeRequests(kRequests, kInputDim, /*seed=*/55);

  WideLstmFixture ref_fix;
  std::vector<std::vector<Tensor>> ref_outputs(kRequests);
  {
    SyncEngine engine(&ref_fix.registry);
    std::vector<RequestId> ids;
    for (const RequestSpec& spec : requests) {
      ids.push_back(engine.Submit(ref_fix.model.Unfold(spec.length),
                                  ChainExternals(spec, kHidden),
                                  {ValueRef::Output(spec.length - 1, 0),
                                   ValueRef::Output(spec.length - 1, 1)}));
    }
    engine.RunToCompletion();
    for (int i = 0; i < kRequests; ++i) {
      ref_outputs[static_cast<size_t>(i)] =
          engine.TakeResponse(ids[static_cast<size_t>(i)]).outputs;
    }
  }

  for (int depth : {1, 2, 4}) {
    for (int workers : {1, 2}) {
      WideLstmFixture fix;
      ServerOptions options;
      options.num_workers = workers;
      options.threads_per_worker = 2;
      options.pipeline_depth = depth;
      Server server(&fix.registry, options);
      server.Start();

      std::vector<std::promise<std::vector<Tensor>>> promises(kRequests);
      std::vector<std::future<std::vector<Tensor>>> futures;
      for (int i = 0; i < kRequests; ++i) {
        futures.push_back(promises[static_cast<size_t>(i)].get_future());
      }
      for (int i = 0; i < kRequests; ++i) {
        const RequestSpec& spec = requests[static_cast<size_t>(i)];
        auto* promise = &promises[static_cast<size_t>(i)];
        server.Submit(fix.model.Unfold(spec.length), ChainExternals(spec, kHidden),
                      {ValueRef::Output(spec.length - 1, 0),
                       ValueRef::Output(spec.length - 1, 1)},
                      [promise](RequestId, RequestStatus, std::vector<Tensor> outputs) {
                        promise->set_value(std::move(outputs));
                      });
      }
      for (int i = 0; i < kRequests; ++i) {
        const std::vector<Tensor> outputs = futures[static_cast<size_t>(i)].get();
        const std::vector<Tensor>& want = ref_outputs[static_cast<size_t>(i)];
        ASSERT_EQ(outputs.size(), want.size())
            << "request " << i << " depth " << depth << " workers " << workers;
        for (size_t j = 0; j < outputs.size(); ++j) {
          EXPECT_TRUE(outputs[j].ElementsEqual(want[j]))
              << "request " << i << " output " << j << " differs at depth " << depth
              << " workers " << workers;
        }
      }
      server.Shutdown();
    }
  }
}

TEST(DeterminismTest, ServerOutputIsIndependentOfThreadsPerWorker) {
  constexpr int kRequests = 12;
  constexpr int64_t kInputDim = 24;
  constexpr int64_t kHidden = 40;
  const auto requests = MakeRequests(kRequests, kInputDim, /*seed=*/99);

  std::vector<std::vector<std::vector<Tensor>>> by_config;
  for (int threads : {1, 3, 4}) {
    WideLstmFixture fix;
    ServerOptions options;
    options.threads_per_worker = threads;
    Server server(&fix.registry, options);
    server.Start();
    std::vector<std::vector<Tensor>> outputs(kRequests);
    for (int i = 0; i < kRequests; ++i) {
      const RequestSpec& spec = requests[static_cast<size_t>(i)];
      Response result = server.SubmitAndWait(
          fix.model.Unfold(spec.length), ChainExternals(spec, kHidden),
          {ValueRef::Output(spec.length - 1, 0)});
      ASSERT_TRUE(result.ok());
      outputs[static_cast<size_t>(i)] = std::move(result.outputs);
    }
    server.Shutdown();
    by_config.push_back(std::move(outputs));
  }
  for (size_t cfg = 1; cfg < by_config.size(); ++cfg) {
    for (int i = 0; i < kRequests; ++i) {
      ASSERT_EQ(by_config[cfg][static_cast<size_t>(i)].size(),
                by_config[0][static_cast<size_t>(i)].size());
      EXPECT_TRUE(by_config[cfg][static_cast<size_t>(i)][0].ElementsEqual(
          by_config[0][static_cast<size_t>(i)][0]))
          << "request " << i << " config " << cfg;
    }
  }
}

}  // namespace
}  // namespace batchmaker
