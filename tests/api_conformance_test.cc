// API conformance across the three engines: one submission surface
// (EngineOptions core + SubmitOptions + Response) must drive Server,
// SimEngine and SyncEngine through *identical* calling code. The tests
// below funnel every engine through one adapter struct, so a signature
// drift in any engine breaks compilation here before it breaks users.
// The same discipline covers device selection: EngineOptions::backend
// resolves through DeviceRegistry, and one submission function drives
// Server x {cpu, null} and SimEngine without engine- or backend-specific
// call shapes. (The pre-unification aliases — old option field names,
// positional overloads, SyncEngine::TakeOutputs — are removed; see the
// README migration table.)

#include <gtest/gtest.h>

#include <functional>
#include <future>
#include <utility>
#include <vector>

#include "src/core/server.h"
#include "src/core/sim_engine.h"
#include "src/core/sync_engine.h"
#include "tests/test_models.h"

namespace batchmaker {
namespace {

std::vector<Tensor> MakeChainExternals(const std::vector<Tensor>& xs, int64_t hidden) {
  std::vector<Tensor> ext = xs;
  ext.push_back(ExternalZeroVecTensor(hidden));
  ext.push_back(ExternalZeroVecTensor(hidden));
  return ext;
}

struct ChainRequest {
  int length = 0;
  std::vector<Tensor> xs;
};

std::vector<ChainRequest> MakeChainRequests(int count, int64_t input_dim,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<ChainRequest> requests;
  for (int i = 0; i < count; ++i) {
    ChainRequest r;
    r.length = 1 + static_cast<int>(rng.NextBelow(6));
    for (int t = 0; t < r.length; ++t) {
      r.xs.push_back(Tensor::RandomUniform(Shape{1, input_dim}, 1.0f, &rng));
    }
    requests.push_back(std::move(r));
  }
  return requests;
}

// The uniform submission surface, as seen by engine-agnostic calling
// code: submit with SubmitOptions, later collect the terminal Response.
// Each engine gets a thin adapter below; DriveEngine() itself never
// mentions an engine type.
struct EngineAdapter {
  std::function<RequestId(CellGraph graph, std::vector<Tensor> externals,
                          std::vector<ValueRef> outputs_wanted, SubmitOptions opts)>
      submit;
  std::function<Response(RequestId id)> wait;
};

// Identical submission code for every engine: submits all requests (the
// per-request SubmitOptions come from `opts_for`), then collects the
// terminal responses in submission order.
std::vector<Response> DriveEngine(const EngineAdapter& engine, const LstmModel& model,
                                  const std::vector<ChainRequest>& requests,
                                  int64_t hidden,
                                  const std::function<SubmitOptions(int)>& opts_for) {
  std::vector<RequestId> ids;
  for (size_t i = 0; i < requests.size(); ++i) {
    const ChainRequest& r = requests[i];
    ids.push_back(engine.submit(model.Unfold(r.length), MakeChainExternals(r.xs, hidden),
                                {ValueRef::Output(r.length - 1, 0)},
                                opts_for(static_cast<int>(i))));
  }
  std::vector<Response> responses;
  for (const RequestId id : ids) {
    responses.push_back(engine.wait(id));
  }
  return responses;
}

EngineAdapter AdaptServer(Server* server) {
  // Server: callback-based; the adapter parks each Response in a shared
  // promise map keyed by id.
  auto futures = std::make_shared<
      std::unordered_map<RequestId, std::future<Response>>>();
  EngineAdapter adapter;
  adapter.submit = [server, futures](CellGraph graph, std::vector<Tensor> externals,
                                     std::vector<ValueRef> outputs_wanted,
                                     SubmitOptions opts) {
    auto promise = std::make_shared<std::promise<Response>>();
    const RequestId id = server->Submit(
        std::move(graph), std::move(externals), std::move(outputs_wanted),
        [promise](RequestId, RequestStatus status, std::vector<Tensor> outputs) {
          promise->set_value(Response{status, std::move(outputs)});
        },
        opts);
    futures->emplace(id, promise->get_future());
    return id;
  };
  adapter.wait = [futures](RequestId id) { return futures->at(id).get(); };
  return adapter;
}

EngineAdapter AdaptSyncEngine(SyncEngine* engine) {
  EngineAdapter adapter;
  adapter.submit = [engine](CellGraph graph, std::vector<Tensor> externals,
                            std::vector<ValueRef> outputs_wanted, SubmitOptions opts) {
    return engine->Submit(std::move(graph), std::move(externals),
                          std::move(outputs_wanted), opts);
  };
  adapter.wait = [engine](RequestId id) {
    engine->RunToCompletion();  // idempotent once drained
    return engine->TakeResponse(id);
  };
  return adapter;
}

EngineAdapter AdaptSimEngine(SimEngine* engine) {
  // SimEngine computes no tensors (virtual time), so its adapter ignores
  // externals and synthesizes the Response status from the metrics
  // records — which is exactly what conformance means for it: the same
  // SubmitOptions are accepted and the request reaches completion.
  EngineAdapter adapter;
  adapter.submit = [engine](CellGraph graph, std::vector<Tensor> /*externals*/,
                            std::vector<ValueRef> /*outputs_wanted*/,
                            SubmitOptions opts) {
    return engine->SubmitAt(0.0, std::move(graph), opts);
  };
  adapter.wait = [engine](RequestId id) {
    engine->Run();
    for (const RequestRecord& r : engine->metrics().records()) {
      if (r.id == id) {
        return Response{RequestStatus::kOk, {}};
      }
    }
    return Response{RequestStatus::kFailed, {}};
  };
  return adapter;
}

CostModel UnitCostModel(const CellRegistry& registry) {
  CostModel model;
  for (CellTypeId t = 0; t < registry.NumTypes(); ++t) {
    model.SetCurve(t, UnitCostCurve());
  }
  return model;
}

TEST(ApiConformanceTest, IdenticalSubmissionCodeDrivesAllThreeEngines) {
  constexpr int64_t kHidden = 4;
  constexpr int kRequests = 8;
  const auto requests = MakeChainRequests(kRequests, kHidden, /*seed=*/61);
  const auto opts_for = [](int i) {
    return SubmitOptions{.priority = i % 2};  // exercised, must not perturb results
  };

  // SyncEngine: the serial reference.
  TinyLstmFixture sync_fix;
  SyncEngine sync(&sync_fix.registry);
  const EngineAdapter sync_adapter = AdaptSyncEngine(&sync);
  const auto sync_responses =
      DriveEngine(sync_adapter, sync_fix.model, requests, kHidden, opts_for);

  // Server: same DriveEngine call, bitwise-identical outputs expected.
  TinyLstmFixture srv_fix;
  ServerOptions srv_options;
  srv_options.num_workers = 2;
  Server server(&srv_fix.registry, srv_options);
  server.Start();
  const EngineAdapter srv_adapter = AdaptServer(&server);
  const auto srv_responses =
      DriveEngine(srv_adapter, srv_fix.model, requests, kHidden, opts_for);
  server.Shutdown();

  // SimEngine: same DriveEngine call in virtual time.
  TinyLstmFixture sim_fix;
  const CostModel cost = UnitCostModel(sim_fix.registry);
  SimEngine sim(&sim_fix.registry, &cost);
  const EngineAdapter sim_adapter = AdaptSimEngine(&sim);
  const auto sim_responses =
      DriveEngine(sim_adapter, sim_fix.model, requests, kHidden, opts_for);

  ASSERT_EQ(sync_responses.size(), static_cast<size_t>(kRequests));
  ASSERT_EQ(srv_responses.size(), static_cast<size_t>(kRequests));
  ASSERT_EQ(sim_responses.size(), static_cast<size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    const size_t idx = static_cast<size_t>(i);
    ASSERT_TRUE(sync_responses[idx].ok()) << "request " << i;
    ASSERT_TRUE(srv_responses[idx].ok()) << "request " << i;
    EXPECT_TRUE(sim_responses[idx].ok()) << "request " << i;
    ASSERT_EQ(srv_responses[idx].outputs.size(), sync_responses[idx].outputs.size());
    EXPECT_TRUE(srv_responses[idx].outputs[0].ElementsEqual(
        sync_responses[idx].outputs[0]))
        << "request " << i << ": server differs from sync reference";
  }
}

TEST(ApiConformanceTest, TerminateAfterNodeBehavesIdenticallyAcrossEngines) {
  // A chain of 6 with terminate_after_node = 2 and both the terminating
  // node's output and the (now cancelled) final node's output wanted: all
  // engines must cancel the tail, and the real-compute engines must return
  // exactly one tensor (the cancelled producer's output is skipped) with
  // identical bits.
  constexpr int64_t kHidden = 4;
  constexpr int kLength = 6;
  constexpr int kStop = 2;
  Rng data_rng(62);
  std::vector<Tensor> xs;
  for (int t = 0; t < kLength; ++t) {
    xs.push_back(Tensor::RandomUniform(Shape{1, kHidden}, 1.0f, &data_rng));
  }
  const std::vector<ValueRef> wanted = {ValueRef::Output(kStop, 0),
                                        ValueRef::Output(kLength - 1, 0)};
  const SubmitOptions opts{.terminate_after_node = kStop};

  TinyLstmFixture sync_fix;
  SyncEngine sync(&sync_fix.registry);
  const RequestId sync_id = sync.Submit(sync_fix.model.Unfold(kLength),
                                        MakeChainExternals(xs, kHidden), wanted, opts);
  sync.RunToCompletion();
  const Response sync_res = sync.TakeResponse(sync_id);
  ASSERT_TRUE(sync_res.ok());
  ASSERT_EQ(sync_res.outputs.size(), 1u);  // final node cancelled, skipped

  TinyLstmFixture srv_fix;
  Server server(&srv_fix.registry);
  server.Start();
  const Response srv_res = server.SubmitAndWait(
      srv_fix.model.Unfold(kLength), MakeChainExternals(xs, kHidden), wanted, opts);
  server.Shutdown();
  ASSERT_TRUE(srv_res.ok());
  ASSERT_EQ(srv_res.outputs.size(), 1u);
  EXPECT_TRUE(srv_res.outputs[0].ElementsEqual(sync_res.outputs[0]));

  TinyLstmFixture sim_fix;
  const CostModel cost = UnitCostModel(sim_fix.registry);
  SimEngine sim(&sim_fix.registry, &cost);
  sim.SubmitAt(0.0, sim_fix.model.Unfold(kLength), opts);
  sim.Run();
  ASSERT_EQ(sim.metrics().NumCompleted(), 1u);
  // The tail was cancelled: fewer tasks formed than chain steps.
  EXPECT_LT(sim.TotalTasksFormed(), kLength);
}

TEST(ApiConformanceTest, EngineOptionsCoreConfiguresServerAndSimAlike) {
  // One configuration function, written against the EngineOptions base,
  // applies to both derived option structs.
  const auto configure = [](EngineOptions& o) {
    o.num_workers = 2;
    o.num_shards = 2;
    o.enable_tracing = true;
    o.admission.queue_timeout_micros = 1e9;  // armed but never fires here
  };

  TinyLstmFixture srv_fix;
  ServerOptions srv_options;
  configure(srv_options);
  Server server(&srv_fix.registry, srv_options);
  server.Start();
  Rng data_rng(63);
  std::vector<Tensor> xs = {Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng)};
  const Response res = server.SubmitAndWait(
      srv_fix.model.Unfold(1), MakeChainExternals(xs, 4), {ValueRef::Output(0, 0)});
  server.Shutdown();
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(server.num_shards(), 2);
  EXPECT_TRUE(server.trace().enabled());

  TinyLstmFixture sim_fix;
  const CostModel cost = UnitCostModel(sim_fix.registry);
  SimEngineOptions sim_options;
  configure(sim_options);
  SimEngine sim(&sim_fix.registry, &cost, sim_options);
  sim.SubmitAt(0.0, sim_fix.model.Unfold(3));
  sim.Run();
  EXPECT_EQ(sim.metrics().NumCompleted(), 1u);
  EXPECT_EQ(sim.num_shards(), 2);
  EXPECT_TRUE(sim.trace().enabled());
}

TEST(ApiConformanceTest, NumShardsClampsToNumWorkers) {
  TinyLstmFixture fix;
  ServerOptions options;
  options.num_workers = 2;
  options.num_shards = 8;
  Server server(&fix.registry, options);
  EXPECT_EQ(server.num_shards(), 2);

  const CostModel cost = UnitCostModel(fix.registry);
  SimEngineOptions sim_options;
  sim_options.num_workers = 2;
  sim_options.num_shards = 8;
  SimEngine sim(&fix.registry, &cost, sim_options);
  EXPECT_EQ(sim.num_shards(), 2);
}

// ---- Device-backend matrix (EngineOptions::backend + DeviceRegistry) ----

TEST(ApiConformanceTest, BackendSelectionDrivesEnginesThroughOneCodePath) {
  // Identical submission code per engine; only EngineOptions::backend
  // varies. The cpu backend must stay bitwise-identical to the SyncEngine
  // reference, the null backend must complete the same requests with
  // zero-filled outputs of the right shapes, and SimEngine must complete
  // them in virtual time.
  constexpr int64_t kHidden = 4;
  constexpr int kRequests = 6;
  const auto requests = MakeChainRequests(kRequests, kHidden, /*seed=*/65);
  const auto opts_for = [](int) { return SubmitOptions{}; };

  TinyLstmFixture sync_fix;
  SyncEngine sync(&sync_fix.registry);
  const auto sync_responses = DriveEngine(AdaptSyncEngine(&sync), sync_fix.model,
                                          requests, kHidden, opts_for);

  for (const char* backend : {"cpu", "null"}) {
    SCOPED_TRACE(backend);
    TinyLstmFixture fix;
    ServerOptions options;
    options.backend = backend;
    options.num_workers = 2;
    options.num_shards = 2;
    Server server(&fix.registry, options);
    EXPECT_STREQ(server.device()->name(), backend);
    server.Start();
    const auto responses = DriveEngine(AdaptServer(&server), fix.model, requests,
                                       kHidden, opts_for);
    server.Shutdown();
    ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
    for (int i = 0; i < kRequests; ++i) {
      const size_t idx = static_cast<size_t>(i);
      ASSERT_TRUE(responses[idx].ok()) << "request " << i;
      ASSERT_EQ(responses[idx].outputs.size(), 1u);
      const Tensor& out = responses[idx].outputs[0];
      const Tensor& ref = sync_responses[idx].outputs[0];
      ASSERT_EQ(out.shape(), ref.shape());
      if (std::string(backend) == "cpu") {
        EXPECT_TRUE(out.ElementsEqual(ref))
            << "request " << i << ": cpu backend differs from sync reference";
      } else {
        // The null device executes nothing: every output element is zero.
        for (int64_t r = 0; r < out.shape().Dim(0); ++r) {
          for (int64_t c = 0; c < out.shape().Dim(1); ++c) {
            ASSERT_EQ(out.At(r, c), 0.0f)
                << "request " << i << " element (" << r << "," << c << ")";
          }
        }
      }
    }
  }

  TinyLstmFixture sim_fix;
  const CostModel cost = UnitCostModel(sim_fix.registry);
  SimEngine sim(&sim_fix.registry, &cost);
  const auto sim_responses = DriveEngine(AdaptSimEngine(&sim), sim_fix.model,
                                         requests, kHidden, opts_for);
  for (const Response& r : sim_responses) {
    EXPECT_TRUE(r.ok());
  }
}

}  // namespace
}  // namespace batchmaker
