// Server-level tests for NUMA-aware placement (DESIGN.md "NUMA-aware
// placement"), driven entirely through a checked-in fake 2-node sysfs tree
// (EngineOptions::numa_sysfs_root) so single-node CI hosts exercise the
// multi-node paths:
//   * worker -> node mapping and node-aligned shard boundaries;
//   * graceful pin degradation (a node whose cpus this host lacks reports
//     unpinned, and the server keeps serving);
//   * the bitwise contract — every policy produces outputs identical to
//     numa_policy = none and to the serial SyncEngine.

#include <gtest/gtest.h>

#ifdef __linux__
#include <sched.h>
#endif

#include <future>
#include <string>
#include <vector>

#include "src/core/server.h"
#include "src/core/sync_engine.h"
#include "src/nn/lstm.h"
#include "src/util/rng.h"
#include "src/util/topology.h"
#include "tests/test_models.h"

namespace batchmaker {
namespace {

std::string FakeSysfsRoot(const std::string& tree) {
  return std::string(BM_TESTDATA_DIR) + "/" + tree;
}

struct RequestSpec {
  int length;
  std::vector<Tensor> xs;
};

std::vector<RequestSpec> MakeRequests(int count, int64_t input_dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<RequestSpec> reqs;
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

// Runs `requests` through a Server under the given placement policy and
// returns each request's outputs (final h and c).
std::vector<std::vector<Tensor>> RunServer(const std::vector<RequestSpec>& requests,
                                           NumaPolicy policy, int workers,
                                           int shards) {
  TinyLstmFixture fix;
  constexpr int64_t kHidden = 4;
  ServerOptions options;
  options.num_workers = workers;
  options.num_shards = shards;
  options.numa_policy = policy;
  options.numa_sysfs_root = FakeSysfsRoot("sysfs_2node");
  Server server(&fix.registry, options);
  server.Start();

  const int count = static_cast<int>(requests.size());
  std::vector<std::promise<std::vector<Tensor>>> promises(requests.size());
  std::vector<std::future<std::vector<Tensor>>> futures;
  for (int i = 0; i < count; ++i) {
    futures.push_back(promises[static_cast<size_t>(i)].get_future());
  }
  for (int i = 0; i < count; ++i) {
    const RequestSpec& spec = requests[static_cast<size_t>(i)];
    auto* promise = &promises[static_cast<size_t>(i)];
    server.Submit(fix.model.Unfold(spec.length), ChainExternals(spec, kHidden),
                  {ValueRef::Output(spec.length - 1, 0),
                   ValueRef::Output(spec.length - 1, 1)},
                  [promise](RequestId, RequestStatus, std::vector<Tensor> outputs) {
                    promise->set_value(std::move(outputs));
                  });
  }
  std::vector<std::vector<Tensor>> outputs;
  for (int i = 0; i < count; ++i) {
    outputs.push_back(futures[static_cast<size_t>(i)].get());
  }
  server.Shutdown();
  return outputs;
}

TEST(NumaPlacementTest, WorkerNodeMappingFollowsFakeTopology) {
  TinyLstmFixture fix;
  ServerOptions options;
  options.num_workers = 4;
  options.num_shards = 2;
  options.numa_policy = NumaPolicy::kPin;
  options.numa_sysfs_root = FakeSysfsRoot("sysfs_2node");
  Server server(&fix.registry, options);
  server.Start();

  EXPECT_EQ(server.NumaNodes(), 2);
  EXPECT_EQ(server.topology().nodes.size(), 2u);
  EXPECT_TRUE(server.topology().from_sysfs);
  // 4 workers over 2 nodes: the first half on node index 0, the rest on 1.
  EXPECT_EQ(server.WorkerNode(0), 0);
  EXPECT_EQ(server.WorkerNode(1), 0);
  EXPECT_EQ(server.WorkerNode(2), 1);
  EXPECT_EQ(server.WorkerNode(3), 1);

  // The fake tree claims cpus this host may not have; pinning must degrade
  // per worker without disabling the server. A worker may only report
  // pinned when its node's cpu set intersects this process's allowed set.
#ifdef __linux__
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  for (int w = 0; w < 4; ++w) {
    bool node_reachable = false;
    const NumaNode& node =
        server.topology().nodes[static_cast<size_t>(server.WorkerNode(w))];
    for (const int cpu : node.cpus) {
      if (cpu < CPU_SETSIZE && CPU_ISSET(cpu, &allowed)) {
        node_reachable = true;
        break;
      }
    }
    if (!node_reachable) {
      EXPECT_FALSE(server.WorkerPinnedOk(w)) << "worker " << w;
    }
  }
#endif
  EXPECT_GE(server.NumPinnedWorkers(), 0);
  EXPECT_LE(server.NumPinnedWorkers(), 4);

  // The degraded server still serves correctly.
  Rng data_rng(9);
  std::vector<Tensor> xs;
  for (int t = 0; t < 3; ++t) {
    xs.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng));
  }
  std::vector<Tensor> ext = xs;
  ext.push_back(ExternalZeroVecTensor(4));
  ext.push_back(ExternalZeroVecTensor(4));
  const Response res =
      server.SubmitAndWait(fix.model.Unfold(3), std::move(ext), {ValueRef::Output(2, 0)});
  EXPECT_TRUE(res.ok());
  server.Shutdown();
}

TEST(NumaPlacementTest, PolicyNoneReportsSingleNodeView) {
  TinyLstmFixture fix;
  ServerOptions options;
  options.num_workers = 2;
  options.numa_policy = NumaPolicy::kNone;
  options.numa_sysfs_root = FakeSysfsRoot("sysfs_2node");
  Server server(&fix.registry, options);
  server.Start();
  // none = no discovery at all: the fake tree must not even be read.
  EXPECT_EQ(server.NumaNodes(), 1);
  EXPECT_EQ(server.WorkerNode(0), -1);
  EXPECT_EQ(server.WorkerNode(1), -1);
  EXPECT_EQ(server.NumPinnedWorkers(), 0);
  EXPECT_EQ(server.CrossNodeSteals(), 0);
  EXPECT_EQ(server.RemoteGatherBytes(), 0);
  server.Shutdown();
}

TEST(NumaPlacementTest, AllPoliciesBitwiseIdenticalToSyncEngine) {
  constexpr int kRequests = 16;
  constexpr int64_t kHidden = 4;
  const auto requests = MakeRequests(kRequests, /*input_dim=*/4, /*seed=*/55);

  // Serial reference.
  TinyLstmFixture ref_fix;
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

  for (const NumaPolicy policy : {NumaPolicy::kNone, NumaPolicy::kPin}) {
    const auto outputs = RunServer(requests, policy, /*workers=*/4, /*shards=*/2);
    ASSERT_EQ(outputs.size(), static_cast<size_t>(kRequests));
    for (int i = 0; i < kRequests; ++i) {
      const auto& got = outputs[static_cast<size_t>(i)];
      const auto& want = ref_outputs[static_cast<size_t>(i)];
      ASSERT_EQ(got.size(), want.size()) << NumaPolicyName(policy);
      for (size_t j = 0; j < got.size(); ++j) {
        EXPECT_TRUE(got[j].ElementsEqual(want[j]))
            << "policy " << NumaPolicyName(policy) << " request " << i
            << " output " << j << " differs bitwise";
      }
    }
  }
}

}  // namespace
}  // namespace batchmaker
