// Tests for NUMA topology discovery and placement helpers (src/util/
// topology.h) against checked-in fake sysfs trees (tests/testdata/sysfs_*),
// so a single-node CI host still exercises every multi-node code path.

#include "src/util/topology.h"

#include <gtest/gtest.h>

#ifdef __linux__
#include <sched.h>
#endif

#include <string>
#include <thread>
#include <vector>

namespace batchmaker {
namespace {

std::string TestDataPath(const std::string& tree) {
  return std::string(BM_TESTDATA_DIR) + "/" + tree;
}

TEST(ParseCpuListTest, RangesSinglesAndMixed) {
  EXPECT_EQ(ParseCpuList("0-3"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ParseCpuList("5"), (std::vector<int>{5}));
  EXPECT_EQ(ParseCpuList("0-3,8,10-11"), (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
}

TEST(ParseCpuListTest, WhitespaceAndNewlines) {
  EXPECT_EQ(ParseCpuList(" 0-1 , 4 \n"), (std::vector<int>{0, 1, 4}));
}

TEST(ParseCpuListTest, EmptyAndMalformed) {
  EXPECT_TRUE(ParseCpuList("").empty());
  EXPECT_TRUE(ParseCpuList("\n").empty());
  // Malformed components are skipped, not fatal.
  EXPECT_EQ(ParseCpuList("0,x,2"), (std::vector<int>{0, 2}));
  EXPECT_EQ(ParseCpuList("3-1,5"), (std::vector<int>{5}));
}

TEST(ParseCpuListTest, DeduplicatesOverlaps) {
  EXPECT_EQ(ParseCpuList("0-2,1-3"), (std::vector<int>{0, 1, 2, 3}));
}

TEST(NumaPolicyTest, NamesRoundTrip) {
  for (const NumaPolicy policy : {NumaPolicy::kNone, NumaPolicy::kPin}) {
    NumaPolicy parsed;
    ASSERT_TRUE(ParseNumaPolicy(NumaPolicyName(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
  NumaPolicy parsed;
  EXPECT_FALSE(ParseNumaPolicy("interleave", &parsed));
  EXPECT_FALSE(ParseNumaPolicy("", &parsed));
}

TEST(DiscoverTopologyTest, SingleNodeTree) {
  const Topology topo = DiscoverTopology(TestDataPath("sysfs_1node"));
  EXPECT_TRUE(topo.from_sysfs);
  ASSERT_EQ(topo.nodes.size(), 1u);
  EXPECT_EQ(topo.nodes[0].id, 0);
  EXPECT_EQ(topo.nodes[0].cpus, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(topo.num_cpus, 4);
}

TEST(DiscoverTopologyTest, TwoNodeTree) {
  const Topology topo = DiscoverTopology(TestDataPath("sysfs_2node"));
  EXPECT_TRUE(topo.from_sysfs);
  ASSERT_EQ(topo.nodes.size(), 2u);
  EXPECT_EQ(topo.nodes[0].id, 0);
  EXPECT_EQ(topo.nodes[0].cpus, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(topo.nodes[1].id, 1);
  EXPECT_EQ(topo.nodes[1].cpus, (std::vector<int>{8, 9, 10, 11, 12, 13, 14, 15}));
  EXPECT_EQ(topo.num_cpus, 16);
}

TEST(DiscoverTopologyTest, SparseTreeDropsMemoryOnlyNodeAndOfflineCpus) {
  // online nodes: 0, 2, 3. node2 has no cpus (memory-only) -> dropped.
  // node3's cpulist is 8-11,24-27 but only 8-9,24-27 are online.
  const Topology topo = DiscoverTopology(TestDataPath("sysfs_sparse"));
  EXPECT_TRUE(topo.from_sysfs);
  ASSERT_EQ(topo.nodes.size(), 2u);
  EXPECT_EQ(topo.nodes[0].id, 0);
  EXPECT_EQ(topo.nodes[0].cpus, (std::vector<int>{0, 1, 2, 3, 16, 17, 18, 19}));
  EXPECT_EQ(topo.nodes[1].id, 3);
  EXPECT_EQ(topo.nodes[1].cpus, (std::vector<int>{8, 9, 24, 25, 26, 27}));
  EXPECT_EQ(topo.num_cpus, 14);
}

TEST(DiscoverTopologyTest, MissingRootFallsBackToSingleNode) {
  const Topology topo = DiscoverTopology(TestDataPath("sysfs_does_not_exist"));
  EXPECT_FALSE(topo.from_sysfs);
  ASSERT_EQ(topo.nodes.size(), 1u);
  EXPECT_EQ(topo.nodes[0].id, 0);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  EXPECT_EQ(topo.num_cpus, std::max(hw, 1));
  EXPECT_EQ(static_cast<int>(topo.nodes[0].cpus.size()), topo.num_cpus);
}

TEST(AssignWorkerNodesTest, ProportionalContiguous) {
  EXPECT_EQ(AssignWorkerNodes(4, 1), (std::vector<int>{0, 0, 0, 0}));
  EXPECT_EQ(AssignWorkerNodes(4, 2), (std::vector<int>{0, 0, 1, 1}));
  EXPECT_EQ(AssignWorkerNodes(3, 2), (std::vector<int>{0, 0, 1}));
  EXPECT_EQ(AssignWorkerNodes(6, 3), (std::vector<int>{0, 0, 1, 1, 2, 2}));
  // Fewer workers than nodes: distinct nodes, spread out.
  EXPECT_EQ(AssignWorkerNodes(2, 4), (std::vector<int>{0, 2}));
}

TEST(PartitionWorkersByNodeTest, AlignsShardCutsWithNodeBoundaries) {
  // 4 workers on 2 nodes, 2 shards: proportional cut already node-aligned.
  EXPECT_EQ(PartitionWorkersByNode(4, 2, {0, 0, 1, 1}),
            (std::vector<int>{0, 2, 4}));
  // 6 workers with an uneven 4/2 node split: the proportional cut (3)
  // snaps to the node boundary at 4.
  EXPECT_EQ(PartitionWorkersByNode(6, 2, {0, 0, 0, 0, 1, 1}),
            (std::vector<int>{0, 4, 6}));
}

TEST(PartitionWorkersByNodeTest, SingleNodeMatchesProportionalSplit) {
  // One node offers no boundary to snap to; cuts must equal the legacy
  // proportional formula s*W/S (the numa_policy=none bitwise contract).
  const std::vector<int> bounds = PartitionWorkersByNode(5, 2, {0, 0, 0, 0, 0});
  EXPECT_EQ(bounds, (std::vector<int>{0, 2, 5}));
  const std::vector<int> bounds3 = PartitionWorkersByNode(7, 3, {0, 0, 0, 0, 0, 0, 0});
  EXPECT_EQ(bounds3, (std::vector<int>{0, 2, 4, 7}));
}

TEST(PartitionWorkersByNodeTest, MoreShardsThanNodesKeepsShardsNonEmpty) {
  const std::vector<int> bounds = PartitionWorkersByNode(4, 4, {0, 0, 1, 1});
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), 4);
  for (size_t s = 1; s < bounds.size(); ++s) {
    EXPECT_GT(bounds[s], bounds[s - 1]);  // every shard non-empty
  }
}

#ifdef __linux__
TEST(PinCurrentThreadTest, PinsToAllowedCpuAndReportsMask) {
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  int first_allowed = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original)) {
      first_allowed = cpu;
      break;
    }
  }
  ASSERT_GE(first_allowed, 0);

  EXPECT_TRUE(PinCurrentThreadToCpus({first_allowed}));
  cpu_set_t now;
  CPU_ZERO(&now);
  ASSERT_EQ(sched_getaffinity(0, sizeof(now), &now), 0);
  EXPECT_EQ(CPU_COUNT(&now), 1);
  EXPECT_TRUE(CPU_ISSET(first_allowed, &now));

  // Restore so later tests in this binary run unrestricted.
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
}

TEST(PinCurrentThreadTest, DisjointOrEmptySetLeavesThreadUnchanged) {
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);

  // Empty request and a cpu far outside any real machine's allowed set:
  // both must refuse without touching the mask (graceful taskset/cgroup
  // degradation — placement is a hint, not a requirement).
  EXPECT_FALSE(PinCurrentThreadToCpus({}));
  EXPECT_FALSE(PinCurrentThreadToCpus({CPU_SETSIZE - 1}));

  cpu_set_t now;
  CPU_ZERO(&now);
  ASSERT_EQ(sched_getaffinity(0, sizeof(now), &now), 0);
  EXPECT_TRUE(CPU_EQUAL(&original, &now));
}
#endif  // __linux__

TEST(SetCurrentThreadNameTest, LongNamesTruncateWithoutError) {
  // 15-char kernel limit: must not abort or corrupt the thread.
  SetCurrentThreadName("worker/123456789-stager-overlong");
  SetCurrentThreadName("");
  SetCurrentThreadName("manager/0");
}

}  // namespace
}  // namespace batchmaker
