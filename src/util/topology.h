// NUMA topology discovery and thread-placement helpers.
//
// The serving layer's hot path (gather -> execute -> scatter) is memory
// bound, so on multi-socket hosts it matters which node a worker's threads,
// staging arenas and weight panels live on. This header is the dependency-
// free locality layer underneath EngineOptions::numa_policy (DESIGN.md
// "NUMA-aware placement"):
//   * DiscoverTopology parses /sys/devices/system/{node,cpu} (any sysfs
//     root is injectable, so tests run against checked-in fake trees) and
//     degrades to a synthesized single-node view when sysfs is absent;
//   * AssignWorkerNodes / PartitionWorkersByNode compute the worker->node
//     map and node-aligned shard boundaries as pure functions, testable
//     without threads;
//   * PinCurrentThreadToCpus / SetCurrentThreadName wrap the Linux
//     affinity and naming calls, each a graceful no-op elsewhere.
//
// Everything here is best-effort: a pin that cannot be honoured (non-Linux,
// or a taskset/cgroup cpuset disjoint from the node's cpus) reports false
// and leaves the thread where it was — placement is a performance hint,
// never a correctness requirement.

#ifndef SRC_UTIL_TOPOLOGY_H_
#define SRC_UTIL_TOPOLOGY_H_

#include <string>
#include <vector>

namespace batchmaker {

// Placement policy for the threaded Server (EngineOptions::numa_policy).
enum class NumaPolicy {
  // No discovery, no pinning: bitwise-identical to the pre-NUMA server.
  kNone = 0,
  // Pin each worker's exec thread (and its intra-task pool) to one node,
  // first-touch its staging and scratch arenas there, and align shard
  // boundaries with node boundaries.
  kPin,
};

const char* NumaPolicyName(NumaPolicy policy);
// Accepts "none" and "pin". Returns false on anything else.
bool ParseNumaPolicy(const std::string& text, NumaPolicy* out);

// One NUMA node with at least one usable cpu. Memory-only nodes (no online
// cpus) are dropped at discovery: nothing can be pinned to them.
struct NumaNode {
  int id = 0;              // kernel node id (nodeN); may be sparse
  std::vector<int> cpus;   // online cpus local to this node, ascending
};

struct Topology {
  std::vector<NumaNode> nodes;  // ascending by id; never empty
  int num_cpus = 0;             // total online cpus across all nodes
  // True when the view came from sysfs; false for the synthesized
  // single-node fallback (non-Linux, missing/unreadable sysfs root).
  bool from_sysfs = false;
};

// Parses the kernel cpulist format ("0-3,8,10-11") into an ascending,
// deduplicated cpu vector. Whitespace/newlines are ignored; malformed
// components are skipped rather than fatal (sysfs is trusted but the
// fallback must never crash the server).
std::vector<int> ParseCpuList(const std::string& text);

// Discovers nodes and their online cpus under <sysfs_root>/devices/system.
// Pass a fake root for tests. Any failure (missing files, no cpus) yields
// the single-node fallback: node 0 with cpus [0, hardware_concurrency).
Topology DiscoverTopology(const std::string& sysfs_root = "/sys");

// worker -> node *index* (into Topology::nodes), contiguous and
// proportional: worker w of W maps to node w*N/W. With W >= N each node
// gets a contiguous block of floor/ceil(W/N) workers; with W < N workers
// spread across distinct nodes.
std::vector<int> AssignWorkerNodes(int num_workers, int num_nodes);

// Shard boundaries aligned with node boundaries: returns num_shards + 1
// ascending cut points (front 0, back num_workers); shard s owns workers
// [b[s], b[s+1]). Starting from the proportional cut s*W/S, each interior
// boundary snaps to the nearest position where worker_node changes, when
// one exists that keeps every shard non-empty — so a shard's workers share
// a node whenever shards don't outnumber nodes, and cross-node traffic is
// confined to explicit steals. worker_node must be size num_workers and
// non-decreasing (as produced by AssignWorkerNodes).
std::vector<int> PartitionWorkersByNode(int num_workers, int num_shards,
                                        const std::vector<int>& worker_node);

// Pins the calling thread to the intersection of `cpus` with the thread's
// currently allowed set (so a taskset/cgroup restriction is respected, not
// fought). Returns true iff the affinity mask was installed; false (thread
// unchanged) when the intersection is empty, the syscall fails, or the
// platform has no pthread_setaffinity_np.
bool PinCurrentThreadToCpus(const std::vector<int>& cpus);

// Names the calling thread for perf/traces via pthread_setname_np,
// truncating to the kernel's 15-character limit. No-op off Linux.
void SetCurrentThreadName(const std::string& name);

}  // namespace batchmaker

#endif  // SRC_UTIL_TOPOLOGY_H_
