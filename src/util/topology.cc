#include "src/util/topology.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace batchmaker {

const char* NumaPolicyName(NumaPolicy policy) {
  switch (policy) {
    case NumaPolicy::kNone: return "none";
    case NumaPolicy::kPin: return "pin";
  }
  return "unknown";
}

bool ParseNumaPolicy(const std::string& text, NumaPolicy* out) {
  if (text == "none") {
    *out = NumaPolicy::kNone;
  } else if (text == "pin") {
    *out = NumaPolicy::kPin;
  } else {
    return false;
  }
  return true;
}

std::vector<int> ParseCpuList(const std::string& text) {
  std::set<int> cpus;
  std::string component;
  std::stringstream stream(text);
  while (std::getline(stream, component, ',')) {
    // Strip whitespace (the sysfs files end in '\n').
    component.erase(std::remove_if(component.begin(), component.end(),
                                   [](unsigned char c) { return std::isspace(c); }),
                    component.end());
    if (component.empty()) {
      continue;
    }
    const size_t dash = component.find('-');
    char* end = nullptr;
    if (dash == std::string::npos) {
      const long value = std::strtol(component.c_str(), &end, 10);
      if (end != component.c_str() && *end == '\0' && value >= 0) {
        cpus.insert(static_cast<int>(value));
      }
      continue;
    }
    const std::string lo_text = component.substr(0, dash);
    const std::string hi_text = component.substr(dash + 1);
    const long lo = std::strtol(lo_text.c_str(), &end, 10);
    if (end == lo_text.c_str() || *end != '\0') {
      continue;
    }
    const long hi = std::strtol(hi_text.c_str(), &end, 10);
    if (end == hi_text.c_str() || *end != '\0') {
      continue;
    }
    for (long cpu = std::max(0L, lo); cpu <= hi; ++cpu) {
      cpus.insert(static_cast<int>(cpu));
    }
  }
  return std::vector<int>(cpus.begin(), cpus.end());
}

namespace {

bool ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

Topology FallbackTopology() {
  Topology topo;
  int cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (cpus <= 0) {
    cpus = 1;
  }
  NumaNode node;
  node.id = 0;
  node.cpus.reserve(static_cast<size_t>(cpus));
  for (int cpu = 0; cpu < cpus; ++cpu) {
    node.cpus.push_back(cpu);
  }
  topo.num_cpus = cpus;
  topo.nodes.push_back(std::move(node));
  topo.from_sysfs = false;
  return topo;
}

}  // namespace

Topology DiscoverTopology(const std::string& sysfs_root) {
  const std::string system = sysfs_root + "/devices/system";
  std::string node_online;
  if (!ReadFileToString(system + "/node/online", &node_online)) {
    return FallbackTopology();
  }
  const std::vector<int> node_ids = ParseCpuList(node_online);
  if (node_ids.empty()) {
    return FallbackTopology();
  }

  // The cpu/online mask filters per-node cpulists (which may include
  // offlined cpus). A missing mask means "trust the cpulists".
  std::set<int> online_cpus;
  bool have_online_mask = false;
  std::string cpu_online;
  if (ReadFileToString(system + "/cpu/online", &cpu_online)) {
    const std::vector<int> parsed = ParseCpuList(cpu_online);
    online_cpus.insert(parsed.begin(), parsed.end());
    have_online_mask = !parsed.empty();
  }

  Topology topo;
  topo.from_sysfs = true;
  for (const int id : node_ids) {
    std::string cpulist;
    if (!ReadFileToString(system + "/node/node" + std::to_string(id) + "/cpulist",
                          &cpulist)) {
      continue;
    }
    NumaNode node;
    node.id = id;
    for (const int cpu : ParseCpuList(cpulist)) {
      if (!have_online_mask || online_cpus.count(cpu) != 0) {
        node.cpus.push_back(cpu);
      }
    }
    if (node.cpus.empty()) {
      continue;  // memory-only (or fully offlined) node: nothing to pin to
    }
    topo.num_cpus += static_cast<int>(node.cpus.size());
    topo.nodes.push_back(std::move(node));
  }
  if (topo.nodes.empty()) {
    return FallbackTopology();
  }
  return topo;
}

std::vector<int> AssignWorkerNodes(int num_workers, int num_nodes) {
  std::vector<int> worker_node(static_cast<size_t>(std::max(0, num_workers)), 0);
  if (num_nodes <= 1) {
    return worker_node;
  }
  for (int w = 0; w < num_workers; ++w) {
    worker_node[static_cast<size_t>(w)] = static_cast<int>(
        static_cast<int64_t>(w) * num_nodes / num_workers);
  }
  return worker_node;
}

std::vector<int> PartitionWorkersByNode(int num_workers, int num_shards,
                                        const std::vector<int>& worker_node) {
  std::vector<int> bounds(static_cast<size_t>(num_shards) + 1, 0);
  bounds.back() = num_workers;
  // Positions where the node changes — the only cuts that keep every
  // shard's workers on one node.
  std::vector<int> node_cuts;
  for (int w = 1; w < num_workers && w < static_cast<int>(worker_node.size()); ++w) {
    if (worker_node[static_cast<size_t>(w)] != worker_node[static_cast<size_t>(w - 1)]) {
      node_cuts.push_back(w);
    }
  }
  for (int s = 1; s < num_shards; ++s) {
    const int prev = bounds[static_cast<size_t>(s - 1)];
    // Later shards each still need at least one worker.
    const int max_cut = num_workers - (num_shards - s);
    const int ideal = static_cast<int>(
        static_cast<int64_t>(s) * num_workers / num_shards);
    int best = -1;
    for (const int cut : node_cuts) {
      if (cut <= prev || cut > max_cut) {
        continue;
      }
      if (best < 0 || std::abs(cut - ideal) < std::abs(best - ideal)) {
        best = cut;
      }
    }
    if (best < 0) {
      // No usable node boundary (more shards than nodes, or exhausted):
      // fall back to the proportional cut, clamped to keep shards non-empty.
      best = std::min(std::max(ideal, prev + 1), max_cut);
    }
    bounds[static_cast<size_t>(s)] = best;
  }
  return bounds;
}

bool PinCurrentThreadToCpus(const std::vector<int>& cpus) {
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return false;
  }
  cpu_set_t want;
  CPU_ZERO(&want);
  int usable = 0;
  for (const int cpu : cpus) {
    if (cpu >= 0 && cpu < CPU_SETSIZE && CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &want);
      ++usable;
    }
  }
  if (usable == 0) {
    return false;  // e.g. taskset excluded this node; leave the thread free
  }
  return pthread_setaffinity_np(pthread_self(), sizeof(want), &want) == 0;
#else
  (void)cpus;
  return false;
#endif
}

void SetCurrentThreadName(const std::string& name) {
#if defined(__linux__)
  // The kernel limit is 15 chars + NUL; longer names make the call fail
  // outright, so truncate instead.
  pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
#else
  (void)name;
#endif
}

}  // namespace batchmaker
