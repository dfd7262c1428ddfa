// The benchmark's workloads, the requests they send and the serving stack
// each round builds. NOTES.md records why each workload exists.

#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/server.h"
#include "src/graph/cell_graph.h"
#include "src/graph/cell_registry.h"
#include "src/nn/lstm.h"
#include "src/tensor/tensor.h"

namespace servebench {

struct WorkloadSpec {
  std::string name;
  std::string backend;  // builtin device backend: "cpu" or "null"
  int64_t hidden = 0;   // chain LSTM width
  int max_len = 0;      // WMT-like lengths capped here
  int fixed_len = 0;    // every request this long instead
  // Closed loop: outstanding-request slots the generator keeps full, and
  // the requests one round sends.
  int clients = 0;
  int round_requests = 0;
};

// The workload named `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);
std::string WorkloadNames();

// One generated request: what the generator copies into each Submit.
struct RequestTemplate {
  batchmaker::CellGraph graph;
  std::vector<batchmaker::Tensor> externals;
  batchmaker::ValueRef output;
  int cells = 0;
};

// Cell registry plus the workload's model: weights, finalized cell
// definitions and executors with pre-packed weights.
class Models {
 public:
  explicit Models(const WorkloadSpec& spec);
  Models(const Models&) = delete;
  Models& operator=(const Models&) = delete;

  batchmaker::CellRegistry& registry() { return registry_; }
  const batchmaker::CellRegistry& registry() const { return registry_; }
  // `count` requests drawn from `seed`.
  std::vector<RequestTemplate> MakeTemplates(int count, uint64_t seed) const;

 private:
  const WorkloadSpec& spec_;
  batchmaker::CellRegistry registry_;
  std::unique_ptr<batchmaker::LstmModel> lstm_;
};

// The serving stack of one round: models plus a Server with one worker,
// pipeline depth 2 and one shard on device backend `backend`. Not started.
struct Stack {
  Stack(const WorkloadSpec& spec, const std::string& backend);

  Models models;
  batchmaker::Server server;
};

// Number of `outputs` that differ bitwise from what SyncEngine computes
// for the same requests on `registry`. Without real compute (the null
// device) outputs carry no values, so only their shape is checked: one
// [1, hidden] f32 tensor.
int CountMismatches(bool real_compute, int64_t hidden,
                    const batchmaker::CellRegistry& registry,
                    const std::vector<const RequestTemplate*>& requests,
                    const std::vector<const std::vector<batchmaker::Tensor>*>& outputs);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
