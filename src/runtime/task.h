// BatchedTask: the unit of work submitted to a worker (paper §4.2/§4.3).
//
// A task batches the execution of one cell type across many cell-graph
// nodes, possibly from different requests. The runtime layer identifies
// nodes by (request id, node id) pairs and does not depend on the request
// machinery in src/core/: it only carries the engine's per-request state
// through, as an opaque pointer.

#ifndef SRC_RUNTIME_TASK_H_
#define SRC_RUNTIME_TASK_H_

#include <cstdint>
#include <vector>

#include "src/graph/cell_registry.h"

namespace batchmaker {

struct RequestState;  // src/core/request.h; carried through, never read here

using RequestId = uint64_t;
// Engines allocate request ids starting at 1; 0 marks "no request" (e.g. a
// Submit rejected because it raced a Shutdown).
inline constexpr RequestId kInvalidRequestId = 0;

struct TaskEntry {
  RequestId request = 0;
  int node = 0;  // cell-graph node id within the request
  // The request's state, recorded by the scheduler when it forms the task
  // (null in hand-built tasks). Valid until the entry completes: a request
  // with an entry in flight is never finalized.
  RequestState* state = nullptr;

  bool operator==(const TaskEntry& other) const {
    return request == other.request && node == other.node;
  }
};

struct BatchedTask {
  uint64_t id = 0;
  CellTypeId type = kInvalidCellType;
  std::vector<TaskEntry> entries;
  // Worker the task was submitted to; set at submission time.
  int worker = -1;
  // If >= 0, an explicit execution cost in microseconds that overrides the
  // cost model. Used by the graph-batching baselines, whose unit of
  // execution is a whole merged graph rather than one cell step.
  double explicit_cost_micros = -1.0;
  // Number of subgraphs in this task whose previous task ran on a
  // different worker: their state must be copied across devices before the
  // task runs (paper §4.3 locality discussion). The cost model charges
  // migration_penalty per migrated subgraph.
  int migrated_subgraphs = 0;

  int BatchSize() const { return static_cast<int>(entries.size()); }
};

}  // namespace batchmaker

#endif  // SRC_RUNTIME_TASK_H_
