// CellGraph: the unfolded, coarse-grained dataflow graph of one request
// (paper §3.1: "each node represents a cell and each edge depicts the
// direction in which data flows from one cell to another").
//
// A node's inputs are ValueRefs: either an output of an earlier node in the
// same graph, or an external input tensor supplied with the request (e.g.
// the word at one sequence position, or the initial hidden state). The
// graph is a DAG by construction: nodes may only reference earlier nodes.

#ifndef SRC_GRAPH_CELL_GRAPH_H_
#define SRC_GRAPH_CELL_GRAPH_H_

#include <string>
#include <vector>

#include "src/graph/cell_registry.h"
#include "src/tensor/tensor.h"

namespace batchmaker {

// A reference to one value consumed by a cell node.
struct ValueRef {
  // Output `output` of graph node `node`, or external input `external`.
  // Exactly one of node/external is >= 0.
  int node = -1;
  int output = 0;
  int external = -1;

  static ValueRef Output(int node, int output = 0) { return ValueRef{node, output, -1}; }
  static ValueRef External(int index) { return ValueRef{-1, 0, index}; }

  bool is_external() const { return external >= 0; }
};

struct CellNode {
  CellTypeId type = kInvalidCellType;
  std::vector<ValueRef> inputs;
};

class CellGraph {
 public:
  CellGraph() = default;

  // Appends a node; `inputs` node references must be < the new node's id.
  int AddNode(CellTypeId type, std::vector<ValueRef> inputs);

  int NumNodes() const { return static_cast<int>(nodes_.size()); }
  const CellNode& node(int id) const;

  // Ids of nodes that consume at least one output of `id`.
  const std::vector<int>& Successors(int id) const;
  // Number of distinct predecessor *nodes* of `id` (external inputs do not
  // count).
  int NumNodePredecessors(int id) const;

  // Checks the graph against a registry: valid type ids, per-node input
  // arity matching the cell definition, matching value dtypes/shapes along
  // node-to-node edges, and external input indices within
  // [0, num_externals). Aborts on violation.
  void Validate(const CellRegistry& registry, int num_externals) const;

  // Non-aborting check of a submission, for untrusted input: everything
  // Validate checks, plus that every external a node consumes is a
  // [1, row...] tensor of the input slot's row shape and dtype. Returns an
  // empty string if the submission is valid, otherwise a description of
  // the first violation. The engines run it once per submission — the
  // server rejects a malformed request (kRejected) instead of taking the
  // whole process down — and trust the graph from then on.
  std::string ValidateOrError(const CellRegistry& registry,
                              const std::vector<Tensor>& externals) const;

  // Largest external index referenced + 1, or 0 if none.
  int NumExternalsReferenced() const;

  std::string DebugString(const CellRegistry& registry) const;

 private:
  // Shared body of the checks; `externals` null checks indices only.
  std::string FirstViolation(const CellRegistry& registry, int num_externals,
                             const std::vector<Tensor>* externals) const;

  std::vector<CellNode> nodes_;
  std::vector<std::vector<int>> successors_;
  std::vector<int> num_node_preds_;
};

}  // namespace batchmaker

#endif  // SRC_GRAPH_CELL_GRAPH_H_
