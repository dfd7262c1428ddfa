// CellGraph: the unfolded, coarse-grained dataflow graph of one request
// (paper §3.1: "each node represents a cell and each edge depicts the
// direction in which data flows from one cell to another").
//
// A node's inputs are ValueRefs: either an output of an earlier node in the
// same graph, or an external input tensor supplied with the request (e.g.
// the word at one sequence position, or the initial hidden state). The
// graph is a DAG by construction: nodes may only reference earlier nodes.
//
// Every node's inputs live in one flat array, in node order, so a graph is
// two heap blocks whatever its length: copying one (as a client does per
// request) costs two allocations, and so does freeing it.

#ifndef SRC_GRAPH_CELL_GRAPH_H_
#define SRC_GRAPH_CELL_GRAPH_H_

#include <span>
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

class CellGraph {
 public:
  CellGraph() = default;

  // Appends a node; `inputs` node references must be < the new node's id.
  int AddNode(CellTypeId type, const std::vector<ValueRef>& inputs);

  int NumNodes() const { return static_cast<int>(nodes_.size()); }
  CellTypeId NodeType(int id) const { return At(id).type; }
  // The node's inputs, in the cell's input-slot order.
  std::span<const ValueRef> NodeInputs(int id) const {
    const Node& n = At(id);
    return {inputs_.data() + n.input_begin, static_cast<size_t>(n.num_inputs)};
  }

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

  struct Node {
    CellTypeId type = kInvalidCellType;
    int input_begin = 0;  // index of the node's first input in inputs_
    int num_inputs = 0;
  };
  const Node& At(int id) const;

  std::vector<Node> nodes_;
  std::vector<ValueRef> inputs_;  // every node's inputs, back to back
};

}  // namespace batchmaker

#endif  // SRC_GRAPH_CELL_GRAPH_H_
