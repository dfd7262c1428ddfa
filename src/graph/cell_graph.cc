#include "src/graph/cell_graph.h"

#include <algorithm>
#include <sstream>

#include "src/util/logging.h"

namespace batchmaker {

int CellGraph::AddNode(CellTypeId type, const std::vector<ValueRef>& inputs) {
  const int id = NumNodes();
  for (const ValueRef& ref : inputs) {
    if (ref.is_external()) {
      BM_CHECK_GE(ref.external, 0);
    } else {
      BM_CHECK_GE(ref.node, 0);
      BM_CHECK_LT(ref.node, id) << "cell graph nodes must reference earlier nodes";
    }
  }
  nodes_.push_back(Node{type, static_cast<int>(inputs_.size()), static_cast<int>(inputs.size())});
  inputs_.insert(inputs_.end(), inputs.begin(), inputs.end());
  return id;
}

const CellGraph::Node& CellGraph::At(int id) const {
  BM_CHECK_GE(id, 0);
  BM_CHECK_LT(id, NumNodes());
  return nodes_[static_cast<size_t>(id)];
}

namespace {

// Builds a violation message; only reached once a check has failed, so a
// valid graph never constructs a stream.
template <typename... Parts>
std::string Describe(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

}  // namespace

void CellGraph::Validate(const CellRegistry& registry, int num_externals) const {
  const std::string err = FirstViolation(registry, num_externals, nullptr);
  BM_CHECK(err.empty()) << err;
}

std::string CellGraph::ValidateOrError(const CellRegistry& registry,
                                       const std::vector<Tensor>& externals) const {
  return FirstViolation(registry, static_cast<int>(externals.size()), &externals);
}

std::string CellGraph::FirstViolation(const CellRegistry& registry, int num_externals,
                                      const std::vector<Tensor>* externals) const {
  // The input each external feeds. The tensors are checked after the graph,
  // in one pass: a submission's externals are usually cold in cache, and
  // independent checks in a tight loop overlap their misses.
  std::vector<const CellInputSpec*> feeds(externals != nullptr ? externals->size() : 0, nullptr);
  for (int id = 0; id < NumNodes(); ++id) {
    const CellTypeId type = NodeType(id);
    const std::span<const ValueRef> inputs = NodeInputs(id);
    if (type < 0 || type >= registry.NumTypes()) {
      return Describe("unknown cell type ", type, " in node ", id);
    }
    const CellDef& def = registry.def(type);
    if (static_cast<int>(inputs.size()) != def.NumInputs()) {
      return Describe("node ", id, " input arity mismatch for cell '", def.name(), "': got ",
                      inputs.size(), ", expected ", def.NumInputs());
    }
    for (int i = 0; i < static_cast<int>(inputs.size()); ++i) {
      const ValueRef& ref = inputs[static_cast<size_t>(i)];
      const CellInputSpec& spec = def.input_spec(i);
      if (ref.is_external()) {
        if (ref.external >= num_externals) {
          return Describe("node ", id, " references external input ", ref.external,
                          " but only ", num_externals, " are provided");
        }
        if (externals != nullptr) {
          const CellInputSpec*& feed = feeds[static_cast<size_t>(ref.external)];
          if (feed == nullptr) {
            feed = &spec;
          } else if (!(feed->row_shape == spec.row_shape && feed->dtype == spec.dtype)) {
            return Describe("external input ", ref.external, " feeds inputs of different types");
          }
        }
        continue;
      }
      // AddNode already enforces 0 <= ref.node < id for graphs built through
      // the API, but a submission check must not trust the invariant.
      if (ref.node < 0 || ref.node >= id) {
        return Describe("node ", id, " references invalid node ", ref.node);
      }
      const CellDef& producer_def = registry.def(NodeType(ref.node));
      if (ref.output < 0 || ref.output >= producer_def.NumOutputs()) {
        return Describe("node ", id, " references missing output ", ref.output, " of node ",
                        ref.node);
      }
      const ValueType& produced = producer_def.output_type(ref.output);
      if (!(produced.shape == spec.row_shape && produced.dtype == spec.dtype)) {
        return Describe("edge type mismatch into node ", id, " input ", i, ": produced ",
                        produced.ToString(), ", expected ", spec.row_shape.ToString(), " ",
                        DTypeName(spec.dtype));
      }
    }
  }
  for (size_t e = 0; e < feeds.size(); ++e) {
    const Tensor& t = (*externals)[e];
    const CellInputSpec* spec = feeds[e];
    if (spec != nullptr && (t.dtype() != spec->dtype || t.shape().Rank() < 1 ||
                            t.shape().dims()[0] != 1 || !t.shape().HasRowShape(spec->row_shape))) {
      return Describe("external input ", e, " is ", t.shape().ToString(), " ",
                      DTypeName(t.dtype()), ", expected one row of ",
                      spec->row_shape.ToString(), " ", DTypeName(spec->dtype));
    }
  }
  return std::string();
}

int CellGraph::NumExternalsReferenced() const {
  int max_ext = -1;
  for (const ValueRef& ref : inputs_) {
    max_ext = std::max(max_ext, ref.external);
  }
  return max_ext + 1;
}

std::string CellGraph::DebugString(const CellRegistry& registry) const {
  std::ostringstream os;
  os << "cell graph with " << NumNodes() << " nodes";
  for (int id = 0; id < NumNodes(); ++id) {
    const std::span<const ValueRef> inputs = NodeInputs(id);
    os << "\n  n" << id << " : " << registry.def(NodeType(id)).name() << "(";
    for (size_t i = 0; i < inputs.size(); ++i) {
      const ValueRef& ref = inputs[i];
      os << (i > 0 ? ", " : "");
      if (ref.is_external()) {
        os << "ext" << ref.external;
      } else {
        os << "n" << ref.node << "." << ref.output;
      }
    }
    os << ")";
  }
  return os.str();
}

}  // namespace batchmaker
