#include "src/core/request_processor.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <span>
#include <utility>

#include "src/util/logging.h"

namespace batchmaker {

namespace {

// Union-find over cell-graph nodes, used to group same-type connected
// components into subgraphs.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(static_cast<size_t>(n)) {
    for (int i = 0; i < n; ++i) {
      parent_[static_cast<size_t>(i)] = i;
    }
  }

  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] = parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }

  void Union(int a, int b) {
    const int ra = Find(a);
    const int rb = Find(b);
    if (ra != rb) {
      parent_[static_cast<size_t>(rb)] = ra;
    }
  }

 private:
  std::vector<int> parent_;
};

// Distinct predecessor node ids of every node, in CSR form: node `id`'s are
// preds[begin[id]..begin[id + 1]), in first-reference order.
struct PredLists {
  std::vector<int> begin;
  std::vector<int> preds;

  explicit PredLists(const CellGraph& graph) : begin(static_cast<size_t>(graph.NumNodes()) + 1, 0) {
    const int n = graph.NumNodes();
    std::vector<int> seen_by(static_cast<size_t>(n), -1);
    for (int id = 0; id < n; ++id) {
      begin[static_cast<size_t>(id)] = static_cast<int>(preds.size());
      for (const ValueRef& ref : graph.NodeInputs(id)) {
        if (!ref.is_external() && seen_by[static_cast<size_t>(ref.node)] != id) {
          seen_by[static_cast<size_t>(ref.node)] = id;
          preds.push_back(ref.node);
        }
      }
    }
    begin[static_cast<size_t>(n)] = static_cast<int>(preds.size());
  }

  std::span<const int> of(int id) const {
    return {preds.data() + begin[static_cast<size_t>(id)],
            preds.data() + begin[static_cast<size_t>(id) + 1]};
  }
};

// Returns, per tentative component, whether it belongs to a strongly
// connected component of size > 1 in the condensed component graph.
// Iterative Tarjan (requests can have thousands of nodes; no recursion).
std::vector<bool> ComponentsInCycles(const PredLists& pred_lists, const std::vector<int>& comp_of,
                                     int num_comps) {
  // Condensed distinct edges pred_comp -> comp.
  std::vector<std::set<int>> edges(static_cast<size_t>(num_comps));
  for (int id = 0; id < static_cast<int>(comp_of.size()); ++id) {
    const int comp = comp_of[static_cast<size_t>(id)];
    for (int pred : pred_lists.of(id)) {
      const int pred_comp = comp_of[static_cast<size_t>(pred)];
      if (pred_comp != comp) {
        edges[static_cast<size_t>(pred_comp)].insert(comp);
      }
    }
  }

  std::vector<int> index(static_cast<size_t>(num_comps), -1);
  std::vector<int> lowlink(static_cast<size_t>(num_comps), 0);
  std::vector<bool> on_stack(static_cast<size_t>(num_comps), false);
  std::vector<int> stack;
  std::vector<bool> in_cycle(static_cast<size_t>(num_comps), false);
  int next_index = 0;

  struct Frame {
    int comp;
    std::set<int>::const_iterator next;
  };
  for (int start = 0; start < num_comps; ++start) {
    if (index[static_cast<size_t>(start)] != -1) {
      continue;
    }
    std::vector<Frame> frames;
    index[static_cast<size_t>(start)] = lowlink[static_cast<size_t>(start)] = next_index++;
    stack.push_back(start);
    on_stack[static_cast<size_t>(start)] = true;
    frames.push_back(Frame{start, edges[static_cast<size_t>(start)].begin()});
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const size_t u = static_cast<size_t>(frame.comp);
      if (frame.next != edges[u].end()) {
        const int w = *frame.next++;
        const size_t wi = static_cast<size_t>(w);
        if (index[wi] == -1) {
          index[wi] = lowlink[wi] = next_index++;
          stack.push_back(w);
          on_stack[wi] = true;
          frames.push_back(Frame{w, edges[wi].begin()});
        } else if (on_stack[wi]) {
          lowlink[u] = std::min(lowlink[u], index[wi]);
        }
        continue;
      }
      // u finished: close its SCC if it is a root.
      if (lowlink[u] == index[u]) {
        std::vector<int> scc;
        for (;;) {
          const int w = stack.back();
          stack.pop_back();
          on_stack[static_cast<size_t>(w)] = false;
          scc.push_back(w);
          if (w == frame.comp) {
            break;
          }
        }
        if (scc.size() > 1) {
          for (int w : scc) {
            in_cycle[static_cast<size_t>(w)] = true;
          }
        }
      }
      frames.pop_back();
      if (!frames.empty()) {
        const size_t parent = static_cast<size_t>(frames.back().comp);
        lowlink[parent] = std::min(lowlink[parent], lowlink[u]);
      }
    }
  }
  return in_cycle;
}

// The structure a plan is keyed by: per node its type, input count, then
// (node, output, external) per input.
void StructureKey(const CellGraph& graph, std::vector<int>* key) {
  key->clear();
  for (int id = 0; id < graph.NumNodes(); ++id) {
    const std::span<const ValueRef> inputs = graph.NodeInputs(id);
    key->push_back(graph.NodeType(id));
    key->push_back(static_cast<int>(inputs.size()));
    for (const ValueRef& ref : inputs) {
      key->insert(key->end(), {ref.node, ref.output, ref.external});
    }
  }
}

uint64_t HashKey(const std::vector<int>& key) {
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a over the key's words
  for (int value : key) {
    hash = (hash ^ static_cast<uint32_t>(value)) * 0x100000001b3ull;
  }
  return hash;
}

}  // namespace

RequestProcessor::RequestProcessor(const CellRegistry* registry,
                                   SubgraphReadyFn on_subgraph_ready,
                                   RequestCompleteFn on_request_complete)
    : registry_(registry),
      on_subgraph_ready_(std::move(on_subgraph_ready)),
      on_request_complete_(std::move(on_request_complete)) {
  BM_CHECK(registry != nullptr);
  BM_CHECK(on_subgraph_ready_ != nullptr);
  BM_CHECK(on_request_complete_ != nullptr);
}

RequestState* RequestProcessor::AddRequest(RequestId id, CellGraph graph,
                                           double arrival_micros,
                                           ExternalRows externals) {
  BM_CHECK_GT(graph.NumNodes(), 0) << "empty cell graph";
  auto [it, inserted] = requests_.try_emplace(id);
  BM_CHECK(inserted) << "duplicate request id " << id;
  it->second = std::make_unique<RequestState>();
  RequestState* s = it->second.get();
  s->plan = PlanFor(graph);
  const RequestPlan& plan = *s->plan;
  s->id = id;
  s->graph = std::move(graph);
  s->arrival_micros = arrival_micros;
  s->externals = std::move(externals);
  s->remaining_nodes = plan.NumNodes();
  s->nodes = plan.initial_nodes;
  s->ready_slots.resize(static_cast<size_t>(plan.NumNodes()));
  s->subgraphs.reserve(plan.subgraphs.size());
  for (size_t i = 0; i < plan.subgraphs.size(); ++i) {
    const RequestPlan::SubgraphPlan& sp = plan.subgraphs[i];
    const int size = sp.node_end - sp.node_begin;
    auto sg = std::make_unique<Subgraph>();
    sg->owner = s;
    sg->id = static_cast<int>(i);
    sg->type = sp.type;
    sg->nodes = std::span<const int>(plan.subgraph_nodes.data() + sp.node_begin,
                                     static_cast<size_t>(size));
    sg->ready = ReadyList(s->ready_slots.data() + sp.node_begin, size);
    sg->unscheduled = size;
    sg->unmet_external = sp.unmet_external;
    s->subgraphs.push_back(std::move(sg));
  }

  // Release subgraphs whose external dependencies are already satisfied.
  for (const auto& sg : s->subgraphs) {
    if (sg->unmet_external == 0) {
      ReleaseSubgraph(sg.get());
    }
  }
  return s;
}

std::shared_ptr<const RequestPlan> RequestProcessor::PlanFor(const CellGraph& graph) {
  StructureKey(graph, &key_);
  const uint64_t hash = HashKey(key_);
  for (CachedPlan& cached : plan_cache_) {
    if (cached.plan->hash == hash && cached.plan->key == key_) {
      cached.last_use = ++plan_clock_;
      ++plan_hits_;
      return cached.plan;
    }
  }
  ++plan_misses_;
  std::shared_ptr<RequestPlan> built = BuildPlan(graph);
  built->hash = hash;
  built->key = key_;
  std::shared_ptr<const RequestPlan> plan = std::move(built);
  if (plan_cache_.size() < kPlanCacheCapacity) {
    plan_cache_.push_back(CachedPlan{plan, ++plan_clock_});
  } else {
    const auto lru = std::min_element(
        plan_cache_.begin(), plan_cache_.end(),
        [](const CachedPlan& a, const CachedPlan& b) { return a.last_use < b.last_use; });
    *lru = CachedPlan{plan, ++plan_clock_};
  }
  return plan;
}

std::shared_ptr<RequestPlan> RequestProcessor::BuildPlan(const CellGraph& graph) const {
  const int n = graph.NumNodes();
  auto plan = std::make_shared<RequestPlan>();
  const PredLists pred_lists(graph);
  const auto type_of = [&graph](int id) { return graph.NodeType(id); };

  // Connected components over same-type edges, numbered in order of their
  // lowest node id.
  UnionFind uf(n);
  for (int id = 0; id < n; ++id) {
    for (int pred : pred_lists.of(id)) {
      if (type_of(pred) == type_of(id)) {
        uf.Union(pred, id);
      }
    }
  }
  std::vector<int> comp_of(static_cast<size_t>(n));
  std::vector<int> comp_of_root(static_cast<size_t>(n), -1);
  int num_comps = 0;
  for (int id = 0; id < n; ++id) {
    int& comp = comp_of_root[static_cast<size_t>(uf.Find(id))];
    if (comp < 0) {
      comp = num_comps++;
    }
    comp_of[static_cast<size_t>(id)] = comp;
  }

  // A subgraph only releases once ALL its external dependencies complete
  // (paper §4.3), which requires the condensed component graph to be
  // acyclic. Models whose types alternate back and forth along a path
  // (e.g. decoder -> attention chain -> decoder) can create strongly
  // connected components there; splitting every member of such an SCC
  // into singleton subgraphs restores acyclicity (singletons mirror the
  // node DAG) at the cost of coarse-grained pinning for those nodes. The
  // paper's models never hit this path. Subgraph ids follow the lowest
  // node id of each subgraph.
  const std::vector<bool> in_cycle = ComponentsInCycles(pred_lists, comp_of, num_comps);
  std::vector<NodeState>& init = plan->initial_nodes;
  init.resize(static_cast<size_t>(n));
  std::vector<int> sg_of_comp(static_cast<size_t>(num_comps), -1);
  std::vector<int> sg_size;
  for (int id = 0; id < n; ++id) {
    const size_t comp = static_cast<size_t>(comp_of[static_cast<size_t>(id)]);
    int sg = in_cycle[comp] ? -1 : sg_of_comp[comp];
    if (sg < 0) {
      sg = static_cast<int>(plan->subgraphs.size());
      if (!in_cycle[comp]) {
        sg_of_comp[comp] = sg;
      }
      RequestPlan::SubgraphPlan sp;
      sp.type = type_of(id);
      plan->subgraphs.push_back(sp);
      sg_size.push_back(0);
    }
    ++sg_size[static_cast<size_t>(sg)];
    init[static_cast<size_t>(id)].subgraph = sg;
  }
  int offset = 0;
  for (size_t sg = 0; sg < plan->subgraphs.size(); ++sg) {
    plan->subgraphs[sg].node_begin = plan->subgraphs[sg].node_end = offset;
    offset += sg_size[sg];
  }
  plan->subgraph_nodes.resize(static_cast<size_t>(n));
  for (int id = 0; id < n; ++id) {
    RequestPlan::SubgraphPlan& sp =
        plan->subgraphs[static_cast<size_t>(init[static_cast<size_t>(id)].subgraph)];
    plan->subgraph_nodes[static_cast<size_t>(sp.node_end++)] = id;
  }

  // Dependency counters.
  for (int id = 0; id < n; ++id) {
    NodeState& node = init[static_cast<size_t>(id)];
    for (int pred : pred_lists.of(id)) {
      if (init[static_cast<size_t>(pred)].subgraph == node.subgraph) {
        node.unmet_internal++;
      } else {
        node.unmet_external++;
        plan->subgraphs[static_cast<size_t>(node.subgraph)].unmet_external++;
      }
    }
  }

  // Every node's distinct successors, ascending: the predecessor lists
  // inverted.
  std::vector<std::vector<int>> succs_of(static_cast<size_t>(n));
  for (int id = 0; id < n; ++id) {
    for (int pred : pred_lists.of(id)) {
      succs_of[static_cast<size_t>(pred)].push_back(id);
    }
  }

  // Successors split by kind, each in ascending order, and the output
  // buffer layout: every row of every node, back to back.
  plan->nodes.resize(static_cast<size_t>(n));
  for (int id = 0; id < n; ++id) {
    RequestPlan::NodePlan& np = plan->nodes[static_cast<size_t>(id)];
    const auto same_subgraph = [&init, id](int succ) {
      return init[static_cast<size_t>(succ)].subgraph == init[static_cast<size_t>(id)].subgraph;
    };
    const std::vector<int>& all = succs_of[static_cast<size_t>(id)];
    std::vector<int>& succs = plan->successors;
    np.succ_begin = static_cast<int>(succs.size());
    std::copy_if(all.begin(), all.end(), std::back_inserter(succs), same_subgraph);
    np.succ_split = static_cast<int>(succs.size());
    std::copy_if(all.begin(), all.end(), std::back_inserter(succs),
                 [&](int succ) { return !same_subgraph(succ); });
    np.succ_end = static_cast<int>(succs.size());

    np.output_begin = static_cast<int>(plan->outputs.size());
    const CellDef& def = registry_->def(type_of(id));
    for (int o = 0; o < def.NumOutputs(); ++o) {
      const ValueType& type = def.output_type(o);
      RequestPlan::OutputRow row;
      row.offset = plan->output_bytes;
      row.bytes = static_cast<size_t>(type.shape.NumElements()) * DTypeSize(type.dtype);
      row.type = &type;
      plan->outputs.push_back(row);
      plan->output_bytes += row.bytes;
    }
  }
  return plan;
}

void RequestProcessor::ReleaseSubgraph(Subgraph* sg) {
  BM_CHECK(!sg->released);
  BM_CHECK_EQ(sg->unmet_external, 0);
  sg->released = true;
  RequestState* state = sg->owner;
  for (int id : sg->nodes) {
    NodeState& node = state->nodes[static_cast<size_t>(id)];
    if (node.unmet_internal == 0 && node.stage == NodeStage::kPending) {
      node.stage = NodeStage::kReady;
      sg->ready.push_back(id);
    }
  }
  BM_CHECK(!sg->ready.empty()) << "released subgraph must have at least one ready node";
  on_subgraph_ready_(sg);
}

int RequestProcessor::MarkScheduled(Subgraph* sg, int count) {
  BM_CHECK(sg != nullptr);
  RequestState* state = sg->owner;
  if (!state->ever_scheduled) {
    // The request now has (or is about to have) in-flight work pinned to a
    // worker; it is no longer eligible for cross-shard stealing, and its
    // outputs need somewhere to land.
    state->ever_scheduled = true;
    if (!state->externals.empty()) {
      state->AllocateOutputBuffer();
    }
  }
  BM_CHECK_GE(count, 0);
  BM_CHECK_LE(static_cast<size_t>(count), sg->ready.size());
  taken_.assign(sg->ready.begin(), sg->ready.begin() + count);
  for (int id : taken_) {
    NodeState& node = state->nodes[static_cast<size_t>(id)];
    BM_CHECK_EQ(node.subgraph, sg->id) << "task entry from a foreign subgraph";
    BM_CHECK(node.stage == NodeStage::kReady);
    node.stage = NodeStage::kScheduled;
  }
  sg->unscheduled -= count;
  BM_CHECK_GE(sg->unscheduled, 0);
  sg->ready.DropPrefix(count);

  // Unlock same-subgraph successors: their data will be produced earlier in
  // the same worker stream (pinning guarantees ordering).
  int newly_ready = 0;
  const RequestPlan& plan = *state->plan;
  for (int id : taken_) {
    for (int succ : plan.InternalSuccessors(id)) {
      NodeState& succ_node = state->nodes[static_cast<size_t>(succ)];
      BM_CHECK_GT(succ_node.unmet_internal, 0);
      if (--succ_node.unmet_internal == 0 && succ_node.unmet_external == 0) {
        BM_CHECK(succ_node.stage == NodeStage::kPending);
        succ_node.stage = NodeStage::kReady;
        sg->ready.push_back(succ);
        ++newly_ready;
      }
    }
  }
  return newly_ready;
}

int RequestProcessor::MarkScheduled(Subgraph* sg, const std::vector<int>& nodes) {
  BM_CHECK(sg != nullptr);
  BM_CHECK_LE(nodes.size(), sg->ready.size());
  BM_CHECK(std::equal(nodes.begin(), nodes.end(), sg->ready.begin()))
      << "scheduled nodes must be the front of the subgraph's ready list";
  return MarkScheduled(sg, static_cast<int>(nodes.size()));
}

void RequestProcessor::CompleteEntry(const TaskEntry& entry,
                                     std::vector<RequestState*>* to_finalize) {
  // Tasks the scheduler formed carry their states; hand-built ones
  // resolve by id.
  RequestState* state = entry.state != nullptr ? entry.state : FindRequest(entry.request);
  BM_CHECK(state != nullptr) << "completion for unknown request " << entry.request;
  NodeState& node = state->nodes[static_cast<size_t>(entry.node)];
  BM_CHECK(node.stage == NodeStage::kScheduled);
  node.stage = NodeStage::kCompleted;
  state->remaining_nodes--;
  BM_CHECK_GE(state->remaining_nodes, 0);

  // Propagate cross-subgraph dependencies. Cancelled consumers no longer
  // care about their inputs.
  for (int succ : state->plan->ExternalSuccessors(entry.node)) {
    NodeState& succ_node = state->nodes[static_cast<size_t>(succ)];
    if (succ_node.stage == NodeStage::kCancelled) {
      continue;
    }
    Subgraph* succ_sg = state->subgraphs[static_cast<size_t>(succ_node.subgraph)].get();
    BM_CHECK_GT(succ_node.unmet_external, 0);
    succ_node.unmet_external--;
    BM_CHECK_GT(succ_sg->unmet_external, 0);
    succ_sg->unmet_external--;
    if (succ_sg->unmet_external == 0 && !succ_sg->cancelled) {
      ReleaseSubgraph(succ_sg);
    }
  }

  if (state->remaining_nodes == 0) {
    to_finalize->push_back(state);
  }
}

void RequestProcessor::MarkCompleted(const BatchedTask& task) {
  std::vector<RequestState*> to_finalize;
  for (const TaskEntry& entry : task.entries) {
    CompleteEntry(entry, &to_finalize);
  }
  for (RequestState* state : to_finalize) {
    on_request_complete_(state);
    requests_.erase(state->id);
  }
}

void RequestProcessor::MarkCompletedEntries(const BatchedTask& task,
                                            const std::vector<int>& indices) {
  std::vector<RequestState*> to_finalize;  // intentionally unused: caller finalizes
  for (int i : indices) {
    BM_CHECK_GE(i, 0);
    BM_CHECK_LT(static_cast<size_t>(i), task.entries.size());
    CompleteEntry(task.entries[static_cast<size_t>(i)], &to_finalize);
  }
}

void RequestProcessor::CancelScheduledNode(RequestState* state, int node_id) {
  BM_CHECK(state != nullptr);
  NodeState& node = state->nodes[static_cast<size_t>(node_id)];
  BM_CHECK(node.stage == NodeStage::kScheduled);
  node.stage = NodeStage::kCancelled;
  state->remaining_nodes--;
  state->cancelled_nodes++;
  BM_CHECK_GE(state->remaining_nodes, 0);
}

void RequestProcessor::RevertScheduledNode(Subgraph* sg, int node_id, bool charge_retry) {
  BM_CHECK(sg != nullptr);
  BM_CHECK(sg->parked) << "revert requires the subgraph to be parked";
  RequestState* state = sg->owner;
  NodeState& node = state->nodes[static_cast<size_t>(node_id)];
  BM_CHECK(node.stage == NodeStage::kScheduled);
  node.stage = NodeStage::kPending;
  if (charge_retry) {
    node.retries++;
  }
  sg->unscheduled++;

  // Return the schedule-time credit to same-subgraph successors. A kReady
  // successor is demoted back to kPending; a kScheduled one sits doomed in
  // a later in-flight task of the same stream (it consumes this node's
  // never-produced output) and is reverted or cancelled when that task's
  // poisoned execution fails. kCancelled successors (early termination)
  // never read the counter again.
  // External consumers wait on completion, which never happened.
  for (int succ : state->plan->InternalSuccessors(node_id)) {
    NodeState& succ_node = state->nodes[static_cast<size_t>(succ)];
    if (succ_node.stage == NodeStage::kReady) {
      succ_node.stage = NodeStage::kPending;
      sg->ready.Remove(succ);
    }
    succ_node.unmet_internal++;
  }
}

int RequestProcessor::CancelSubgraphRemainder(Subgraph* sg) {
  BM_CHECK(sg != nullptr);
  RequestState* state = sg->owner;
  int cancelled = 0;
  for (int id : sg->nodes) {
    NodeState& node = state->nodes[static_cast<size_t>(id)];
    if (node.stage == NodeStage::kPending || node.stage == NodeStage::kReady) {
      node.stage = NodeStage::kCancelled;
      ++cancelled;
    }
  }
  if (cancelled > 0) {
    sg->unscheduled -= cancelled;
    BM_CHECK_GE(sg->unscheduled, 0);
    sg->ready.clear();
    state->remaining_nodes -= cancelled;
    state->cancelled_nodes += cancelled;
    BM_CHECK_GE(state->remaining_nodes, 0);
  }
  if (sg->unscheduled == 0 && !sg->released) {
    // Nothing of this subgraph will ever run; it must not release later.
    sg->cancelled = true;
  }
  if (cancelled > 0 && sg->released) {
    sg->cancelled = (sg->unscheduled == 0);
  }
  return cancelled;
}

bool RequestProcessor::FinalizeIfDone(RequestState* state) {
  BM_CHECK(state != nullptr);
  if (state->remaining_nodes > 0) {
    return false;
  }
  on_request_complete_(state);
  requests_.erase(state->id);
  return true;
}

std::unique_ptr<RequestState> RequestProcessor::ReleaseRequest(RequestId id) {
  const auto it = requests_.find(id);
  BM_CHECK(it != requests_.end()) << "release of unknown request " << id;
  std::unique_ptr<RequestState> state = std::move(it->second);
  requests_.erase(it);
  BM_CHECK(!state->ever_scheduled) << "cannot migrate a request with scheduled work";
  for (const auto& sg : state->subgraphs) {
    BM_CHECK_EQ(sg->inflight_tasks, 0);
    BM_CHECK(!sg->parked);
    BM_CHECK(!sg->in_queue) << "detach queued subgraphs from the scheduler first";
    BM_CHECK_EQ(sg->pinned_worker, -1);
  }
  return state;
}

RequestState* RequestProcessor::AdoptRequest(std::unique_ptr<RequestState> state) {
  BM_CHECK(state != nullptr);
  RequestState* s = state.get();
  BM_CHECK_EQ(requests_.count(s->id), 0u) << "duplicate request id " << s->id;
  requests_.emplace(s->id, std::move(state));
  // Re-announce released subgraphs to the adopting shard's scheduler. The
  // ready sets survived the migration untouched (nothing was scheduled),
  // so this mirrors AddRequest's release pass exactly.
  for (const auto& sg : s->subgraphs) {
    if (sg->released && !sg->cancelled) {
      on_subgraph_ready_(sg.get());
    }
  }
  return s;
}

RequestState* RequestProcessor::FindRequest(RequestId id) {
  const auto it = requests_.find(id);
  return it == requests_.end() ? nullptr : it->second.get();
}

}  // namespace batchmaker
