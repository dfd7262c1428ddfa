// Tests for RequestProcessor: subgraph partitioning (paper §4.3/§4.4) and
// dependency propagation through scheduled/completed transitions.

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "src/core/batch_assembler.h"
#include "src/core/request_processor.h"
#include "src/core/sync_engine.h"
#include "src/nn/attention.h"
#include "src/nn/stacked_lstm.h"
#include "tests/test_models.h"

namespace batchmaker {
namespace {

class ProcessorHarness {
 public:
  explicit ProcessorHarness(const CellRegistry* registry)
      : processor_(
            registry, [this](Subgraph* sg) { ready_subgraphs_.push_back(sg); },
            [this](RequestState* state) { completed_.push_back(state->id); }) {}

  RequestProcessor& processor() { return processor_; }
  std::vector<Subgraph*>& ready_subgraphs() { return ready_subgraphs_; }
  const std::vector<RequestId>& completed() const { return completed_; }

  // Simulates executing one task containing all currently-ready nodes of
  // `sg`: marks them scheduled then completed.
  BatchedTask ScheduleAllReady(Subgraph* sg) {
    BatchedTask task;
    task.id = next_task_id_++;
    task.type = sg->type;
    std::vector<int> nodes = sg->ready;
    for (int n : nodes) {
      task.entries.push_back(TaskEntry{sg->owner->id, n});
    }
    processor_.MarkScheduled(sg, nodes);
    return task;
  }

 private:
  RequestProcessor processor_;
  std::vector<Subgraph*> ready_subgraphs_;
  std::vector<RequestId> completed_;
  uint64_t next_task_id_ = 0;
};

// ---------- Chain (LSTM) partitioning ----------

TEST(RequestProcessorTest, ChainFormsOneSubgraph) {
  TinyLstmFixture fix;
  ProcessorHarness h(&fix.registry);
  RequestState* state = h.processor().AddRequest(1, fix.model.Unfold(5), 0.0);
  ASSERT_EQ(state->subgraphs.size(), 1u);
  EXPECT_EQ(h.ready_subgraphs().size(), 1u);
  Subgraph* sg = h.ready_subgraphs()[0];
  EXPECT_EQ(sg->nodes.size(), 5u);
  // Only the first step is ready; the rest wait on internal deps.
  EXPECT_EQ(sg->ready, std::vector<int>{0});
  EXPECT_EQ(sg->unscheduled, 5);
}

TEST(RequestProcessorTest, ChainUnlocksStepByStep) {
  TinyLstmFixture fix;
  ProcessorHarness h(&fix.registry);
  h.processor().AddRequest(1, fix.model.Unfold(3), 0.0);
  Subgraph* sg = h.ready_subgraphs()[0];

  const BatchedTask t0 = h.ScheduleAllReady(sg);
  EXPECT_EQ(t0.entries.size(), 1u);
  EXPECT_EQ(sg->ready, std::vector<int>{1});  // scheduling unlocks successor

  const BatchedTask t1 = h.ScheduleAllReady(sg);
  EXPECT_EQ(sg->ready, std::vector<int>{2});
  const BatchedTask t2 = h.ScheduleAllReady(sg);
  EXPECT_TRUE(sg->ready.empty());
  EXPECT_EQ(sg->unscheduled, 0);

  EXPECT_TRUE(h.completed().empty());
  h.processor().MarkCompleted(t0);
  h.processor().MarkCompleted(t1);
  EXPECT_TRUE(h.completed().empty());
  h.processor().MarkCompleted(t2);
  EXPECT_EQ(h.completed(), std::vector<RequestId>{1});
  EXPECT_EQ(h.processor().NumActiveRequests(), 0u);
}

// ---------- Seq2Seq partitioning ----------

TEST(RequestProcessorTest, Seq2SeqFormsEncoderAndDecoderSubgraphs) {
  TinySeq2SeqFixture fix;
  ProcessorHarness h(&fix.registry);
  RequestState* state = h.processor().AddRequest(1, fix.model.Unfold(4, 3), 0.0);
  ASSERT_EQ(state->subgraphs.size(), 2u);
  // Only the encoder subgraph is released at admit time.
  ASSERT_EQ(h.ready_subgraphs().size(), 1u);
  EXPECT_EQ(h.ready_subgraphs()[0]->type, fix.model.encoder_type());
  // The decoder subgraph waits on the last encoder node (h and c): one
  // distinct external predecessor.
  Subgraph* dec = state->subgraphs[1].get();
  EXPECT_EQ(dec->type, fix.model.decoder_type());
  EXPECT_FALSE(dec->released);
  EXPECT_EQ(dec->unmet_external, 1);
}

TEST(RequestProcessorTest, Seq2SeqDecoderReleasesAfterEncoderCompletes) {
  TinySeq2SeqFixture fix;
  ProcessorHarness h(&fix.registry);
  h.processor().AddRequest(1, fix.model.Unfold(2, 2), 0.0);
  Subgraph* enc = h.ready_subgraphs()[0];

  std::vector<BatchedTask> tasks;
  tasks.push_back(h.ScheduleAllReady(enc));
  tasks.push_back(h.ScheduleAllReady(enc));
  EXPECT_EQ(enc->unscheduled, 0);
  EXPECT_EQ(h.ready_subgraphs().size(), 1u);  // decoder not yet released

  h.processor().MarkCompleted(tasks[0]);
  EXPECT_EQ(h.ready_subgraphs().size(), 1u);
  h.processor().MarkCompleted(tasks[1]);  // final encoder completes
  ASSERT_EQ(h.ready_subgraphs().size(), 2u);
  EXPECT_EQ(h.ready_subgraphs()[1]->type, fix.model.decoder_type());
}

// ---------- TreeLSTM partitioning (paper §4.4's worked example) ----------

TEST(RequestProcessorTest, TreeLstmPartitionMatchesPaperExample) {
  TinyTreeLstmFixture fix;
  ProcessorHarness h(&fix.registry);
  // "Suppose request x is a complete binary tree with 16 leaf nodes. Then
  // its cell graph will be partitioned into 17 subgraphs: one subgraph
  // contains 31 internal tree nodes" [sic: 15 internal nodes]; "each of the
  // other 16 subgraphs contains a single leaf node."
  RequestState* state =
      h.processor().AddRequest(1, fix.model.Unfold(BinaryTree::Complete(16)), 0.0);
  ASSERT_EQ(state->subgraphs.size(), 17u);
  int leaf_subgraphs = 0;
  int internal_subgraphs = 0;
  for (const auto& sg : state->subgraphs) {
    if (sg->type == fix.model.leaf_type()) {
      ++leaf_subgraphs;
      EXPECT_EQ(sg->nodes.size(), 1u);
    } else {
      ++internal_subgraphs;
      EXPECT_EQ(sg->nodes.size(), 15u);
    }
  }
  EXPECT_EQ(leaf_subgraphs, 16);
  EXPECT_EQ(internal_subgraphs, 1);
  // All 16 leaf subgraphs are immediately ready; the internal one waits on
  // 16 external predecessors.
  EXPECT_EQ(h.ready_subgraphs().size(), 16u);
}

TEST(RequestProcessorTest, TreeLstmInternalReleasesAfterAllLeaves) {
  TinyTreeLstmFixture fix;
  ProcessorHarness h(&fix.registry);
  RequestState* state =
      h.processor().AddRequest(1, fix.model.Unfold(BinaryTree::Complete(4)), 0.0);
  ASSERT_EQ(state->subgraphs.size(), 5u);

  std::vector<BatchedTask> leaf_tasks;
  for (Subgraph* sg : h.ready_subgraphs()) {
    leaf_tasks.push_back(h.ScheduleAllReady(sg));
  }
  EXPECT_EQ(h.ready_subgraphs().size(), 4u);
  for (size_t i = 0; i < leaf_tasks.size(); ++i) {
    h.processor().MarkCompleted(leaf_tasks[i]);
    if (i + 1 < leaf_tasks.size()) {
      EXPECT_EQ(h.ready_subgraphs().size(), 4u) << "released too early";
    }
  }
  ASSERT_EQ(h.ready_subgraphs().size(), 5u);
  Subgraph* internal = h.ready_subgraphs()[4];
  EXPECT_EQ(internal->type, fix.model.internal_type());
  // Bottom level of internal nodes (2 of them) is ready.
  EXPECT_EQ(internal->ready.size(), 2u);
}

TEST(RequestProcessorTest, TreeLstmLevelsScheduleInWaves) {
  TinyTreeLstmFixture fix;
  ProcessorHarness h(&fix.registry);
  h.processor().AddRequest(1, fix.model.Unfold(BinaryTree::Complete(8)), 0.0);

  std::vector<BatchedTask> tasks;
  for (Subgraph* sg : std::vector<Subgraph*>(h.ready_subgraphs())) {
    tasks.push_back(h.ScheduleAllReady(sg));
  }
  for (const BatchedTask& t : tasks) {
    h.processor().MarkCompleted(t);
  }
  Subgraph* internal = h.ready_subgraphs().back();
  // Waves: 4, then 2, then 1 ready nodes.
  EXPECT_EQ(internal->ready.size(), 4u);
  h.ScheduleAllReady(internal);
  EXPECT_EQ(internal->ready.size(), 2u);
  h.ScheduleAllReady(internal);
  EXPECT_EQ(internal->ready.size(), 1u);
  h.ScheduleAllReady(internal);
  EXPECT_TRUE(internal->ready.empty());
  EXPECT_EQ(internal->unscheduled, 0);
}

// ---------- Misc ----------

TEST(RequestProcessorTest, MultipleRequestsTrackedIndependently) {
  TinyLstmFixture fix;
  ProcessorHarness h(&fix.registry);
  h.processor().AddRequest(1, fix.model.Unfold(2), 0.0);
  h.processor().AddRequest(2, fix.model.Unfold(3), 10.0);
  EXPECT_EQ(h.processor().NumActiveRequests(), 2u);
  EXPECT_EQ(h.ready_subgraphs().size(), 2u);
  EXPECT_NE(h.ready_subgraphs()[0]->owner, h.ready_subgraphs()[1]->owner);
}

TEST(RequestProcessorTest, ArrivalTimeRecorded) {
  TinyLstmFixture fix;
  ProcessorHarness h(&fix.registry);
  RequestState* state = h.processor().AddRequest(1, fix.model.Unfold(2), 123.5);
  EXPECT_DOUBLE_EQ(state->arrival_micros, 123.5);
  EXPECT_LT(state->ExecStartMicros(), 0.0);
}

TEST(RequestProcessorDeathTest, DuplicateIdAborts) {
  TinyLstmFixture fix;
  ProcessorHarness h(&fix.registry);
  h.processor().AddRequest(1, fix.model.Unfold(2), 0.0);
  EXPECT_DEATH(h.processor().AddRequest(1, fix.model.Unfold(2), 0.0), "duplicate");
}

TEST(RequestProcessorTest, FindRequestReturnsNullForUnknown) {
  TinyLstmFixture fix;
  ProcessorHarness h(&fix.registry);
  EXPECT_EQ(h.processor().FindRequest(42), nullptr);
}

// ---------- Ready lists ----------

TEST(ReadyListTest, DropPrefixLeavesTheOneByOneRemovalOrder) {
  for (int m = 0; m <= 12; ++m) {
    for (int k = 0; k <= m; ++k) {
      std::vector<int> slots(static_cast<size_t>(m));
      ReadyList fast(slots.data(), m);
      std::vector<int> legacy;
      for (int i = 0; i < m; ++i) {
        fast.push_back(10 + i);
        legacy.push_back(10 + i);
      }
      // The removal the ready lists always had: each taken node, in task
      // order, swapped with the back and popped.
      for (int i = 0; i < k; ++i) {
        auto it = std::find(legacy.begin(), legacy.end(), 10 + i);
        *it = legacy.back();
        legacy.pop_back();
      }
      fast.DropPrefix(k);
      EXPECT_EQ(fast, legacy) << "size " << m << ", taken " << k;
    }
  }
}

// ---------- Plan cache ----------

// The partition as the processor computed it for every request before plans
// were cached (paper §4.3), written for clarity rather than speed:
// same-type connected components, numbered by lowest node id; every member
// of a cycle in the condensed component graph split into a singleton;
// subgraph ids by lowest node id.
struct ReferencePartition {
  std::vector<int> subgraph_of;
  std::vector<int> unmet_internal;
  std::vector<int> unmet_external;
  std::vector<CellTypeId> sg_type;
  std::vector<std::vector<int>> sg_nodes;
  std::vector<int> sg_unmet_external;
};

ReferencePartition PartitionForReference(const CellGraph& g) {
  const int n = g.NumNodes();
  std::vector<std::set<int>> preds(static_cast<size_t>(n));
  for (int id = 0; id < n; ++id) {
    for (const ValueRef& ref : g.NodeInputs(id)) {
      if (!ref.is_external()) {
        preds[static_cast<size_t>(id)].insert(ref.node);
      }
    }
  }
  std::vector<int> parent(static_cast<size_t>(n));
  std::iota(parent.begin(), parent.end(), 0);
  const std::function<int(int)> find = [&](int x) {
    return parent[static_cast<size_t>(x)] == x ? x : find(parent[static_cast<size_t>(x)]);
  };
  for (int id = 0; id < n; ++id) {
    for (int p : preds[static_cast<size_t>(id)]) {
      if (g.NodeType(p) == g.NodeType(id)) {
        parent[static_cast<size_t>(find(p))] = find(id);
      }
    }
  }
  std::map<int, int> comp_of_root;
  std::vector<int> comp(static_cast<size_t>(n));
  for (int id = 0; id < n; ++id) {
    comp[static_cast<size_t>(id)] =
        comp_of_root.emplace(find(id), static_cast<int>(comp_of_root.size())).first->second;
  }
  const int num_comps = static_cast<int>(comp_of_root.size());
  std::vector<std::set<int>> succ(static_cast<size_t>(num_comps));
  for (int id = 0; id < n; ++id) {
    for (int p : preds[static_cast<size_t>(id)]) {
      if (comp[static_cast<size_t>(p)] != comp[static_cast<size_t>(id)]) {
        succ[static_cast<size_t>(comp[static_cast<size_t>(p)])].insert(comp[static_cast<size_t>(id)]);
      }
    }
  }
  std::vector<std::vector<bool>> reach(static_cast<size_t>(num_comps),
                                       std::vector<bool>(static_cast<size_t>(num_comps), false));
  for (int c = 0; c < num_comps; ++c) {
    std::vector<int> todo(succ[static_cast<size_t>(c)].begin(), succ[static_cast<size_t>(c)].end());
    while (!todo.empty()) {
      const int d = todo.back();
      todo.pop_back();
      if (!reach[static_cast<size_t>(c)][static_cast<size_t>(d)]) {
        reach[static_cast<size_t>(c)][static_cast<size_t>(d)] = true;
        todo.insert(todo.end(), succ[static_cast<size_t>(d)].begin(), succ[static_cast<size_t>(d)].end());
      }
    }
  }
  ReferencePartition ref;
  ref.subgraph_of.resize(static_cast<size_t>(n));
  std::map<int, int> key_to_sg;  // component, or -1 - node for a singleton
  for (int id = 0; id < n; ++id) {
    const int c = comp[static_cast<size_t>(id)];
    bool in_cycle = false;
    for (int d = 0; d < num_comps; ++d) {
      in_cycle |= d != c && reach[static_cast<size_t>(c)][static_cast<size_t>(d)] &&
                  reach[static_cast<size_t>(d)][static_cast<size_t>(c)];
    }
    const auto [it, fresh] =
        key_to_sg.emplace(in_cycle ? -1 - id : c, static_cast<int>(ref.sg_type.size()));
    if (fresh) {
      ref.sg_type.push_back(g.NodeType(id));
      ref.sg_nodes.emplace_back();
      ref.sg_unmet_external.push_back(0);
    }
    ref.subgraph_of[static_cast<size_t>(id)] = it->second;
    ref.sg_nodes[static_cast<size_t>(it->second)].push_back(id);
  }
  ref.unmet_internal.assign(static_cast<size_t>(n), 0);
  ref.unmet_external.assign(static_cast<size_t>(n), 0);
  for (int id = 0; id < n; ++id) {
    for (int p : preds[static_cast<size_t>(id)]) {
      if (ref.subgraph_of[static_cast<size_t>(p)] == ref.subgraph_of[static_cast<size_t>(id)]) {
        ++ref.unmet_internal[static_cast<size_t>(id)];
      } else {
        ++ref.unmet_external[static_cast<size_t>(id)];
        ++ref.sg_unmet_external[static_cast<size_t>(ref.subgraph_of[static_cast<size_t>(id)])];
      }
    }
  }
  return ref;
}

// Checks a just-admitted request against the reference partition: ids,
// types, node lists, per-node subgraph and counters, and which subgraphs
// released with which ready nodes.
void ExpectMatchesReference(const RequestState& state, const ReferencePartition& ref) {
  ASSERT_EQ(state.subgraphs.size(), ref.sg_type.size());
  for (size_t i = 0; i < state.subgraphs.size(); ++i) {
    const Subgraph& sg = *state.subgraphs[i];
    EXPECT_EQ(sg.id, static_cast<int>(i));
    EXPECT_EQ(sg.type, ref.sg_type[i]) << "subgraph " << i;
    EXPECT_EQ(std::vector<int>(sg.nodes.begin(), sg.nodes.end()), ref.sg_nodes[i])
        << "subgraph " << i;
    EXPECT_EQ(sg.unscheduled, static_cast<int>(ref.sg_nodes[i].size()));
    EXPECT_EQ(sg.unmet_external, ref.sg_unmet_external[i]) << "subgraph " << i;
    EXPECT_EQ(sg.released, ref.sg_unmet_external[i] == 0) << "subgraph " << i;
    std::vector<int> ready;
    if (sg.released) {
      for (int node : ref.sg_nodes[i]) {
        if (ref.unmet_internal[static_cast<size_t>(node)] == 0) {
          ready.push_back(node);
        }
      }
    }
    EXPECT_EQ(sg.ready, ready) << "subgraph " << i;
  }
  ASSERT_EQ(state.nodes.size(), ref.subgraph_of.size());
  for (size_t id = 0; id < state.nodes.size(); ++id) {
    EXPECT_EQ(state.nodes[id].subgraph, ref.subgraph_of[id]) << "node " << id;
    EXPECT_EQ(state.nodes[id].unmet_internal, ref.unmet_internal[id]) << "node " << id;
    EXPECT_EQ(state.nodes[id].unmet_external, ref.unmet_external[id]) << "node " << id;
  }
}

// A processor whose requests run to completion on demand, recording every
// subgraph release as (request, subgraph id).
struct ProcessorRun {
  explicit ProcessorRun(const CellRegistry* registry)
      : processor(
            registry,
            [this](Subgraph* sg) {
              pending.push_back(sg);
              releases.emplace_back(sg->owner->id, sg->id);
            },
            [](RequestState*) {}) {}

  // Takes released subgraphs in release order; schedules all of one's
  // nodes wave by wave, then completes the waves in order.
  void Drain() {
    while (!pending.empty()) {
      Subgraph* sg = pending.front();
      pending.pop_front();
      std::vector<BatchedTask> waves;
      while (!sg->ready.empty()) {
        BatchedTask task;
        task.type = sg->type;
        for (int node : sg->ready) {
          task.entries.push_back(TaskEntry{sg->owner->id, node, sg->owner});
        }
        processor.MarkScheduled(sg, task.BatchSize());
        waves.push_back(std::move(task));
      }
      for (const BatchedTask& task : waves) {
        processor.MarkCompleted(task);
      }
    }
  }

  std::vector<int> ReleasesOf(RequestId id) const {
    std::vector<int> out;
    for (const auto& [request, sg] : releases) {
      if (request == id) {
        out.push_back(sg);
      }
    }
    return out;
  }

  std::deque<Subgraph*> pending;
  std::vector<std::pair<RequestId, int>> releases;
  RequestProcessor processor;
};

// One registry holding every model the plan tests unfold.
struct ZooFixture {
  ZooFixture()
      : rng(77),
        lstm(&registry, LstmSpec{.input_dim = 4, .hidden = 4}, &rng),
        seq2seq(&registry, Seq2SeqSpec{.vocab = 32, .embed_dim = 4, .hidden = 4}, &rng),
        tree(&registry, TreeLstmSpec{.vocab = 32, .embed_dim = 4, .hidden = 4}, &rng),
        stacked(&registry, StackedLstmSpec{.input_dim = 4, .hidden = 4, .num_layers = 3}, &rng),
        bidi(&registry, BidiLstmSpec{.input_dim = 4, .hidden = 4}, &rng),
        attention(&registry, AttentionSeq2SeqSpec{.vocab = 32, .embed_dim = 4, .hidden = 4},
                  &rng) {}

  std::vector<std::pair<std::string, CellGraph>> Graphs() {
    std::vector<std::pair<std::string, CellGraph>> graphs;
    for (int len : {1, 2, 24}) {
      graphs.emplace_back("lstm " + std::to_string(len), lstm.Unfold(len));
    }
    graphs.emplace_back("seq2seq", seq2seq.Unfold(4, 3));
    graphs.emplace_back("tree complete", tree.Unfold(BinaryTree::Complete(8)));
    Rng tree_rng(5);
    for (int leaves : {3, 7, 12}) {
      graphs.emplace_back("tree random " + std::to_string(leaves),
                          tree.Unfold(BinaryTree::RandomParse(leaves, 32, &tree_rng)));
    }
    graphs.emplace_back("stacked", stacked.Unfold(5));
    graphs.emplace_back("bidi", bidi.Unfold(5));
    graphs.emplace_back("attention", attention.Unfold(3, 3));
    return graphs;
  }

  CellRegistry registry;
  Rng rng;
  LstmModel lstm;
  Seq2SeqModel seq2seq;
  TreeLstmModel tree;
  StackedLstmModel stacked;
  BidiLstmModel bidi;
  AttentionSeq2SeqModel attention;
};

TEST(PlanCacheTest, CachedPlanMatchesAColdPartition) {
  ZooFixture zoo;
  ProcessorRun warm(&zoo.registry);
  RequestId next_id = 1;
  for (const auto& [name, graph] : zoo.Graphs()) {
    SCOPED_TRACE(name);
    const ReferencePartition ref = PartitionForReference(graph);
    const RequestId first = next_id++;
    const RequestId second = next_id++;
    warm.processor.AddRequest(first, CellGraph(graph), 0.0);
    const int64_t hits = warm.processor.PlanCacheHits();
    const RequestState* cached = warm.processor.AddRequest(second, CellGraph(graph), 0.0);
    EXPECT_EQ(warm.processor.PlanCacheHits(), hits + 1);
    EXPECT_EQ(cached->plan, warm.processor.FindRequest(first)->plan);
    ExpectMatchesReference(*cached, ref);

    ProcessorRun cold(&zoo.registry);
    const RequestState* fresh = cold.processor.AddRequest(1, CellGraph(graph), 0.0);
    ExpectMatchesReference(*fresh, ref);

    warm.Drain();
    cold.Drain();
    EXPECT_EQ(warm.processor.NumActiveRequests(), 0u);
    EXPECT_EQ(cold.processor.NumActiveRequests(), 0u);
    EXPECT_EQ(warm.ReleasesOf(second), cold.ReleasesOf(1));
    EXPECT_EQ(warm.ReleasesOf(first), cold.ReleasesOf(1));
    EXPECT_EQ(warm.ReleasesOf(second).size(), ref.sg_type.size());
  }
}

TEST(PlanCacheTest, AttentionDecoderSplitsItsCycleIntoSingletons) {
  ZooFixture zoo;
  const CellGraph graph = zoo.attention.Unfold(3, 3);
  const ReferencePartition ref = PartitionForReference(graph);
  ProcessorRun run(&zoo.registry);
  const RequestState* state = run.processor.AddRequest(1, CellGraph(graph), 0.0);
  ExpectMatchesReference(*state, ref);
  // The decoder chain and the per-step attention chains feed each other,
  // so the three decoder steps, one connected chain of one type, end up
  // as three singleton subgraphs.
  int decoder_subgraphs = 0;
  for (const auto& sg : state->subgraphs) {
    if (sg->type == zoo.attention.decoder_type()) {
      ++decoder_subgraphs;
      EXPECT_EQ(sg->nodes.size(), 1u);
    }
  }
  EXPECT_EQ(decoder_subgraphs, 3);
}

// Rebuilds `graph` node by node, letting `edit` change a node's type or
// inputs on the way.
CellGraph Rebuild(const CellGraph& graph,
                  const std::function<void(int, CellTypeId*, std::vector<ValueRef>*)>& edit) {
  CellGraph out;
  for (int id = 0; id < graph.NumNodes(); ++id) {
    CellTypeId type = graph.NodeType(id);
    std::vector<ValueRef> inputs(graph.NodeInputs(id).begin(), graph.NodeInputs(id).end());
    edit(id, &type, &inputs);
    out.AddNode(type, inputs);
  }
  return out;
}

TEST(PlanCacheTest, OneEdgeOrOneTypeApartGetsItsOwnPlan) {
  ZooFixture zoo;
  ProcessorRun run(&zoo.registry);
  const CellGraph chain = zoo.lstm.Unfold(4);
  // Node 2 reads its h from node 0 instead of node 1.
  const CellGraph rewired = Rebuild(chain, [](int id, CellTypeId*, std::vector<ValueRef>* inputs) {
    if (id == 2) {
      for (ValueRef& ref : *inputs) {
        if (!ref.is_external() && ref.node == 1 && ref.output == 0) {
          ref.node = 0;
        }
      }
    }
  });
  const CellGraph seq = zoo.seq2seq.Unfold(3, 3);
  // The last decoder step runs as an encoder cell.
  const CellGraph retyped = Rebuild(seq, [&](int id, CellTypeId* type, std::vector<ValueRef>*) {
    if (id == seq.NumNodes() - 1) {
      *type = zoo.seq2seq.encoder_type();
    }
  });
  RequestId id = 1;
  for (const CellGraph* graph : {&chain, &rewired, &seq, &retyped}) {
    const RequestState* state = run.processor.AddRequest(id++, CellGraph(*graph), 0.0);
    ExpectMatchesReference(*state, PartitionForReference(*graph));
  }
  EXPECT_EQ(run.processor.PlanCacheMisses(), 4);
  EXPECT_EQ(run.processor.PlanCacheHits(), 0);
  EXPECT_EQ(run.processor.PlanCacheSize(), 4u);
  EXPECT_NE(run.processor.FindRequest(1)->plan, run.processor.FindRequest(2)->plan);
  EXPECT_NE(run.processor.FindRequest(3)->plan, run.processor.FindRequest(4)->plan);
}

TEST(PlanCacheTest, StaysAtItsCapWithResultsIntact) {
  TinyLstmFixture fix;
  const int shapes = static_cast<int>(RequestProcessor::kPlanCacheCapacity) + 8;
  // Lengths 1..shapes, then the first eight again: evicted, so rebuilt.
  std::vector<int> lengths(static_cast<size_t>(shapes));
  std::iota(lengths.begin(), lengths.end(), 1);
  for (int len = 1; len <= 8; ++len) {
    lengths.push_back(len);
  }

  ProcessorRun run(&fix.registry);
  RequestId id = 1;
  for (int len : lengths) {
    const CellGraph graph = fix.model.Unfold(len);
    ExpectMatchesReference(*run.processor.AddRequest(id++, CellGraph(graph), 0.0),
                           PartitionForReference(graph));
    EXPECT_LE(run.processor.PlanCacheSize(), RequestProcessor::kPlanCacheCapacity);
  }
  EXPECT_EQ(run.processor.PlanCacheSize(), RequestProcessor::kPlanCacheCapacity);
  EXPECT_EQ(run.processor.PlanCacheMisses(), static_cast<int64_t>(lengths.size()));
  run.Drain();
  EXPECT_EQ(run.processor.NumActiveRequests(), 0u);

  // The same churn through a real-compute engine matches each request run
  // alone on a fresh engine, bit for bit.
  Rng data(11);
  std::vector<std::vector<Tensor>> inputs;
  for (int len : lengths) {
    std::vector<Tensor> ext;
    for (int t = 0; t < len + 2; ++t) {
      ext.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data));
    }
    inputs.push_back(std::move(ext));
  }
  SyncEngine churned(&fix.registry);
  std::vector<RequestId> ids;
  for (size_t i = 0; i < lengths.size(); ++i) {
    ids.push_back(churned.Submit(fix.model.Unfold(lengths[i]), inputs[i],
                                 {ValueRef::Output(lengths[i] - 1, 0)}));
  }
  churned.RunToCompletion();
  for (size_t i = 0; i < lengths.size(); ++i) {
    SyncEngine alone(&fix.registry);
    const RequestId single = alone.Submit(fix.model.Unfold(lengths[i]), inputs[i],
                                          {ValueRef::Output(lengths[i] - 1, 0)});
    alone.RunToCompletion();
    const Response expected = alone.TakeResponse(single);
    const Response got = churned.TakeResponse(ids[i]);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got.outputs.size(), 1u);
    EXPECT_TRUE(got.outputs[0].ElementsEqual(expected.outputs[0])) << "length " << lengths[i];
  }
}

// ---------- Output buffer ----------

TEST(RequestProcessorTest, PoisonedRowsGatherAsZerosBesideCleanOnes) {
  TinyLstmFixture fix;
  ProcessorHarness h(&fix.registry);
  Rng rng(3);
  std::vector<RequestState*> states;
  std::vector<std::vector<Tensor>> sent;
  BatchedTask task;
  task.type = fix.model.cell_type();
  for (RequestId id : {1, 2}) {
    // Unfold(1): x0, h0, c0.
    std::vector<Tensor>& ext = sent.emplace_back();
    for (int i = 0; i < 3; ++i) {
      ext.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &rng));
    }
    states.push_back(h.processor().AddRequest(id, fix.model.Unfold(1), 0.0, ExternalRows(ext)));
    task.entries.push_back(TaskEntry{id, 0});
  }
  const BatchAssembler assembler(&fix.registry);
  GatheredBatch gathered;
  const std::vector<uint8_t> poisoned = {1, 0};
  assembler.GatherInputs(task, states, &gathered, nullptr, &poisoned);
  ASSERT_EQ(gathered.inputs.size(), 3u);
  for (int slot = 0; slot < 3; ++slot) {
    const Tensor& batch = gathered.inputs[static_cast<size_t>(slot)];
    const Tensor& clean = sent[1][static_cast<size_t>(slot)];
    for (int64_t c = 0; c < 4; ++c) {
      EXPECT_EQ(batch.At(0, c), 0.0f) << "slot " << slot;
      EXPECT_EQ(batch.At(1, c), clean.At(0, c)) << "slot " << slot;
    }
  }
}

TEST(RequestProcessorTest, MixedDtypeExternalsGatherTheCallersBytes) {
  TinySeq2SeqFixture fix;
  ProcessorHarness h(&fix.registry);
  Rng rng(5);
  std::vector<RequestState*> states;
  std::vector<std::vector<Tensor>> sent;
  BatchedTask task;
  task.type = fix.model.encoder_type();
  for (RequestId id : {1, 2, 3}) {
    // Unfold(1, 1): the source token, the <go> token, h0 and c0.
    std::vector<Tensor>& ext = sent.emplace_back();
    ext.push_back(ExternalTokenTensor(static_cast<int32_t>(7 * id)));
    ext.push_back(ExternalTokenTensor(0));
    ext.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &rng));
    ext.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &rng));
    const CellGraph graph = fix.model.Unfold(1, 1);
    ASSERT_EQ(graph.ValidateOrError(fix.registry, ext), "");
    states.push_back(h.processor().AddRequest(id, CellGraph(graph), 0.0, ExternalRows(ext)));
    task.entries.push_back(TaskEntry{id, 0});
  }
  const BatchAssembler assembler(&fix.registry);
  GatheredBatch gathered;
  assembler.GatherInputs(task, states, &gathered);
  // The encoder step reads the source token, h0 and c0.
  const int feeds[] = {0, 2, 3};
  ASSERT_EQ(gathered.inputs.size(), 3u);
  for (int slot = 0; slot < 3; ++slot) {
    const Tensor& batch = gathered.inputs[static_cast<size_t>(slot)];
    for (size_t r = 0; r < sent.size(); ++r) {
      const Tensor& caller = sent[r][static_cast<size_t>(feeds[slot])];
      ASSERT_EQ(batch.dtype(), caller.dtype()) << "slot " << slot;
      const size_t bytes = static_cast<size_t>(caller.NumElements()) * DTypeSize(caller.dtype());
      const auto* row = (batch.dtype() == DType::kI32
                             ? reinterpret_cast<const unsigned char*>(batch.i32())
                             : reinterpret_cast<const unsigned char*>(batch.f32())) +
                        r * bytes;
      const void* want = caller.dtype() == DType::kI32 ? static_cast<const void*>(caller.i32())
                                                        : static_cast<const void*>(caller.f32());
      EXPECT_EQ(std::memcmp(row, want, bytes), 0) << "slot " << slot << ", request " << r;
    }
  }
}

TEST(RequestProcessorTest, DuplicateEdgeCountsOnce) {
  CellRegistry registry;
  // A cell with two inputs of the same shape.
  auto def = std::make_unique<CellDef>("pair");
  const int a = def->AddInput("a", Shape{3});
  const int b = def->AddInput("b", Shape{3});
  def->MarkOutput(def->AddOp(OpKind::kAdd, "s", {a, b}));
  def->Finalize();
  const CellTypeId t = registry.Register(std::move(def));
  CellGraph g;
  const int n0 = g.AddNode(t, {ValueRef::External(0), ValueRef::External(1)});
  const int n1 = g.AddNode(t, {ValueRef::Output(n0, 0), ValueRef::Output(n0, 0)});

  ProcessorHarness h(&registry);
  RequestState* state = h.processor().AddRequest(1, std::move(g), 0.0);
  EXPECT_EQ(state->nodes[static_cast<size_t>(n1)].unmet_internal, 1);
  EXPECT_EQ(state->plan->InternalSuccessors(n0).size(), 1u);
  ASSERT_EQ(h.ready_subgraphs().size(), 1u);
  Subgraph* sg = h.ready_subgraphs()[0];
  EXPECT_EQ(sg->ready, std::vector<int>{n0});
  h.ScheduleAllReady(sg);
  EXPECT_EQ(sg->ready, std::vector<int>{n1});
}

TEST(RequestProcessorDeathTest, GatherOfAnUnscatteredProducerAborts) {
  TinyLstmFixture fix;
  ProcessorHarness h(&fix.registry);
  // Unfold(2): x0, x1, then h0 and c0.
  RequestState* state = h.processor().AddRequest(
      1, fix.model.Unfold(2), 0.0, ExternalRows(std::vector<Tensor>(4, Tensor::Zeros(Shape{1, 4}))));
  Subgraph* sg = h.ready_subgraphs()[0];
  BatchedTask producer = h.ScheduleAllReady(sg);  // node 0
  BatchedTask consumer = h.ScheduleAllReady(sg);  // node 1 reads node 0's h and c
  ASSERT_TRUE(state->HasOutputBuffer());  // allocated at first schedule
  EXPECT_FALSE(state->Produced(0));

  const BatchAssembler assembler(&fix.registry);
  GatheredBatch gathered;
  EXPECT_DEATH(assembler.GatherInputs(consumer, {state}, &gathered),
               "consumed before it produced output");

  // Once the producer's row is scattered, the same gather goes through.
  assembler.ExecuteTask(producer, {state});
  EXPECT_TRUE(state->Produced(0));
  assembler.GatherInputs(consumer, {state}, &gathered);
  EXPECT_EQ(gathered.inputs.size(), 3u);
}

}  // namespace
}  // namespace batchmaker
