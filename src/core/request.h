// Request lifecycle state for cellular batching.
//
// Each request is unfolded into a CellGraph (paper §4.2) and partitioned
// into same-type connected subgraphs (§4.3). The per-node dependency
// machinery distinguishes two kinds of predecessor edges:
//   * internal (same subgraph): satisfied when the predecessor has been
//     *scheduled* — tasks touching one subgraph are pinned to one worker,
//     whose FIFO stream guarantees execution order (§4.3, §5);
//   * external (across subgraphs): satisfied only when the predecessor has
//     *completed*, since the consumer subgraph may run on another worker.
// A subgraph is passed to the scheduler once all of its external
// dependencies are satisfied.

#ifndef SRC_CORE_REQUEST_H_
#define SRC_CORE_REQUEST_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <vector>

#include "src/graph/cell_graph.h"
#include "src/runtime/task.h"
#include "src/tensor/tensor.h"
#include "src/util/logging.h"

namespace batchmaker {

struct RequestState;

// Terminal outcome of a request, delivered exactly once through the
// engine's response callback (see DESIGN.md "Overload and failure
// semantics"). Every accepted submission ends in exactly one of these.
enum class RequestStatus : uint8_t {
  kOk = 0,     // all non-cancelled nodes executed; outputs are valid
  kShed,       // dropped by the queue-timeout deadline before execution
  kRejected,   // never admitted (validation failure, full queue, shutdown)
  kFailed,     // a task containing this request's nodes failed to execute
  kCancelled,  // cancelled by the caller (Server::Cancel) mid-flight
};

inline const char* RequestStatusName(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kShed: return "shed";
    case RequestStatus::kRejected: return "rejected";
    case RequestStatus::kFailed: return "failed";
    case RequestStatus::kCancelled: return "cancelled";
  }
  return "unknown";
}

// Called exactly once per submission with the request's terminal status.
// Receives the tensors requested at submission (in `outputs_wanted`
// order) when status is kOk; outputs whose producing node was cancelled
// by early termination are skipped. Non-kOk responses carry no outputs.
using ResponseFn = std::function<void(RequestId, RequestStatus, std::vector<Tensor>)>;

// Early-termination predicate, evaluated on the owning shard after each of
// the request's nodes completes. Returning true cancels all of the
// request's not-yet-scheduled nodes (e.g. stop decoding once the token
// output of `completed_node`, read through RequestState::NodeOutput, is
// <eos>).
using TerminationFn = std::function<bool(const RequestState&, int completed_node)>;

// A request's external inputs, packed into one engine-owned block. The
// engines build it inside Submit, on the submitting thread, from the
// validated tensors, which die there; the request then reaches the manager
// with all its externals in this one block, and the manager never frees a
// client-allocated tensor. Each external keeps its dtype and its bytes
// (one [1, row...] row for every external a node consumes); gathers read
// the rows in place.
class ExternalRows {
 public:
  ExternalRows() = default;  // no externals (virtual time)
  explicit ExternalRows(std::vector<Tensor> externals);

  bool empty() const { return count_ == 0; }
  DType dtype(int index) const { return At(index).dtype; }
  size_t bytes(int index) const { return At(index).bytes; }
  const unsigned char* Row(int index) const { return block_.get() + At(index).offset; }

 private:
  struct Slot {
    size_t offset = 0;  // from the start of the block
    size_t bytes = 0;
    DType dtype = DType::kF32;
  };
  const Slot& At(int index) const {
    BM_CHECK_GE(index, 0);
    BM_CHECK_LT(index, count_);
    return reinterpret_cast<const Slot*>(block_.get())[index];
  }

  // count_ Slots, then every external's bytes back to back.
  std::unique_ptr<unsigned char[]> block_;
  int count_ = 0;
};

// The ready nodes of one subgraph. The list lives in the slots its request
// reserves for the subgraph (RequestState::ready_slots); the subgraph's node
// count is its capacity, which bounds it, since ready nodes are distinct
// members of the subgraph.
class ReadyList {
 public:
  using value_type = int;
  using iterator = int*;
  using const_iterator = const int*;

  ReadyList() = default;
  ReadyList(int* slots, int capacity) : slots_(slots), capacity_(capacity) {}

  int* begin() { return slots_; }
  int* end() { return slots_ + size_; }
  const int* begin() const { return slots_; }
  const int* end() const { return slots_ + size_; }
  size_t size() const { return static_cast<size_t>(size_); }
  bool empty() const { return size_ == 0; }
  int operator[](size_t i) const { return slots_[i]; }

  void push_back(int node) {
    BM_CHECK_LT(size_, capacity_) << "ready list overflow";
    slots_[size_++] = node;
  }
  void clear() { size_ = 0; }

  // Removes `node`, moving the last entry into its slot.
  void Remove(int node) {
    int* it = std::find(begin(), end(), node);
    if (it != end()) {
      *it = slots_[--size_];
    }
  }

  // Drops the first `count` entries: the nodes a task just took. The
  // survivors end up exactly where removing the taken nodes one at a time
  // with Remove leaves them (the ready-list order the scheduler has always
  // batched by): the last min(count, survivors) move, reversed, into the
  // freed front slots, and the rest stay put. No search.
  void DropPrefix(int count) {
    BM_CHECK_GE(count, 0);
    BM_CHECK_LE(count, size_);
    const int survivors = size_ - count;
    const int moved = std::min(count, survivors);
    for (int i = 0; i < moved; ++i) {
      slots_[i] = slots_[size_ - 1 - i];
    }
    size_ = survivors;
  }

  operator std::vector<int>() const { return std::vector<int>(begin(), end()); }
  friend bool operator==(const ReadyList& a, const std::vector<int>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  int* slots_ = nullptr;
  int size_ = 0;
  int capacity_ = 0;
};

// One same-type connected subgraph of a request's cell graph.
struct Subgraph {
  RequestState* owner = nullptr;
  int id = 0;  // index within owner->subgraphs
  CellTypeId type = kInvalidCellType;
  std::span<const int> nodes;  // cell-graph node ids, ascending (the plan's)

  // Nodes whose dependencies allow scheduling now (internal preds
  // scheduled; the subgraph itself released).
  ReadyList ready;
  // Nodes not yet put into a task.
  int unscheduled = 0;
  // Outstanding external predecessor completions before release.
  int unmet_external = 0;
  bool released = false;
  // All remaining nodes cancelled; the subgraph will never release or
  // schedule again.
  bool cancelled = false;

  // Failure recovery: the subgraph had scheduled nodes reverted to pending
  // after a co-batched task failed. A parked subgraph sits outside the
  // scheduler's type queue and must not form new tasks until its in-flight
  // count drains to zero — only then is it safe to re-schedule the reverted
  // nodes (possibly on another worker) without violating stream order.
  bool parked = false;

  // Scheduling state (managed by the Scheduler).
  int pinned_worker = -1;  // -1 = unpinned (Algorithm 1: pinned == None)
  // Worker that executed this subgraph's most recent task; scheduling the
  // next task on a different worker is a migration (state copy).
  int last_worker = -1;
  int inflight_tasks = 0;  // batched tasks containing nodes of this subgraph
  bool in_queue = false;   // present in the scheduler's per-type queue
  // Position in that queue, valid iff in_queue (O(1) removal handle).
  std::list<Subgraph*>::iterator queue_pos;
};

enum class NodeStage : uint8_t {
  kPending = 0,  // dependencies unmet
  kReady,        // schedulable
  kScheduled,    // inside a submitted task
  kCompleted,
  kCancelled,    // early termination (e.g. <eos> emitted): never executes
};

struct NodeState {
  NodeStage stage = NodeStage::kPending;
  int subgraph = -1;        // owning subgraph id
  int unmet_internal = 0;   // same-subgraph predecessors not yet scheduled
  int unmet_external = 0;   // cross-subgraph predecessors not yet completed
  // Times this node was reverted out of a failed task as an innocent
  // co-batched entry; bounded by Scheduler's retry limit so a
  // deterministically faulting task cannot requeue forever.
  int retries = 0;
};

// The immutable part of request processing for one cell-graph structure
// (node types plus input refs): the partition into subgraphs (paper §4.3),
// the initial dependency counters, the successor lists split by kind, and
// the layout of the request's output buffer. RequestProcessor builds one
// per distinct structure and shares it, refcounted, among every request
// with that structure; a request keeps its plan for life, migrations
// included.
struct RequestPlan {
  struct SubgraphPlan {
    CellTypeId type = kInvalidCellType;
    int node_begin = 0;  // [node_begin, node_end) of subgraph_nodes
    int node_end = 0;
    int unmet_external = 0;  // initial cross-subgraph predecessor count
  };
  struct NodePlan {
    // [succ_begin, succ_split) of successors are same-subgraph consumers,
    // [succ_split, succ_end) cross-subgraph ones; each range ascending.
    int succ_begin = 0;
    int succ_split = 0;
    int succ_end = 0;
    int output_begin = 0;  // index of the node's first row in outputs
  };
  // One node output row in the request's output buffer.
  struct OutputRow {
    size_t offset = 0;  // bytes
    size_t bytes = 0;
    const ValueType* type = nullptr;  // row shape and dtype (registry-owned)
  };

  std::vector<NodeState> initial_nodes;  // kPending, subgraph + counters set
  std::vector<NodePlan> nodes;
  std::vector<int> successors;
  std::vector<SubgraphPlan> subgraphs;
  std::vector<int> subgraph_nodes;  // each subgraph's nodes, in subgraph order
  std::vector<OutputRow> outputs;
  size_t output_bytes = 0;  // rows of every node output, back to back

  // The structure the plan was built for, compared exactly on a hash hit:
  // per node its type, input count, then (node, output, external) per input.
  uint64_t hash = 0;
  std::vector<int> key;

  int NumNodes() const { return static_cast<int>(nodes.size()); }
  std::span<const int> InternalSuccessors(int node) const {
    const NodePlan& n = nodes[static_cast<size_t>(node)];
    return {successors.data() + n.succ_begin, successors.data() + n.succ_split};
  }
  std::span<const int> ExternalSuccessors(int node) const {
    const NodePlan& n = nodes[static_cast<size_t>(node)];
    return {successors.data() + n.succ_split, successors.data() + n.succ_end};
  }
  const OutputRow& Output(int node, int output) const {
    return outputs[static_cast<size_t>(nodes[static_cast<size_t>(node)].output_begin + output)];
  }
};

struct RequestState {
  RequestId id = 0;
  CellGraph graph;
  double arrival_micros = 0.0;
  std::shared_ptr<const RequestPlan> plan;

  // Real-compute mode only: external input rows, indexed by the
  // ValueRef::External indices the unfold function used.
  ExternalRows externals;

  std::vector<NodeState> nodes;
  std::vector<std::unique_ptr<Subgraph>> subgraphs;
  // Backing slots of every subgraph's ReadyList: subgraph s owns the slots
  // [node_begin, node_end) of its plan entry.
  std::vector<int> ready_slots;
  int remaining_nodes = 0;
  int cancelled_nodes = 0;

  // ---- Output buffer (real-compute mode only) ----
  // One block per request holding every node output row at the plan's
  // offsets, followed by one "produced" mark per node. The manager
  // allocates it when the request is first scheduled and it dies with the
  // state; exec threads copy each output row in at scatter (concurrent
  // scatters write disjoint rows) and set the node's mark, and gathers read
  // rows in place.
  bool HasOutputBuffer() const { return output_block_ != nullptr; }
  void AllocateOutputBuffer();
  unsigned char* OutputRow(int node, int output) {
    return output_block_.get() + plan->Output(node, output).offset;
  }
  const unsigned char* OutputRow(int node, int output) const {
    return output_block_.get() + plan->Output(node, output).offset;
  }
  bool Produced(int node) const {
    return output_block_ != nullptr &&
           output_block_[plan->output_bytes + static_cast<size_t>(node)] != 0;
  }
  void MarkProduced(int node) {
    output_block_[plan->output_bytes + static_cast<size_t>(node)] = 1;
  }
  // An owned [1, row...] copy of output `output` of `node`, which must have
  // produced it.
  Tensor NodeOutput(int node, int output) const;

  // ---- Submission bookkeeping; migrates with the request ----
  std::vector<ValueRef> outputs_wanted;
  ResponseFn on_response;  // may be null
  TerminationFn terminate;  // may be null

  // Metrics (virtual or real micros, depending on the engine). The
  // first-exec timestamp is stamped by whichever worker thread first begins
  // executing a task containing this request (CAS from the -1 sentinel), so
  // the manager hot loop never walks task entries just to timestamp them.
  // Subgraphs of one request may run on different workers concurrently,
  // hence the atomic; whichever racer wins is a valid "first execution".
  std::atomic<double> exec_start_micros{-1.0};
  double completion_micros = -1.0;

  // NUMA node index of the worker that last scattered one of this request's
  // node outputs; -1 = never scattered or placement off. Written (relaxed)
  // by exec threads after scatter, read by later gathers to estimate
  // cross-node gather traffic
  // (MetricsCollector::NodeCounters::remote_gather_bytes).
  // Only maintained when numa_policy != none; purely diagnostic — the
  // estimate never influences scheduling.
  std::atomic<int> last_scatter_node{-1};

  double ExecStartMicros() const {
    return exec_start_micros.load(std::memory_order_relaxed);
  }
  bool ExecStarted() const { return ExecStartMicros() >= 0.0; }
  void MarkExecStarted(double now_micros) {
    double expected = -1.0;
    exec_start_micros.compare_exchange_strong(expected, now_micros,
                                              std::memory_order_relaxed);
  }
  // Terminal outcome. Transitions away from kOk at most once, always on
  // the engine's manager thread (helper below); the completion path
  // branches on it to pick metrics/trace/callback treatment.
  RequestStatus status = RequestStatus::kOk;

  // Marks the terminal status if none has been set yet. Returns true iff
  // this call performed the transition (exactly-once discipline).
  bool MarkTerminal(RequestStatus s) {
    if (status != RequestStatus::kOk) {
      return false;
    }
    status = s;
    return true;
  }

  // Per-request SLA deadline (SubmitOptions::deadline_micros), micros
  // after arrival; 0 = none, negative disables shedding for this request.
  // Kept distinct from the engine-wide queue timeout below: a
  // queue-timeout is an overload-control backstop, not an SLA.
  double deadline_micros = 0.0;
  // Engine-wide admission.queue_timeout_micros, stamped at admission so it
  // migrates with the request across shards; 0 = none.
  double queue_timeout_micros = 0.0;

  // Effective shedding deadline, micros after arrival: the *tighter* of
  // the per-request SLA deadline and the engine queue timeout. A negative
  // per-request deadline opts the request out of shedding entirely.
  // Returns <= 0 when shedding is disabled.
  double ShedDeadlineMicros() const {
    if (deadline_micros < 0.0) {
      return -1.0;
    }
    if (deadline_micros > 0.0 && queue_timeout_micros > 0.0) {
      return deadline_micros < queue_timeout_micros ? deadline_micros
                                                    : queue_timeout_micros;
    }
    return deadline_micros > 0.0 ? deadline_micros : queue_timeout_micros;
  }

  // SubmitOptions::priority: advisory importance, higher = more important.
  // Only consulted when picking cross-shard steal victims (lowest priority
  // is stolen first, FIFO among equals).
  int priority = 0;

  // True once any node of this request has entered a batched task
  // (set by RequestProcessor::MarkScheduled, never cleared). A request is
  // only eligible for cross-shard stealing while false: a never-scheduled
  // request has no pinned subgraphs, no in-flight tasks and no written
  // tensors, so migrating it wholesale cannot violate the FIFO pinning
  // invariant or perturb outputs.
  bool ever_scheduled = false;

  bool Completed() const { return remaining_nodes == 0; }

 private:
  std::unique_ptr<unsigned char[]> output_block_;
};

}  // namespace batchmaker

#endif  // SRC_CORE_REQUEST_H_
