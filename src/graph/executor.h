// CellExecutor: interprets a finalized CellDef on batched input tensors.
//
// This is the CPU analogue of the paper's materialized GPU cells: a cell is
// "executed" as one unit, with all of its internal operators run back to
// back (the worker pushes all kernels of a task without waiting, §5).
//
// Construction pre-packs every MatMul weight into the GEMM's panel layout
// (once per CellDef — the CellRegistry builds one executor per registered
// cell), so the hot path never repacks weights. Execution optionally takes
// an ExecContext carrying the calling worker's intra-task ThreadPool and
// scratch TensorArena; both default to null (serial, heap-allocating), which
// is the bitwise reference behaviour.

#ifndef SRC_GRAPH_EXECUTOR_H_
#define SRC_GRAPH_EXECUTOR_H_

#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/graph/cell_def.h"
#include "src/tensor/arena.h"
#include "src/tensor/gemm.h"
#include "src/tensor/tensor.h"
#include "src/util/thread_pool.h"

namespace batchmaker {

// Per-worker execution resources, owned by whoever drives the executor (the
// server's worker threads, the sync engine). Everything is optional; the
// parallel path is bitwise-identical to the serial one by construction.
struct ExecContext {
  ThreadPool* pool = nullptr;     // intra-task parallelism; null = serial
  TensorArena* arena = nullptr;   // task-scoped scratch; null = heap
  // GEMM precision for pre-packed MatMul weights, the engine's one choice.
  Precision precision = Precision::kF32;
  // Has no reader. It stays only because servebench/probes.cc
  // brace-initialises all four fields; once ROADMAP item 6's
  // benchmark-only change drops that -1, delete it.
  int numa_node = -1;
};

class CellExecutor {
 public:
  explicit CellExecutor(const CellDef* def);

  const CellDef& def() const { return *def_; }

  // Builds the quantized packed-weight cache for `p` if it does not exist
  // yet. Thread-safe and idempotent; Execute calls it lazily, but callers
  // that care about cold-start latency (Server::Start) invoke it up front.
  void EnsurePacked(Precision p) const;

  // Runs the cell on a batch. `inputs[i]` must have shape
  // [batch] + input_spec(i).row_shape and the declared dtype; all inputs
  // must agree on the batch size. Returns one tensor per declared output;
  // returned tensors always own their storage (safe past any arena reset).
  // The GEMM precision is ctx->precision, fp32 without a context.
  // (Pointer arguments only: a value-vector overload would be ambiguous
  // with brace-initialized two-pointer argument lists.)
  std::vector<Tensor> Execute(const std::vector<const Tensor*>& inputs,
                              const ExecContext* ctx = nullptr) const;

  // Number of MatMul weights pre-packed at construction (diagnostics).
  int NumPackedWeights() const { return static_cast<int>(packed_weights_.size()); }

 private:
  const CellDef* def_;  // not owned; must outlive the executor
  // MatMul op id -> packed form of its kParam RHS weight (fp32 reference
  // pack, always built — the fp32 path must stay byte-identical).
  std::unordered_map<int, PackedMatrix> packed_weights_;
  // Lazily-built int8 packs, keyed like packed_weights_. Guarded by the
  // once flag; read-only once built.
  mutable std::unordered_map<int, PackedMatrix> packed_int8_;
  mutable std::once_flag int8_once_;
  // GEMM fusions, found once at construction; indexed by op id. A fused
  // value is never a cell output and has exactly one reader.
  //  - bias_fused_[mm]: packed MatMul `mm` is read only by AddBias(mm,
  //    param), which runs the GEMM with the bias in its store epilogue.
  //  - concat_split_[cat]: Concat `cat` is read only by a packed MatMul; at
  //    fp32 it is never built, the GEMM reads its inputs in place (split-K).
  //    int8 still builds it (its per-row activation scale spans all of K).
  std::vector<bool> bias_fused_;
  std::vector<bool> concat_split_;
};

}  // namespace batchmaker

#endif  // SRC_GRAPH_EXECUTOR_H_
