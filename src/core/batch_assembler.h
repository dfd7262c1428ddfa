// BatchAssembler: the real-compute execution path for a batched task.
//
// Implements the paper's "gather" step (§4.3: batched inputs must be laid
// out in contiguous memory before execution): for each cell input slot, one
// row per task entry is gathered from the producing node's output (or from
// the request's external inputs) into a contiguous [batch, ...] tensor. The
// cell executor runs once on the whole batch, and each output row is copied
// back into its request's output buffer (RequestState::OutputRow).
//
// The three stages are exposed separately so a device backend can put each
// behind its own DeviceBackend / DeviceQueue entry point (gather into a
// staging arena, execute on the queue's pool, scatter from the queue).
// Results are bitwise identical to the composed ExecuteTask by
// construction — the stages compute exactly the same tensors.

#ifndef SRC_CORE_BATCH_ASSEMBLER_H_
#define SRC_CORE_BATCH_ASSEMBLER_H_

#include <vector>

#include "src/core/request.h"
#include "src/device/device_backend.h"  // GatheredBatch
#include "src/graph/cell_registry.h"
#include "src/runtime/task.h"

namespace batchmaker {

class BatchAssembler {
 public:
  explicit BatchAssembler(const CellRegistry* registry);

  // Gathers, executes, and scatters one task; states[i] owns
  // task.entries[i], and every state carries external tensors (real-compute
  // mode). Thread-safe with respect to other tasks whose entries do not
  // overlap, which the scheduler's pinning discipline guarantees.
  //
  // `ctx` (optional) supplies the calling worker's intra-task ThreadPool —
  // used to fan gather/scatter over batch rows and GEMM over output blocks
  // — and its TensorArena, which holds the gather buffers and all cell
  // intermediates and is Reset() before returning. Results are bitwise
  // identical with or without a context.
  void ExecuteTask(const BatchedTask& task, const std::vector<RequestState*>& states,
                   const ExecContext* ctx = nullptr) const;

  // ---- Staged API (the composed ExecuteTask is Gather + Execute + Scatter) ----
  //
  // Ordering: GatherInputs reads the output rows of the entries'
  // producers, so the caller must guarantee every producer has already been
  // *scattered* — the server's exec thread scatters each task of its FIFO
  // stream before it gathers the next. A row whose producer never scattered
  // aborts the gather ("consumed before it produced output").

  // Stage 1: gathers one contiguous [batch, ...] tensor per cell input
  // slot into `out`. Uses ctx->arena for the gather buffers and ctx->pool
  // to fan row copies (both optional).
  //
  // `poisoned` (optional, size == batch) marks entries whose producers
  // failed to execute: their rows are gathered from zero tensors instead of
  // the (missing) producer outputs, keeping the batch shape intact without
  // reading uninitialized memory. Zero rows cannot perturb clean rows — all
  // cell ops are row-independent — so the clean entries stay bitwise
  // identical to a batch without the poisoned ones.
  void GatherInputs(const BatchedTask& task, const std::vector<RequestState*>& states,
                    GatheredBatch* out, const ExecContext* ctx = nullptr,
                    const std::vector<uint8_t>* poisoned = nullptr) const;

  // Stage 2: executes the whole batch in one cell invocation. Returned
  // tensors always own their storage (safe past any arena reset); cell
  // intermediates draw from ctx->arena, which the caller may Reset once
  // this returns.
  std::vector<Tensor> ExecuteGathered(const BatchedTask& task,
                                      const GatheredBatch& gathered,
                                      const ExecContext* ctx = nullptr) const;

  // Stage 3: copies each output row into its entry's rows of the request's
  // output buffer and marks the node produced. Entries are distinct
  // (request, node) pairs, so rows write disjoint destinations. Rows marked
  // in `poisoned` (optional, size == batch) are skipped: their garbage
  // outputs must never land in request state, since the failed entries will
  // re-execute (or be cancelled) through the failure path.
  void ScatterOutputs(const BatchedTask& task, const std::vector<RequestState*>& states,
                      const std::vector<Tensor>& outputs,
                      const ExecContext* ctx = nullptr,
                      const std::vector<uint8_t>* poisoned = nullptr) const;

 private:
  const CellRegistry* registry_;
};

// Helpers to build [1, ...]-shaped per-request external tensors.
Tensor ExternalTokenTensor(int32_t token);
Tensor ExternalVecTensor(const std::vector<float>& values);
Tensor ExternalZeroVecTensor(int64_t dim);

}  // namespace batchmaker

#endif  // SRC_CORE_BATCH_ASSEMBLER_H_
