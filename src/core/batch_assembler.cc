#include "src/core/batch_assembler.h"

#include "src/tensor/ops.h"
#include "src/util/logging.h"

namespace batchmaker {

BatchAssembler::BatchAssembler(const CellRegistry* registry) : registry_(registry) {
  BM_CHECK(registry != nullptr);
}

void BatchAssembler::ExecuteTask(const BatchedTask& task,
                                 const std::vector<RequestState*>& states,
                                 const ExecContext* ctx) const {
  TensorArena* arena = ctx != nullptr ? ctx->arena : nullptr;
  std::vector<Tensor> outputs;
  {
    // Gather + execute share the arena: the per-slot batch buffers and
    // every cell intermediate live exactly as long as this task. The
    // outputs that ExecuteGathered returns are owned copies, so the arena
    // can be recycled before the scatter.
    GatheredBatch gathered;
    GatherInputs(task, states, &gathered, ctx);
    outputs = ExecuteGathered(task, gathered, ctx);
  }
  if (arena != nullptr) {
    arena->Reset();  // gather buffers + intermediates recycled for the next task
  }
  ScatterOutputs(task, states, outputs, ctx);
}

void BatchAssembler::GatherInputs(const BatchedTask& task,
                                  const std::vector<RequestState*>& states,
                                  GatheredBatch* out, const ExecContext* ctx,
                                  const std::vector<uint8_t>* poisoned) const {
  BM_CHECK(out != nullptr);
  BM_CHECK_GT(task.BatchSize(), 0);
  BM_CHECK_EQ(states.size(), task.entries.size());
  const CellDef& def = registry_->def(task.type);
  const int batch = task.BatchSize();
  ThreadPool* pool = ctx != nullptr ? ctx->pool : nullptr;
  TensorArena* arena = ctx != nullptr ? ctx->arena : nullptr;
  if (poisoned != nullptr) {
    BM_CHECK_EQ(poisoned->size(), task.entries.size());
  }
  for (RequestState* state : states) {
    BM_CHECK(state != nullptr);
    BM_CHECK(!state->externals.empty())
        << "real-compute execution requires external input tensors";
  }

  ArenaScope arena_scope(arena);
  out->inputs.clear();
  out->inputs.reserve(static_cast<size_t>(def.NumInputs()));
  // Each row is read in place: from the request's external rows or from its
  // output buffer, whose layout the plan fixed.
  std::vector<const void*> sources(static_cast<size_t>(batch));
  for (int slot = 0; slot < def.NumInputs(); ++slot) {
    const CellInputSpec& slot_spec = def.input_spec(slot);
    std::vector<int64_t> out_dims{batch};
    out_dims.insert(out_dims.end(), slot_spec.row_shape.dims().begin(),
                    slot_spec.row_shape.dims().end());
    Tensor gathered = Tensor::Uninitialized(Shape(std::move(out_dims)), slot_spec.dtype);
    const size_t row_bytes =
        static_cast<size_t>(slot_spec.row_shape.NumElements()) * DTypeSize(slot_spec.dtype);
    Tensor zero_row;  // lazily built substitute source for poisoned rows
    for (int i = 0; i < batch; ++i) {
      if (poisoned != nullptr && (*poisoned)[static_cast<size_t>(i)] != 0) {
        if (zero_row.shape().Rank() == 0) {
          zero_row = Tensor::Zeros(gathered.shape().WithDim(0, 1), slot_spec.dtype);
        }
        sources[static_cast<size_t>(i)] = slot_spec.dtype == DType::kF32
                                              ? static_cast<const void*>(zero_row.f32())
                                              : static_cast<const void*>(zero_row.i32());
        continue;
      }
      const TaskEntry& entry = task.entries[static_cast<size_t>(i)];
      const RequestState* state = states[static_cast<size_t>(i)];
      const ValueRef& ref = state->graph.NodeInputs(entry.node)[static_cast<size_t>(slot)];
      if (ref.is_external()) {
        const ExternalRows& ext = state->externals;
        BM_CHECK(ext.dtype(ref.external) == slot_spec.dtype && ext.bytes(ref.external) == row_bytes)
            << "external input " << ref.external << " of request " << entry.request
            << " does not fit input slot " << slot;
        sources[static_cast<size_t>(i)] = ext.Row(ref.external);
      } else {
        BM_CHECK(state->Produced(ref.node))
            << "node " << ref.node << " of request " << entry.request
            << " consumed before it produced output (scheduling bug)";
        const ValueType& produced = *state->plan->Output(ref.node, ref.output).type;
        BM_CHECK(produced.shape == slot_spec.row_shape && produced.dtype == slot_spec.dtype)
            << "row shape mismatch gathering node " << entry.node << " of request "
            << entry.request;
        sources[static_cast<size_t>(i)] = state->OutputRow(ref.node, ref.output);
      }
    }
    if (pool != nullptr && pool->num_threads() > 1 && batch >= 2 * pool->num_threads()) {
      // Row copies are independent; strided row ownership keeps the
      // result identical for any thread count.
      pool->Run(batch, [&](int64_t i) { GatherRowPtrsInto(sources, &gathered, i, i + 1); });
    } else {
      GatherRowPtrsInto(sources, &gathered, 0, batch);
    }
    out->inputs.push_back(std::move(gathered));
  }
}

std::vector<Tensor> BatchAssembler::ExecuteGathered(const BatchedTask& task,
                                                    const GatheredBatch& gathered,
                                                    const ExecContext* ctx) const {
  const CellExecutor& executor = registry_->executor(task.type);
  std::vector<const Tensor*> input_ptrs;
  input_ptrs.reserve(gathered.inputs.size());
  for (const Tensor& t : gathered.inputs) {
    input_ptrs.push_back(&t);
  }
  // Execute the whole batch in one cell invocation; the executor opens its
  // own ArenaScope on ctx->arena for intermediates, and its returned
  // outputs always own their storage.
  return executor.Execute(input_ptrs, ctx);
}

void BatchAssembler::ScatterOutputs(const BatchedTask& task,
                                    const std::vector<RequestState*>& states,
                                    const std::vector<Tensor>& outputs,
                                    const ExecContext* ctx,
                                    const std::vector<uint8_t>* poisoned) const {
  BM_CHECK_EQ(states.size(), task.entries.size());
  const int batch = task.BatchSize();
  ThreadPool* pool = ctx != nullptr ? ctx->pool : nullptr;
  if (poisoned != nullptr) {
    BM_CHECK_EQ(poisoned->size(), task.entries.size());
  }
  // The outputs must be the rows the plans laid out: the cell's declared
  // output types, batched.
  const CellDef& def = registry_->def(task.type);
  BM_CHECK_EQ(static_cast<int>(outputs.size()), def.NumOutputs());
  for (int o = 0; o < def.NumOutputs(); ++o) {
    const Tensor& out = outputs[static_cast<size_t>(o)];
    const ValueType& type = def.output_type(o);
    BM_CHECK(out.dtype() == type.dtype && out.shape().HasRowShape(type.shape) &&
             out.shape().Dim(0) == batch)
        << "output " << o << " of cell '" << def.name() << "' is " << out.shape().ToString();
  }
  // Copy each output row into its request's output buffer. Entries are
  // distinct (request, node) pairs, so rows write disjoint destinations.
  auto scatter_row = [&](int64_t i) {
    if (poisoned != nullptr && (*poisoned)[static_cast<size_t>(i)] != 0) {
      return;  // failed entry: its row is garbage and must not land anywhere
    }
    const int node = task.entries[static_cast<size_t>(i)].node;
    RequestState* state = states[static_cast<size_t>(i)];
    for (size_t o = 0; o < outputs.size(); ++o) {
      CopyRowTo(outputs[o], i, state->OutputRow(node, static_cast<int>(o)));
    }
    state->MarkProduced(node);
  };
  if (pool != nullptr && pool->num_threads() > 1 && batch >= 2 * pool->num_threads()) {
    pool->Run(batch, scatter_row);
  } else {
    for (int i = 0; i < batch; ++i) {
      scatter_row(i);
    }
  }
}

Tensor ExternalTokenTensor(int32_t token) {
  return Tensor::FromIntVector(Shape{1, 1}, {token});
}

Tensor ExternalVecTensor(const std::vector<float>& values) {
  const int64_t dim = static_cast<int64_t>(values.size());
  return Tensor::FromVector(Shape{1, dim}, values);
}

Tensor ExternalZeroVecTensor(int64_t dim) { return Tensor::Zeros(Shape{1, dim}); }

}  // namespace batchmaker
