#include "src/core/request.h"

#include <cstring>

#include "src/tensor/arena.h"

namespace batchmaker {

ExternalRows::ExternalRows(std::vector<Tensor> externals)
    : count_(static_cast<int>(externals.size())) {
  if (externals.empty()) {
    return;
  }
  size_t total = externals.size() * sizeof(Slot);
  for (const Tensor& t : externals) {
    total += static_cast<size_t>(t.NumElements()) * DTypeSize(t.dtype());
  }
  block_ = std::make_unique_for_overwrite<unsigned char[]>(total);
  Slot* slots = reinterpret_cast<Slot*>(block_.get());
  size_t offset = externals.size() * sizeof(Slot);
  for (size_t i = 0; i < externals.size(); ++i) {
    const Tensor& t = externals[i];
    const size_t bytes = static_cast<size_t>(t.NumElements()) * DTypeSize(t.dtype());
    slots[i] = Slot{offset, bytes, t.dtype()};
    std::memcpy(block_.get() + offset,
                t.dtype() == DType::kF32 ? static_cast<const void*>(t.f32())
                                         : static_cast<const void*>(t.i32()),
                bytes);
    offset += bytes;
  }
}

void RequestState::AllocateOutputBuffer() {
  BM_CHECK(output_block_ == nullptr);
  const size_t marks = static_cast<size_t>(plan->NumNodes());
  output_block_ = std::make_unique_for_overwrite<unsigned char[]>(plan->output_bytes + marks);
  std::memset(output_block_.get() + plan->output_bytes, 0, marks);
}

Tensor RequestState::NodeOutput(int node, int output) const {
  BM_CHECK(Produced(node)) << "output of node " << node << " of request " << id
                           << " read before it was produced";
  const RequestPlan::OutputRow& row = plan->Output(node, output);
  std::vector<int64_t> dims{1};
  dims.insert(dims.end(), row.type->shape.dims().begin(), row.type->shape.dims().end());
  // Owned whatever arena the calling thread has active: the copy outlives
  // every task.
  const ArenaScope owned(nullptr);
  Tensor out = Tensor::Uninitialized(Shape(std::move(dims)), row.type->dtype);
  std::memcpy(row.type->dtype == DType::kF32 ? static_cast<void*>(out.f32())
                                             : static_cast<void*>(out.i32()),
              OutputRow(node, output), row.bytes);
  return out;
}

}  // namespace batchmaker
