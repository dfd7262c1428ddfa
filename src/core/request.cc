#include "src/core/request.h"

#include <cstring>

#include "src/tensor/arena.h"

namespace batchmaker {

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
