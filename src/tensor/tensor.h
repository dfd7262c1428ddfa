// A dense row-major tensor with float32 or int32 elements.
//
// Tensors are value types: copying a Tensor deep-copies the data into owned
// storage (std::vector), moving is cheap. The batched-execution layer
// relies on the row-gather/row-scatter helpers in src/tensor/ops.h to
// assemble contiguous batched inputs (the paper's "gather" memory copy).
//
// Storage comes in two flavours. The default is owning. When a TensorArena
// ArenaScope is active on the constructing thread, new tensors instead
// borrow bump-allocated storage from the arena — the execution hot path
// uses this for task-scoped scratch (gather buffers, cell intermediates).
// Borrowed tensors must not outlive their arena's Reset(); copying one
// (which the cell executor does for everything that escapes a task) always
// materializes an owning tensor.

#ifndef SRC_TENSOR_TENSOR_H_
#define SRC_TENSOR_TENSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/tensor/shape.h"
#include "src/util/rng.h"

namespace batchmaker {

enum class DType {
  kF32,
  kI32,
};

const char* DTypeName(DType dtype);
size_t DTypeSize(DType dtype);

class Tensor {
 public:
  // An empty (rank-0, 1-element) float tensor.
  Tensor();
  // Zero-filled; draws from the ambient ArenaScope when one is active.
  explicit Tensor(Shape shape, DType dtype = DType::kF32);

  Tensor(const Tensor& other);             // deep copy; result always owns
  Tensor& operator=(const Tensor& other);  // deep copy; result always owns
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor() = default;

  static Tensor Zeros(Shape shape, DType dtype = DType::kF32);
  // Like Tensor(shape, dtype) but skips the zero fill on the arena path —
  // for outputs every element of which is about to be written (GEMM's
  // beta=0 store, gather targets). Owned storage is still zeroed (vector
  // allocation zero-fills regardless).
  static Tensor Uninitialized(Shape shape, DType dtype = DType::kF32);
  static Tensor Full(Shape shape, float value);
  static Tensor FromVector(Shape shape, std::vector<float> values);
  static Tensor FromIntVector(Shape shape, std::vector<int32_t> values);
  // Uniform in [-limit, limit]; the standard "Glorot-ish" init used by the
  // model zoo. Deterministic given the Rng state.
  static Tensor RandomUniform(Shape shape, float limit, Rng* rng);

  const Shape& shape() const { return shape_; }
  DType dtype() const { return dtype_; }
  int64_t NumElements() const { return shape_.NumElements(); }
  // True if the storage is borrowed from a TensorArena.
  bool arena_backed() const { return borrowed_ != nullptr; }

  float* f32();
  const float* f32() const;
  int32_t* i32();
  const int32_t* i32() const;

  // Element access for rank-2 tensors (the common case).
  float& At(int64_t row, int64_t col);
  float At(int64_t row, int64_t col) const;
  int32_t& IntAt(int64_t row, int64_t col);
  int32_t IntAt(int64_t row, int64_t col) const;

  // Byte-level equality of shape, dtype and contents.
  bool ElementsEqual(const Tensor& other) const;
  // Max-abs-difference comparison for float tensors.
  bool AllClose(const Tensor& other, float atol = 1e-5f) const;

  // 64-bit FNV-1a hash over dtype, shape, and raw contents. Used by the cell
  // registry to identify cells that share weights.
  uint64_t ContentHash() const;

  std::string DebugString(int64_t max_elements = 16) const;

 private:
  // Storage from the ambient arena (zero-filled only if `zero_fill`) or
  // owned and zeroed.
  Tensor(Shape shape, DType dtype, bool zero_fill);

  Shape shape_;
  DType dtype_;
  // Owned storage (empty when borrowed_ is set).
  std::vector<float> fdata_;
  std::vector<int32_t> idata_;
  // Arena storage; valid until the arena's Reset. Never both.
  void* borrowed_ = nullptr;
};

}  // namespace batchmaker

#endif  // SRC_TENSOR_TENSOR_H_
