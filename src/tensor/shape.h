// Tensor shapes. BatchMaker tensors are row-major with at most 4 dimensions;
// in practice the RNN cells use rank-1 and rank-2 tensors where the first
// dimension is the batch dimension (paper §4.2: "the first dimension of each
// of its input tensors should be the batch dimension").

#ifndef SRC_TENSOR_SHAPE_H_
#define SRC_TENSOR_SHAPE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace batchmaker {

class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<int64_t> dims);
  explicit Shape(std::vector<int64_t> dims);

  int Rank() const { return static_cast<int>(dims_.size()); }
  int64_t Dim(int i) const;
  const std::vector<int64_t>& dims() const { return dims_; }

  // Product of all dims; 1 for rank-0.
  int64_t NumElements() const;

  // Returns a copy with dim `i` replaced.
  Shape WithDim(int i, int64_t value) const;

  // For rank >= 1: all dims except the first (batch) dim.
  Shape RowShape() const;
  // RowShape() == row, without building the row shape. False for rank 0.
  bool HasRowShape(const Shape& row) const;

  // Number of elements in one batch row (NumElements / Dim(0)). Requires
  // rank >= 1 and Dim(0) > 0.
  int64_t RowElements() const;

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  std::string ToString() const;

 private:
  std::vector<int64_t> dims_;
};

}  // namespace batchmaker

#endif  // SRC_TENSOR_SHAPE_H_
