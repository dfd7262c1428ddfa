#include "src/tensor/shape.h"

#include <algorithm>
#include <sstream>

#include "src/util/logging.h"

namespace batchmaker {

Shape::Shape(std::initializer_list<int64_t> dims) : dims_(dims) {
  BM_CHECK_LE(dims_.size(), 4u) << "shapes are limited to rank 4";
  for (int64_t d : dims_) {
    BM_CHECK_GE(d, 0) << "negative dimension";
  }
}

Shape::Shape(std::vector<int64_t> dims) : dims_(std::move(dims)) {
  BM_CHECK_LE(dims_.size(), 4u) << "shapes are limited to rank 4";
  for (int64_t d : dims_) {
    BM_CHECK_GE(d, 0) << "negative dimension";
  }
}

int64_t Shape::Dim(int i) const {
  BM_CHECK_GE(i, 0);
  BM_CHECK_LT(i, Rank());
  return dims_[static_cast<size_t>(i)];
}

int64_t Shape::NumElements() const {
  int64_t n = 1;
  for (int64_t d : dims_) {
    n *= d;
  }
  return n;
}

Shape Shape::WithDim(int i, int64_t value) const {
  BM_CHECK_GE(i, 0);
  BM_CHECK_LT(i, Rank());
  BM_CHECK_GE(value, 0);
  std::vector<int64_t> dims = dims_;
  dims[static_cast<size_t>(i)] = value;
  return Shape(std::move(dims));
}

Shape Shape::RowShape() const {
  BM_CHECK_GE(Rank(), 1);
  return Shape(std::vector<int64_t>(dims_.begin() + 1, dims_.end()));
}

bool Shape::HasRowShape(const Shape& row) const {
  return !dims_.empty() && dims_.size() == row.dims_.size() + 1 &&
         std::equal(row.dims_.begin(), row.dims_.end(), dims_.begin() + 1);
}

int64_t Shape::RowElements() const {
  BM_CHECK_GE(Rank(), 1);
  BM_CHECK_GT(dims_[0], 0);
  return NumElements() / dims_[0];
}

std::string Shape::ToString() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    os << dims_[i];
  }
  os << "]";
  return os.str();
}

}  // namespace batchmaker
