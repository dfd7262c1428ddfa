#include "src/tensor/tensor.h"

#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "src/tensor/arena.h"
#include "src/util/logging.h"

namespace batchmaker {

const char* DTypeName(DType dtype) {
  switch (dtype) {
    case DType::kF32:
      return "f32";
    case DType::kI32:
      return "i32";
  }
  return "?";
}

size_t DTypeSize(DType dtype) {
  switch (dtype) {
    case DType::kF32:
      return sizeof(float);
    case DType::kI32:
      return sizeof(int32_t);
  }
  return 0;
}

Tensor::Tensor() : Tensor(Shape{}, DType::kF32) {}

namespace {

// Allocates storage for `t`-shaped data, preferring the ambient arena.
// Returns the borrowed pointer or null if the tensor should own.
void* MaybeArenaAllocate(const Shape& shape, DType dtype, bool zero_fill) {
  TensorArena* arena = ArenaScope::Current();
  if (arena == nullptr) {
    return nullptr;
  }
  const size_t bytes = static_cast<size_t>(shape.NumElements()) * DTypeSize(dtype);
  void* data = arena->Allocate(bytes);
  if (zero_fill) {
    std::memset(data, 0, bytes);
  }
  return data;
}

}  // namespace

Tensor::Tensor(Shape shape, DType dtype) : Tensor(std::move(shape), dtype, /*zero_fill=*/true) {}

Tensor::Tensor(Shape shape, DType dtype, bool zero_fill)
    : shape_(std::move(shape)), dtype_(dtype) {
  borrowed_ = MaybeArenaAllocate(shape_, dtype_, zero_fill);
  if (borrowed_ != nullptr) {
    return;
  }
  const size_t n = static_cast<size_t>(shape_.NumElements());
  if (dtype_ == DType::kF32) {
    fdata_.assign(n, 0.0f);
  } else {
    idata_.assign(n, 0);
  }
}

Tensor::Tensor(const Tensor& other) : shape_(other.shape_), dtype_(other.dtype_) {
  const size_t n = static_cast<size_t>(shape_.NumElements());
  if (dtype_ == DType::kF32) {
    fdata_.assign(other.f32(), other.f32() + n);
  } else {
    idata_.assign(other.i32(), other.i32() + n);
  }
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this != &other) {
    *this = Tensor(other);  // copy-construct owned, then move in
  }
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(std::move(other.shape_)),
      dtype_(other.dtype_),
      fdata_(std::move(other.fdata_)),
      idata_(std::move(other.idata_)),
      borrowed_(std::exchange(other.borrowed_, nullptr)) {
  other.shape_ = Shape{};
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this != &other) {
    shape_ = std::move(other.shape_);
    dtype_ = other.dtype_;
    fdata_ = std::move(other.fdata_);
    idata_ = std::move(other.idata_);
    borrowed_ = std::exchange(other.borrowed_, nullptr);
    other.shape_ = Shape{};
  }
  return *this;
}

Tensor Tensor::Zeros(Shape shape, DType dtype) { return Tensor(std::move(shape), dtype); }

Tensor Tensor::Uninitialized(Shape shape, DType dtype) {
  return Tensor(std::move(shape), dtype, /*zero_fill=*/false);
}

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t = Uninitialized(std::move(shape), DType::kF32);
  float* p = t.f32();
  const int64_t n = t.NumElements();
  for (int64_t i = 0; i < n; ++i) {
    p[i] = value;
  }
  return t;
}

Tensor Tensor::FromVector(Shape shape, std::vector<float> values) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.dtype_ = DType::kF32;
  t.borrowed_ = nullptr;  // adopting the vector: always owned
  BM_CHECK_EQ(static_cast<int64_t>(values.size()), t.shape_.NumElements());
  t.fdata_ = std::move(values);
  return t;
}

Tensor Tensor::FromIntVector(Shape shape, std::vector<int32_t> values) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.dtype_ = DType::kI32;
  t.borrowed_ = nullptr;  // adopting the vector: always owned
  BM_CHECK_EQ(static_cast<int64_t>(values.size()), t.shape_.NumElements());
  t.idata_ = std::move(values);
  return t;
}

Tensor Tensor::RandomUniform(Shape shape, float limit, Rng* rng) {
  BM_CHECK(rng != nullptr);
  Tensor t = Uninitialized(std::move(shape), DType::kF32);
  float* p = t.f32();
  const int64_t n = t.NumElements();
  for (int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng->NextUniform(-limit, limit));
  }
  return t;
}

float* Tensor::f32() {
  BM_CHECK(dtype_ == DType::kF32);
  return borrowed_ != nullptr ? static_cast<float*>(borrowed_) : fdata_.data();
}

const float* Tensor::f32() const {
  BM_CHECK(dtype_ == DType::kF32);
  return borrowed_ != nullptr ? static_cast<const float*>(borrowed_) : fdata_.data();
}

int32_t* Tensor::i32() {
  BM_CHECK(dtype_ == DType::kI32);
  return borrowed_ != nullptr ? static_cast<int32_t*>(borrowed_) : idata_.data();
}

const int32_t* Tensor::i32() const {
  BM_CHECK(dtype_ == DType::kI32);
  return borrowed_ != nullptr ? static_cast<const int32_t*>(borrowed_) : idata_.data();
}

float& Tensor::At(int64_t row, int64_t col) {
  BM_CHECK_EQ(shape_.Rank(), 2);
  return f32()[row * shape_.Dim(1) + col];
}

float Tensor::At(int64_t row, int64_t col) const {
  BM_CHECK_EQ(shape_.Rank(), 2);
  return f32()[row * shape_.Dim(1) + col];
}

int32_t& Tensor::IntAt(int64_t row, int64_t col) {
  BM_CHECK_EQ(shape_.Rank(), 2);
  return i32()[row * shape_.Dim(1) + col];
}

int32_t Tensor::IntAt(int64_t row, int64_t col) const {
  BM_CHECK_EQ(shape_.Rank(), 2);
  return i32()[row * shape_.Dim(1) + col];
}

bool Tensor::ElementsEqual(const Tensor& other) const {
  if (shape_ != other.shape_ || dtype_ != other.dtype_) {
    return false;
  }
  const size_t bytes = static_cast<size_t>(NumElements()) * DTypeSize(dtype_);
  const void* a = dtype_ == DType::kF32 ? static_cast<const void*>(f32())
                                        : static_cast<const void*>(i32());
  const void* b = dtype_ == DType::kF32 ? static_cast<const void*>(other.f32())
                                        : static_cast<const void*>(other.i32());
  return std::memcmp(a, b, bytes) == 0;
}

bool Tensor::AllClose(const Tensor& other, float atol) const {
  if (shape_ != other.shape_ || dtype_ != DType::kF32 || other.dtype_ != DType::kF32) {
    return false;
  }
  const float* pa = f32();
  const float* pb = other.f32();
  const int64_t n = NumElements();
  for (int64_t i = 0; i < n; ++i) {
    if (std::fabs(pa[i] - pb[i]) > atol) {
      return false;
    }
  }
  return true;
}

uint64_t Tensor::ContentHash() const {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  auto mix_bytes = [&h](const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;  // FNV prime
    }
  };
  const int32_t dtype_tag = static_cast<int32_t>(dtype_);
  mix_bytes(&dtype_tag, sizeof(dtype_tag));
  for (int64_t d : shape_.dims()) {
    mix_bytes(&d, sizeof(d));
  }
  if (dtype_ == DType::kF32) {
    mix_bytes(f32(), static_cast<size_t>(NumElements()) * sizeof(float));
  } else {
    mix_bytes(i32(), static_cast<size_t>(NumElements()) * sizeof(int32_t));
  }
  return h;
}

std::string Tensor::DebugString(int64_t max_elements) const {
  std::ostringstream os;
  os << DTypeName(dtype_) << shape_.ToString() << "{";
  const int64_t n = std::min<int64_t>(NumElements(), max_elements);
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) {
      os << ",";
    }
    if (dtype_ == DType::kF32) {
      os << f32()[i];
    } else {
      os << i32()[i];
    }
  }
  if (n < NumElements()) {
    os << ",...";
  }
  os << "}";
  return os.str();
}

}  // namespace batchmaker
