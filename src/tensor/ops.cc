#include "src/tensor/ops.h"

#include <algorithm>
#include <cstring>

#include "src/tensor/activation.h"
#include "src/util/logging.h"

namespace batchmaker {

namespace {

void CheckSameShapeF32(const Tensor& a, const Tensor& b) {
  BM_CHECK(a.dtype() == DType::kF32 && b.dtype() == DType::kF32);
  BM_CHECK(a.shape() == b.shape())
      << "shape mismatch: " << a.shape().ToString() << " vs " << b.shape().ToString();
}

template <typename F>
Tensor ElementwiseBinary(const Tensor& a, const Tensor& b, F f) {
  CheckSameShapeF32(a, b);
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.f32();
  const float* pb = b.f32();
  float* po = out.f32();
  const int64_t n = a.NumElements();
  for (int64_t i = 0; i < n; ++i) {
    po[i] = f(pa[i], pb[i]);
  }
  return out;
}

template <typename F>
Tensor ElementwiseUnary(const Tensor& a, F f) {
  BM_CHECK(a.dtype() == DType::kF32);
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.f32();
  float* po = out.f32();
  const int64_t n = a.NumElements();
  for (int64_t i = 0; i < n; ++i) {
    po[i] = f(pa[i]);
  }
  return out;
}

// Maps one of the vectorized kernels of src/tensor/activation.h over `a`.
Tensor ActivationUnary(const Tensor& a, void (*kernel)(const float*, float*, int64_t)) {
  BM_CHECK(a.dtype() == DType::kF32);
  Tensor out = Tensor::Uninitialized(a.shape());
  kernel(a.f32(), out.f32(), a.NumElements());
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, [](float x, float y) { return x + y; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, [](float x, float y) { return x - y; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, [](float x, float y) { return x * y; });
}

Tensor AddBias(const Tensor& a, const Tensor& bias) {
  BM_CHECK(a.dtype() == DType::kF32 && bias.dtype() == DType::kF32);
  BM_CHECK_EQ(a.shape().Rank(), 2);
  const int64_t rows = a.shape().Dim(0);
  const int64_t cols = a.shape().Dim(1);
  const int64_t bias_elems = bias.NumElements();
  BM_CHECK_EQ(bias_elems, cols) << "bias length must equal column count";
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.f32();
  const float* pb = bias.f32();
  float* po = out.f32();
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      po[r * cols + c] = pa[r * cols + c] + pb[c];
    }
  }
  return out;
}

Tensor Sigmoid(const Tensor& a) { return ActivationUnary(a, SigmoidF32); }

Tensor Tanh(const Tensor& a) { return ActivationUnary(a, TanhF32); }

Tensor Relu(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}

Tensor Softmax(const Tensor& a) {
  BM_CHECK(a.dtype() == DType::kF32);
  BM_CHECK_EQ(a.shape().Rank(), 2);
  const int64_t rows = a.shape().Dim(0);
  const int64_t cols = a.shape().Dim(1);
  BM_CHECK_GT(cols, 0);
  Tensor out = Tensor::Uninitialized(a.shape());
  for (int64_t r = 0; r < rows; ++r) {
    const float* in = a.f32() + r * cols;
    float* o = out.f32() + r * cols;
    const float max_val = *std::max_element(in, in + cols);
    for (int64_t c = 0; c < cols; ++c) {
      o[c] = in[c] - max_val;
    }
  }
  ExpF32(out.f32(), out.f32(), rows * cols);
  for (int64_t r = 0; r < rows; ++r) {
    float* o = out.f32() + r * cols;
    float sum = 0.0f;
    for (int64_t c = 0; c < cols; ++c) {
      sum += o[c];
    }
    for (int64_t c = 0; c < cols; ++c) {
      o[c] /= sum;
    }
  }
  return out;
}

Tensor MaxElem(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary(a, b, [](float x, float y) { return x > y ? x : y; });
}

Tensor Exp(const Tensor& a) { return ActivationUnary(a, ExpF32); }

Tensor Recip(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return 1.0f / x; });
}

Tensor RowSum(const Tensor& a) {
  BM_CHECK(a.dtype() == DType::kF32);
  BM_CHECK_EQ(a.shape().Rank(), 2);
  const int64_t rows = a.shape().Dim(0);
  const int64_t cols = a.shape().Dim(1);
  Tensor out = Tensor::Uninitialized(Shape{rows, 1});
  for (int64_t r = 0; r < rows; ++r) {
    float acc = 0.0f;
    const float* p = a.f32() + r * cols;
    for (int64_t c = 0; c < cols; ++c) {
      acc += p[c];
    }
    out.f32()[r] = acc;
  }
  return out;
}

Tensor ScaleRows(const Tensor& a, const Tensor& s) {
  BM_CHECK(a.dtype() == DType::kF32 && s.dtype() == DType::kF32);
  BM_CHECK_EQ(a.shape().Rank(), 2);
  BM_CHECK_EQ(s.shape().Rank(), 2);
  BM_CHECK_EQ(s.shape().Dim(1), 1);
  BM_CHECK_EQ(a.shape().Dim(0), s.shape().Dim(0));
  const int64_t rows = a.shape().Dim(0);
  const int64_t cols = a.shape().Dim(1);
  Tensor out = Tensor::Uninitialized(a.shape());
  for (int64_t r = 0; r < rows; ++r) {
    const float scale = s.f32()[r];
    const float* in = a.f32() + r * cols;
    float* o = out.f32() + r * cols;
    for (int64_t c = 0; c < cols; ++c) {
      o[c] = in[c] * scale;
    }
  }
  return out;
}

Tensor ConcatCols(const std::vector<const Tensor*>& parts) {
  BM_CHECK(!parts.empty());
  const int64_t rows = parts[0]->shape().Dim(0);
  const DType dtype = parts[0]->dtype();
  int64_t total_cols = 0;
  for (const Tensor* p : parts) {
    BM_CHECK_EQ(p->shape().Rank(), 2);
    BM_CHECK_EQ(p->shape().Dim(0), rows);
    BM_CHECK(p->dtype() == dtype);
    total_cols += p->shape().Dim(1);
  }
  Tensor out = Tensor::Uninitialized(Shape{rows, total_cols}, dtype);
  BM_CHECK(dtype == DType::kF32) << "ConcatCols supports f32 only";
  for (int64_t r = 0; r < rows; ++r) {
    float* dst = out.f32() + r * total_cols;
    for (const Tensor* p : parts) {
      const int64_t cols = p->shape().Dim(1);
      std::memcpy(dst, p->f32() + r * cols, static_cast<size_t>(cols) * sizeof(float));
      dst += cols;
    }
  }
  return out;
}

Tensor SliceCols(const Tensor& a, int64_t begin, int64_t end) {
  BM_CHECK(a.dtype() == DType::kF32);
  BM_CHECK_EQ(a.shape().Rank(), 2);
  const int64_t rows = a.shape().Dim(0);
  const int64_t cols = a.shape().Dim(1);
  BM_CHECK_GE(begin, 0);
  BM_CHECK_LT(begin, end);
  BM_CHECK_LE(end, cols);
  const int64_t out_cols = end - begin;
  Tensor out = Tensor::Uninitialized(Shape{rows, out_cols});
  for (int64_t r = 0; r < rows; ++r) {
    std::memcpy(out.f32() + r * out_cols, a.f32() + r * cols + begin,
                static_cast<size_t>(out_cols) * sizeof(float));
  }
  return out;
}

Tensor EmbeddingLookup(const Tensor& table, const Tensor& ids) {
  BM_CHECK(table.dtype() == DType::kF32);
  BM_CHECK(ids.dtype() == DType::kI32);
  BM_CHECK_EQ(table.shape().Rank(), 2);
  BM_CHECK_EQ(ids.shape().Rank(), 2);
  BM_CHECK_EQ(ids.shape().Dim(1), 1);
  const int64_t vocab = table.shape().Dim(0);
  const int64_t dim = table.shape().Dim(1);
  const int64_t batch = ids.shape().Dim(0);
  Tensor out = Tensor::Uninitialized(Shape{batch, dim});
  for (int64_t b = 0; b < batch; ++b) {
    const int32_t id = ids.i32()[b];
    BM_CHECK_GE(id, 0);
    BM_CHECK_LT(static_cast<int64_t>(id), vocab) << "embedding id out of range";
    std::memcpy(out.f32() + b * dim, table.f32() + static_cast<int64_t>(id) * dim,
                static_cast<size_t>(dim) * sizeof(float));
  }
  return out;
}

Tensor ArgmaxRows(const Tensor& a) {
  BM_CHECK(a.dtype() == DType::kF32);
  BM_CHECK_EQ(a.shape().Rank(), 2);
  const int64_t rows = a.shape().Dim(0);
  const int64_t cols = a.shape().Dim(1);
  BM_CHECK_GT(cols, 0);
  Tensor out = Tensor::Uninitialized(Shape{rows, 1}, DType::kI32);
  for (int64_t r = 0; r < rows; ++r) {
    const float* p = a.f32() + r * cols;
    out.i32()[r] = static_cast<int32_t>(std::max_element(p, p + cols) - p);
  }
  return out;
}

namespace {

void* RawData(Tensor* t) {
  return t->dtype() == DType::kF32 ? static_cast<void*>(t->f32()) : static_cast<void*>(t->i32());
}

const void* RawData(const Tensor& t) {
  return t.dtype() == DType::kF32 ? static_cast<const void*>(t.f32())
                                  : static_cast<const void*>(t.i32());
}

}  // namespace

Tensor GatherRows(const std::vector<const Tensor*>& sources, const std::vector<int64_t>& rows) {
  BM_CHECK(!sources.empty());
  BM_CHECK_EQ(sources.size(), rows.size());
  const Shape& first = sources[0]->shape();
  const DType dtype = sources[0]->dtype();
  BM_CHECK_GE(first.Rank(), 1);
  const size_t row_bytes =
      static_cast<size_t>(first.NumElements() / std::max<int64_t>(first.Dim(0), 1)) *
      DTypeSize(dtype);
  std::vector<const void*> row_ptrs(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    const Tensor& src = *sources[i];
    BM_CHECK(src.dtype() == dtype);
    BM_CHECK(src.shape().Rank() == first.Rank() &&
             std::equal(src.shape().dims().begin() + 1, src.shape().dims().end(),
                        first.dims().begin() + 1))
        << "row shape mismatch in GatherRows: " << src.shape().ToString();
    BM_CHECK_GE(rows[i], 0);
    BM_CHECK_LT(rows[i], src.shape().Dim(0));
    row_ptrs[i] = static_cast<const unsigned char*>(RawData(src)) +
                  static_cast<size_t>(rows[i]) * row_bytes;
  }
  Tensor out =
      Tensor::Uninitialized(first.WithDim(0, static_cast<int64_t>(sources.size())), dtype);
  GatherRowPtrsInto(row_ptrs, &out, 0, static_cast<int64_t>(sources.size()));
  return out;
}

void GatherRowPtrsInto(const std::vector<const void*>& rows, Tensor* out, int64_t begin,
                       int64_t end) {
  BM_CHECK(out != nullptr);
  BM_CHECK_GE(begin, 0);
  BM_CHECK_LE(end, static_cast<int64_t>(rows.size()));
  BM_CHECK_EQ(out->shape().Dim(0), static_cast<int64_t>(rows.size()));
  const size_t row_bytes =
      static_cast<size_t>(out->shape().RowElements()) * DTypeSize(out->dtype());
  unsigned char* dst = static_cast<unsigned char*>(RawData(out));
  for (int64_t i = begin; i < end; ++i) {
    std::memcpy(dst + static_cast<size_t>(i) * row_bytes, rows[static_cast<size_t>(i)],
                row_bytes);
  }
}

void ScatterRow(const Tensor& batch, int64_t src_row, Tensor* dst, int64_t dst_row) {
  BM_CHECK(dst != nullptr);
  BM_CHECK(batch.dtype() == dst->dtype());
  BM_CHECK(batch.shape().Rank() == dst->shape().Rank() &&
           std::equal(batch.shape().dims().begin() + 1, batch.shape().dims().end(),
                      dst->shape().dims().begin() + 1));
  BM_CHECK_GE(dst_row, 0);
  BM_CHECK_LT(dst_row, dst->shape().Dim(0));
  const size_t row_bytes =
      static_cast<size_t>(batch.shape().RowElements()) * DTypeSize(batch.dtype());
  CopyRowTo(batch, src_row, static_cast<unsigned char*>(RawData(dst)) +
                                static_cast<size_t>(dst_row) * row_bytes);
}

void CopyRowTo(const Tensor& batch, int64_t row, void* dst) {
  BM_CHECK_GE(row, 0);
  BM_CHECK_LT(row, batch.shape().Dim(0));
  const size_t row_bytes =
      static_cast<size_t>(batch.shape().RowElements()) * DTypeSize(batch.dtype());
  std::memcpy(dst,
              static_cast<const unsigned char*>(RawData(batch)) +
                  static_cast<size_t>(row) * row_bytes,
              row_bytes);
}

Tensor ExtractRow(const Tensor& batch, int64_t row) {
  BM_CHECK_GE(batch.shape().Rank(), 1);
  std::vector<int64_t> dims = batch.shape().dims();
  dims[0] = 1;
  Tensor out = Tensor::Uninitialized(Shape(std::move(dims)), batch.dtype());
  ScatterRow(batch, row, &out, 0);
  return out;
}

}  // namespace batchmaker
