// Elementwise and structural tensor operations used by the cell interpreter
// and the batch assembler.
//
// All functions validate shapes with CHECKs; they are building blocks for
// trusted code paths (the interpreter verifies shapes once, at cell
// registration time, via shape inference).

#ifndef SRC_TENSOR_OPS_H_
#define SRC_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace batchmaker {

// ---- Elementwise (f32, shapes must match exactly) ----
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

// a[b,n] + bias[n] broadcast across rows. Also accepts bias of shape [1,n].
Tensor AddBias(const Tensor& a, const Tensor& bias);

Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Relu(const Tensor& a);

// Row-wise softmax over the last dimension of a rank-2 tensor.
Tensor Softmax(const Tensor& a);

// Elementwise max of two equal-shaped tensors.
Tensor MaxElem(const Tensor& a, const Tensor& b);
// Elementwise exp / reciprocal.
Tensor Exp(const Tensor& a);
Tensor Recip(const Tensor& a);
// Row sums of a rank-2 tensor: [b, n] -> [b, 1].
Tensor RowSum(const Tensor& a);
// a[b, n] * s[b, 1], broadcasting the per-row scalar across columns.
Tensor ScaleRows(const Tensor& a, const Tensor& s);

// ---- Structural ----

// Concatenate rank-2 tensors along axis 1 (columns). All inputs must share
// dim 0 and dtype.
Tensor ConcatCols(const std::vector<const Tensor*>& parts);

// Columns [begin, end) of a rank-2 tensor.
Tensor SliceCols(const Tensor& a, int64_t begin, int64_t end);

// table[v, d] indexed by ids[b, 1] (i32) -> [b, d]. Ids must be in [0, v).
Tensor EmbeddingLookup(const Tensor& table, const Tensor& ids);

// Row-wise argmax of a rank-2 f32 tensor -> i32 [b, 1].
Tensor ArgmaxRows(const Tensor& a);

// ---- Batch assembly (the paper's "gather"/scatter memory copies) ----

// Stacks one designated row from each source tensor into a contiguous
// [n, row] batch. Every source must be rank >= 1 with identical row shape
// and dtype; `rows[i]` selects the row within `sources[i]`.
Tensor GatherRows(const std::vector<const Tensor*>& sources, const std::vector<int64_t>& rows);

// Range form over raw rows, for parallel gather: copies batch rows
// [begin, end) of `out` from rows[i], each one row of `out`'s row shape and
// dtype laid out densely (the caller's layout guarantees it; nothing is
// checked per row). Disjoint ranges touch disjoint memory, so the batch
// assembler fans this out across a ThreadPool.
void GatherRowPtrsInto(const std::vector<const void*>& rows, Tensor* out, int64_t begin,
                       int64_t end);

// Copies row `src_row` of `batch` into row `dst_row` of `dst`.
void ScatterRow(const Tensor& batch, int64_t src_row, Tensor* dst, int64_t dst_row);

// Copies row `row` of `batch` to `dst`, which has room for one row.
void CopyRowTo(const Tensor& batch, int64_t row, void* dst);

// Extracts row `row` of a batched tensor as a [1, ...] tensor.
Tensor ExtractRow(const Tensor& batch, int64_t row);

}  // namespace batchmaker

#endif  // SRC_TENSOR_OPS_H_
