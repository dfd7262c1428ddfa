// GEMM for the CPU execution backend: packed-panel microkernels with runtime
// SIMD dispatch and optional static-partition parallelism.
//
// The LSTM cell at hidden size h reduces to one [b, 2h] x [2h, 4h] matrix
// multiplication per step (paper §2.2 footnote 2). With the vectorized
// activations of activation.h, that GEMM takes ~82% of an fp32 step at
// h=256, batch 53 (bench/fig03_cell_microbench's `lstm_gemm` vs `lstm_step`
// rows; EXPERIMENTS.md "Serving-shape fp32 GEMM"). The B operand (always a
// weight matrix in cell graphs) is packed once into contiguous column
// panels — CellExecutor caches the packed form per CellDef.
//
// fp32: B panels are 64 columns wide on every tier. The AVX-512 kernel holds
// a 6 x 64 register tile (24 zmm accumulators); the AVX2 kernel covers it as
// four 6 x 16 tiles; the portable scalar kernel walks it row by row. K runs
// in blocks of 128, so one B block stays in L1 while every row tile passes
// over it, and A is read in place — as column parts, so a Concat feeding the
// GEMM never has to be built (split-K) — with an optional bias added in the
// store epilogue.
//
// Two kernel families share the dispatch seam, selected by how B was
// packed (Precision tag on PackedMatrix):
//   fp32 — the reference precision, described above.
//   int8 — dynamic per-row activation quantization (u8, zero point 128) x
//          per-output-channel symmetric weight scales (s8), s32 accumulate,
//          fp32 dequant epilogue with optional fused bias. AVX-512 VNNI
//          `_mm512_dpbusd_epi32`, an AVX2 widening-madd fallback, and a
//          portable scalar kernel.
//
// Determinism contract: each C element is accumulated over k in one fixed
// sequential order by exactly one thread, and the work partition assigns
// whole output tiles to threads — so results are bitwise identical for any
// ThreadPool size, including the serial path. That order is fixed by K and
// the kernel alone, never by M or a row's position in A, so a row's result
// does not depend on which other rows share its batch (row independence),
// and at fp32 neither on how A is split into parts nor on whether the bias
// is fused. The contract is *per kernel within a precision*, never across
// precisions. Int8 is stronger: s32 accumulation is exact and the dequant
// epilogue is shared scalar code, so all int8 kernels agree bitwise. See
// DESIGN.md "Determinism contract" and "Low-precision execution".

#ifndef SRC_TENSOR_GEMM_H_
#define SRC_TENSOR_GEMM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/tensor/tensor.h"

namespace batchmaker {

class ThreadPool;

// Numeric precision of the packed-weight GEMM path, chosen once per engine.
// fp32 is the default and is byte-for-byte identical to the
// pre-low-precision code. The values are stable: fig07 seeds its precision
// points from them.
enum class Precision {
  kF32 = 0,
  kInt8 = 2,
};

// "fp32" / "int8".
const char* PrecisionName(Precision p);
// Parses the names above; returns false (out untouched) on anything else.
bool ParsePrecision(const std::string& text, Precision* out);

// B[k,n] repacked into column panels of panel_width() columns (64 for
// fp32, 16 for int8), k-major within a panel, zero-padded to full width.
// Packing is cheap (one pass over B) but the win is doing it once per
// weight instead of per call.
//
// PackInt8 additionally quantizes: it stores s8 values in
// k-group-interleaved panels (group width matches the dispatched kernel: 4
// for VNNI, 2 for AVX2/scalar), plus per-output-column symmetric scales
// (absmax/127, 0 for an all-zero column) and the u8 zero-point correction
// term col_corr[j] = 128 * sum_p B_s8[p, j].
class PackedMatrix {
 public:
  PackedMatrix() = default;

  static PackedMatrix Pack(const float* b, int64_t k, int64_t n);
  static PackedMatrix Pack(const Tensor& b);  // rank-2 f32

  // BM_CHECK-fails on non-finite weight values.
  static PackedMatrix PackInt8(const float* b, int64_t k, int64_t n);
  static PackedMatrix PackInt8(const Tensor& b);  // rank-2 f32

  Precision precision() const { return precision_; }
  int64_t k() const { return k_; }
  int64_t n() const { return n_; }
  int64_t num_panels() const { return num_panels_; }
  // Columns per panel, padding included.
  int64_t panel_width() const;
  // Panel j: k() x panel_width() floats, row (k) major. fp32 packs only.
  const float* panel(int64_t j) const;
  // Panel j: ceil(k/g) x panel_width() x g s8 values (k-group interleaved
  // per column), g = int8_kgroup().
  const int8_t* panel_int8(int64_t j) const;

  // Int8 metadata; valid only when precision() == kInt8.
  const float* col_scales() const { return col_scales_.data(); }
  const int32_t* col_corrections() const { return col_corr_.data(); }
  int int8_kgroup() const { return int8_kgroup_; }

 private:
  Precision precision_ = Precision::kF32;
  int64_t k_ = 0;
  int64_t n_ = 0;
  int64_t num_panels_ = 0;
  std::vector<float> data_;        // fp32
  std::vector<int8_t> i8_data_;    // int8
  std::vector<float> col_scales_;  // int8: n() entries
  std::vector<int32_t> col_corr_;  // int8: n() entries
  int int8_kgroup_ = 0;            // int8: k-group width the panels use
};

// C[m,n] = A[m,k] * B (accumulate=false; C need not be initialized — the
// first K block writes directly, no separate zero pass) or C += A * B
// (accumulate=true), then + bias (length n, nullable) in the store
// epilogue. Parallelizes over output tiles when `pool` is non-null and the
// shape warrants it. A is always fp32: read in place by the fp32 kernels,
// quantized on the fly into per-thread packing scratch for int8 packs.
void GemmPacked(const float* a, const PackedMatrix& b, float* c, int64_t m,
                bool accumulate, ThreadPool* pool = nullptr,
                const float* bias = nullptr);

// One column block of a GEMM's left operand, read in place: `cols` columns,
// row i starting at data + i * ld (ld >= cols).
struct GemmPart {
  const float* data;
  int64_t ld;
  int64_t cols;
};

// GemmPacked with A given as column parts, left to right; their widths must
// sum to b.k(). fp32 packs only (split-K: the parts' K ranges run one after
// another into the same accumulators). The result is bitwise identical to
// GemmPacked on the parts' concatenation.
void GemmPackedParts(const GemmPart* parts, int num_parts, const PackedMatrix& b, float* c,
                     int64_t m, bool accumulate, ThreadPool* pool = nullptr,
                     const float* bias = nullptr);

// Raw-pointer forms packing B on the fly; strides equal row widths.
// C[m,n] = A[m,k] * B[k,n].
void GemmRaw(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n);
// C[m,n] += A[m,k] * B[k,n].
void GemmAccumulateRaw(const float* a, const float* b, float* c, int64_t m, int64_t k,
                       int64_t n);

// Tensor wrappers. Both inputs must be rank-2 f32 with matching inner
// dimensions; the packed form avoids re-packing the weight per call.
Tensor MatMul(const Tensor& a, const Tensor& b);
Tensor MatMulPacked(const Tensor& a, const PackedMatrix& b, ThreadPool* pool = nullptr);
// Any precision: adds the row-broadcast bias (length b.n()) in the store
// epilogue. Bitwise identical to MatMulPacked followed by AddBias.
Tensor MatMulPackedBias(const Tensor& a, const PackedMatrix& b, const Tensor& bias,
                        ThreadPool* pool = nullptr);
// MatMulPacked(ConcatCols(parts)) (+ bias when non-null) without building
// the concatenation. More than one part needs an fp32 pack. Bitwise
// identical to the concat-then-MatMulPacked(Bias) sequence.
Tensor MatMulPackedParts(const std::vector<const Tensor*>& parts, const PackedMatrix& b,
                         const Tensor* bias = nullptr, ThreadPool* pool = nullptr);

// True if the runtime-dispatched kernel uses the SIMD path on this CPU
// (diagnostics / benchmark labeling).
bool GemmUsesSimd();

// SIMD tier of the dispatched fp32 kernel. The vectorized activations
// (src/tensor/activation.h) dispatch on it, so the BM_GEMM_KERNEL cap and
// GemmForceTierForTest select their kernels too.
enum class CpuTier { kScalar, kAvx2, kAvx512 };
CpuTier GemmCpuTier();

// Name of the kernel the dispatcher would run for `p` on this host, e.g.
// "avx512_fp32", "avx512_vnni_int8", "scalar_int8", "scalar_fp32".
// Reflects the BM_GEMM_KERNEL env override / forced tier.
const char* GemmKernelName(Precision p = Precision::kF32);

// Re-runs dispatch with the feature set capped at `tier` (one of "scalar",
// "avx2", "avx512", "avx512_vnni", "native"; nullptr/empty or "native"
// restores full auto-detection). The cap is intersected with
// what cpuid actually reports — forcing a tier the CPU lacks clamps to the
// best supported subset, never to an illegal-instruction crash. Test-only:
// not thread-safe against concurrent GEMM calls.
void GemmForceTierForTest(const char* tier);

}  // namespace batchmaker

#endif  // SRC_TENSOR_GEMM_H_
