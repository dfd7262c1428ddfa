// Vectorized fp32 exp, sigmoid and tanh behind the elementwise ops
// (Exp, Softmax, Sigmoid, Tanh in src/tensor/ops.h).
//
// Each kernel maps a contiguous array on the SIMD tier the fp32 GEMM
// dispatched to (GemmCpuTier: AVX-512F, AVX2+FMA or portable scalar), so
// the BM_GEMM_KERNEL cap and GemmForceTierForTest select both. The method
// is Cephes-style:
//   exp     — x = n ln2 + r with n = round(x log2e) and a two-constant
//             (Cody-Waite) ln2, a degree-6 polynomial for e^r on
//             |r| <= ln2/2, then e^r * 2^n;
//   sigmoid — 1 / (1 + exp(-x));
//   tanh    — x + x^3 P(x^2) for |x| < 0.625, else 1 - 2 / (exp(2|x|) + 1),
//             with the sign of x restored.
//
// Contract (tests/activation_test.cc pins it on every tier the host runs):
//  - Accuracy against a double-precision reference: sigmoid and tanh to an
//    absolute error of 2.5e-7, exp to a relative error of 2.5e-7 on
//    [-87, 88].
//  - Special values as in libm: NaN stays NaN; sigmoid(+-inf) = 1 / 0;
//    tanh(+-inf) = +-1; exp(+inf) = exp(x > 88.73) = +inf; exp(-inf) = 0.
//  - Position independence: an element's result depends only on its value
//    and the tier, never on its index or the array length. SIMD tails are
//    masked, never finished by a scalar loop. The Server-vs-SyncEngine
//    bitwise contract rests on this, because one request's row lands on
//    different lanes in different batches.
//  - Deterministic per tier; tiers may differ from each other within the
//    bounds above, as the fp32 GEMM kernels do.

#ifndef SRC_TENSOR_ACTIVATION_H_
#define SRC_TENSOR_ACTIVATION_H_

#include <cstdint>

namespace batchmaker {

// out[i] = f(in[i]) for i in [0, n). `out` may equal `in`.
void ExpF32(const float* in, float* out, int64_t n);
void SigmoidF32(const float* in, float* out, int64_t n);
void TanhF32(const float* in, float* out, int64_t n);

// Kernel family the next call runs: "avx512", "avx2_fma" or "scalar".
const char* ActivationKernelName();

}  // namespace batchmaker

#endif  // SRC_TENSOR_ACTIVATION_H_
