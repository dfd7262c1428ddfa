#include "src/tensor/activation.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/tensor/gemm.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define BM_ACTIVATION_X86 1
// GCC 12 reports the deliberately uninitialized pass-through operand of its
// own AVX-512 intrinsics (_mm512_undefined_ps) as maybe-uninitialized once
// they are inlined into the kernels below.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace batchmaker {

namespace {

enum class Act { kExp, kSigmoid, kTanh };

// exp's input clamp. Above ln(FLT_MAX) = 88.7228 the result overflows to
// +inf and below ln(2^-150) = -103.97 it rounds to 0, so clamping to these
// bounds keeps n in [-150, 129] without changing any result. The clamps
// pass NaN through (min/max return their second operand on NaN).
constexpr float kExpHi = 89.0f;
constexpr float kExpLo = -104.0f;
constexpr float kLog2e = 1.44269504088896341f;
// ln2 split so that n * kLn2Hi is exact for |n| <= 150.
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
// Cephes expf: e^r ~ 1 + r + r^2 (P5 + r P4 + ... + r^5 P0), |r| <= ln2/2.
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;
// Cephes tanhf: tanh(x) ~ x + x^3 P(x^2) for |x| < kTanhSmall, where the
// exp form 1 - 2 / (e^2x + 1) would lose bits to cancellation.
constexpr float kTanhSmall = 0.625f;
constexpr float kTanhP0 = -5.70498872745e-3f;
constexpr float kTanhP1 = 2.06390887954e-2f;
constexpr float kTanhP2 = -5.37397155531e-2f;
constexpr float kTanhP3 = 1.33314422036e-1f;
constexpr float kTanhP4 = -3.33332819422e-1f;

// ---- Portable scalar tier ----

// 2^e for e in [-126, 127], built from the exponent bits.
float Pow2(int e) {
  const uint32_t bits = static_cast<uint32_t>(e + 127) << 23;
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

float ExpScalar(float x) {
  if (std::isnan(x)) {
    return x;
  }
  x = std::min(std::max(x, kExpLo), kExpHi);
  // Round to nearest: adding 1.5 * 2^23 pushes the fraction bits out.
  const float n = (x * kLog2e + 12582912.0f) - 12582912.0f;
  const float r = (x - n * kLn2Hi) - n * kLn2Lo;
  float y = kExpP0;
  y = y * r + kExpP1;
  y = y * r + kExpP2;
  y = y * r + kExpP3;
  y = y * r + kExpP4;
  y = y * r + kExpP5;
  y = (y * (r * r) + r) + 1.0f;
  // 2^n as two factors: 2^128 and 2^-150 are not normal floats, the halves
  // are, and the first product is exact.
  const int ni = static_cast<int>(n);
  const int half = ni >> 1;
  return y * Pow2(half) * Pow2(ni - half);
}

float SigmoidScalar(float x) { return 1.0f / (1.0f + ExpScalar(-x)); }

float TanhScalar(float x) {
  const float ax = std::fabs(x);
  float t;
  if (ax < kTanhSmall) {
    const float z = ax * ax;
    float p = kTanhP0;
    p = p * z + kTanhP1;
    p = p * z + kTanhP2;
    p = p * z + kTanhP3;
    p = p * z + kTanhP4;
    t = (p * z) * ax + ax;
  } else {
    t = 1.0f - 2.0f / (ExpScalar(ax + ax) + 1.0f);
  }
  return std::copysign(t, x);
}

template <Act kAct>
void MapScalar(const float* in, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if constexpr (kAct == Act::kExp) {
      out[i] = ExpScalar(in[i]);
    } else if constexpr (kAct == Act::kSigmoid) {
      out[i] = SigmoidScalar(in[i]);
    } else {
      out[i] = TanhScalar(in[i]);
    }
  }
}

#if BM_ACTIVATION_X86

// ---- AVX-512F tier: 16 lanes, masked tail ----

__attribute__((target("avx512f"))) inline __m512 ExpAvx512(__m512 x) {
  x = _mm512_min_ps(_mm512_set1_ps(kExpHi), _mm512_max_ps(_mm512_set1_ps(kExpLo), x));
  const __m512 n = _mm512_roundscale_ps(_mm512_mul_ps(x, _mm512_set1_ps(kLog2e)),
                                        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512 r = _mm512_fnmadd_ps(n, _mm512_set1_ps(kLn2Hi), x);
  r = _mm512_fnmadd_ps(n, _mm512_set1_ps(kLn2Lo), r);
  __m512 y = _mm512_set1_ps(kExpP0);
  y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(kExpP1));
  y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(kExpP2));
  y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(kExpP3));
  y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(kExpP4));
  y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(kExpP5));
  y = _mm512_add_ps(_mm512_fmadd_ps(y, _mm512_mul_ps(r, r), r), _mm512_set1_ps(1.0f));
  // y * 2^n with IEEE overflow to +inf and gradual underflow.
  return _mm512_scalef_ps(y, n);
}

__attribute__((target("avx512f"))) inline __m512 SigmoidAvx512(__m512 x) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 e = ExpAvx512(_mm512_sub_ps(_mm512_setzero_ps(), x));
  return _mm512_div_ps(one, _mm512_add_ps(one, e));
}

__attribute__((target("avx512f"))) inline __m512 TanhAvx512(__m512 x) {
  const __m512i sign = _mm512_set1_epi32(static_cast<int>(0x80000000u));
  const __m512i xi = _mm512_castps_si512(x);
  const __m512 ax = _mm512_castsi512_ps(_mm512_andnot_si512(sign, xi));
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 e = ExpAvx512(_mm512_add_ps(ax, ax));
  const __m512 big =
      _mm512_sub_ps(one, _mm512_div_ps(_mm512_set1_ps(2.0f), _mm512_add_ps(e, one)));
  const __m512 z = _mm512_mul_ps(ax, ax);
  __m512 p = _mm512_set1_ps(kTanhP0);
  p = _mm512_fmadd_ps(p, z, _mm512_set1_ps(kTanhP1));
  p = _mm512_fmadd_ps(p, z, _mm512_set1_ps(kTanhP2));
  p = _mm512_fmadd_ps(p, z, _mm512_set1_ps(kTanhP3));
  p = _mm512_fmadd_ps(p, z, _mm512_set1_ps(kTanhP4));
  const __m512 small = _mm512_fmadd_ps(_mm512_mul_ps(p, z), ax, ax);
  // False for NaN, which therefore takes (and keeps) the exp form's NaN.
  const __mmask16 is_small =
      _mm512_cmp_ps_mask(ax, _mm512_set1_ps(kTanhSmall), _CMP_LT_OQ);
  const __m512 t = _mm512_mask_blend_ps(is_small, big, small);
  return _mm512_castsi512_ps(
      _mm512_or_si512(_mm512_castps_si512(t), _mm512_and_si512(xi, sign)));
}

template <Act kAct>
__attribute__((target("avx512f"))) inline __m512 ApplyAvx512(__m512 x) {
  if constexpr (kAct == Act::kExp) {
    return ExpAvx512(x);
  } else if constexpr (kAct == Act::kSigmoid) {
    return SigmoidAvx512(x);
  } else {
    return TanhAvx512(x);
  }
}

template <Act kAct>
__attribute__((target("avx512f"))) void MapAvx512(const float* in, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i, ApplyAvx512<kAct>(_mm512_loadu_ps(in + i)));
  }
  if (i < n) {
    const __mmask16 live = static_cast<__mmask16>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_ps(out + i, live,
                          ApplyAvx512<kAct>(_mm512_maskz_loadu_ps(live, in + i)));
  }
}

// ---- AVX2+FMA tier: 8 lanes, masked tail ----

// 2^e for integer lanes e in [-126, 127].
__attribute__((target("avx2,fma"))) inline __m256 Pow2Avx2(__m256i e) {
  return _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(e, _mm256_set1_epi32(127)), 23));
}

__attribute__((target("avx2,fma"))) inline __m256 ExpAvx2(__m256 x) {
  x = _mm256_min_ps(_mm256_set1_ps(kExpHi), _mm256_max_ps(_mm256_set1_ps(kExpLo), x));
  const __m256 n = _mm256_round_ps(_mm256_mul_ps(x, _mm256_set1_ps(kLog2e)),
                                   _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(kLn2Hi), x);
  r = _mm256_fnmadd_ps(n, _mm256_set1_ps(kLn2Lo), r);
  __m256 y = _mm256_set1_ps(kExpP0);
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP1));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP2));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP3));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP4));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP5));
  y = _mm256_add_ps(_mm256_fmadd_ps(y, _mm256_mul_ps(r, r), r), _mm256_set1_ps(1.0f));
  // 2^n in two normal factors, as in ExpScalar. A NaN lane converts to an
  // arbitrary integer, but y is already NaN there.
  const __m256i ni = _mm256_cvtps_epi32(n);
  const __m256i half = _mm256_srai_epi32(ni, 1);
  return _mm256_mul_ps(_mm256_mul_ps(y, Pow2Avx2(half)),
                       Pow2Avx2(_mm256_sub_epi32(ni, half)));
}

__attribute__((target("avx2,fma"))) inline __m256 SigmoidAvx2(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = ExpAvx2(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

__attribute__((target("avx2,fma"))) inline __m256 TanhAvx2(__m256 x) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 ax = _mm256_andnot_ps(sign, x);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = ExpAvx2(_mm256_add_ps(ax, ax));
  const __m256 big =
      _mm256_sub_ps(one, _mm256_div_ps(_mm256_set1_ps(2.0f), _mm256_add_ps(e, one)));
  const __m256 z = _mm256_mul_ps(ax, ax);
  __m256 p = _mm256_set1_ps(kTanhP0);
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(kTanhP1));
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(kTanhP2));
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(kTanhP3));
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(kTanhP4));
  const __m256 small = _mm256_fmadd_ps(_mm256_mul_ps(p, z), ax, ax);
  const __m256 is_small = _mm256_cmp_ps(ax, _mm256_set1_ps(kTanhSmall), _CMP_LT_OQ);
  const __m256 t = _mm256_blendv_ps(big, small, is_small);
  return _mm256_or_ps(t, _mm256_and_ps(x, sign));
}

template <Act kAct>
__attribute__((target("avx2,fma"))) inline __m256 ApplyAvx2(__m256 x) {
  if constexpr (kAct == Act::kExp) {
    return ExpAvx2(x);
  } else if constexpr (kAct == Act::kSigmoid) {
    return SigmoidAvx2(x);
  } else {
    return TanhAvx2(x);
  }
}

template <Act kAct>
__attribute__((target("avx2,fma"))) void MapAvx2(const float* in, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, ApplyAvx2<kAct>(_mm256_loadu_ps(in + i)));
  }
  if (i < n) {
    const __m256i live = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n - i)),
                                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    _mm256_maskstore_ps(out + i, live, ApplyAvx2<kAct>(_mm256_maskload_ps(in + i, live)));
  }
}

#endif  // BM_ACTIVATION_X86

template <Act kAct>
void Map(const float* in, float* out, int64_t n) {
#if BM_ACTIVATION_X86
  switch (GemmCpuTier()) {
    case CpuTier::kAvx512:
      MapAvx512<kAct>(in, out, n);
      return;
    case CpuTier::kAvx2:
      MapAvx2<kAct>(in, out, n);
      return;
    case CpuTier::kScalar:
      break;
  }
#endif
  MapScalar<kAct>(in, out, n);
}

}  // namespace

void ExpF32(const float* in, float* out, int64_t n) { Map<Act::kExp>(in, out, n); }

void SigmoidF32(const float* in, float* out, int64_t n) { Map<Act::kSigmoid>(in, out, n); }

void TanhF32(const float* in, float* out, int64_t n) { Map<Act::kTanh>(in, out, n); }

const char* ActivationKernelName() {
  switch (GemmCpuTier()) {
    case CpuTier::kAvx512:
      return "avx512";
    case CpuTier::kAvx2:
      return "avx2_fma";
    case CpuTier::kScalar:
      break;
  }
  return "scalar";
}

}  // namespace batchmaker
