#include "src/tensor/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "src/util/logging.h"
#include "src/util/thread_pool.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define BM_GEMM_X86 1
#include <immintrin.h>
#endif

namespace batchmaker {

namespace {

// fp32 panels are kF32Nr columns wide on every tier: four zmm or eight ymm
// vectors per B row. The AVX-512 tile is kF32Mr x kF32Nr, 24 accumulators;
// the AVX2 kernel covers the same tile as four 6x16 sub-tiles (12
// accumulators each, inside 16 ymm registers); the scalar kernel walks the
// tile's rows. A K block of kKc B rows (32 KB) stays in L1 while every row
// tile of a job passes over it. A is read in place, never repacked.
constexpr int64_t kF32Nr = 64;
constexpr int64_t kF32Mr = 6;
constexpr int64_t kKc = 128;
// int8 register tile: NR is one 16-lane zmm (two ymm); MR=6 keeps the 12
// AVX2 accumulator vectors plus 2 B vectors and a broadcast inside 16 ymm
// registers. That packed layout is kernel-agnostic too: the scalar fallback
// consumes the same panels.
constexpr int64_t kMr = 6;
constexpr int64_t kNr = 16;
// Rows per parallel job; a multiple of kMr and kF32Mr so a job's row tiles
// line up with the serial path's.
constexpr int64_t kMc = 120;

// One fp32 output tile over one K block: C[rows, cols] = (load_c ? C : 0)
// + A[rows, kc] * Bp[kc, kF32Nr], plus `bias` (nullable) once the block is
// done. A is read in place, its rows `lda` floats apart; Bp is the panel's
// rows for this K block. Each C element is one fp32 value that starts from
// zero or from C and takes its kc products strictly in k order, so its
// result depends on K and the kernel alone: not on `rows`, on the tile's
// position, on where K blocks or column parts split K, or on the bias
// (added to the finished sum, as a separate AddBias would). `next_bp`
// (nullable) is the next K block's B rows: the SIMD kernels prefetch it
// into L2 while they compute, so it is there when its first tile starts.
using KernelFn = void (*)(const float* a, int64_t lda, const float* bp, int64_t kc,
                          float* c, int64_t ldc, int64_t rows, int64_t cols, bool load_c,
                          const float* bias, const float* next_bp);

// int8 tile: writes the raw s32 accumulator tile (kMr x kNr, overwritten —
// the shared dequant epilogue handles C accumulate). Ap holds u8 values
// (quantized activation + 128) grouped by `g` k-values per row; the AVX2
// kernel instead reads Ap as little-endian u16 pairs (pre-widened by the
// packer). Bp is s8, same k-grouping per column. Integer accumulation is
// exact, so every int8 kernel produces the identical tile.
using Int8KernelFn = void (*)(const uint8_t* ap, const int8_t* bp, int64_t k, int g,
                              int32_t* acc);

void MicroKernelScalar(const float* a, int64_t lda, const float* bp, int64_t kc, float* c,
                       int64_t ldc, int64_t rows, int64_t cols, bool load_c,
                       const float* bias, const float* /*next_bp*/) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* a_row = a + i * lda;
    float* dst = c + i * ldc;
    float acc[kF32Nr] = {};
    if (load_c) {
      std::copy_n(dst, cols, acc);
    }
    for (int64_t p = 0; p < kc; ++p) {
      const float a_val = a_row[p];
      const float* b_row = bp + p * kF32Nr;
      for (int64_t j = 0; j < cols; ++j) {
        acc[j] += a_val * b_row[j];
      }
    }
    for (int64_t j = 0; j < cols; ++j) {
      dst[j] = bias != nullptr ? acc[j] + bias[j] : acc[j];
    }
  }
}

#if BM_GEMM_X86
// R rows x 16 columns (cols <= 16 of them stored) of one panel's 16-column
// slice `bp`, whose rows are still kF32Nr floats apart.
template <int R>
__attribute__((target("avx2,fma"))) void TileAvx2(const float* a, int64_t lda,
                                                  const float* bp, int64_t kc, float* c,
                                                  int64_t ldc, int64_t cols, bool load_c,
                                                  const float* bias, const float* next_bp) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i mask0 = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(cols)), lane);
  const __m256i mask1 =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(cols) - 8), lane);
  __m256 acc0[R];
  __m256 acc1[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    acc0[r] = load_c ? _mm256_maskload_ps(c + r * ldc, mask0) : _mm256_setzero_ps();
    acc1[r] = load_c ? _mm256_maskload_ps(c + r * ldc + 8, mask1) : _mm256_setzero_ps();
  }
  for (int64_t p = 0; p < kc; ++p) {
    if (next_bp != nullptr) {
      _mm_prefetch(reinterpret_cast<const char*>(next_bp + p * kF32Nr), _MM_HINT_T1);
    }
    const __m256 b0 = _mm256_loadu_ps(bp + p * kF32Nr);
    const __m256 b1 = _mm256_loadu_ps(bp + p * kF32Nr + 8);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256 a_val = _mm256_broadcast_ss(a + r * lda + p);
      acc0[r] = _mm256_fmadd_ps(a_val, b0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(a_val, b1, acc1[r]);
    }
  }
  if (bias != nullptr) {
    const __m256 bias0 = _mm256_maskload_ps(bias, mask0);
    const __m256 bias1 = _mm256_maskload_ps(bias + 8, mask1);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      acc0[r] = _mm256_add_ps(acc0[r], bias0);
      acc1[r] = _mm256_add_ps(acc1[r], bias1);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    _mm256_maskstore_ps(c + r * ldc, mask0, acc0[r]);
    _mm256_maskstore_ps(c + r * ldc + 8, mask1, acc1[r]);
  }
}

// The kF32Nr-wide tile as 16-column slices, skipping the slices past `cols`.
__attribute__((target("avx2,fma"))) void MicroKernelAvx2(const float* a, int64_t lda,
                                                         const float* bp, int64_t kc,
                                                         float* c, int64_t ldc, int64_t rows,
                                                         int64_t cols, bool load_c,
                                                         const float* bias,
                                                         const float* next_bp) {
  using SliceFn = void (*)(const float*, int64_t, const float*, int64_t, float*, int64_t,
                           int64_t, bool, const float*, const float*);
  static constexpr SliceFn kByRows[kF32Mr] = {TileAvx2<1>, TileAvx2<2>, TileAvx2<3>,
                                              TileAvx2<4>, TileAvx2<5>, TileAvx2<6>};
  for (int64_t j = 0; j < cols; j += 16) {
    kByRows[rows - 1](a, lda, bp + j, kc, c + j, ldc, std::min<int64_t>(16, cols - j),
                      load_c, bias != nullptr ? bias + j : nullptr,
                      next_bp != nullptr ? next_bp + j : nullptr);
  }
}

// R rows x kF32Nr columns: four zmm accumulators per row, masked at the
// C/bias edge so a narrow last panel needs no spill tile.
template <int R>
__attribute__((target("avx512f"))) void TileAvx512(const float* a, int64_t lda,
                                                   const float* bp, int64_t kc, float* c,
                                                   int64_t ldc, int64_t cols, bool load_c,
                                                   const float* bias, const float* next_bp) {
  constexpr int kV = kF32Nr / 16;
  __mmask16 mask[kV];
#pragma GCC unroll 4
  for (int v = 0; v < kV; ++v) {
    const int64_t left = cols - 16 * v;
    mask[v] = left >= 16 ? static_cast<__mmask16>(0xffff)
              : left <= 0 ? static_cast<__mmask16>(0)
                          : static_cast<__mmask16>((1u << left) - 1);
  }
  __m512 acc[R][kV];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < kV; ++v) {
      acc[r][v] = load_c ? _mm512_maskz_loadu_ps(mask[v], c + r * ldc + 16 * v)
                         : _mm512_setzero_ps();
    }
  }
  for (int64_t p = 0; p < kc; ++p) {
    if (next_bp != nullptr) {
#pragma GCC unroll 4
      for (int v = 0; v < kV; ++v) {
        _mm_prefetch(reinterpret_cast<const char*>(next_bp + p * kF32Nr + 16 * v),
                     _MM_HINT_T1);
      }
    }
    __m512 b[kV];
#pragma GCC unroll 4
    for (int v = 0; v < kV; ++v) {
      b[v] = _mm512_loadu_ps(bp + p * kF32Nr + 16 * v);
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m512 a_val = _mm512_set1_ps(a[r * lda + p]);
#pragma GCC unroll 4
      for (int v = 0; v < kV; ++v) {
        acc[r][v] = _mm512_fmadd_ps(a_val, b[v], acc[r][v]);
      }
    }
  }
  if (bias != nullptr) {
#pragma GCC unroll 4
    for (int v = 0; v < kV; ++v) {
      const __m512 bias_v = _mm512_maskz_loadu_ps(mask[v], bias + 16 * v);
#pragma GCC unroll 8
      for (int r = 0; r < R; ++r) {
        acc[r][v] = _mm512_add_ps(acc[r][v], bias_v);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < kV; ++v) {
      _mm512_mask_storeu_ps(c + r * ldc + 16 * v, mask[v], acc[r][v]);
    }
  }
}

__attribute__((target("avx512f"))) void MicroKernelAvx512(const float* a, int64_t lda,
                                                          const float* bp, int64_t kc,
                                                          float* c, int64_t ldc, int64_t rows,
                                                          int64_t cols, bool load_c,
                                                          const float* bias,
                                                          const float* next_bp) {
  using TileFn = void (*)(const float*, int64_t, const float*, int64_t, float*, int64_t,
                          int64_t, bool, const float*, const float*);
  static constexpr TileFn kByRows[kF32Mr] = {TileAvx512<1>, TileAvx512<2>, TileAvx512<3>,
                                             TileAvx512<4>, TileAvx512<5>, TileAvx512<6>};
  kByRows[rows - 1](a, lda, bp, kc, c, ldc, cols, load_c, bias, next_bp);
}
#endif  // BM_GEMM_X86

// int8 fallback kernel. Also the compatibility path when B was packed with a
// different k-group width than the dispatched kernel wants (e.g. a pack made
// under a forced tier): it honors whatever `g` the panels carry.
void MicroKernelInt8Scalar(const uint8_t* ap, const int8_t* bp, int64_t k, int g,
                           int32_t* acc) {
  std::memset(acc, 0, static_cast<size_t>(kMr * kNr) * sizeof(int32_t));
  const int64_t groups = (k + g - 1) / g;
  for (int64_t g0 = 0; g0 < groups; ++g0) {
    const uint8_t* a_col = ap + g0 * kMr * g;
    const int8_t* b_row = bp + g0 * kNr * g;
    const int lim = static_cast<int>(std::min<int64_t>(g, k - g0 * g));
    for (int t = 0; t < lim; ++t) {
      for (int64_t ii = 0; ii < kMr; ++ii) {
        const int32_t a_val = a_col[ii * g + t];
        int32_t* acc_row = acc + ii * kNr;
        for (int64_t jj = 0; jj < kNr; ++jj) {
          acc_row[jj] += a_val * static_cast<int32_t>(b_row[jj * g + t]);
        }
      }
    }
  }
}

#if BM_GEMM_X86
__attribute__((target("avx512vnni,avx512f"))) void MicroKernelInt8Vnni(const uint8_t* ap,
                                                                       const int8_t* bp,
                                                                       int64_t k, int g,
                                                                       int32_t* acc) {
  (void)g;  // dispatched only when panels are packed with g=4
  const int64_t groups = (k + 3) / 4;
  __m512i accv[kMr];
  for (int ii = 0; ii < kMr; ++ii) {
    accv[ii] = _mm512_setzero_si512();
  }
  for (int64_t g0 = 0; g0 < groups; ++g0) {
    const __m512i bv = _mm512_loadu_si512(bp + g0 * kNr * 4);
    const uint8_t* a_col = ap + g0 * kMr * 4;
    for (int ii = 0; ii < kMr; ++ii) {
      uint32_t quad;
      std::memcpy(&quad, a_col + ii * 4, sizeof(quad));
      accv[ii] =
          _mm512_dpbusd_epi32(accv[ii], _mm512_set1_epi32(static_cast<int>(quad)), bv);
    }
  }
  for (int ii = 0; ii < kMr; ++ii) {
    _mm512_storeu_si512(acc + ii * kNr, accv[ii]);
  }
}

// AVX2 has no u8 x s8 dot product without s16 saturation (vpmaddubsw can
// overflow: two u8*s8 products can exceed int16). Instead the packer widens
// the u8 activations to u16 pairs and the kernel sign-extends B to s16, so
// vpmaddwd accumulates k-pairs exactly into s32.
__attribute__((target("avx2"))) void MicroKernelInt8Avx2(const uint8_t* ap,
                                                         const int8_t* bp, int64_t k,
                                                         int g, int32_t* acc) {
  (void)g;  // dispatched only when panels are packed with g=2; A is u16 pairs
  const int64_t groups = (k + 1) / 2;
  __m256i acc0[kMr];
  __m256i acc1[kMr];
  for (int ii = 0; ii < kMr; ++ii) {
    acc0[ii] = _mm256_setzero_si256();
    acc1[ii] = _mm256_setzero_si256();
  }
  for (int64_t g0 = 0; g0 < groups; ++g0) {
    const __m256i braw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + g0 * kNr * 2));
    const __m256i b0 = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(braw));
    const __m256i b1 = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(braw, 1));
    // Each row's k-pair is 2 little-endian u16 = 4 bytes.
    const uint8_t* a_col = ap + g0 * kMr * 4;
    for (int ii = 0; ii < kMr; ++ii) {
      uint32_t pair;
      std::memcpy(&pair, a_col + ii * 4, sizeof(pair));
      const __m256i av = _mm256_set1_epi32(static_cast<int>(pair));
      acc0[ii] = _mm256_add_epi32(acc0[ii], _mm256_madd_epi16(av, b0));
      acc1[ii] = _mm256_add_epi32(acc1[ii], _mm256_madd_epi16(av, b1));
    }
  }
  for (int ii = 0; ii < kMr; ++ii) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + ii * kNr), acc0[ii]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + ii * kNr + 8), acc1[ii]);
  }
}
#endif  // BM_GEMM_X86

// Shared int8 epilogue: subtract the u8 zero-point correction, rescale, add
// the optional fused bias, then store/accumulate. One fixed fp operation
// order for every int8 kernel — this is what makes int8 results bitwise
// identical across VNNI / AVX2 / scalar.
void DequantStore(const int32_t* acc, const float* row_scales, const float* b_scales,
                  const int32_t* corr, const float* bias, float* c, int64_t ldc,
                  int64_t rows, int64_t cols, bool accumulate) {
  for (int64_t i = 0; i < rows; ++i) {
    const float sa = row_scales[i];
    const int32_t* acc_row = acc + i * kNr;
    float* dst = c + i * ldc;
    for (int64_t j = 0; j < cols; ++j) {
      float v = static_cast<float>(acc_row[j] - corr[j]) * (sa * b_scales[j]);
      if (bias != nullptr) {
        v += bias[j];
      }
      dst[j] = accumulate ? dst[j] + v : v;
    }
  }
}

// ---------------------------------------------------------------------------
// Runtime dispatch. A feature bitmask is detected once via cpuid (checking
// avx512vnni specifically, not just avx512f), optionally capped
// by the BM_GEMM_KERNEL env var or GemmForceTierForTest, then resolved into
// one kernel per precision.

enum : unsigned {
  kFeatAvx2 = 1u << 0,
  kFeatAvx512f = 1u << 1,
  kFeatVnni = 1u << 2,
};

unsigned DetectCpuFeatures() {
#if BM_GEMM_X86
  unsigned f = 0;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    f |= kFeatAvx2;
  }
  if (__builtin_cpu_supports("avx512f")) {
    f |= kFeatAvx512f;
  }
  if (__builtin_cpu_supports("avx512vnni")) {
    f |= kFeatVnni;
  }
  return f;
#else
  return 0;
#endif
}

bool ParseTierMask(const char* text, unsigned* mask) {
  const std::string t(text == nullptr ? "" : text);
  if (t.empty() || t == "native") {
    *mask = ~0u;
    return true;
  }
  if (t == "scalar") {
    *mask = 0;
    return true;
  }
  if (t == "avx2") {
    *mask = kFeatAvx2;
    return true;
  }
  if (t == "avx512") {
    *mask = kFeatAvx2 | kFeatAvx512f;
    return true;
  }
  if (t == "avx512_vnni") {
    *mask = kFeatAvx2 | kFeatAvx512f | kFeatVnni;
    return true;
  }
  return false;
}

struct GemmDispatch {
  KernelFn f32 = MicroKernelScalar;
  const char* f32_name = "scalar_fp32";
  Int8KernelFn int8 = MicroKernelInt8Scalar;
  const char* int8_name = "scalar_int8";
  int int8_kgroup = 4;    // k-group width PackInt8 uses for this dispatch
  bool int8_a16 = false;  // A packed as u16 pairs (AVX2 kernel operand form)
};

GemmDispatch MakeDispatch(unsigned feat) {
  GemmDispatch d;
#if BM_GEMM_X86
  if (feat & kFeatAvx512f) {
    d.f32 = MicroKernelAvx512;
    d.f32_name = "avx512_fp32";
  } else if (feat & kFeatAvx2) {
    d.f32 = MicroKernelAvx2;
    d.f32_name = "avx2_fma_fp32";
  }
  if ((feat & kFeatAvx512f) && (feat & kFeatVnni)) {
    d.int8 = MicroKernelInt8Vnni;
    d.int8_name = "avx512_vnni_int8";
    d.int8_kgroup = 4;
  } else if (feat & kFeatAvx2) {
    d.int8 = MicroKernelInt8Avx2;
    d.int8_name = "avx2_madd_int8";
    d.int8_kgroup = 2;
    d.int8_a16 = true;
  }
#else
  (void)feat;
#endif
  return d;
}

GemmDispatch& MutableDispatch() {
  static GemmDispatch dispatch = [] {
    unsigned feat = DetectCpuFeatures();
    const char* env = std::getenv("BM_GEMM_KERNEL");
    if (env != nullptr && *env != '\0') {
      unsigned cap = ~0u;
      if (ParseTierMask(env, &cap)) {
        feat &= cap;
      } else {
        BM_LOG(Warning) << "ignoring unknown BM_GEMM_KERNEL=" << env
                        << " (want scalar|avx2|avx512|avx512_vnni|native)";
      }
    }
    return MakeDispatch(feat);
  }();
  return dispatch;
}

// Packs rows [row0, row0+rows) of A[m,k] into kMr-row int8 panels: per-row
// dynamic symmetric quantization (scale = absmax/127, stored value = q + 128
// as u8, padded slots 128 so the zero-point correction cancels them against
// B's zero padding). `widen` stores each value as little-endian u16 instead
// (the AVX2 kernel operand form).
// BM_CHECK-fails on non-finite activations — quantizing an inf/NaN row
// would silently poison every column of that output row.
void PackAInt8(const float* a, int64_t k, int64_t row0, int64_t rows, int64_t m, int g,
               bool widen, uint8_t* out, float* scales) {
  const int64_t panels = (rows + kMr - 1) / kMr;
  const int64_t groups = (k + g - 1) / g;
  const int64_t panel_bytes = groups * kMr * g * (widen ? 2 : 1);
  for (int64_t ir = 0; ir < panels; ++ir) {
    uint8_t* dst = out + ir * panel_bytes;
    const int64_t base = row0 + ir * kMr;
    const int64_t valid = std::min<int64_t>(kMr, m - base);
    for (int64_t ii = 0; ii < kMr; ++ii) {
      float inv = 0.0f;
      float scale = 0.0f;
      if (ii < valid) {
        const float* row = a + (base + ii) * k;
        float amax = 0.0f;
        for (int64_t p = 0; p < k; ++p) {
          BM_CHECK(std::isfinite(row[p]))
              << "int8 GEMM: non-finite activation in row " << (base + ii);
          amax = std::max(amax, std::fabs(row[p]));
        }
        if (amax > 0.0f) {
          scale = amax / 127.0f;
          inv = 127.0f / amax;
        }
      }
      scales[ir * kMr + ii] = scale;
      for (int64_t p = 0; p < groups * g; ++p) {
        int q = 0;
        if (ii < valid && p < k && inv != 0.0f) {
          q = static_cast<int>(std::lrintf(a[(base + ii) * k + p] * inv));
          q = std::min(127, std::max(-127, q));
        }
        const int64_t g0 = p / g;
        const int64_t t = p % g;
        const int64_t idx = g0 * kMr * g + ii * g + t;
        if (widen) {
          const uint16_t u = static_cast<uint16_t>(q + 128);
          std::memcpy(dst + idx * 2, &u, sizeof(u));
        } else {
          dst[idx] = static_cast<uint8_t>(q + 128);
        }
      }
    }
  }
}

// Per-thread packing scratch. Reused across calls; bounded by the largest
// (rows x k) block packed on that thread.
thread_local std::vector<uint8_t> tls_i8_pack;
thread_local std::vector<float> tls_row_scales;

uint8_t* QPackScratch(int64_t bytes) {
  if (static_cast<int64_t>(tls_i8_pack.size()) < bytes) {
    tls_i8_pack.resize(static_cast<size_t>(bytes));
  }
  return tls_i8_pack.data();
}

float* RowScaleScratch(int64_t floats) {
  if (static_cast<int64_t>(tls_row_scales.size()) < floats) {
    tls_row_scales.resize(static_cast<size_t>(floats));
  }
  return tls_row_scales.data();
}

// Computes the fp32 output block C[row0 : row0+rows, panel jp] over all of K:
// K blocks of at most kKc, cut at the column-part boundaries, each swept by
// every row tile while its B rows stay in L1. C itself carries the sum from
// one K block to the next; the bias lands with the last block's store. The
// packed B is one stream in (panel, K block) order, so each block's first
// tile prefetches the block after it.
void ComputeF32Block(KernelFn kernel, const GemmPart* parts, int num_parts,
                     const PackedMatrix& b, float* c, int64_t row0, int64_t rows,
                     int64_t jp, bool accumulate, const float* bias) {
  const int64_t n = b.n();
  const int64_t col0 = jp * kF32Nr;
  const int64_t cols = std::min<int64_t>(kF32Nr, n - col0);
  const float* panel = b.panel(jp);
  const float* next_panel = jp + 1 < b.num_panels() ? b.panel(jp + 1) : nullptr;
  int64_t part_k0 = 0;  // K offset of the current part's first column
  for (int i = 0; i < num_parts; ++i) {
    const GemmPart& part = parts[i];
    for (int64_t p0 = 0; p0 < part.cols; p0 += kKc) {
      const int64_t k0 = part_k0 + p0;
      const int64_t kc = std::min<int64_t>(kKc, part.cols - p0);
      const bool last = k0 + kc == b.k();
      const float* block_bias = last && bias != nullptr ? bias + col0 : nullptr;
      const float* next_bp = last ? next_panel : panel + (k0 + kc) * kF32Nr;
      for (int64_t r = row0; r < row0 + rows; r += kF32Mr) {
        kernel(part.data + r * part.ld + p0, part.ld, panel + k0 * kF32Nr, kc,
               c + r * n + col0, n, std::min<int64_t>(kF32Mr, row0 + rows - r), cols,
               accumulate || k0 > 0, block_bias, r == row0 ? next_bp : nullptr);
      }
    }
    part_k0 += part.cols;
  }
}

void ComputeRowBlockInt8(Int8KernelFn kernel, int g, bool widen, const uint8_t* ap,
                         const float* row_scales, const PackedMatrix& b, const float* bias,
                         float* c, int64_t row0, int64_t rows, int64_t m, int64_t n,
                         bool accumulate) {
  const int64_t k = b.k();
  const int64_t groups = (k + g - 1) / g;
  const int64_t panel_bytes = groups * kMr * g * (widen ? 2 : 1);
  const int64_t a_panels = (rows + kMr - 1) / kMr;
  int32_t acc[kMr * kNr];
  for (int64_t jp = 0; jp < b.num_panels(); ++jp) {
    const int8_t* bp = b.panel_int8(jp);
    const int64_t col0 = jp * kNr;
    const int64_t cols = std::min<int64_t>(kNr, n - col0);
    const float* sb = b.col_scales() + col0;
    const int32_t* corr = b.col_corrections() + col0;
    const float* bias_j = bias != nullptr ? bias + col0 : nullptr;
    for (int64_t ir = 0; ir < a_panels; ++ir) {
      const int64_t tile_row0 = row0 + ir * kMr;
      const int64_t tile_rows = std::min<int64_t>(kMr, m - tile_row0);
      kernel(ap + ir * panel_bytes, bp, k, g, acc);
      DequantStore(acc, row_scales + ir * kMr, sb, corr, bias_j,
                   c + tile_row0 * n + col0, n, tile_rows, cols, accumulate);
    }
  }
}

// fp32 jobs are (kMc row block, panel) pairs: whole output tiles, each
// owned by one thread, so pooled and serial runs agree bitwise.
void GemmPackedF32(const GemmPart* parts, int num_parts, const PackedMatrix& b, float* c,
                   int64_t m, bool accumulate, ThreadPool* pool, const float* bias) {
  const KernelFn kernel = MutableDispatch().f32;
  const int64_t panels = b.num_panels();
  const int64_t jobs = (m + kMc - 1) / kMc * panels;
  const auto job = [&](int64_t j) {
    const int64_t row0 = j / panels * kMc;
    ComputeF32Block(kernel, parts, num_parts, b, c, row0, std::min<int64_t>(kMc, m - row0),
                    j % panels, accumulate, bias);
  };
  if (pool != nullptr && pool->num_threads() > 1 && jobs >= 2) {
    pool->Run(jobs, job);
    return;
  }
  for (int64_t j = 0; j < jobs; ++j) {
    job(j);
  }
}

void GemmPackedInt8(const float* a, const PackedMatrix& b, float* c, int64_t m,
                    bool accumulate, ThreadPool* pool, const float* bias) {
  const int64_t k = b.k();
  const int64_t n = b.n();
  const GemmDispatch& d = MutableDispatch();
  Int8KernelFn kernel = d.int8;
  bool widen = d.int8_a16;
  const int g = b.int8_kgroup();
  if (g != d.int8_kgroup) {
    // B was packed under a different dispatch (forced tier / env override
    // changed since). The scalar kernel honors any group width.
    kernel = MicroKernelInt8Scalar;
    widen = false;
  }
  const int64_t groups = (k + g - 1) / g;
  const int64_t elem_bytes = widen ? 2 : 1;
  const int64_t m_blocks = (m + kMc - 1) / kMc;
  if (pool != nullptr && pool->num_threads() > 1 && m_blocks >= 2) {
    pool->Run(m_blocks, [&](int64_t ib) {
      const int64_t row0 = ib * kMc;
      const int64_t rows = std::min<int64_t>(kMc, m - row0);
      const int64_t panels = (rows + kMr - 1) / kMr;
      uint8_t* ap = QPackScratch(panels * groups * kMr * g * elem_bytes);
      float* rs = RowScaleScratch(panels * kMr);
      PackAInt8(a, k, row0, rows, m, g, widen, ap, rs);
      ComputeRowBlockInt8(kernel, g, widen, ap, rs, b, bias, c, row0, rows, m, n,
                          accumulate);
    });
    return;
  }

  const int64_t a_panels = (m + kMr - 1) / kMr;
  const int64_t panel_bytes = groups * kMr * g * elem_bytes;
  uint8_t* ap = QPackScratch(a_panels * panel_bytes);
  float* rs = RowScaleScratch(a_panels * kMr);
  PackAInt8(a, k, /*row0=*/0, m, m, g, widen, ap, rs);
  if (pool != nullptr && pool->num_threads() > 1 && b.num_panels() >= 2) {
    pool->Run(b.num_panels(), [&](int64_t jp) {
      const int8_t* bp = b.panel_int8(jp);
      const int64_t col0 = jp * kNr;
      const int64_t cols = std::min<int64_t>(kNr, n - col0);
      const float* sb = b.col_scales() + col0;
      const int32_t* corr = b.col_corrections() + col0;
      const float* bias_j = bias != nullptr ? bias + col0 : nullptr;
      int32_t acc[kMr * kNr];
      for (int64_t ir = 0; ir < a_panels; ++ir) {
        const int64_t row0 = ir * kMr;
        const int64_t rows = std::min<int64_t>(kMr, m - row0);
        kernel(ap + ir * panel_bytes, bp, k, g, acc);
        DequantStore(acc, rs + ir * kMr, sb, corr, bias_j, c + row0 * n + col0, n, rows,
                     cols, accumulate);
      }
    });
    return;
  }
  ComputeRowBlockInt8(kernel, g, widen, ap, rs, b, bias, c, /*row0=*/0, m, m, n,
                      accumulate);
}

// k == 0: no K blocks run, yet C = 0 (or C) plus the bias must still be
// defined.
void ZeroKProduct(float* c, int64_t m, int64_t n, bool accumulate, const float* bias) {
  if (!accumulate) {
    std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(float));
  }
  if (bias != nullptr) {
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        c[i * n + j] += bias[j];
      }
    }
  }
}

}  // namespace

const char* PrecisionName(Precision p) {
  switch (p) {
    case Precision::kF32:
      return "fp32";
    case Precision::kInt8:
      return "int8";
  }
  return "fp32";
}

bool ParsePrecision(const std::string& text, Precision* out) {
  if (text == "fp32" || text == "f32") {
    *out = Precision::kF32;
    return true;
  }
  if (text == "int8") {
    *out = Precision::kInt8;
    return true;
  }
  return false;
}

PackedMatrix PackedMatrix::Pack(const float* b, int64_t k, int64_t n) {
  BM_CHECK_GE(k, 0);
  BM_CHECK_GT(n, 0);
  PackedMatrix packed;
  packed.k_ = k;
  packed.n_ = n;
  packed.num_panels_ = (n + kF32Nr - 1) / kF32Nr;
  packed.data_.assign(static_cast<size_t>(packed.num_panels_ * k * kF32Nr), 0.0f);
  for (int64_t jp = 0; jp < packed.num_panels_; ++jp) {
    float* dst = packed.data_.data() + jp * k * kF32Nr;
    const int64_t col0 = jp * kF32Nr;
    const int64_t cols = std::min<int64_t>(kF32Nr, n - col0);
    for (int64_t p = 0; p < k; ++p) {
      std::memcpy(dst + p * kF32Nr, b + p * n + col0,
                  static_cast<size_t>(cols) * sizeof(float));
    }
  }
  return packed;
}

PackedMatrix PackedMatrix::Pack(const Tensor& b) {
  BM_CHECK(b.dtype() == DType::kF32);
  BM_CHECK_EQ(b.shape().Rank(), 2);
  return Pack(b.f32(), b.shape().Dim(0), b.shape().Dim(1));
}

PackedMatrix PackedMatrix::PackInt8(const float* b, int64_t k, int64_t n) {
  BM_CHECK_GE(k, 0);
  BM_CHECK_GT(n, 0);
  PackedMatrix packed;
  packed.precision_ = Precision::kInt8;
  packed.k_ = k;
  packed.n_ = n;
  packed.num_panels_ = (n + kNr - 1) / kNr;
  const int g = MutableDispatch().int8_kgroup;
  packed.int8_kgroup_ = g;
  const int64_t groups = (k + g - 1) / g;
  packed.i8_data_.assign(static_cast<size_t>(packed.num_panels_ * groups * kNr * g), 0);
  packed.col_scales_.assign(static_cast<size_t>(n), 0.0f);
  packed.col_corr_.assign(static_cast<size_t>(n), 0);

  // Per-output-column symmetric scale: absmax/127, 0-guarded so an all-zero
  // column stays exactly zero after dequant.
  std::vector<float> inv(static_cast<size_t>(n), 0.0f);
  for (int64_t p = 0; p < k; ++p) {
    for (int64_t j = 0; j < n; ++j) {
      const float v = b[p * n + j];
      BM_CHECK(std::isfinite(v)) << "PackInt8: non-finite weight at [" << p << "," << j
                                 << "]";
      const float av = std::fabs(v);
      if (av > packed.col_scales_[j]) {
        packed.col_scales_[j] = av;  // absmax for now; rescaled below
      }
    }
  }
  for (int64_t j = 0; j < n; ++j) {
    const float amax = packed.col_scales_[j];
    if (amax > 0.0f) {
      packed.col_scales_[j] = amax / 127.0f;
      inv[static_cast<size_t>(j)] = 127.0f / amax;
    }
  }
  std::vector<int64_t> colsum(static_cast<size_t>(n), 0);
  for (int64_t jp = 0; jp < packed.num_panels_; ++jp) {
    int8_t* dst = packed.i8_data_.data() + jp * groups * kNr * g;
    const int64_t col0 = jp * kNr;
    const int64_t cols = std::min<int64_t>(kNr, n - col0);
    for (int64_t p = 0; p < k; ++p) {
      const int64_t g0 = p / g;
      const int64_t t = p % g;
      for (int64_t jj = 0; jj < cols; ++jj) {
        const int64_t col = col0 + jj;
        int q = 0;
        if (inv[static_cast<size_t>(col)] != 0.0f) {
          q = static_cast<int>(
              std::lrintf(b[p * n + col] * inv[static_cast<size_t>(col)]));
          q = std::min(127, std::max(-127, q));
        }
        dst[g0 * kNr * g + jj * g + t] = static_cast<int8_t>(q);
        colsum[static_cast<size_t>(col)] += q;
      }
    }
  }
  // u8 zero-point correction: the kernel computes sum (q_a + 128) * q_b, so
  // subtracting 128 * colsum(q_b) recovers sum q_a * q_b exactly.
  for (int64_t j = 0; j < n; ++j) {
    packed.col_corr_[static_cast<size_t>(j)] =
        static_cast<int32_t>(128 * colsum[static_cast<size_t>(j)]);
  }
  return packed;
}

PackedMatrix PackedMatrix::PackInt8(const Tensor& b) {
  BM_CHECK(b.dtype() == DType::kF32);
  BM_CHECK_EQ(b.shape().Rank(), 2);
  return PackInt8(b.f32(), b.shape().Dim(0), b.shape().Dim(1));
}

int64_t PackedMatrix::panel_width() const {
  return precision_ == Precision::kF32 ? kF32Nr : kNr;
}

const float* PackedMatrix::panel(int64_t j) const {
  BM_CHECK(precision_ == Precision::kF32);
  BM_CHECK_GE(j, 0);
  BM_CHECK_LT(j, num_panels_);
  return data_.data() + j * k_ * kF32Nr;
}

const int8_t* PackedMatrix::panel_int8(int64_t j) const {
  BM_CHECK(precision_ == Precision::kInt8);
  BM_CHECK_GE(j, 0);
  BM_CHECK_LT(j, num_panels_);
  const int64_t groups = (k_ + int8_kgroup_ - 1) / int8_kgroup_;
  return i8_data_.data() + j * groups * kNr * int8_kgroup_;
}

void GemmPacked(const float* a, const PackedMatrix& b, float* c, int64_t m,
                bool accumulate, ThreadPool* pool, const float* bias) {
  if (m <= 0) {
    return;
  }
  if (b.k() == 0) {
    ZeroKProduct(c, m, b.n(), accumulate, bias);
    return;
  }
  switch (b.precision()) {
    case Precision::kF32: {
      const GemmPart whole{a, b.k(), b.k()};
      GemmPackedF32(&whole, 1, b, c, m, accumulate, pool, bias);
      return;
    }
    case Precision::kInt8:
      GemmPackedInt8(a, b, c, m, accumulate, pool, bias);
      return;
  }
}

void GemmPackedParts(const GemmPart* parts, int num_parts, const PackedMatrix& b, float* c,
                     int64_t m, bool accumulate, ThreadPool* pool, const float* bias) {
  BM_CHECK(b.precision() == Precision::kF32) << "split-K GEMM needs an fp32 pack";
  int64_t k = 0;
  for (int i = 0; i < num_parts; ++i) {
    BM_CHECK(parts[i].cols >= 0 && parts[i].ld >= parts[i].cols)
        << "GEMM part " << i << ": " << parts[i].cols << " columns, row stride " << parts[i].ld;
    k += parts[i].cols;
  }
  BM_CHECK_EQ(k, b.k()) << "GEMM parts cover " << k << " columns of A, B has " << b.k()
                        << " rows";
  if (m <= 0) {
    return;
  }
  if (k == 0) {
    ZeroKProduct(c, m, b.n(), accumulate, bias);
    return;
  }
  GemmPackedF32(parts, num_parts, b, c, m, accumulate, pool, bias);
}

void GemmRaw(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n) {
  GemmPacked(a, PackedMatrix::Pack(b, k, n), c, m, /*accumulate=*/false);
}

void GemmAccumulateRaw(const float* a, const float* b, float* c, int64_t m, int64_t k,
                       int64_t n) {
  GemmPacked(a, PackedMatrix::Pack(b, k, n), c, m, /*accumulate=*/true);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  return MatMulPacked(a, PackedMatrix::Pack(b));
}

Tensor MatMulPacked(const Tensor& a, const PackedMatrix& b, ThreadPool* pool) {
  return MatMulPackedParts({&a}, b, nullptr, pool);
}

Tensor MatMulPackedBias(const Tensor& a, const PackedMatrix& b, const Tensor& bias,
                        ThreadPool* pool) {
  return MatMulPackedParts({&a}, b, &bias, pool);
}

Tensor MatMulPackedParts(const std::vector<const Tensor*>& parts, const PackedMatrix& b,
                         const Tensor* bias, ThreadPool* pool) {
  BM_CHECK(!parts.empty());
  BM_CHECK(parts.size() == 1 || b.precision() == Precision::kF32)
      << "split-K GEMM needs an fp32 pack";
  const int64_t m = parts[0]->shape().Dim(0);
  std::vector<GemmPart> views;
  views.reserve(parts.size());
  int64_t k = 0;
  for (const Tensor* part : parts) {
    BM_CHECK(part->dtype() == DType::kF32);
    BM_CHECK_EQ(part->shape().Rank(), 2);
    BM_CHECK_EQ(part->shape().Dim(0), m);
    const int64_t cols = part->shape().Dim(1);
    views.push_back(GemmPart{part->f32(), cols, cols});
    k += cols;
  }
  BM_CHECK_EQ(k, b.k()) << "MatMul inner dimension mismatch: [" << m << "," << k << "] x ["
                        << b.k() << "," << b.n() << "]";
  if (bias != nullptr) {
    BM_CHECK(bias->dtype() == DType::kF32);
    BM_CHECK_EQ(bias->shape().NumElements(), b.n());
  }
  Tensor c = Tensor::Uninitialized(Shape{m, b.n()});
  const float* bias_data = bias != nullptr ? bias->f32() : nullptr;
  if (b.precision() == Precision::kF32) {
    GemmPackedParts(views.data(), static_cast<int>(views.size()), b, c.f32(), m,
                    /*accumulate=*/false, pool, bias_data);
  } else {
    GemmPacked(views[0].data, b, c.f32(), m, /*accumulate=*/false, pool, bias_data);
  }
  return c;
}

bool GemmUsesSimd() { return MutableDispatch().f32 != MicroKernelScalar; }

CpuTier GemmCpuTier() {
#if BM_GEMM_X86
  const KernelFn f32 = MutableDispatch().f32;
  if (f32 == MicroKernelAvx512) {
    return CpuTier::kAvx512;
  }
  if (f32 == MicroKernelAvx2) {
    return CpuTier::kAvx2;
  }
#endif
  return CpuTier::kScalar;
}

const char* GemmKernelName(Precision p) {
  const GemmDispatch& d = MutableDispatch();
  switch (p) {
    case Precision::kF32:
      return d.f32_name;
    case Precision::kInt8:
      return d.int8_name;
  }
  return d.f32_name;
}

void GemmForceTierForTest(const char* tier) {
  unsigned feat = DetectCpuFeatures();
  unsigned cap = ~0u;
  BM_CHECK(ParseTierMask(tier, &cap)) << "unknown gemm tier: " << (tier ? tier : "");
  MutableDispatch() = MakeDispatch(feat & cap);
}

}  // namespace batchmaker
