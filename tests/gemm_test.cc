// Property tests for the packed GEMM against a naive triple-loop reference,
// plus bitwise serial-vs-parallel identity and PackedMatrix reuse.

#include "src/tensor/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/tensor/ops.h"
#include "src/util/thread_pool.h"

namespace batchmaker {
namespace {

// Deterministic pseudo-random fill with values that exercise rounding
// (non-dyadic fractions) and signs.
std::vector<float> RandomMatrix(int64_t rows, int64_t cols, uint32_t seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  std::vector<float> m(static_cast<size_t>(rows * cols));
  for (float& v : m) {
    v = dist(gen);
  }
  return m;
}

// The reference: textbook i-k-j triple loop, same accumulation order the
// packed kernel promises (k ascending per C element).
std::vector<float> NaiveGemm(const std::vector<float>& a, const std::vector<float>& b,
                             int64_t m, int64_t k, int64_t n, bool accumulate,
                             const std::vector<float>& c_init = {}) {
  std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
  if (accumulate) {
    c = c_init;
  }
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = accumulate ? c[static_cast<size_t>(i * n + j)] : 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc += a[static_cast<size_t>(i * k + p)] * b[static_cast<size_t>(p * n + j)];
      }
      c[static_cast<size_t>(i * n + j)] = acc;
    }
  }
  return c;
}

// The packed kernel reassociates the j (column) loop into SIMD lanes but
// keeps k sequential, so results match the naive loop to within a small
// relative tolerance (and are exactly equal in the scalar-kernel build).
void ExpectClose(const std::vector<float>& got, const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const float tol = 1e-4f * (1.0f + std::fabs(want[i]));
    EXPECT_NEAR(got[i], want[i], tol) << "at flat index " << i;
  }
}

TEST(GemmTest, MatchesNaiveAcrossShapeGrid) {
  const int64_t sizes[] = {1, 3, 17, 64, 65, 130};
  uint32_t seed = 1;
  for (int64_t m : sizes) {
    for (int64_t k : sizes) {
      for (int64_t n : sizes) {
        SCOPED_TRACE(testing::Message() << "m=" << m << " k=" << k << " n=" << n);
        const auto a = RandomMatrix(m, k, seed++);
        const auto b = RandomMatrix(k, n, seed++);
        // Poison C: the beta=0 path must overwrite, not accumulate.
        std::vector<float> c(static_cast<size_t>(m * n), 123.0f);
        GemmRaw(a.data(), b.data(), c.data(), m, k, n);
        ExpectClose(c, NaiveGemm(a, b, m, k, n, /*accumulate=*/false));
      }
    }
  }
}

TEST(GemmTest, ZeroInnerDimensionZerosOutput) {
  // k=0: the product is all zeros; the non-accumulating form must still
  // clear whatever was in C.
  const int64_t m = 5, n = 33;
  std::vector<float> a;  // [5, 0]
  std::vector<float> b;  // [0, 33]
  std::vector<float> c(static_cast<size_t>(m * n), 7.0f);
  GemmRaw(a.data(), b.data(), c.data(), m, /*k=*/0, n);
  for (float v : c) {
    EXPECT_EQ(v, 0.0f);
  }

  // The accumulating form with k=0 is a no-op.
  std::vector<float> c2(static_cast<size_t>(m * n), 7.0f);
  GemmAccumulateRaw(a.data(), b.data(), c2.data(), m, /*k=*/0, n);
  for (float v : c2) {
    EXPECT_EQ(v, 7.0f);
  }
}

TEST(GemmTest, AccumulateAddsOntoExistingC) {
  const int64_t sizes[] = {1, 3, 17, 65};
  uint32_t seed = 1000;
  for (int64_t m : sizes) {
    for (int64_t k : sizes) {
      for (int64_t n : sizes) {
        SCOPED_TRACE(testing::Message() << "m=" << m << " k=" << k << " n=" << n);
        const auto a = RandomMatrix(m, k, seed++);
        const auto b = RandomMatrix(k, n, seed++);
        const auto c_init = RandomMatrix(m, n, seed++);
        std::vector<float> c = c_init;
        GemmAccumulateRaw(a.data(), b.data(), c.data(), m, k, n);
        ExpectClose(c, NaiveGemm(a, b, m, k, n, /*accumulate=*/true, c_init));
      }
    }
  }
}

TEST(GemmTest, ParallelIsBitwiseIdenticalToSerial) {
  // The determinism contract: pooled execution must produce byte-identical
  // output for any thread count. Shapes chosen to hit both parallel
  // partitions (multiple M blocks; multiple B panels with a single M block).
  struct ShapeCase {
    int64_t m, k, n;
  };
  const ShapeCase cases[] = {
      {1, 64, 130},    // one M block, many panels -> panel partition
      {130, 17, 64},   // multiple M blocks (kMc=120) -> block partition
      {257, 130, 96},  // both dimensions non-trivial
      {3, 1, 17},      // degenerate small
  };
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  ThreadPool pool7(7);
  uint32_t seed = 42;
  for (const ShapeCase& sc : cases) {
    SCOPED_TRACE(testing::Message() << "m=" << sc.m << " k=" << sc.k << " n=" << sc.n);
    const auto a = RandomMatrix(sc.m, sc.k, seed++);
    const auto b = RandomMatrix(sc.k, sc.n, seed++);
    const PackedMatrix packed = PackedMatrix::Pack(b.data(), sc.k, sc.n);
    const size_t c_size = static_cast<size_t>(sc.m * sc.n);

    std::vector<float> serial(c_size, -1.0f);
    GemmPacked(a.data(), packed, serial.data(), sc.m, /*accumulate=*/false);

    for (ThreadPool* pool : {&pool2, &pool4, &pool7}) {
      std::vector<float> parallel(c_size, -2.0f);
      GemmPacked(a.data(), packed, parallel.data(), sc.m, /*accumulate=*/false, pool);
      EXPECT_EQ(0, std::memcmp(serial.data(), parallel.data(), c_size * sizeof(float)))
          << "pool size " << pool->num_threads();
    }
  }
}

TEST(GemmTest, PackedMatrixIsReusableAcrossCalls) {
  const int64_t m = 33, k = 65, n = 47;
  const auto a1 = RandomMatrix(m, k, 7);
  const auto a2 = RandomMatrix(m, k, 8);
  const auto b = RandomMatrix(k, n, 9);
  const PackedMatrix packed = PackedMatrix::Pack(b.data(), k, n);
  EXPECT_EQ(packed.k(), k);
  EXPECT_EQ(packed.n(), n);

  // Two calls against the same packed B match independent on-the-fly packs.
  std::vector<float> c1(static_cast<size_t>(m * n));
  std::vector<float> c2(static_cast<size_t>(m * n));
  GemmPacked(a1.data(), packed, c1.data(), m, /*accumulate=*/false);
  GemmPacked(a2.data(), packed, c2.data(), m, /*accumulate=*/false);

  std::vector<float> want1(static_cast<size_t>(m * n));
  std::vector<float> want2(static_cast<size_t>(m * n));
  GemmRaw(a1.data(), b.data(), want1.data(), m, k, n);
  GemmRaw(a2.data(), b.data(), want2.data(), m, k, n);
  EXPECT_EQ(0, std::memcmp(c1.data(), want1.data(), c1.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(c2.data(), want2.data(), c2.size() * sizeof(float)));
}

TEST(GemmTest, PackTensorMatchesPackPointer) {
  const int64_t k = 17, n = 30;
  const auto b = RandomMatrix(k, n, 11);
  Tensor bt = Tensor::FromVector(Shape{k, n}, b);
  const PackedMatrix from_tensor = PackedMatrix::Pack(bt);
  const PackedMatrix from_ptr = PackedMatrix::Pack(b.data(), k, n);
  ASSERT_EQ(from_tensor.num_panels(), from_ptr.num_panels());
  ASSERT_EQ(from_tensor.k(), from_ptr.k());
  ASSERT_EQ(from_tensor.panel_width(), from_ptr.panel_width());
  ASSERT_GE(from_tensor.panel_width() * from_tensor.num_panels(), n);
  const size_t panel_bytes =
      sizeof(float) * static_cast<size_t>(from_tensor.panel_width() * k);
  for (int64_t j = 0; j < from_tensor.num_panels(); ++j) {
    EXPECT_EQ(0, std::memcmp(from_tensor.panel(j), from_ptr.panel(j), panel_bytes));
  }
}

TEST(GemmTest, MatMulTensorWrapper) {
  const int64_t m = 4, k = 6, n = 5;
  const auto a = RandomMatrix(m, k, 21);
  const auto b = RandomMatrix(k, n, 22);
  Tensor at = Tensor::FromVector(Shape{m, k}, a);
  Tensor bt = Tensor::FromVector(Shape{k, n}, b);
  const Tensor c = MatMul(at, bt);
  ASSERT_EQ(c.shape().Dim(0), m);
  ASSERT_EQ(c.shape().Dim(1), n);
  const auto want = NaiveGemm(a, b, m, k, n, /*accumulate=*/false);
  std::vector<float> got(c.f32(), c.f32() + m * n);
  ExpectClose(got, want);

  const PackedMatrix packed = PackedMatrix::Pack(bt);
  const Tensor cp = MatMulPacked(at, packed);
  EXPECT_TRUE(c.ElementsEqual(cp));
}

// ---------------------------------------------------------------------------
// Low-precision path (int8). The accuracy contract pinned here is
// documented in DESIGN.md "Low-precision execution": relative Frobenius
// error vs the fp32 naive reference, plus bitwise repeatability and
// serial-vs-pool identity *within* each precision.

// Restores full auto-detected dispatch when a tier-forcing test exits (on
// success or failure).
struct TierGuard {
  ~TierGuard() { GemmForceTierForTest("native"); }
};

double RelFrobenius(const std::vector<float>& got, const std::vector<float>& want) {
  double num = 0.0;
  double den = 0.0;
  for (size_t i = 0; i < got.size(); ++i) {
    const double d = static_cast<double>(got[i]) - static_cast<double>(want[i]);
    num += d * d;
    den += static_cast<double>(want[i]) * static_cast<double>(want[i]);
  }
  return den == 0.0 ? std::sqrt(num) : std::sqrt(num / den);
}

std::vector<float> RunPacked(const std::vector<float>& a, const PackedMatrix& packed,
                             int64_t m, ThreadPool* pool = nullptr) {
  std::vector<float> c(static_cast<size_t>(m * packed.n()), -3.0f);
  GemmPacked(a.data(), packed, c.data(), m, /*accumulate=*/false, pool);
  return c;
}

// Documented accuracy bound (DESIGN.md table): int8 quantizes weights per
// output column and activations per row. The bound carries ~2x headroom
// over values measured across the shape grid on the avx512 and scalar
// tiers.
constexpr double kInt8FrobeniusBound = 0.05;

TEST(GemmLowPrecisionTest, Int8MatchesFp32WithinBound) {
  const int64_t sizes[] = {1, 3, 17, 64, 130};
  uint32_t seed = 601;
  for (int64_t m : sizes) {
    for (int64_t k : sizes) {
      for (int64_t n : sizes) {
        SCOPED_TRACE(testing::Message() << "m=" << m << " k=" << k << " n=" << n);
        const auto a = RandomMatrix(m, k, seed++);
        const auto b = RandomMatrix(k, n, seed++);
        const PackedMatrix packed = PackedMatrix::PackInt8(b.data(), k, n);
        EXPECT_EQ(packed.precision(), Precision::kInt8);
        const auto got = RunPacked(a, packed, m);
        const auto want = NaiveGemm(a, b, m, k, n, /*accumulate=*/false);
        EXPECT_LE(RelFrobenius(got, want), kInt8FrobeniusBound);
      }
    }
  }
}

// K not a multiple of the k-group width (2 for AVX2/scalar pairs, 4 for
// VNNI quads) exercises the padded tail slots; M=1 is the decode-shaped
// case.
TEST(GemmLowPrecisionTest, DecodeShapedAndOddKTails) {
  const int64_t ks[] = {1, 2, 3, 5, 7, 17, 63};
  uint32_t seed = 901;
  for (int64_t k : ks) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    const int64_t m = 1, n = 33;
    const auto a = RandomMatrix(m, k, seed++);
    const auto b = RandomMatrix(k, n, seed++);
    const auto want = NaiveGemm(a, b, m, k, n, /*accumulate=*/false);
    const auto got_int8 = RunPacked(a, PackedMatrix::PackInt8(b.data(), k, n), m);
    EXPECT_LE(RelFrobenius(got_int8, want), kInt8FrobeniusBound);
  }
}

TEST(GemmLowPrecisionTest, RepeatedCallsAreBitwiseIdentical) {
  const int64_t m = 37, k = 65, n = 49;
  const auto a = RandomMatrix(m, k, 1201);
  const auto b = RandomMatrix(k, n, 1202);
  const PackedMatrix packed = PackedMatrix::PackInt8(b.data(), k, n);
  const auto first = RunPacked(a, packed, m);
  const auto second = RunPacked(a, packed, m);
  EXPECT_EQ(0, std::memcmp(first.data(), second.data(), first.size() * sizeof(float)));
}

// The serial-vs-pool determinism memcmp from the fp32 contract, extended to
// int8 and both parallel partitions (tall A -> block partition; short A ->
// panel partition).
TEST(GemmLowPrecisionTest, ParallelIsBitwiseIdenticalToSerial) {
  struct ShapeCase {
    int64_t m, k, n;
  };
  const ShapeCase cases[] = {
      {1, 64, 130},    // one M block, many panels -> panel partition
      {130, 17, 64},   // multiple M blocks (kMc=120) -> block partition
      {257, 130, 96},  // both dimensions non-trivial
      {3, 1, 17},      // degenerate small
  };
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  ThreadPool pool7(7);
  uint32_t seed = 1500;
  for (const ShapeCase& sc : cases) {
    SCOPED_TRACE(testing::Message() << "m=" << sc.m << " k=" << sc.k << " n=" << sc.n);
    const auto a = RandomMatrix(sc.m, sc.k, seed++);
    const auto b = RandomMatrix(sc.k, sc.n, seed++);
    const PackedMatrix packed = PackedMatrix::PackInt8(b.data(), sc.k, sc.n);
    const auto serial = RunPacked(a, packed, sc.m);
    for (ThreadPool* pool : {&pool2, &pool4, &pool7}) {
      const auto parallel = RunPacked(a, packed, sc.m, pool);
      EXPECT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                               serial.size() * sizeof(float)))
          << "pool size " << pool->num_threads();
    }
  }
}

// An all-zero weight column has scale 0 and must dequantize to exactly 0
// (no 0/0 NaN), regardless of the activations.
TEST(GemmLowPrecisionTest, Int8ZeroWeightColumnStaysExactlyZero) {
  const int64_t m = 9, k = 31, n = 20;
  const auto a = RandomMatrix(m, k, 1700);
  auto b = RandomMatrix(k, n, 1701);
  const int64_t dead_col = 7;
  for (int64_t p = 0; p < k; ++p) {
    b[static_cast<size_t>(p * n + dead_col)] = 0.0f;
  }
  const PackedMatrix packed = PackedMatrix::PackInt8(b.data(), k, n);
  const auto c = RunPacked(a, packed, m);
  for (int64_t i = 0; i < m; ++i) {
    EXPECT_EQ(c[static_cast<size_t>(i * n + dead_col)], 0.0f) << "row " << i;
  }
}

// A zero activation row similarly has scale 0 and must produce an exactly
// zero output row.
TEST(GemmLowPrecisionTest, Int8ZeroActivationRowStaysExactlyZero) {
  const int64_t m = 5, k = 24, n = 18;
  auto a = RandomMatrix(m, k, 1800);
  const auto b = RandomMatrix(k, n, 1801);
  for (int64_t p = 0; p < k; ++p) {
    a[static_cast<size_t>(2 * k + p)] = 0.0f;
  }
  const auto c = RunPacked(a, PackedMatrix::PackInt8(b.data(), k, n), m);
  for (int64_t j = 0; j < n; ++j) {
    EXPECT_EQ(c[static_cast<size_t>(2 * n + j)], 0.0f) << "col " << j;
  }
}

// Non-finite values must die loudly at the quantization boundary, not
// silently poison the s32 accumulators (UB via lrintf on inf/NaN).
TEST(GemmLowPrecisionDeathTest, Int8NonFiniteActivationDies) {
  const int64_t m = 3, k = 10, n = 17;
  const auto b = RandomMatrix(k, n, 1900);
  const PackedMatrix packed = PackedMatrix::PackInt8(b.data(), k, n);
  for (float poison : {std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity()}) {
    auto a = RandomMatrix(m, k, 1901);
    a[static_cast<size_t>(1 * k + 4)] = poison;
    std::vector<float> c(static_cast<size_t>(m * n));
    EXPECT_DEATH(GemmPacked(a.data(), packed, c.data(), m, /*accumulate=*/false),
                 "non-finite activation");
  }
}

TEST(GemmLowPrecisionDeathTest, Int8NonFiniteWeightDies) {
  const int64_t k = 8, n = 5;
  auto b = RandomMatrix(k, n, 2000);
  b[11] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_DEATH(PackedMatrix::PackInt8(b.data(), k, n), "non-finite weight");
}

// ---------------------------------------------------------------------------
// Dispatch-tier forcing. GemmForceTierForTest runs the same ParseTierMask /
// MakeDispatch path as the BM_GEMM_KERNEL env override (which CI exercises
// as an actual env var); the forced cap is intersected with cpuid, so every
// tier below runs safely on any host (it clamps to the best supported
// subset instead of crashing).

// Integer-valued matrices make every fp32 kernel exact (all products and
// partial sums are integers well inside 2^24), so results must be bitwise
// identical across tiers even though the kernels associate differently.
std::vector<float> IntegerMatrix(int64_t rows, int64_t cols, uint32_t seed) {
  std::mt19937 gen(seed);
  std::uniform_int_distribution<int> dist(-8, 8);
  std::vector<float> m(static_cast<size_t>(rows * cols));
  for (float& v : m) {
    v = static_cast<float>(dist(gen));
  }
  return m;
}

TEST(GemmDispatchTest, ForcedTiersProduceIdenticalFp32ResultsOnExactInputs) {
  TierGuard guard;
  const int64_t m = 67, k = 96, n = 130;
  const auto a = IntegerMatrix(m, k, 2100);
  const auto b = IntegerMatrix(k, n, 2101);
  const char* tiers[] = {"scalar", "avx2", "avx512", "avx512_vnni", "native"};
  std::vector<float> reference;
  for (const char* tier : tiers) {
    SCOPED_TRACE(tier);
    GemmForceTierForTest(tier);
    const PackedMatrix packed = PackedMatrix::Pack(b.data(), k, n);
    const auto got = RunPacked(a, packed, m);
    if (reference.empty()) {
      reference = got;
    } else {
      EXPECT_EQ(0,
                std::memcmp(reference.data(), got.data(), got.size() * sizeof(float)));
    }
  }
}

// int8 goes further than the fp32 contract: s32 accumulation is exact and
// the dequant epilogue is shared scalar code, so *arbitrary* inputs give
// bitwise-identical results across every tier — including repacking B at
// each tier's own k-group layout.
TEST(GemmDispatchTest, Int8BitwiseIdenticalAcrossAllTiers) {
  TierGuard guard;
  const int64_t m = 29, k = 77, n = 65;
  const auto a = RandomMatrix(m, k, 2200);
  const auto b = RandomMatrix(k, n, 2201);
  const char* tiers[] = {"scalar", "avx2", "avx512", "avx512_vnni", "native"};
  std::vector<float> reference;
  for (const char* tier : tiers) {
    SCOPED_TRACE(tier);
    GemmForceTierForTest(tier);
    const PackedMatrix packed = PackedMatrix::PackInt8(b.data(), k, n);
    const auto got = RunPacked(a, packed, m);
    if (reference.empty()) {
      reference = got;
    } else {
      EXPECT_EQ(0,
                std::memcmp(reference.data(), got.data(), got.size() * sizeof(float)));
    }
  }
}

// A pack made under one tier stays correct when dispatch later resolves to
// a kernel expecting a different k-group layout (generic fallback).
TEST(GemmDispatchTest, Int8PackSurvivesDispatchChange) {
  TierGuard guard;
  const int64_t m = 11, k = 39, n = 33;
  const auto a = RandomMatrix(m, k, 2300);
  const auto b = RandomMatrix(k, n, 2301);
  GemmForceTierForTest("native");
  const PackedMatrix packed_native = PackedMatrix::PackInt8(b.data(), k, n);
  const auto want = RunPacked(a, packed_native, m);
  GemmForceTierForTest("avx2");
  const auto got = RunPacked(a, packed_native, m);  // layout may mismatch avx2
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(), got.size() * sizeof(float)));
}

TEST(GemmDispatchTest, KernelNamesReflectForcedTier) {
  TierGuard guard;
  GemmForceTierForTest("scalar");
  EXPECT_STREQ(GemmKernelName(Precision::kF32), "scalar_fp32");
  EXPECT_STREQ(GemmKernelName(Precision::kInt8), "scalar_int8");
  EXPECT_FALSE(GemmUsesSimd());
  GemmForceTierForTest("native");
  // Whatever the host supports, the names must be non-empty and stable.
  EXPECT_NE(GemmKernelName(Precision::kF32), nullptr);
  EXPECT_NE(GemmKernelName(Precision::kInt8), nullptr);
}

TEST(GemmLowPrecisionTest, PrecisionNamesRoundTrip) {
  for (Precision p : {Precision::kF32, Precision::kInt8}) {
    Precision parsed = Precision::kF32;
    EXPECT_TRUE(ParsePrecision(PrecisionName(p), &parsed));
    EXPECT_EQ(parsed, p);
  }
  Precision unused = Precision::kF32;
  EXPECT_FALSE(ParsePrecision("fp16", &unused));
  EXPECT_FALSE(ParsePrecision("bf16", &unused));
}

// Bias epilogue: at every precision, bitwise identical to MatMulPacked
// followed by AddBias, serial or pooled.
TEST(GemmLowPrecisionTest, FusedBiasMatchesSeparateAddAtEveryPrecision) {
  const int64_t m = 13, k = 140, n = 77;
  const auto a = RandomMatrix(m, k, 2400);
  const auto b = RandomMatrix(k, n, 2401);
  const auto bias = RandomMatrix(1, n, 2402);
  Tensor at = Tensor::FromVector(Shape{m, k}, a);
  Tensor bias_t = Tensor::FromVector(Shape{n}, bias);
  ThreadPool pool4(4);
  for (Precision p : {Precision::kF32, Precision::kInt8}) {
    SCOPED_TRACE(PrecisionName(p));
    const PackedMatrix packed = p == Precision::kF32 ? PackedMatrix::Pack(b.data(), k, n)
                                                     : PackedMatrix::PackInt8(b.data(), k, n);
    const Tensor want = AddBias(MatMulPacked(at, packed), bias_t);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool4}) {
      const Tensor fused = MatMulPackedBias(at, packed, bias_t, pool);
      EXPECT_EQ(0, std::memcmp(fused.f32(), want.f32(),
                               static_cast<size_t>(m * n) * sizeof(float)))
          << (pool != nullptr ? "pooled" : "serial");
    }
  }
}

// Row independence: a row's result depends on K and the kernel alone, not
// on how many rows share its batch or where in A it sits. servebench's
// bitwise check against SyncEngine and determinism_test rely on it, since
// the two engines batch a request's row with different neighbours. Each row
// is computed inside batches m = 1..70 (rotated, so it lands at many
// positions) and must match the same row computed alone, for whole and
// split-K A, with and without the bias epilogue, on every fp32 tier. The
// split-K and fused-bias forms must also match the plain GEMM bitwise.
TEST(GemmTest, RowsAreIndependentOfBatchAndPosition) {
  TierGuard guard;
  // K = 300 spans three K blocks whole and three more, cut elsewhere, as
  // parts [44 | 256]; N = 150 ends in a narrow panel.
  const int64_t kx = 44, kh = 256, k = kx + kh, n = 150, max_m = 70;
  const auto a = RandomMatrix(max_m, k, 3100);
  const auto b = RandomMatrix(k, n, 3101);
  const auto bias = RandomMatrix(1, n, 3102);
  // A batch of m rows whose position p holds row (p + m) % max_m of A.
  auto batch = [&](int64_t m) {
    std::vector<float> rows(static_cast<size_t>(m * k));
    for (int64_t p = 0; p < m; ++p) {
      std::copy_n(a.begin() + (p + m) % max_m * k, k, rows.begin() + p * k);
    }
    return rows;
  };
  for (const char* tier : {"scalar", "avx2", "avx512", "native"}) {
    GemmForceTierForTest(tier);
    const PackedMatrix packed = PackedMatrix::Pack(b.data(), k, n);
    std::vector<float> plain_rows;  // whole A, no bias: the split/fused reference
    for (const bool split : {false, true}) {
      for (const bool with_bias : {false, true}) {
        SCOPED_TRACE(testing::Message() << tier << (split ? " split-K" : " whole")
                                        << (with_bias ? " +bias" : ""));
        // C for the [m, k] rows; split-K reads them as two parts with their
        // own buffers and row strides, as the executor does with a Concat.
        auto compute = [&](const std::vector<float>& rows, int64_t m) {
          std::vector<float> c(static_cast<size_t>(m * n), -7.0f);
          const float* bias_ptr = with_bias ? bias.data() : nullptr;
          if (!split) {
            GemmPacked(rows.data(), packed, c.data(), m, /*accumulate=*/false, nullptr,
                       bias_ptr);
            return c;
          }
          std::vector<float> x(static_cast<size_t>(m * kx));
          std::vector<float> h(static_cast<size_t>(m * kh));
          for (int64_t i = 0; i < m; ++i) {
            std::copy_n(rows.begin() + i * k, kx, x.begin() + i * kx);
            std::copy_n(rows.begin() + i * k + kx, kh, h.begin() + i * kh);
          }
          const GemmPart parts[] = {{x.data(), kx, kx}, {h.data(), kh, kh}};
          GemmPackedParts(parts, 2, packed, c.data(), m, /*accumulate=*/false, nullptr,
                          bias_ptr);
          return c;
        };
        std::vector<float> alone(static_cast<size_t>(max_m * n));
        for (int64_t r = 0; r < max_m; ++r) {
          const auto c = compute(std::vector<float>(a.begin() + r * k, a.begin() + r * k + k), 1);
          std::copy(c.begin(), c.end(), alone.begin() + r * n);
        }
        int mismatches = 0;
        for (int64_t m = 1; m <= max_m; ++m) {
          const auto c = compute(batch(m), m);
          for (int64_t p = 0; p < m; ++p) {
            const int64_t row = (p + m) % max_m;
            if (std::memcmp(c.data() + p * n, alone.data() + row * n, n * sizeof(float)) != 0 &&
                mismatches++ == 0) {
              ADD_FAILURE() << "row " << row << " at position " << p << " of a batch of " << m
                            << " differs from the row computed alone";
            }
          }
        }
        EXPECT_EQ(mismatches, 0);
        if (!split && !with_bias) {
          plain_rows = alone;
          continue;
        }
        std::vector<float> want = plain_rows;
        for (int64_t r = 0; r < max_m && with_bias; ++r) {
          for (int64_t j = 0; j < n; ++j) {
            want[static_cast<size_t>(r * n + j)] += bias[static_cast<size_t>(j)];
          }
        }
        EXPECT_EQ(0, std::memcmp(alone.data(), want.data(), want.size() * sizeof(float)))
            << "differs from the plain GEMM" << (with_bias ? " plus a separate bias add" : "");
      }
    }
  }
}

}  // namespace
}  // namespace batchmaker
