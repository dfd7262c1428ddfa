// The vectorized activation kernels (src/tensor/activation.h) under every
// CPU tier GemmForceTierForTest reaches: accuracy against a double
// reference, libm's special values, and position independence. A tier the
// host lacks clamps to the best supported one, so on a host without
// AVX-512 the "avx512" case runs the AVX2 kernels again.

#include "src/tensor/activation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"

namespace batchmaker {
namespace {

using Kernel = void (*)(const float*, float*, int64_t);

struct Activation {
  const char* name;
  Kernel kernel;
  double (*reference)(double);
};

double ExpRef(double x) { return std::exp(x); }
double SigmoidRef(double x) { return 1.0 / (1.0 + std::exp(-x)); }
double TanhRef(double x) { return std::tanh(x); }

constexpr Activation kExp{"exp", ExpF32, ExpRef};
constexpr Activation kSigmoid{"sigmoid", SigmoidF32, SigmoidRef};
constexpr Activation kTanh{"tanh", TanhF32, TanhRef};
constexpr Activation kAll[] = {kExp, kSigmoid, kTanh};

// The contract's bounds: absolute error for sigmoid and tanh, relative
// error for exp on [-87, 88].
constexpr double kSquashBound = 2.5e-7;
constexpr double kExpRelBound = 2.5e-7;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

// `count` evenly spaced points covering [lo, hi], both ends included.
std::vector<float> Sweep(float lo, float hi, int count) {
  std::vector<float> xs(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    xs[static_cast<size_t>(i)] =
        static_cast<float>(lo + (static_cast<double>(hi) - lo) * i / (count - 1));
  }
  return xs;
}

std::vector<float> Apply(const Activation& f, const std::vector<float>& xs) {
  std::vector<float> ys(xs.size());
  f.kernel(xs.data(), ys.data(), static_cast<int64_t>(xs.size()));
  return ys;
}

float ApplyOne(const Activation& f, float x) {
  float y = 0.0f;
  f.kernel(&x, &y, 1);
  return y;
}

void ExpectAccuracyWithinBound() {
  // sigmoid and tanh: 2^20 + 1 points on [-30, 30] plus 2^17 + 1 on
  // [-1e-3, 1e-3], absolute error.
  std::vector<float> xs = Sweep(-30.0f, 30.0f, (1 << 20) + 1);
  const std::vector<float> near_zero = Sweep(-1e-3f, 1e-3f, (1 << 17) + 1);
  xs.insert(xs.end(), near_zero.begin(), near_zero.end());
  for (const Activation& f : {kSigmoid, kTanh}) {
    const std::vector<float> ys = Apply(f, xs);
    double worst = 0.0;
    float worst_x = 0.0f;
    for (size_t i = 0; i < xs.size(); ++i) {
      const double err = std::fabs(ys[i] - f.reference(xs[i]));
      if (!(err <= worst)) {
        worst = err;
        worst_x = xs[i];
      }
    }
    std::printf("  %s %s: max abs error %.3g at x=%.9g\n", ActivationKernelName(), f.name,
                worst, worst_x);
    EXPECT_LE(worst, kSquashBound) << f.name << " at x=" << worst_x;
  }

  // exp: 2^20 + 1 points on [-87, 88], relative error.
  const std::vector<float> es = Sweep(-87.0f, 88.0f, (1 << 20) + 1);
  const std::vector<float> ys = Apply(kExp, es);
  double worst = 0.0;
  float worst_x = 0.0f;
  for (size_t i = 0; i < es.size(); ++i) {
    const double want = std::exp(static_cast<double>(es[i]));
    const double err = std::fabs(ys[i] - want) / want;
    if (!(err <= worst)) {
      worst = err;
      worst_x = es[i];
    }
  }
  std::printf("  %s exp: max rel error %.3g at x=%.9g\n", ActivationKernelName(), worst,
              worst_x);
  EXPECT_LE(worst, kExpRelBound) << "exp at x=" << worst_x;
}

void ExpectSpecialValuesAsInLibm() {
  for (const Activation& f : kAll) {
    SCOPED_TRACE(f.name);
    EXPECT_TRUE(std::isnan(ApplyOne(f, kNaN)));
    EXPECT_TRUE(std::isnan(ApplyOne(f, -kNaN)));
  }
  EXPECT_EQ(ApplyOne(kSigmoid, kInf), 1.0f);
  EXPECT_EQ(ApplyOne(kSigmoid, -kInf), 0.0f);
  EXPECT_EQ(ApplyOne(kSigmoid, 0.0f), 0.5f);
  EXPECT_EQ(ApplyOne(kTanh, kInf), 1.0f);
  EXPECT_EQ(ApplyOne(kTanh, -kInf), -1.0f);
  EXPECT_EQ(ApplyOne(kTanh, 0.0f), 0.0f);
  EXPECT_TRUE(std::signbit(ApplyOne(kTanh, -0.0f)));
  EXPECT_EQ(ApplyOne(kExp, 0.0f), 1.0f);
  EXPECT_EQ(ApplyOne(kExp, -kInf), 0.0f);
  EXPECT_EQ(ApplyOne(kExp, -104.0f), 0.0f);
  EXPECT_EQ(ApplyOne(kExp, -std::numeric_limits<float>::max()), 0.0f);
  for (const float x : {88.73f, 89.0f, 100.0f, std::numeric_limits<float>::max(), kInf}) {
    EXPECT_EQ(ApplyOne(kExp, x), kInf) << "exp(" << x << ")";
  }
  // The largest finite results and the smallest normal ones stay finite
  // and within the bound.
  for (const float x : {88.72f, -87.3f}) {
    const double want = std::exp(static_cast<double>(x));
    EXPECT_LE(std::fabs(ApplyOne(kExp, x) - want) / want, kExpRelBound) << "exp(" << x << ")";
  }
}

// Every length 1-67 at offsets 0-15 gives, bit for bit, what each element
// gives alone, so an element's lane, index and vector tail do not matter.
void ExpectResultDependsOnlyOnTheValue() {
  // Values from all three regimes of each kernel, plus special values.
  constexpr int kMaxOffset = 15;
  constexpr int kMaxLength = 67;
  std::mt19937 gen(1401);
  std::uniform_real_distribution<float> dist(-30.0f, 30.0f);
  std::vector<float> in(kMaxOffset + kMaxLength);
  for (float& v : in) {
    v = dist(gen);
  }
  const float specials[] = {kNaN, kInf, -kInf, 0.0f, -0.0f, 1e-4f, -0.5f, 95.0f, -110.0f};
  for (size_t i = 0; i < std::size(specials); ++i) {
    in[i * 9 + 3] = specials[i];
  }

  constexpr float kSentinel = -12345.0f;
  for (const Activation& f : kAll) {
    SCOPED_TRACE(f.name);
    std::vector<float> alone(in.size());
    for (size_t i = 0; i < in.size(); ++i) {
      f.kernel(&in[i], &alone[i], 1);
    }
    for (int offset = 0; offset <= kMaxOffset; ++offset) {
      for (int length = 1; length <= kMaxLength; ++length) {
        std::vector<float> out(in.size() + 1, kSentinel);
        f.kernel(in.data() + offset, out.data() + offset, length);
        ASSERT_EQ(0, std::memcmp(out.data() + offset, alone.data() + offset,
                                 static_cast<size_t>(length) * sizeof(float)))
            << "offset " << offset << " length " << length;
        // Masked tails write nothing past the end (or before the start).
        ASSERT_EQ(out[static_cast<size_t>(offset + length)], kSentinel);
        if (offset > 0) {
          ASSERT_EQ(out[static_cast<size_t>(offset - 1)], kSentinel);
        }
      }
    }
    // In place, as Softmax calls exp.
    std::vector<float> inplace = in;
    f.kernel(inplace.data(), inplace.data(), static_cast<int64_t>(inplace.size()));
    EXPECT_EQ(0, std::memcmp(inplace.data(), alone.data(), in.size() * sizeof(float)));
  }
}

// Runs before the tests below force a tier, so a BM_GEMM_KERNEL cap in the
// environment decides which kernels it checks.
TEST(ActivationDefaultDispatchTest, MeetsTheContract) {
  ExpectAccuracyWithinBound();
  ExpectSpecialValuesAsInLibm();
  ExpectResultDependsOnlyOnTheValue();
}

class ActivationTierTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { GemmForceTierForTest(GetParam()); }
  void TearDown() override { GemmForceTierForTest("native"); }
};

TEST_P(ActivationTierTest, FollowsTheGemmTier) {
  const std::string gemm = GemmKernelName(Precision::kF32);
  const std::string act = ActivationKernelName();
  EXPECT_EQ(gemm, act + "_fp32");
}

TEST_P(ActivationTierTest, AccuracyWithinBound) { ExpectAccuracyWithinBound(); }

TEST_P(ActivationTierTest, SpecialValuesAsInLibm) { ExpectSpecialValuesAsInLibm(); }

TEST_P(ActivationTierTest, ResultDependsOnlyOnTheValue) {
  ExpectResultDependsOnlyOnTheValue();
}

TEST_P(ActivationTierTest, TensorOpsRunTheKernels) {
  Rng rng(1402);
  const Tensor a = Tensor::RandomUniform(Shape{5, 37}, 10.0f, &rng);
  const std::vector<float> xs(a.f32(), a.f32() + a.NumElements());
  EXPECT_EQ(0, std::memcmp(Exp(a).f32(), Apply(kExp, xs).data(), xs.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(Sigmoid(a).f32(), Apply(kSigmoid, xs).data(),
                           xs.size() * sizeof(float)));
  EXPECT_EQ(0,
            std::memcmp(Tanh(a).f32(), Apply(kTanh, xs).data(), xs.size() * sizeof(float)));
}

INSTANTIATE_TEST_SUITE_P(Tiers, ActivationTierTest,
                         ::testing::Values("scalar", "avx2", "avx512"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace batchmaker
