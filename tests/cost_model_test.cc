// Cost model unit tests: CostCurve extrapolation in both directions and
// the OnlineCostModel calibration loop (EWMA buckets re-fitted into the
// log-log anchor representation).
//
// The calibration accuracy bound asserted here — fitted predictions within
// 10% of the true device latency at every power-of-two batch once enough
// observations have landed — is the documented error bound of the model
// the health watchdog prices its hang thresholds from (DESIGN.md "Worker
// failure domains"): a threshold is a multiple of TaskMicros, so this test
// keeps it tied to the device it watches.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "src/runtime/cost_model.h"
#include "src/runtime/online_cost_model.h"

namespace batchmaker {
namespace {

// ---------- CostCurve extrapolation, both directions ----------

TEST(CostCurveExtrapolationTest, BelowFirstAnchorClampsToFirstCost) {
  // First anchor at batch 64: queries below it must return the first
  // anchor's cost, not extrapolate the first segment's slope downward
  // (which would undershoot any physically measurable floor once online
  // calibration moves the anchors).
  const CostCurve curve({{64, 200.0}, {512, 800.0}});
  EXPECT_DOUBLE_EQ(curve.Micros(1), 200.0);
  EXPECT_DOUBLE_EQ(curve.Micros(32), 200.0);
  EXPECT_DOUBLE_EQ(curve.Micros(63), 200.0);
  EXPECT_DOUBLE_EQ(curve.Micros(64), 200.0);
}

TEST(CostCurveExtrapolationTest, AboveLastAnchorContinuesLastSlope) {
  // Last segment doubles micros per doubling of batch (log-log slope 1);
  // extrapolation above the last anchor continues that slope.
  const CostCurve curve({{64, 200.0}, {256, 400.0}, {512, 800.0}});
  EXPECT_NEAR(curve.Micros(1024), 1600.0, 1e-6);
  EXPECT_NEAR(curve.Micros(2048), 3200.0, 1e-6);
}

TEST(CostCurveExtrapolationTest, BelowRangeNeverExceedsInRangeCost) {
  // Monotonicity across the clamp boundary: the clamped region is flat at
  // the first anchor's cost, so cost as a function of batch stays
  // non-decreasing over the whole query range.
  const CostCurve curve = GpuLstmCurve();
  double prev = 0.0;
  for (int b = 1; b <= 4096; b *= 2) {
    const double micros = curve.Micros(b);
    EXPECT_GE(micros, prev) << "batch " << b;
    prev = micros;
  }
}

// ---------- OnlineCostModel ----------

// The synthetic "true device": flat floor of 100us up to batch 8, then
// linear growth — deliberately NOT expressible by the seed curve below, so
// convergence proves the fit tracks observations, not the seed.
double TrueDeviceMicros(int batch) {
  return 100.0 + 12.5 * std::max(0, batch - 8);
}

TEST(OnlineCostModelTest, UncalibratedFallsBackToSeedCurve) {
  OnlineCostModel model;
  model.SetCurve(7, CostCurve({{1, 42.0}}));
  EXPECT_FALSE(model.Calibrated(7));
  EXPECT_DOUBLE_EQ(model.TaskMicros(7, 4), 42.0);
}

TEST(OnlineCostModelTest, UnknownTypeGetsGenericEstimateNotCrash) {
  // Never-seeded, never-observed type: answered from the generic CPU LSTM
  // curve so the scheduler can always plan.
  OnlineCostModel model;
  EXPECT_FALSE(model.Calibrated(99));
  EXPECT_GT(model.TaskMicros(99, 1), 0.0);
}

TEST(OnlineCostModelTest, RefitsEveryIntervalAndFiresCallback) {
  OnlineCostModelOptions opts;
  opts.refit_interval = 8;
  OnlineCostModel model(opts);

  std::vector<std::pair<CellTypeId, int64_t>> refit_log;
  model.set_on_refit([&](CellTypeId type, int num_anchors, int64_t observations) {
    EXPECT_GT(num_anchors, 0);
    refit_log.emplace_back(type, observations);
  });

  for (int i = 0; i < 24; ++i) {
    model.Observe(3, 4, 100.0);
  }
  EXPECT_EQ(model.Observations(3), 24);
  EXPECT_EQ(model.Refits(), 3);
  ASSERT_EQ(refit_log.size(), 3u);
  EXPECT_EQ(refit_log[0], std::make_pair(CellTypeId{3}, int64_t{8}));
  EXPECT_EQ(refit_log[2], std::make_pair(CellTypeId{3}, int64_t{24}));
  EXPECT_TRUE(model.Calibrated(3));
}

TEST(OnlineCostModelTest, NonPositiveSamplesIgnored) {
  OnlineCostModel model;
  model.Observe(0, 4, 0.0);
  model.Observe(0, 4, -5.0);
  model.Observe(0, 0, 100.0);
  EXPECT_EQ(model.Observations(0), 0);
}

TEST(OnlineCostModelTest, CalibrationConvergesWithinTenPercent) {
  // Seed with a deliberately wrong curve (10x too expensive, wrong shape),
  // then stream noiseless measurements of the true device at the batch
  // sizes a serving loop actually produces. After calibration, predictions
  // at every observed power-of-two batch must land within 10% of truth —
  // the documented error bound for the watchdog's predicted spans.
  OnlineCostModelOptions opts;
  opts.refit_interval = 16;
  OnlineCostModel model(opts);
  model.SetCurve(0, CostCurve({{1, 1000.0}, {512, 2000.0}}));

  const std::vector<int> batches = {1, 2, 4, 8, 16, 32, 64};
  for (int round = 0; round < 32; ++round) {
    for (const int b : batches) {
      model.Observe(0, b, TrueDeviceMicros(b));
    }
  }
  ASSERT_TRUE(model.Calibrated(0));

  for (const int b : batches) {
    const double predicted = model.TaskMicros(0, b);
    const double truth = TrueDeviceMicros(b);
    EXPECT_NEAR(predicted, truth, 0.10 * truth)
        << "batch " << b << ": predicted " << predicted << " vs true " << truth;
  }
  // And the calibrated curve has displaced the (wrong) seed entirely: the
  // seed said 1000us at batch 1, the device says 100us.
  EXPECT_LT(model.TaskMicros(0, 1), 200.0);
}

TEST(OnlineCostModelTest, FittedAnchorsAreStrictlyIncreasingInBatch) {
  // One anchor per populated power-of-two bucket; the bucket EWMA batch
  // lives inside [2^i, 2^(i+1)), so anchors come out strictly increasing —
  // the invariant CostCurve's constructor enforces.
  OnlineCostModelOptions opts;
  opts.refit_interval = 4;
  OnlineCostModel model(opts);
  for (const int b : {1, 3, 6, 12, 24, 48, 100, 300}) {
    for (int i = 0; i < 4; ++i) {
      model.Observe(5, b, TrueDeviceMicros(b));
    }
  }
  ASSERT_TRUE(model.Calibrated(5));
  const CostCurve fitted = model.FittedCurve(5);
  const auto& anchors = fitted.anchors();
  ASSERT_GE(anchors.size(), 2u);
  for (size_t i = 1; i < anchors.size(); ++i) {
    EXPECT_LT(anchors[i - 1].first, anchors[i].first);
  }
}

TEST(OnlineCostModelTest, OverheadsApplyOnTopOfFittedCurve) {
  // Per-task and per-item overheads are CostModel policy, orthogonal to
  // which curve answers: they must apply to calibrated answers too.
  OnlineCostModelOptions opts;
  opts.refit_interval = 4;
  OnlineCostModel model(opts);
  model.SetPerTaskOverheadMicros(40.0);
  model.SetPerItemOverheadMicros(0.5);
  for (int i = 0; i < 4; ++i) {
    model.Observe(0, 4, 100.0);
  }
  ASSERT_TRUE(model.Calibrated(0));
  EXPECT_NEAR(model.TaskMicros(0, 4), 100.0 + 40.0 + 0.5 * 4, 1.0);
}

}  // namespace
}  // namespace batchmaker
