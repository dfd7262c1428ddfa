// OnlineCostModel: a CostModel whose per-type curves are continuously
// re-fitted from measured execution spans (E-BATCH's "measured curve, not
// static anchors" observation, PAPERS.md).
//
// The model starts from static seed curves (the Figure-3 anchors the plain
// CostModel uses) and learns the *actual* batch→latency relationship of
// the machine it runs on: every completed task reports
// Observe(type, batch, measured_micros); observations land in power-of-two
// batch buckets holding an EWMA of (batch, micros); every
// `refit_interval` observations of a type the buckets are re-fitted into
// the standard log-log anchor representation, so CostCurve::Micros stays
// the single query API and every consumer (the health watchdog's hang
// thresholds, AutotuneMaxBatch, benches) sees the calibrated curve through
// the same TaskMicros call.
//
// Threading: Observe is called from worker execution threads while
// TaskMicros is called from manager threads; one mutex guards the bucket
// state and the fitted curves. Both operations are a few loads per call at
// serving rates (thousands/s), so contention is negligible. The class
// never reads a clock — measured spans arrive as arguments — which keeps
// it legal to use (though unnecessary: the simulator's model is exact by
// construction) inside deterministic virtual-time paths.

#ifndef SRC_RUNTIME_ONLINE_COST_MODEL_H_
#define SRC_RUNTIME_ONLINE_COST_MODEL_H_

#include <array>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/runtime/cost_model.h"

namespace batchmaker {

struct OnlineCostModelOptions {
  // EWMA smoothing per bucket: new = alpha * sample + (1 - alpha) * old.
  double ewma_alpha = 0.25;
  // Re-fit a type's curve from its buckets every this many observations.
  int refit_interval = 32;
};

class OnlineCostModel : public CostModel {
 public:
  explicit OnlineCostModel(OnlineCostModelOptions options = {});

  // One measured execution: a task of `batch` items of `type` took
  // `micros`. Thread-safe; non-positive samples are ignored.
  void Observe(CellTypeId type, int batch, double micros);

  // Calibrated curve if the type has re-fitted at least once, else the
  // seed curve (SetCurve), else the Figure-3 CPU LSTM curve — a
  // never-observed, never-seeded type should not crash the scheduler, just
  // get a generic estimate until its first refit.
  double TaskMicros(CellTypeId type, int batch) const override;

  // Fired (outside the lock) after each refit with
  // (type, num_anchors, total observations of the type). Engines hook this
  // into trace recording.
  using RefitFn = std::function<void(CellTypeId, int, int64_t)>;
  void set_on_refit(RefitFn fn) { on_refit_ = std::move(fn); }

  // Introspection (tests, benches).
  int64_t Observations(CellTypeId type) const;
  int64_t Refits() const;
  bool Calibrated(CellTypeId type) const;
  // Snapshot of the calibrated curve; BM_CHECKs Calibrated(type).
  CostCurve FittedCurve(CellTypeId type) const;

 private:
  // Power-of-two batch buckets: bucket i covers [2^i, 2^(i+1)). 16 buckets
  // reach batch 65535, far past any max_batch in use.
  static constexpr int kNumBuckets = 16;
  struct Bucket {
    double ewma_batch = 0.0;
    double ewma_micros = 0.0;
    int64_t count = 0;
  };
  struct TypeCalibration {
    std::array<Bucket, kNumBuckets> buckets;
    int64_t observations = 0;
    int since_refit = 0;
  };

  // Builds anchors from the populated buckets of `cal`. Requires mu_ held.
  std::vector<std::pair<double, double>> FitAnchors(const TypeCalibration& cal) const;

  OnlineCostModelOptions options_;
  mutable std::mutex mu_;
  std::unordered_map<CellTypeId, TypeCalibration> calibration_;
  std::unordered_map<CellTypeId, CostCurve> fitted_;
  CostCurve default_seed_;  // for types with neither a seed nor a fit
  int64_t refits_ = 0;
  RefitFn on_refit_;
};

}  // namespace batchmaker

#endif  // SRC_RUNTIME_ONLINE_COST_MODEL_H_
