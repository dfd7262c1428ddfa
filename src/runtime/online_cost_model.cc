#include "src/runtime/online_cost_model.h"

#include <algorithm>

#include "src/util/logging.h"

namespace batchmaker {

OnlineCostModel::OnlineCostModel(OnlineCostModelOptions options)
    : options_(options), default_seed_(CpuLstmCurve()) {
  BM_CHECK_GT(options_.ewma_alpha, 0.0);
  BM_CHECK_LE(options_.ewma_alpha, 1.0);
  BM_CHECK_GT(options_.refit_interval, 0);
}

void OnlineCostModel::Observe(CellTypeId type, int batch, double micros) {
  if (batch <= 0 || micros <= 0.0) {
    return;
  }
  int bucket = 0;
  while ((1 << (bucket + 1)) <= batch && bucket + 1 < kNumBuckets) {
    ++bucket;
  }

  RefitFn notify;
  int num_anchors = 0;
  int64_t observations = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TypeCalibration& cal = calibration_[type];
    Bucket& b = cal.buckets[static_cast<size_t>(bucket)];
    if (b.count == 0) {
      b.ewma_batch = static_cast<double>(batch);
      b.ewma_micros = micros;
    } else {
      const double a = options_.ewma_alpha;
      b.ewma_batch = a * static_cast<double>(batch) + (1.0 - a) * b.ewma_batch;
      b.ewma_micros = a * micros + (1.0 - a) * b.ewma_micros;
    }
    b.count++;
    cal.observations++;
    if (++cal.since_refit < options_.refit_interval) {
      return;
    }
    cal.since_refit = 0;
    std::vector<std::pair<double, double>> anchors = FitAnchors(cal);
    if (anchors.empty()) {
      return;
    }
    num_anchors = static_cast<int>(anchors.size());
    observations = cal.observations;
    fitted_.insert_or_assign(type, CostCurve(std::move(anchors)));
    ++refits_;
    notify = on_refit_;  // copy: fire outside the lock
  }
  if (notify) {
    notify(type, num_anchors, observations);
  }
}

std::vector<std::pair<double, double>> OnlineCostModel::FitAnchors(
    const TypeCalibration& cal) const {
  // One anchor per populated bucket. Bucket i's EWMA batch lies in
  // [2^i, 2^(i+1)), so anchors are strictly increasing in batch across
  // buckets — exactly what CostCurve requires. Micros need no ordering:
  // log-log interpolation handles flat and falling segments alike.
  std::vector<std::pair<double, double>> anchors;
  for (const Bucket& b : cal.buckets) {
    if (b.count > 0 && b.ewma_micros > 0.0) {
      anchors.emplace_back(b.ewma_batch, b.ewma_micros);
    }
  }
  return anchors;
}

double OnlineCostModel::TaskMicros(CellTypeId type, int batch) const {
  double curve_micros;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = fitted_.find(type);
    if (it != fitted_.end()) {
      curve_micros = it->second.Micros(batch);
    } else if (HasCurve(type)) {
      curve_micros = Curve(type).Micros(batch);
    } else {
      curve_micros = default_seed_.Micros(batch);
    }
  }
  return curve_micros + PerTaskOverheadMicros() + PerItemOverheadMicros() * batch;
}

int64_t OnlineCostModel::Observations(CellTypeId type) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = calibration_.find(type);
  return it == calibration_.end() ? 0 : it->second.observations;
}

int64_t OnlineCostModel::Refits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return refits_;
}

bool OnlineCostModel::Calibrated(CellTypeId type) const {
  std::lock_guard<std::mutex> lock(mu_);
  return fitted_.count(type) > 0;
}

CostCurve OnlineCostModel::FittedCurve(CellTypeId type) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = fitted_.find(type);
  BM_CHECK(it != fitted_.end()) << "type " << type << " has not calibrated yet";
  return it->second;
}

}  // namespace batchmaker
