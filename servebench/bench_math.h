// Arithmetic of the serving benchmark: percentiles with their sample
// count, request windows, the steal fit over rounds, span self time and
// span-to-request linking. Kept free of clocks, threads and I/O so
// servebench_test can pin it down.

#ifndef SERVEBENCH_BENCH_MATH_H_
#define SERVEBENCH_BENCH_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace servebench {

// A percentile and the number of samples it was taken over.
struct Quantile {
  double value = 0.0;
  size_t samples = 0;
};

// The pct-th percentile (0..100) of `values`, interpolating linearly
// between the closest ranks; {0, 0} for no samples.
inline Quantile PercentileOf(std::vector<double> values, double pct) {
  Quantile q;
  q.samples = values.size();
  if (values.empty()) {
    return q;
  }
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  q.value = values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
  return q;
}

inline double Median(std::vector<double> values) {
  return PercentileOf(std::move(values), 50.0).value;
}

// A tail percentile is only worth reporting when at least ten samples lie
// beyond it (p99 needs 1000 samples).
inline bool TailSupported(size_t samples, double pct) {
  return static_cast<double>(samples) * (100.0 - pct) / 100.0 >= 10.0 - 1e-9;
}

// Indices of the requests whose stamp lies in [begin, end). Which stamp
// picks the set: windowing by send (or due) time counts a request that
// completes after the window closes, windowing by completion does not.
inline std::vector<size_t> InWindow(const std::vector<double>& stamps, double begin,
                                    double end) {
  std::vector<size_t> out;
  for (size_t i = 0; i < stamps.size(); ++i) {
    if (stamps[i] >= begin && stamps[i] < end) {
      out.push_back(i);
    }
  }
  return out;
}

// A Theil-Sen fit of log(value) against host steal over a run's rounds,
// read at steal `at`. The slope b is the median over the pairs of rounds
// with different steal; the result is
// exp(median over rounds of (log value - b * (steal - at))). Steal slows a
// round by a factor that grows with it, so the fit estimates what a round
// measures at steal `at`, whatever steal the run met. Medians keep single
// outlying rounds from moving it. With no two steal values apart, or a
// value not above zero, it is the median round.
inline double AtSteal(const std::vector<double>& steal, const std::vector<double>& values,
                      double at) {
  std::vector<double> logs;
  for (const double v : values) {
    if (!(v > 0.0)) {
      return Median(values);
    }
    logs.push_back(std::log(v));
  }
  std::vector<double> slopes;
  for (size_t i = 0; i < logs.size(); ++i) {
    for (size_t j = i + 1; j < logs.size(); ++j) {
      if (steal[i] != steal[j]) {
        slopes.push_back((logs[j] - logs[i]) / (steal[j] - steal[i]));
      }
    }
  }
  if (slopes.empty()) {
    return Median(values);
  }
  const double slope = Median(std::move(slopes));
  for (size_t i = 0; i < logs.size(); ++i) {
    logs[i] -= slope * (steal[i] - at);
  }
  return std::exp(Median(std::move(logs)));
}

struct Interval {
  double begin = 0.0;
  double end = 0.0;
  double length() const { return end - begin; }
};

// Length of the part of `parent` covered by the union of `children`:
// children are clipped to the parent and overlaps count once.
inline double CoveredLength(const Interval& parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  double covered = 0.0;
  double reach = parent.begin;
  for (const Interval& c : children) {
    const double begin = std::max(c.begin, reach);
    const double end = std::min(c.end, parent.end);
    if (end > begin) {
      covered += end - begin;
      reach = end;
    }
  }
  return covered;
}

// A span's self time: its duration minus the part its children cover.
inline double SelfTime(const Interval& parent, const std::vector<Interval>& children) {
  return parent.length() - CoveredLength(parent, children);
}

// One device-layer span recorded by the timing backend. A task's gather,
// exec and scatter spans share its id; each names the requests of the
// task's entries as its cause.
struct TaskSpan {
  enum Kind : uint8_t { kGather, kExec, kScatter };
  Kind kind = kExec;
  uint64_t task = 0;
  int type = 0;
  int batch = 0;
  Interval time;
  std::vector<uint64_t> causes;
};

// Request id -> indices of the spans naming it as a cause, in span order.
inline std::unordered_map<uint64_t, std::vector<size_t>> LinkToRequests(
    const std::vector<TaskSpan>& spans) {
  std::unordered_map<uint64_t, std::vector<size_t>> by_request;
  for (size_t i = 0; i < spans.size(); ++i) {
    for (const uint64_t request : spans[i].causes) {
      by_request[request].push_back(i);
    }
  }
  return by_request;
}

// The tasks one request took part in, each as the hull of its spans
// (gather start to scatter end), sorted by start.
inline std::vector<Interval> TaskExtents(const std::vector<TaskSpan>& spans,
                                         const std::vector<size_t>& linked) {
  std::unordered_map<uint64_t, Interval> by_task;
  for (const size_t i : linked) {
    const TaskSpan& s = spans[i];
    auto [it, inserted] = by_task.try_emplace(s.task, s.time);
    if (!inserted) {
      it->second.begin = std::min(it->second.begin, s.time.begin);
      it->second.end = std::max(it->second.end, s.time.end);
    }
  }
  std::vector<Interval> out;
  out.reserve(by_task.size());
  for (const auto& [task, extent] : by_task) {
    out.push_back(extent);
  }
  std::sort(out.begin(), out.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  return out;
}

// Time between consecutive tasks of one request: each task's end to the
// next task's start.
inline std::vector<double> Gaps(const std::vector<Interval>& extents) {
  std::vector<double> out;
  for (size_t i = 1; i < extents.size(); ++i) {
    out.push_back(extents[i].begin - extents[i - 1].end);
  }
  return out;
}

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_MATH_H_
