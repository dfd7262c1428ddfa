// Tests of the benchmark's own arithmetic. Exits non-zero on the first
// failed check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "servebench/bench_math.h"

namespace servebench {
namespace {

#define CHECK(cond)                                                      \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
      std::exit(1);                                                      \
    }                                                                    \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void PercentilesCarryTheirSampleCount() {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) {
    values.push_back(i);  // unsorted on purpose
  }
  const Quantile p50 = PercentileOf(values, 50);
  CHECK(Near(p50.value, 50.5));
  CHECK(p50.samples == 100);
  CHECK(Near(PercentileOf(values, 99).value, 99.01));
  CHECK(Near(PercentileOf(values, 0).value, 1.0));
  CHECK(Near(PercentileOf(values, 100).value, 100.0));
  CHECK(Near(PercentileOf({7.0}, 99).value, 7.0));
  const Quantile none = PercentileOf({}, 50);
  CHECK(none.samples == 0 && none.value == 0.0);
  CHECK(Near(Median({3.0, 1.0, 2.0}), 2.0));
  // p99 needs ten samples beyond it.
  CHECK(TailSupported(1000, 99));
  CHECK(!TailSupported(999, 99));
  CHECK(TailSupported(100, 90));
}

void OpenLoopRequestsAreWindowedByDueTime() {
  // Request 1 is due before the window but completes inside it; request 3
  // is due inside but completes after the window closes.
  const std::vector<double> due = {0.0, 400.0, 500.0, 900.0, 1000.0, 1200.0};
  const std::vector<double> done = {100.0, 600.0, 700.0, 1500.0, 1100.0, 1300.0};
  const std::vector<size_t> window = InWindow(due, 500.0, 1000.0);
  CHECK(window.size() == 2);
  CHECK(window[0] == 2 && window[1] == 3);
  // Latency runs from the due time, so a late send still counts.
  CHECK(Near(done[window[1]] - due[window[1]], 600.0));
  // Windowing by completion instead picks a different set.
  const std::vector<size_t> by_done = InWindow(done, 500.0, 1000.0);
  CHECK(by_done.size() == 2 && by_done[0] == 1 && by_done[1] == 2);
  CHECK(InWindow(due, 2000.0, 3000.0).empty());
}

void StealFitReadsEveryRunAtOneSteal() {
  // Every round slowed by exp(3 * steal): read at zero steal the fit
  // recovers 100 exactly, though no round ran without steal, and read at
  // 2% it gives what a round at 2% steal measures.
  const std::vector<double> steal = {0.05, 0.02, 0.08, 0.14, 0.11};
  std::vector<double> latency;
  for (const double s : steal) {
    latency.push_back(100.0 * std::exp(3.0 * s));
  }
  CHECK(Near(AtSteal(steal, latency, 0.0), 100.0));
  CHECK(Near(AtSteal(steal, latency, 0.02), 100.0 * std::exp(0.06)));
  // Throughput falls as latency rises; the fit works the same way down.
  std::vector<double> throughput;
  for (const double s : steal) {
    throughput.push_back(1500.0 * std::exp(-4.0 * s));
  }
  CHECK(Near(AtSteal(steal, throughput, 0.0), 1500.0));
  // One outlying round moves neither the slope nor the intercept.
  latency[2] *= 3.0;
  CHECK(Near(AtSteal(steal, latency, 0.0), 100.0));
  // No two rounds apart in steal: the median round.
  CHECK(Near(AtSteal({0.01, 0.01, 0.01}, {3.0, 1.0, 2.0}, 0.02), 2.0));
  CHECK(Near(AtSteal({0.01}, {7.0}, 0.02), 7.0));
  // A value that is not positive has no log: the median round.
  CHECK(Near(AtSteal({0.0, 0.1, 0.2}, {0.0, 1.0, 2.0}, 0.02), 1.0));
}

void SelfTimeIsSpanMinusChildCoverage() {
  const Interval parent{0.0, 10.0};
  // Overlapping children count once; the part beyond the parent is clipped.
  CHECK(Near(CoveredLength(parent, {{1.0, 3.0}, {2.0, 5.0}, {8.0, 12.0}}), 6.0));
  CHECK(Near(SelfTime(parent, {{1.0, 3.0}, {2.0, 5.0}, {8.0, 12.0}}), 4.0));
  CHECK(Near(SelfTime(parent, {}), 10.0));
  CHECK(Near(SelfTime(parent, {{-5.0, -1.0}, {11.0, 20.0}}), 10.0));
  CHECK(Near(SelfTime(parent, {{0.0, 10.0}, {3.0, 4.0}}), 0.0));
  // A child nested in an earlier one adds nothing.
  CHECK(Near(SelfTime(parent, {{1.0, 6.0}, {2.0, 3.0}, {7.0, 8.0}}), 4.0));
}

TaskSpan Span(TaskSpan::Kind kind, uint64_t task, double begin, double end,
              std::vector<uint64_t> causes) {
  TaskSpan s;
  s.kind = kind;
  s.task = task;
  s.batch = static_cast<int>(causes.size());
  s.time = {begin, end};
  s.causes = std::move(causes);
  return s;
}

void TaskSpansLinkToTheirRequests() {
  // Task 1 batches requests 10 and 11; task 2 continues request 10 alone.
  const std::vector<TaskSpan> spans = {
      Span(TaskSpan::kGather, 1, 0.0, 2.0, {10, 11}),
      Span(TaskSpan::kExec, 1, 2.0, 7.0, {10, 11}),
      Span(TaskSpan::kScatter, 1, 7.0, 8.0, {10, 11}),
      Span(TaskSpan::kGather, 2, 12.0, 13.0, {10}),
      Span(TaskSpan::kExec, 2, 13.0, 15.0, {10}),
      Span(TaskSpan::kScatter, 2, 15.0, 16.0, {10}),
  };
  const auto linked = LinkToRequests(spans);
  CHECK(linked.size() == 2);
  CHECK(linked.at(10).size() == 6);
  CHECK(linked.at(11).size() == 3);
  CHECK(linked.at(11)[0] == 0 && linked.at(11)[2] == 2);

  const std::vector<Interval> tasks10 = TaskExtents(spans, linked.at(10));
  CHECK(tasks10.size() == 2);
  CHECK(Near(tasks10[0].begin, 0.0) && Near(tasks10[0].end, 8.0));
  CHECK(Near(tasks10[1].begin, 12.0) && Near(tasks10[1].end, 16.0));
  const std::vector<double> gaps = Gaps(tasks10);
  CHECK(gaps.size() == 1 && Near(gaps[0], 4.0));
  CHECK(Gaps(TaskExtents(spans, linked.at(11))).empty());
  // The request span [−1, 18] is covered by its two tasks for 12 of 19.
  CHECK(Near(SelfTime({-1.0, 18.0}, tasks10), 7.0));
}

}  // namespace
}  // namespace servebench

int main() {
  servebench::PercentilesCarryTheirSampleCount();
  servebench::OpenLoopRequestsAreWindowedByDueTime();
  servebench::StealFitReadsEveryRunAtOneSteal();
  servebench::SelfTimeIsSpanMinusChildCoverage();
  servebench::TaskSpansLinkToTheirRequests();
  std::printf("servebench_test: all checks passed\n");
  return 0;
}
