// Timing decorator for a builtin device backend. It forwards every call to
// the backend it wraps and records a span for each Gather,
// DeviceQueue::Submit and DeviceQueue::Scatter: task id, cell type, batch
// size, and the requests of the task's entries as the span's cause. Spans
// stay in memory until the benchmark collects them after the round.

#ifndef SERVEBENCH_TIMED_BACKEND_H_
#define SERVEBENCH_TIMED_BACKEND_H_

#include <chrono>
#include <mutex>
#include <string>
#include <vector>

#include "servebench/bench_math.h"
#include "src/runtime/task.h"

namespace servebench {

// Thread-safe in-memory span store; times are microseconds since `origin`.
class SpanLog {
 public:
  explicit SpanLog(std::chrono::steady_clock::time_point origin) : origin_(origin) {}

  double NowMicros() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                     origin_)
        .count();
  }
  void Record(TaskSpan::Kind kind, const batchmaker::BatchedTask& task, double begin_us,
              double end_us);
  std::vector<TaskSpan> Take();

 private:
  const std::chrono::steady_clock::time_point origin_;
  std::mutex mu_;
  std::vector<TaskSpan> spans_;
};

// Registers (or re-registers) the device backend "timed" with the
// DeviceRegistry: the builtin backend `inner` wrapped so that a Server
// constructed on it records into `log`. `log` must outlive that Server.
void RegisterTimedBackend(const std::string& inner, SpanLog* log);

}  // namespace servebench

#endif  // SERVEBENCH_TIMED_BACKEND_H_
