#include "servebench/timed_backend.h"

#include <memory>
#include <utility>

#include "src/device/device_registry.h"
#include "src/util/logging.h"

namespace servebench {

using batchmaker::BatchedTask;
using batchmaker::DeviceArena;
using batchmaker::DeviceBackend;
using batchmaker::DeviceCaps;
using batchmaker::DeviceConfig;
using batchmaker::DeviceEventPtr;
using batchmaker::DeviceQueue;
using batchmaker::DeviceQueueOptions;
using batchmaker::DeviceRegistry;
using batchmaker::GatheredBatch;
using batchmaker::RequestState;
using batchmaker::Tensor;

void SpanLog::Record(TaskSpan::Kind kind, const BatchedTask& task, double begin_us,
                     double end_us) {
  TaskSpan span;
  span.kind = kind;
  span.task = task.id;
  span.type = task.type;
  span.batch = task.BatchSize();
  span.time = {begin_us, end_us};
  span.causes.reserve(task.entries.size());
  for (const auto& entry : task.entries) {
    span.causes.push_back(entry.request);
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<TaskSpan> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

namespace {

class TimedQueue final : public DeviceQueue {
 public:
  TimedQueue(std::unique_ptr<DeviceQueue> inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  DeviceEventPtr Submit(const BatchedTask& task, const GatheredBatch& gathered) override {
    const double begin = log_->NowMicros();
    DeviceEventPtr event = inner_->Submit(task, gathered);
    log_->Record(TaskSpan::kExec, task, begin, log_->NowMicros());
    return event;
  }

  void Scatter(const BatchedTask& task, const std::vector<RequestState*>& states,
               const std::vector<Tensor>& outputs,
               const std::vector<uint8_t>* poisoned) override {
    const double begin = log_->NowMicros();
    inner_->Scatter(task, states, outputs, poisoned);
    log_->Record(TaskSpan::kScatter, task, begin, log_->NowMicros());
  }

 private:
  std::unique_ptr<DeviceQueue> inner_;
  SpanLog* log_;
};

class TimedBackend final : public DeviceBackend {
 public:
  TimedBackend(std::unique_ptr<DeviceBackend> inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  const char* name() const override { return "timed"; }
  const DeviceCaps& caps() const override { return inner_->caps(); }

  std::unique_ptr<DeviceArena> CreateArena() override { return inner_->CreateArena(); }

  std::unique_ptr<DeviceQueue> CreateQueue(const DeviceQueueOptions& options) override {
    std::unique_ptr<DeviceQueue> queue = inner_->CreateQueue(options);
    if (queue == nullptr) {
      return nullptr;
    }
    return std::make_unique<TimedQueue>(std::move(queue), log_);
  }

  void Gather(const BatchedTask& task, const std::vector<RequestState*>& states,
              GatheredBatch* out, DeviceArena* staging,
              const std::vector<uint8_t>* poisoned) const override {
    const double begin = log_->NowMicros();
    inner_->Gather(task, states, out, staging, poisoned);
    log_->Record(TaskSpan::kGather, task, begin, log_->NowMicros());
  }

 private:
  std::unique_ptr<DeviceBackend> inner_;
  SpanLog* log_;
};

}  // namespace

void RegisterTimedBackend(const std::string& inner, SpanLog* log) {
  DeviceRegistry::Instance().Register(
      "timed", [inner, log](const DeviceConfig& config) -> std::unique_ptr<DeviceBackend> {
        std::unique_ptr<DeviceBackend> backend =
            DeviceRegistry::Instance().Create(inner, config);
        BM_CHECK(backend != nullptr) << "builtin backend '" << inner << "' unavailable";
        return std::make_unique<TimedBackend>(std::move(backend), log);
      });
}

}  // namespace servebench
