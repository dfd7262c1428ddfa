#include "src/device/null_backend.h"

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "src/graph/cell_def.h"
#include "src/util/logging.h"

namespace batchmaker {

namespace {

class NullQueue : public DeviceQueue {
 public:
  NullQueue(const BatchAssembler* assembler, const CellRegistry* registry,
            double latency_micros)
      : assembler_(assembler),
        registry_(registry),
        latency_micros_(latency_micros) {}

  DeviceEventPtr Submit(const BatchedTask& task, const GatheredBatch&) override {
    const CellDef& cell = registry_->def(task.type);
    const int64_t batch = task.BatchSize();
    std::vector<Tensor> outputs;
    outputs.reserve(static_cast<size_t>(cell.NumOutputs()));
    for (int i = 0; i < cell.NumOutputs(); ++i) {
      const ValueType& vt = cell.output_type(i);
      std::vector<int64_t> dims{batch};
      for (int64_t d : vt.shape.dims()) {
        dims.push_back(d);
      }
      outputs.push_back(Tensor::Zeros(Shape(std::move(dims)), vt.dtype));
    }
    auto event = std::make_shared<DeviceEvent>();
    event->Complete(std::move(outputs));
    if (latency_micros_ > 0.0) {
      // The fixed device latency, spent on the submitting thread.
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(latency_micros_));
    }
    return event;
  }

  void Scatter(const BatchedTask& task, const std::vector<RequestState*>& states,
               const std::vector<Tensor>& outputs,
               const std::vector<uint8_t>* poisoned) override {
    // Real scatter: downstream tasks gather these (zero) rows, terminal
    // nodes surface them as request outputs — the dataflow plumbing stays
    // fully exercised.
    assembler_->ScatterOutputs(task, states, outputs, /*ctx=*/nullptr, poisoned);
  }

 private:
  const BatchAssembler* assembler_;
  const CellRegistry* registry_;
  const double latency_micros_;
};

}  // namespace

NullBackend::NullBackend(const CellRegistry* registry, double latency_micros)
    : registry_(registry),
      latency_micros_(latency_micros),
      assembler_(registry) {
  BM_CHECK(registry != nullptr);
  BM_CHECK_GE(latency_micros, 0.0);
  // Every cap stays false: in particular the Server skips the gather stage,
  // which is the point — the null device reads no input rows. The watchdog
  // still works (Submit makes heartbeat-visible progress on the exec
  // thread).
}

std::unique_ptr<DeviceQueue> NullBackend::CreateQueue(const DeviceQueueOptions&) {
  return std::make_unique<NullQueue>(&assembler_, registry_, latency_micros_);
}

}  // namespace batchmaker
