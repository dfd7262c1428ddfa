// NullBackend: a compute-free device for tests and scheduling studies.
//
// Submit skips gather and execution entirely and completes each task with
// zero-filled output tensors of the correct batched shapes, returning after
// a configurable fixed latency (DeviceConfig::null_latency_micros). That
// isolates the engine's own machinery — scheduling, pipelining, poison
// bookkeeping, watchdog — from kernel cost, so fig05/fig09-style runs and
// stress tests can drive the full Server control path without paying for
// (or being perturbed by) GEMMs.

#ifndef SRC_DEVICE_NULL_BACKEND_H_
#define SRC_DEVICE_NULL_BACKEND_H_

#include <memory>

#include "src/core/batch_assembler.h"
#include "src/device/device_backend.h"

namespace batchmaker {

class NullBackend : public DeviceBackend {
 public:
  NullBackend(const CellRegistry* registry, double latency_micros);

  const char* name() const override { return "null"; }
  const DeviceCaps& caps() const override { return caps_; }

  std::unique_ptr<DeviceQueue> CreateQueue(const DeviceQueueOptions& options) override;

  double latency_micros() const { return latency_micros_; }

 private:
  const CellRegistry* registry_;
  const double latency_micros_;
  BatchAssembler assembler_;
  DeviceCaps caps_;
};

}  // namespace batchmaker

#endif  // SRC_DEVICE_NULL_BACKEND_H_
