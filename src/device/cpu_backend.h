// CpuBackend: the real-compute device — pre-packed PackedMatrix GEMM on
// an intra-task ThreadPool, TensorArena staging, and node-local weight
// replicas under NumaPolicy::kPinReplicate. It drives exactly the same
// BatchAssembler calls with exactly the same ExecContext the Server used
// to build inline, so results are bitwise identical to SyncEngine
// (determinism_test proves it).
//
// Submit executes synchronously on the calling (execution) thread and
// returns the completed result: the CPU "device" *is* the worker thread,
// so an async hop would only add a context switch. The queue contract
// (FIFO completion per worker) holds trivially.

#ifndef SRC_DEVICE_CPU_BACKEND_H_
#define SRC_DEVICE_CPU_BACKEND_H_

#include <memory>

#include "src/core/batch_assembler.h"
#include "src/device/device_backend.h"

namespace batchmaker {

class CpuBackend : public DeviceBackend {
 public:
  explicit CpuBackend(const CellRegistry* registry, Precision precision);

  const char* name() const override { return "cpu"; }
  const DeviceCaps& caps() const override { return caps_; }

  std::unique_ptr<DeviceArena> CreateArena() override;
  std::unique_ptr<DeviceQueue> CreateQueue(const DeviceQueueOptions& options) override;

  void Gather(const BatchedTask& task, const std::vector<RequestState*>& states,
              GatheredBatch* out, DeviceArena* staging,
              const std::vector<uint8_t>* poisoned) const override;

 private:
  const CellRegistry* registry_;
  const Precision precision_;
  BatchAssembler assembler_;
  DeviceCaps caps_;
};

}  // namespace batchmaker

#endif  // SRC_DEVICE_CPU_BACKEND_H_
