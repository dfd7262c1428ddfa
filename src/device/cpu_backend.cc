#include "src/device/cpu_backend.h"

#include <exception>
#include <utility>
#include <vector>

#include "src/graph/executor.h"
#include "src/util/logging.h"
#include "src/util/thread_pool.h"

namespace batchmaker {

namespace {

// A TensorArena-backed staging buffer (gathers write through host()).
class CpuArena : public DeviceArena {
 public:
  TensorArena* host() override { return &arena_; }
  void Reset() override { arena_.Reset(); }
  void Prefault(size_t bytes) override { arena_.Prefault(bytes); }

 private:
  TensorArena arena_;
};

// One worker's execution resources, constructed on the pinned execution
// thread (the spawned pool threads inherit its affinity mask, and the
// scratch arena is first-touched node-locally).
class CpuQueue : public DeviceQueue {
 public:
  CpuQueue(const BatchAssembler* assembler, Precision precision,
           const DeviceQueueOptions& options)
      : assembler_(assembler),
        pool_(options.threads, options.thread_name_prefix),
        ctx_{&pool_, &exec_arena_, precision} {
    if (options.numa_node >= 0) {
      // First-touch the scratch arena from its pinned owner so the cell
      // intermediates' steady-state pages live on this node.
      exec_arena_.Prefault(size_t{1} << 20);
    }
  }

  DeviceEventPtr Submit(const BatchedTask& task,
                        const GatheredBatch& gathered) override {
    auto event = std::make_shared<DeviceEvent>();
    try {
      std::vector<Tensor> outputs =
          assembler_->ExecuteGathered(task, gathered, &ctx_);
      // The cell intermediates are dead (outputs own their storage);
      // recycle the scratch arena before the next task.
      exec_arena_.Reset();
      event->Complete(std::move(outputs));
    } catch (const std::exception&) {
      // A real (non-injected) execution failure: the whole task produced
      // nothing. The engine's failure path re-queues the victims.
      exec_arena_.Reset();
      event->Fail();
    }
    return event;
  }

  void Scatter(const BatchedTask& task, const std::vector<RequestState*>& states,
               const std::vector<Tensor>& outputs,
               const std::vector<uint8_t>* poisoned) override {
    assembler_->ScatterOutputs(task, states, outputs, &ctx_, poisoned);
  }

 private:
  const BatchAssembler* assembler_;
  ThreadPool pool_;
  TensorArena exec_arena_;
  const ExecContext ctx_;
};

}  // namespace

CpuBackend::CpuBackend(const CellRegistry* registry, Precision precision)
    : precision_(precision), assembler_(registry) {
  BM_CHECK(registry != nullptr);
  caps_.real_compute = true;
  caps_.requires_gather = true;
  caps_.supports_numa_pinning = true;
  caps_.supports_watchdog = true;
  for (bool& p : caps_.supported_precisions) {
    p = true;  // runtime cpuid dispatch picks the kernel tier
  }
}

std::unique_ptr<DeviceArena> CpuBackend::CreateArena() {
  return std::make_unique<CpuArena>();
}

std::unique_ptr<DeviceQueue> CpuBackend::CreateQueue(
    const DeviceQueueOptions& options) {
  BM_CHECK_GT(options.threads, 0);
  return std::make_unique<CpuQueue>(&assembler_, precision_, options);
}

void CpuBackend::Gather(const BatchedTask& task,
                        const std::vector<RequestState*>& states,
                        GatheredBatch* out, DeviceArena* staging,
                        const std::vector<uint8_t>* poisoned) const {
  // No pool: the worker's intra-task pool lives inside its queue, so the
  // gather runs serially on the calling (execution) thread, on the
  // critical path between two executions.
  const ExecContext stage_ctx{/*pool=*/nullptr,
                              staging != nullptr ? staging->host() : nullptr,
                              precision_};
  assembler_.GatherInputs(task, states, out, &stage_ctx, poisoned);
}

}  // namespace batchmaker
