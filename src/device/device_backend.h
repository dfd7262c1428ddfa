// DeviceBackend: the pluggable execution-device abstraction behind the
// engines' gather/execute/scatter pipeline (DESIGN.md "Device backend
// API").
//
// The paper's §5 execution story is per-device FIFO task streams with
// pipelined submission. This header factors that seam out of the Server's
// worker threads into four small objects:
//   * DeviceArena  — a staging buffer the gather stage writes batched
//     input rows into (the CPU backend wraps a TensorArena; a GPU-style
//     backend would hand out pinned host buffers).
//   * DeviceQueue  — one per-worker in-order submission queue: submit a
//     gathered task, get back its completed result. FIFO per queue is a
//     contract, not an implementation detail — subgraph pinning and the
//     poison bookkeeping in the Server rely on it (paper §5: kernels
//     pushed to the same stream execute in submission order).
//   * DeviceEvent  — the completed result of one submitted task: its
//     outputs, or the failure flag.
//   * DeviceBackend — the factory for the above plus capability flags and
//     the gather/scatter entry points.
//
// Ownership and threading rules:
//   * CreateArena() may be called from any thread; the arena is then owned
//     by one worker's execution thread (Prefault/Reset from that thread).
//   * CreateQueue() is called on the worker's *execution* thread, after
//     any NUMA pinning — so backend allocations inside the queue (thread
//     pools, scratch arenas) inherit the thread's affinity and first-touch
//     placement. The queue dies on that thread too (quarantine respawns
//     re-create it).
//   * Gather(), Submit() and Scatter() all run on the worker's execution
//     thread, one task at a time in stream order: the engine gathers,
//     submits and scatters task t before it gathers task t+1.
//
// The header is dependency-light by design: tensor + runtime + graph layers
// only, RequestState forward-declared.

#ifndef SRC_DEVICE_DEVICE_BACKEND_H_
#define SRC_DEVICE_DEVICE_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/cell_registry.h"
#include "src/runtime/task.h"
#include "src/tensor/arena.h"
#include "src/tensor/gemm.h"
#include "src/tensor/tensor.h"

namespace batchmaker {

struct RequestState;  // src/core/request.h; only passed through by pointer

// The gathered per-slot input batches of one task, produced by the gather
// stage and consumed by DeviceQueue::Submit. When gathered into a
// DeviceArena the tensors are arena-backed: they must be destroyed
// (clear()) before that arena is Reset, and must outlive the Submit that
// executes them.
struct GatheredBatch {
  std::vector<Tensor> inputs;  // one [batch, ...] tensor per cell input slot
};

// Per-backend capability flags, consumed by the engines instead of
// CPU-specific assumptions: the Server gates NUMA placement, and skips the
// gather stage entirely for backends that stage nothing.
struct DeviceCaps {
  // Executes real kernels on real tensors (outputs are meaningful data).
  bool real_compute = false;
  // Requires batched input rows gathered into a DeviceArena before Submit.
  // When false the Server skips the gather stage (poison bookkeeping still
  // runs — stream-order invariants are backend-agnostic).
  bool requires_gather = false;
  // Worker threads may be pinned to NUMA nodes and benefit from node-local
  // staging/scratch placement.
  bool supports_numa_pinning = false;
};

// The completed result of one submitted task. DeviceQueue::Submit runs the
// task to completion before it returns, so the backend fills the event in
// exactly once — Complete or Fail — and the engine then reads it.
class DeviceEvent {
 public:
  // ---- Engine side -------------------------------------------------------
  // True when the task produced nothing (kernel threw / device fault).
  bool failed() const { return failed_; }
  // Moves the task's [batch, ...] output tensors out; empty when failed().
  std::vector<Tensor> TakeOutputs() { return std::move(outputs_); }

  // ---- Device side (each event is completed exactly once) ----------------
  void Complete(std::vector<Tensor> outputs) { outputs_ = std::move(outputs); }
  void Fail() { failed_ = true; }

 private:
  bool failed_ = false;
  std::vector<Tensor> outputs_;
};

using DeviceEventPtr = std::shared_ptr<DeviceEvent>;

// One worker's staging buffer. The base class is the no-op implementation
// used by backends that stage nothing (NullBackend); the CPU backend wraps
// a TensorArena and exposes it through host().
class DeviceArena {
 public:
  virtual ~DeviceArena() = default;
  // The host-visible arena gathers write into, or null for backends whose
  // gather stage is a no-op.
  virtual TensorArena* host() { return nullptr; }
  // Recycles all staged buffers (the engine calls this once the task that
  // gathered into the arena has executed).
  virtual void Reset() {}
  // First-touch at least `bytes` of storage from the calling thread (NUMA
  // page placement; see TensorArena::Prefault).
  virtual void Prefault(size_t bytes) { (void)bytes; }
};

// Per-worker queue construction parameters, filled by the engine on the
// worker's (already pinned) execution thread.
struct DeviceQueueOptions {
  int worker = 0;
  // Intra-task pool width, for backends that fan one task's work over a
  // thread pool (the CPU backend).
  int threads = 1;
  // Name prefix for threads the queue spawns (diagnostics).
  std::string thread_name_prefix;
  // NUMA node this worker is pinned to, -1 = unpinned. Backends prefault
  // their scratch storage from the calling thread when >= 0.
  int numa_node = -1;
};

// One worker's in-order task stream. Submit runs a gathered task to
// completion and returns its result; tasks on one queue complete in
// submission order. Scatter writes a completed task's output rows back
// into request state (it stays on the queue because backends that fan
// scatter over an intra-task pool own that pool).
class DeviceQueue {
 public:
  virtual ~DeviceQueue() = default;
  virtual DeviceEventPtr Submit(const BatchedTask& task,
                                const GatheredBatch& gathered) = 0;
  // Rows marked in `poisoned` (optional, size == batch) are skipped: their
  // producers failed and the entries re-execute through the failure path.
  virtual void Scatter(const BatchedTask& task,
                       const std::vector<RequestState*>& states,
                       const std::vector<Tensor>& outputs,
                       const std::vector<uint8_t>* poisoned) = 0;
};

// Construction parameters a DeviceRegistry factory receives (the union of
// what the builtin backends need; backends ignore fields that do not
// apply).
struct DeviceConfig {
  const CellRegistry* registry = nullptr;
  // Engine-wide GEMM precision.
  Precision precision = Precision::kF32;
  // NullBackend: fixed latency of each Submit, micros (0 = returns at
  // once).
  double null_latency_micros = 0.0;
};

// The backend interface proper: capabilities + factories + the gather
// stage, which does not belong to a single queue. The default
// implementations are inline, so implementing a backend pulls in no extra
// objects.
class DeviceBackend {
 public:
  virtual ~DeviceBackend() = default;

  virtual const char* name() const = 0;
  virtual const DeviceCaps& caps() const = 0;

  // One staging buffer (the Server allocates one per worker). Default: the
  // no-op arena.
  virtual std::unique_ptr<DeviceArena> CreateArena() {
    return std::make_unique<DeviceArena>();
  }

  // One worker's submission queue; see the threading rules above. Returns
  // null only if the device is unavailable (the engine treats that as a
  // construction failure).
  virtual std::unique_ptr<DeviceQueue> CreateQueue(const DeviceQueueOptions& options) = 0;

  // Gather stage (execution thread, serial): batch one row per task entry,
  // per cell input slot, into `staging`. No-op default for backends with
  // !caps().requires_gather.
  virtual void Gather(const BatchedTask& task,
                      const std::vector<RequestState*>& states, GatheredBatch* out,
                      DeviceArena* staging,
                      const std::vector<uint8_t>* poisoned) const {
    (void)task;
    (void)states;
    (void)out;
    (void)staging;
    (void)poisoned;
  }
};

}  // namespace batchmaker

#endif  // SRC_DEVICE_DEVICE_BACKEND_H_
