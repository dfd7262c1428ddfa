// Shared option groups for the three engines (Server, SimEngine,
// SyncEngine) and the one submission-option struct they all accept.
//
// Before this header the engines had drifted: ServerOptions carried
// admission/shedding knobs as loose fields, SimEngineOptions spelled the
// same concepts differently, and per-request parameters (deadline, early
// termination, priority) were positional arguments with engine-specific
// shapes. Now:
//   * AdmissionOptions groups the overload knobs,
//   * EngineOptions is the common core every engine-options struct
//     derives from (workers, shards, pipeline depth, scheduler, tracing,
//     admission),
//   * SubmitOptions is the one per-request parameter block accepted by
//     Server::Submit, SimEngine::SubmitAt and SyncEngine::Submit.
// The pre-unification field names and positional overloads, deprecated
// for one release, are now removed; see the README migration table.

#ifndef SRC_CORE_ENGINE_OPTIONS_H_
#define SRC_CORE_ENGINE_OPTIONS_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "src/core/scheduler.h"
#include "src/tensor/gemm.h"
#include "src/util/topology.h"

namespace batchmaker {

// Overload-control knobs shared by the real server and the simulator.
struct AdmissionOptions {
  // Maximum requests admitted but not yet terminal. A Submit that would
  // exceed it is rejected synchronously (kRejected, never enqueued).
  // 0 disables the cap. (The simulator, which has no admission queue,
  // ignores it.)
  size_t max_queued_requests = 0;
  // Load shedding: a request still waiting to *begin* executing this many
  // microseconds after arrival is shed (kShed). 0 disables. A request with
  // its own SubmitOptions::deadline_micros sheds on whichever of the two
  // deadlines is tighter; a negative per-request deadline opts out of
  // shedding entirely.
  double queue_timeout_micros = 0.0;
};

// Worker failure domains (DESIGN.md "Worker failure domains"; Server
// only). When `health_watchdog` is on, exec threads stamp per-worker
// heartbeats and a watchdog thread classifies each worker as healthy /
// slow / hung / dead, quarantines flagged workers (their
// in-flight tasks are requeued through the fault-recovery machinery, so
// no request is lost — only delayed), respawns dead exec threads, and
// re-admits recovered workers with exponential probe backoff. Off by
// default: the disabled path takes no clock reads and no extra atomic
// stores, and is bitwise-identical to the pre-watchdog server.
struct HealthOptions {
  bool health_watchdog = false;
  // Watchdog sampling period.
  double check_interval_micros = 1000.0;
  // A busy worker is *hung* when its in-flight task has been executing
  // longer than hang_multiplier x the OnlineCostModel prediction for that
  // (cell type, batch size) — detection latency scales with actual work
  // size — but never less than min_hang_micros (absorbs scheduling jitter
  // on tiny cells).
  double hang_multiplier = 16.0;
  double min_hang_micros = 20000.0;
  // Advisory only: a busy worker past slow_multiplier x the prediction
  // (but under the hang threshold) is reported kSlow and counted in
  // metrics; it keeps serving.
  double slow_multiplier = 4.0;
  // Quarantined workers are probed for re-admission with exponential
  // backoff: first probe after probe_backoff_micros, doubling up to
  // probe_backoff_max_micros.
  double probe_backoff_micros = 2000.0;
  double probe_backoff_max_micros = 500000.0;
};

// Common engine-configuration core. ServerOptions and SimEngineOptions
// derive from this, so experiment harnesses can configure either engine
// through one code path.
struct EngineOptions {
  // Execution device, resolved through DeviceRegistry (DESIGN.md "Device
  // backend API"). Empty selects the engine's native default: "cpu"
  // (real compute) on the Server, "sim" (virtual-time cost model) on
  // SimEngine. "null" completes every task with zero outputs after
  // null_latency_micros — a compute-free harness for scheduler and
  // pipeline studies.
  std::string backend;
  // NullBackend only: fixed per-task completion latency, microseconds.
  double null_latency_micros = 0.0;
  int num_workers = 1;
  // Width of each worker's intra-task thread pool (the CPU backend): GEMM
  // output blocks and gather / scatter rows of one task fan across this
  // many threads. Total exec-side threads ~= num_workers *
  // threads_per_worker.
  int threads_per_worker = 1;
  // Manager shards (see DESIGN.md "Sharded manager"): scheduler state is
  // partitioned into this many independent manager loops, each owning a
  // contiguous slice of the workers. Arrivals are routed by request id;
  // a starved shard tells its peers, and a peer with surplus donates a
  // not-yet-scheduled request. Clamped to [1, num_workers]; 1 reproduces
  // the single-manager behaviour exactly.
  int num_shards = 1;
  // Low watermark on each worker's in-flight task count (the paper's
  // pipelined task submission). The Server defaults to 2 (hide the
  // completion->manager->schedule round-trip); SimEngineOptions resets it
  // to 1, where virtual time has no such latency and a deeper stream only
  // costs batching.
  int pipeline_depth = 2;
  SchedulerOptions scheduler;
  // Records structured events (src/obs/) for every request/task; export
  // with WriteChromeTrace(engine.trace(), path). Off by default: the
  // disabled recorder costs one relaxed atomic load per would-be event.
  bool enable_tracing = false;
  AdmissionOptions admission;
  // GEMM precision for every pre-packed MatMul weight (see DESIGN.md
  // "Low-precision execution"): fp32 (default — byte-identical to the
  // pre-knob behaviour), bf16, or int8. A per-cell
  // CellRegistry::SetPrecision override wins over this engine-wide value.
  // Kernel selection within the precision is a separate, automatic axis
  // (cpuid dispatch; see GemmKernelName).
  Precision precision = Precision::kF32;
  // NUMA-aware placement (DESIGN.md "NUMA-aware placement"; Server only —
  // the simulator has no threads to place). kNone (default) skips topology
  // discovery entirely and is bitwise-identical to the pre-NUMA server.
  // kPin pins each worker's exec thread (and its intra-task pool) to one
  // node and aligns shard boundaries with node boundaries. Pinning is
  // best-effort: a node excluded by taskset/cgroups leaves its workers
  // unpinned but fully functional.
  NumaPolicy numa_policy = NumaPolicy::kNone;
  // Test seam: alternate sysfs root for topology discovery (fake trees in
  // tests/testdata). Empty = the real "/sys".
  std::string numa_sysfs_root;
  // Worker failure domains (Server only; the simulator's virtual workers
  // cannot hang). See HealthOptions above.
  HealthOptions health;
};

// Per-request submission parameters, accepted uniformly by
// Server::Submit, SimEngine::SubmitAt and SyncEngine::Submit.
struct SubmitOptions {
  // Per-request end-to-end SLA deadline, micros after arrival: 0 = none,
  // negative disables shedding for this request entirely. Kept distinct
  // from the engine-wide admission.queue_timeout_micros (an overload
  // backstop, not an SLA): shedding fires on whichever of the two is
  // tighter. Ignored by SyncEngine (it has no queueing clock).
  double deadline_micros = 0.0;
  // Early termination declared up front (e.g. the decoder node after which
  // nothing else is needed): once this node completes, every
  // not-yet-scheduled node of the request is cancelled. -1 disables. The
  // Server additionally accepts a content-dependent TerminationFn, which
  // SubmitOptions cannot express (the simulator has no token values).
  int terminate_after_node = -1;
  // Advisory importance, higher = more important. Today it only orders
  // cross-shard steal victims (lowest priority is stolen first, FIFO among
  // equals); it does not preempt Algorithm 1's batching criteria.
  int priority = 0;
};

// Terminal answer of one submission, shared by the engines' completion
// paths (Server::SubmitAndWait, SyncEngine::TakeResponse). `outputs` is
// non-empty only for kOk (and may legitimately be empty there too, when
// every wanted output was cancelled by early termination).
struct Response {
  RequestStatus status = RequestStatus::kOk;
  std::vector<Tensor> outputs;
  bool ok() const { return status == RequestStatus::kOk; }
};

}  // namespace batchmaker

#endif  // SRC_CORE_ENGINE_OPTIONS_H_
