// FaultInjector: deterministic, seeded execution-fault injection for the
// real-time Server's fault-tolerance path (see DESIGN.md "Overload and
// failure semantics").
//
// A decision is a pure hash of (task id, seed), so whether a given task
// fails — and which of its entries is blamed as the victim — does not
// depend on worker interleaving, pipeline depth, or wall-clock time. That
// makes fault-injection tests reproducible: the same request mix forms the
// same task ids in the same order (the scheduler allocates them
// sequentially on the manager thread), so the same tasks fail on every run.
//
// Two targeting modes, combinable:
//   * rate: each task fails independently with probability `fail_rate`;
//   * nth task: the task whose id equals `fail_task_id` always fails.
//
// Separately from cell-execution faults, the injector carries *worker*
// chaos modes for the watchdog's drills (DESIGN.md "Worker failure
// domains"): a targeted worker hangs, exits its exec thread, or runs
// slowed down. Decisions are keyed on (worker, per-worker stream seq), so
// they too are independent of thread interleaving.

#ifndef SRC_CORE_FAULT_INJECTOR_H_
#define SRC_CORE_FAULT_INJECTOR_H_

#include <cstdint>

#include "src/util/logging.h"

namespace batchmaker {

struct FaultInjectorOptions {
  // Probability in [0, 1] that any given task's execution fails. Values
  // outside [0, 1] are clamped (with a logged warning) when the injector
  // is constructed.
  double fail_rate = 0.0;
  // If >= 0, the task with exactly this id fails (in addition to the rate).
  int64_t fail_task_id = -1;
  // Seed folded into every per-task hash.
  uint64_t seed = 0;

  // ---- Worker-level chaos (watchdog drills) ----------------------------
  // Target worker for all chaos modes below; -1 disables them.
  int chaos_worker = -1;
  // The per-worker stream seq at which the chaos mode triggers. If < 0,
  // each seq triggers independently with probability `chaos_rate` instead
  // (hashed on (worker, seq, seed) — still deterministic).
  int64_t chaos_task_seq = -1;
  double chaos_rate = 0.0;
  // Mode: the exec thread sleeps this long before executing the triggering
  // task (a bounded hang; the task completes normally on wake).
  double chaos_hang_micros = 0.0;
  // Mode: the exec thread exits instead of executing the triggering task
  // (a crash; only a health watchdog respawn brings the worker back).
  bool chaos_exit_thread = false;
  // Mode: from the triggering seq onward, every exec span on the target
  // worker is stretched by this factor (a silently degraded worker).
  // <= 1 disables.
  double chaos_slowdown_factor = 1.0;

  bool Enabled() const { return fail_rate > 0.0 || fail_task_id >= 0; }
  bool WorkerChaosEnabled() const { return chaos_worker >= 0; }
};

// One worker-chaos decision for a (worker, stream seq) pair.
struct WorkerChaos {
  double hang_micros = 0.0;
  bool exit_thread = false;
  double slowdown_factor = 1.0;

  bool Any() const {
    return hang_micros > 0.0 || exit_thread || slowdown_factor > 1.0;
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultInjectorOptions options = {}) : options_(options) {
    // Satellite of the failure-domain work: an out-of-range fail_rate used
    // to be accepted silently (rate > 1 behaved like "always", negative
    // like "never", both without a trace). Clamp loudly instead.
    if (options_.fail_rate < 0.0 || options_.fail_rate > 1.0) {
      const double clamped =
          options_.fail_rate < 0.0 ? 0.0 : 1.0;
      BM_LOG(Warning) << "FaultInjectorOptions.fail_rate " << options_.fail_rate
                      << " outside [0, 1]; clamping to " << clamped;
      options_.fail_rate = clamped;
    }
  }

  bool enabled() const { return options_.Enabled(); }
  bool worker_chaos_enabled() const { return options_.WorkerChaosEnabled(); }
  // The injector's (possibly clamped) view of its options.
  const FaultInjectorOptions& options() const { return options_; }

  // True iff the task with this id should fail to execute.
  bool ShouldFail(uint64_t task_id) const {
    if (!enabled()) {
      return false;
    }
    if (options_.fail_task_id >= 0 &&
        task_id == static_cast<uint64_t>(options_.fail_task_id)) {
      return true;
    }
    if (options_.fail_rate <= 0.0) {
      return false;
    }
    // Map the hash to [0, 1) with 53 bits of entropy (double mantissa).
    const double u =
        static_cast<double>(Mix(task_id) >> 11) * (1.0 / 9007199254740992.0);
    return u < options_.fail_rate;
  }

  // Which entry of a failing task is blamed as the victim (the request
  // whose cell "caused" the fault). Deterministic in (task id, seed).
  int VictimEntry(uint64_t task_id, int batch_size) const {
    if (batch_size <= 1) {
      return 0;
    }
    return static_cast<int>(Mix(task_id ^ 0x9e3779b97f4a7c15ull) %
                            static_cast<uint64_t>(batch_size));
  }

  // Worker-chaos decision for `task_seq` (the per-worker stream sequence,
  // which a respawned exec thread continues) on `worker`. Pure in
  // (worker, seq, seed).
  WorkerChaos ChaosAt(int worker, int64_t task_seq) const {
    WorkerChaos chaos;
    if (worker != options_.chaos_worker || task_seq < 0) {
      return chaos;
    }
    bool trigger;
    if (options_.chaos_task_seq >= 0) {
      trigger = task_seq == options_.chaos_task_seq;
    } else if (options_.chaos_rate > 0.0) {
      const uint64_t h = Mix((static_cast<uint64_t>(worker) << 40) ^
                             static_cast<uint64_t>(task_seq));
      trigger = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0) <
                options_.chaos_rate;
    } else {
      trigger = false;
    }
    if (trigger) {
      chaos.hang_micros = options_.chaos_hang_micros;
      chaos.exit_thread = options_.chaos_exit_thread;
    }
    // Slowdown models a degraded worker, not a point event: it applies to
    // every task from the trigger seq onward.
    if (options_.chaos_slowdown_factor > 1.0 && options_.chaos_task_seq >= 0 &&
        task_seq >= options_.chaos_task_seq) {
      chaos.slowdown_factor = options_.chaos_slowdown_factor;
    }
    return chaos;
  }

 private:
  // splitmix64 finalizer over task id and seed.
  uint64_t Mix(uint64_t x) const {
    uint64_t z = x + 0x9e3779b97f4a7c15ull + options_.seed * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  FaultInjectorOptions options_;
};

}  // namespace batchmaker

#endif  // SRC_CORE_FAULT_INJECTOR_H_
