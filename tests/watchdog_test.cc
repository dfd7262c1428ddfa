// Tests for worker failure domains (DESIGN.md "Worker failure domains"):
// the heartbeat watchdog's healthy / slow / hung / dead classification,
// quarantine + requeue of a flagged worker's stream, dead exec-thread
// respawn, and probe-based re-admission — all driven through the
// FaultInjector's deterministic worker-chaos modes. The invariant under
// test throughout: a hung, killed, or slowed worker delays requests but
// never loses one — every Submit gets exactly one terminal callback, and
// every kOk response is bitwise identical to the fault-free SyncEngine.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/core/fault_injector.h"
#include "src/core/server.h"
#include "src/core/sync_engine.h"
#include "tests/test_models.h"

namespace batchmaker {
namespace {

std::vector<Tensor> MakeChainExternals(const std::vector<Tensor>& xs, int64_t hidden) {
  std::vector<Tensor> ext = xs;
  ext.push_back(ExternalZeroVecTensor(hidden));
  ext.push_back(ExternalZeroVecTensor(hidden));
  return ext;
}

struct ChainRequest {
  int length = 0;
  std::vector<Tensor> xs;
};

std::vector<ChainRequest> MakeChainRequests(const std::vector<int>& lengths,
                                            int64_t input_dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<ChainRequest> requests;
  for (const int len : lengths) {
    ChainRequest r;
    r.length = len;
    for (int t = 0; t < len; ++t) {
      r.xs.push_back(Tensor::RandomUniform(Shape{1, input_dim}, 1.0f, &rng));
    }
    requests.push_back(std::move(r));
  }
  return requests;
}

// Fault-free bitwise reference: the final hidden state of each chain,
// computed by the serial SyncEngine over the same graphs and inputs.
std::vector<Tensor> ReferenceOutputs(const CellRegistry* registry, const LstmModel& model,
                                     const std::vector<ChainRequest>& requests,
                                     int64_t hidden) {
  SyncEngine engine(registry);
  std::vector<RequestId> ids;
  for (const ChainRequest& r : requests) {
    ids.push_back(engine.Submit(model.Unfold(r.length), MakeChainExternals(r.xs, hidden),
                                {ValueRef::Output(r.length - 1, 0)}));
  }
  engine.RunToCompletion();
  std::vector<Tensor> outputs;
  for (const RequestId id : ids) {
    std::vector<Tensor> out = engine.TakeResponse(id).outputs;
    outputs.push_back(std::move(out[0]));
  }
  return outputs;
}

// Submits every chain, waits for all terminal callbacks, and asserts the
// exactly-once + bitwise-vs-reference invariant. Returns only once every
// request has its terminal status (so the caller may probe health state
// before Shutdown).
struct ChainRun {
  std::vector<RequestId> ids;
  std::map<RequestId, RequestStatus> statuses;
  std::map<RequestId, std::vector<Tensor>> outputs;
};

ChainRun SubmitAndAwaitAll(Server* server, const LstmModel& model,
                           const std::vector<ChainRequest>& requests, int64_t hidden) {
  // Shared (not stack-captured) so a terminal callback finishing just as
  // the waiter below returns cannot touch destroyed state.
  struct State {
    std::mutex mu;
    std::map<RequestId, RequestStatus> statuses;
    std::map<RequestId, std::vector<Tensor>> outputs;
    std::atomic<size_t> done{0};
  };
  auto state = std::make_shared<State>();
  ChainRun run;
  for (const ChainRequest& r : requests) {
    run.ids.push_back(server->Submit(
        model.Unfold(r.length), MakeChainExternals(r.xs, hidden),
        {ValueRef::Output(r.length - 1, 0)},
        [state](RequestId rid, RequestStatus status, std::vector<Tensor> out) {
          std::lock_guard<std::mutex> lock(state->mu);
          EXPECT_EQ(state->statuses.count(rid), 0u)
              << "second terminal callback for " << rid;
          state->statuses[rid] = status;
          state->outputs[rid] = std::move(out);
          state->done.fetch_add(1);
        }));
  }
  const auto start = std::chrono::steady_clock::now();
  while (state->done.load() < requests.size()) {
    if (std::chrono::steady_clock::now() - start >= std::chrono::seconds(60)) {
      ADD_FAILURE() << "requests did not drain: " << state->done.load() << "/"
                    << requests.size();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> lock(state->mu);
  run.statuses = state->statuses;
  run.outputs = std::move(state->outputs);
  return run;
}

void ExpectAllOkBitwise(const ChainRun& run, const std::vector<Tensor>& reference) {
  ASSERT_EQ(run.statuses.size(), run.ids.size());
  for (size_t i = 0; i < run.ids.size(); ++i) {
    const RequestId id = run.ids[i];
    ASSERT_EQ(run.statuses.at(id), RequestStatus::kOk) << "request " << i;
    ASSERT_EQ(run.outputs.at(id).size(), 1u) << "request " << i;
    EXPECT_TRUE(run.outputs.at(id)[0].ElementsEqual(reference[i])) << "request " << i;
  }
}

// Polls HealthReport until `worker` is re-admitted (healthy and out of
// quarantine), proving the self-healing loop closes.
void AwaitReadmission(const Server& server, int worker) {
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const auto report = server.HealthReport();
    const auto& row = report[static_cast<size_t>(worker)];
    if (!row.quarantined && row.health == WorkerHealth::kHealthy) {
      return;
    }
    ASSERT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(30))
        << "worker " << worker << " never re-admitted (health="
        << WorkerHealthName(row.health) << ")";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// --- Watchdog off / idle behaviour -----------------------------------------

TEST(WatchdogTest, ReportIsAllHealthyZerosWhenWatchdogOff) {
  TinyLstmFixture fix;
  ServerOptions options;
  options.num_workers = 2;
  Server server(&fix.registry, options);
  server.Start();
  const auto report = server.HealthReport();
  server.Shutdown();
  ASSERT_EQ(report.size(), 2u);
  for (const WorkerHealthSnapshot& row : report) {
    EXPECT_EQ(row.health, WorkerHealth::kHealthy);
    EXPECT_FALSE(row.quarantined);
    EXPECT_EQ(row.heartbeat_epoch, 0);
    EXPECT_EQ(row.busy_task_seq, -1);
    EXPECT_EQ(row.quarantines, 0);
  }
  EXPECT_EQ(server.Quarantines(), 0);
  EXPECT_EQ(server.RequeuedTasks(), 0);
  EXPECT_EQ(server.Respawns(), 0);
}

TEST(WatchdogTest, HealthyFleetNoFalseQuarantinesBitwiseIdentical) {
  constexpr int64_t kHidden = 4;
  const std::vector<int> lengths = {3, 5, 2, 4, 6, 1, 4, 3};
  TinyLstmFixture fix;
  const auto requests = MakeChainRequests(lengths, kHidden, /*seed=*/91);
  const auto reference = ReferenceOutputs(&fix.registry, fix.model, requests, kHidden);

  ServerOptions options;
  options.num_workers = 2;
  options.health.health_watchdog = true;
  options.health.check_interval_micros = 200.0;
  // Generous hang floor: under TSan every task runs an order of magnitude
  // slower, and this test asserts *zero* quarantines — instrumentation
  // slowness must not read as a hang.
  options.health.min_hang_micros = 10e6;
  Server server(&fix.registry, options);
  server.Start();
  const ChainRun run = SubmitAndAwaitAll(&server, fix.model, requests, kHidden);
  server.Shutdown();

  ExpectAllOkBitwise(run, reference);
  // Heartbeats flowed but nothing tripped: no quarantine, no requeue, no
  // respawn on a healthy fleet.
  EXPECT_EQ(server.Quarantines(), 0);
  EXPECT_EQ(server.RequeuedTasks(), 0);
  EXPECT_EQ(server.Respawns(), 0);
  int64_t epochs = 0;
  for (const WorkerHealthSnapshot& row : server.HealthReport()) {
    EXPECT_EQ(row.health, WorkerHealth::kHealthy);
    EXPECT_FALSE(row.quarantined);
    epochs += row.heartbeat_epoch;
  }
  EXPECT_GT(epochs, 0);
}

// --- Hang drill -------------------------------------------------------------

TEST(WatchdogTest, HungWorkerQuarantinedRequestsRecoverBitwise) {
  constexpr int64_t kHidden = 4;
  std::vector<int> lengths;
  for (int i = 0; i < 12; ++i) {
    lengths.push_back(1 + (i * 5) % 7);
  }
  TinyLstmFixture fix;
  const auto requests = MakeChainRequests(lengths, kHidden, /*seed=*/92);
  const auto reference = ReferenceOutputs(&fix.registry, fix.model, requests, kHidden);

  ServerOptions options;
  options.num_workers = 2;
  options.pipeline_depth = 2;
  // Worker 0's stream hangs inside the exec of its seq-0 task for far
  // longer than the hang threshold.
  options.fault.chaos_worker = 0;
  options.fault.chaos_task_seq = 0;
  options.fault.chaos_hang_micros = 120000.0;
  options.health.health_watchdog = true;
  options.health.check_interval_micros = 500.0;
  options.health.min_hang_micros = 2000.0;
  options.health.probe_backoff_micros = 500.0;
  Server server(&fix.registry, options);
  server.Start();

  const ChainRun run = SubmitAndAwaitAll(&server, fix.model, requests, kHidden);
  // The hang drains through two paths: the watchdog quarantines worker 0
  // and requeues its stream onto worker 1, and the hung task itself
  // completes when the sleep ends. Recovery then re-admits the worker.
  EXPECT_GE(server.Quarantines(), 1);
  AwaitReadmission(server, /*worker=*/0);
  server.Shutdown();

  ExpectAllOkBitwise(run, reference);
  const auto report = server.HealthReport();
  EXPECT_GE(report[0].quarantines, 1);
  EXPECT_EQ(server.Respawns(), 0);  // thread never died, only hung
  EXPECT_GE(server.metrics().worker(0).readmissions.load(), 1);
}

// --- Exit (dead thread) drill ----------------------------------------------

TEST(WatchdogTest, DeadExecThreadRespawnedRequestsRecoverBitwise) {
  constexpr int64_t kHidden = 4;
  std::vector<int> lengths;
  for (int i = 0; i < 12; ++i) {
    lengths.push_back(1 + (i * 3) % 6);
  }
  TinyLstmFixture fix;
  const auto requests = MakeChainRequests(lengths, kHidden, /*seed=*/93);
  const auto reference = ReferenceOutputs(&fix.registry, fix.model, requests, kHidden);

  ServerOptions options;
  options.num_workers = 2;
  options.pipeline_depth = 2;
  // Worker 0's exec thread exits while holding its seq-0 task; the task is
  // reclaimed from the in-flight copy and requeued, the corpse joined, a
  // replacement thread spawned, and the worker re-admitted.
  options.fault.chaos_worker = 0;
  options.fault.chaos_task_seq = 0;
  options.fault.chaos_exit_thread = true;
  options.health.health_watchdog = true;
  options.health.check_interval_micros = 500.0;
  options.health.min_hang_micros = 2000.0;
  options.health.probe_backoff_micros = 500.0;
  Server server(&fix.registry, options);
  server.Start();

  const ChainRun run = SubmitAndAwaitAll(&server, fix.model, requests, kHidden);
  EXPECT_GE(server.Quarantines(), 1);
  EXPECT_GE(server.RequeuedTasks(), 1);  // the in-flight task was reclaimed
  // Readmission implies the replacement exec thread is already up, so the
  // respawn counter is only checked afterwards (the respawn can land after
  // the requests themselves drain through the surviving worker).
  AwaitReadmission(server, /*worker=*/0);
  EXPECT_GE(server.Respawns(), 1);
  server.Shutdown();

  ExpectAllOkBitwise(run, reference);
  const auto report = server.HealthReport();
  EXPECT_GE(report[0].respawns, 1);
}

// A chaos drill is keyed on (worker, stream seq), and the stream seq
// outlives the exec thread: the replacement continues the dead thread's
// stream, so the seq-0 exit drill kills exactly one thread per server. A
// seq that restarted with the thread would kill every replacement at its
// first task.
TEST(WatchdogTest, ExitDrillFiresOncePerServerLifetime) {
  constexpr int64_t kHidden = 4;
  std::vector<int> lengths;
  for (int i = 0; i < 12; ++i) {
    lengths.push_back(1 + (i * 3) % 6);
  }
  TinyLstmFixture fix;
  const auto wave1 = MakeChainRequests(lengths, kHidden, /*seed=*/98);
  const auto wave2 = MakeChainRequests(lengths, kHidden, /*seed=*/99);
  const auto reference1 = ReferenceOutputs(&fix.registry, fix.model, wave1, kHidden);
  const auto reference2 = ReferenceOutputs(&fix.registry, fix.model, wave2, kHidden);

  ServerOptions options;
  options.num_workers = 2;
  options.pipeline_depth = 2;
  options.fault.chaos_worker = 0;
  options.fault.chaos_task_seq = 0;
  options.fault.chaos_exit_thread = true;
  options.health.health_watchdog = true;
  options.health.check_interval_micros = 500.0;
  options.health.min_hang_micros = 2000.0;
  options.health.probe_backoff_micros = 500.0;
  Server server(&fix.registry, options);
  server.Start();

  const ChainRun run1 = SubmitAndAwaitAll(&server, fix.model, wave1, kHidden);
  ExpectAllOkBitwise(run1, reference1);
  EXPECT_GE(server.Quarantines(), 1);
  AwaitReadmission(server, /*worker=*/0);
  const int64_t epoch_before = server.HealthReport()[0].heartbeat_epoch;

  // Wave 2 must reach the replacement thread, but which worker a burst
  // lands on follows the scheduler's refill rotation, so the wave repeats
  // (bounded) until worker 0 has run something.
  int64_t epoch_after = epoch_before;
  for (int round = 0; round < 20 && epoch_after == epoch_before; ++round) {
    const ChainRun run2 = SubmitAndAwaitAll(&server, fix.model, wave2, kHidden);
    ExpectAllOkBitwise(run2, reference2);
    // A second death would block wave 2 until its task is reclaimed, and
    // its re-admission needs the respawn first, so after this wait the
    // respawn count is final.
    AwaitReadmission(server, /*worker=*/0);
    epoch_after = server.HealthReport()[0].heartbeat_epoch;
  }
  server.Shutdown();

  EXPECT_GT(epoch_after, epoch_before) << "worker 0 ran nothing in wave 2";
  EXPECT_EQ(server.Respawns(), 1);
}

// --- Slowdown drill (advisory only) ----------------------------------------

TEST(WatchdogTest, SlowdownChaosIsAdvisoryOnly) {
  // Hidden large enough that a slowed task spans several watchdog periods,
  // so the sampler reliably observes the worker mid-task.
  constexpr int64_t kHidden = 128;
  const std::vector<int> lengths = {6, 6, 6, 6};
  CellRegistry registry;
  Rng weight_rng(94);
  LstmModel model(&registry, LstmSpec{.input_dim = kHidden, .hidden = kHidden},
                  &weight_rng);
  const auto requests = MakeChainRequests(lengths, kHidden, /*seed=*/95);
  const auto reference = ReferenceOutputs(&registry, model, requests, kHidden);

  ServerOptions options;
  options.num_workers = 2;
  options.fault.chaos_worker = 0;
  options.fault.chaos_task_seq = 0;
  options.fault.chaos_slowdown_factor = 20.0;
  options.health.health_watchdog = true;
  options.health.check_interval_micros = 100.0;
  options.health.slow_multiplier = 0.001;
  options.health.min_hang_micros = 60e6;
  options.health.hang_multiplier = 1e9;
  Server server(&registry, options);
  server.Start();

  const ChainRun run = SubmitAndAwaitAll(&server, model, requests, kHidden);
  server.Shutdown();

  ExpectAllOkBitwise(run, reference);
  // Slow is advisory: counted, never quarantined.
  EXPECT_EQ(server.Quarantines(), 0);
  EXPECT_EQ(server.Respawns(), 0);
  int64_t slow_ticks = 0;
  for (int w = 0; w < 2; ++w) {
    slow_ticks += server.metrics().worker(w).slow_ticks.load();
  }
  EXPECT_GT(slow_ticks, 0);
}

// --- Randomized hang chaos stress ------------------------------------------

TEST(WatchdogTest, SeededHangRateExactlyOneCallbackPerRequest) {
  constexpr int64_t kHidden = 4;
  std::vector<int> lengths;
  for (int i = 0; i < 20; ++i) {
    lengths.push_back(1 + (i * 7) % 5);
  }
  TinyLstmFixture fix;
  const auto requests = MakeChainRequests(lengths, kHidden, /*seed=*/96);
  const auto reference = ReferenceOutputs(&fix.registry, fix.model, requests, kHidden);

  ServerOptions options;
  options.num_workers = 3;
  options.pipeline_depth = 2;
  // Each of worker 0's stream seqs hangs independently (seeded hash), so
  // the worker can be quarantined, re-admitted, and hung again.
  options.fault.chaos_worker = 0;
  options.fault.chaos_rate = 0.25;
  options.fault.seed = 97;
  options.fault.chaos_hang_micros = 30000.0;
  options.health.health_watchdog = true;
  options.health.check_interval_micros = 500.0;
  options.health.min_hang_micros = 2000.0;
  options.health.probe_backoff_micros = 500.0;
  Server server(&fix.registry, options);
  server.Start();

  const ChainRun run = SubmitAndAwaitAll(&server, fix.model, requests, kHidden);
  server.Shutdown();
  ExpectAllOkBitwise(run, reference);
}

// --- FaultInjectorOptions validation ----------------------------------------

TEST(FaultInjectorTest, FailRateBelowZeroClampsToZero) {
  FaultInjectorOptions options;
  options.fail_rate = -0.5;
  const FaultInjector injector(options);
  EXPECT_EQ(injector.options().fail_rate, 0.0);
}

TEST(FaultInjectorTest, FailRateAboveOneClampsToOne) {
  FaultInjectorOptions options;
  options.fail_rate = 1.5;
  const FaultInjector injector(options);
  EXPECT_EQ(injector.options().fail_rate, 1.0);
}

TEST(FaultInjectorTest, FailRateInRangeIsUntouched) {
  FaultInjectorOptions options;
  options.fail_rate = 0.25;
  const FaultInjector injector(options);
  EXPECT_EQ(injector.options().fail_rate, 0.25);
}

}  // namespace
}  // namespace batchmaker
