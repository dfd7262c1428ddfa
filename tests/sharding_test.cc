// Sharded-manager regression tests (DESIGN.md "Sharded manager").
//
// Four properties are under test. (1) Determinism: partitioning the
// manager into shards — including cross-shard steals — must not perturb a
// single output bit relative to the serial SyncEngine, at every
// shards x workers x pipeline_depth combination. (2) Pinning: only
// never-scheduled requests migrate; a request that has begun executing
// stays on its owner (asserted deterministically in virtual time, where
// the same stealing policy runs single-threaded). (3) Robustness: the
// PR 1-4 invariants — exactly one terminal callback per Submit, under
// faults, cancels, deadlines and racing shutdown — hold per shard and
// across steals. (4) Liveness: at light load the stealing protocol neither
// bounces requests between starved shards nor keeps an idle server busy.
// The stress and liveness tests run under TSan and ASan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include <time.h>

#include "src/core/server.h"
#include "src/core/sim_engine.h"
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

std::vector<ChainRequest> MakeChainRequests(int count, int64_t input_dim,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<ChainRequest> requests;
  for (int i = 0; i < count; ++i) {
    ChainRequest r;
    r.length = 1 + static_cast<int>(rng.NextBelow(6));
    for (int t = 0; t < r.length; ++t) {
      r.xs.push_back(Tensor::RandomUniform(Shape{1, input_dim}, 1.0f, &rng));
    }
    requests.push_back(std::move(r));
  }
  return requests;
}

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

CostModel UnitCostModel(const CellRegistry& registry) {
  CostModel model;
  for (CellTypeId t = 0; t < registry.NumTypes(); ++t) {
    model.SetCurve(t, UnitCostCurve());
  }
  return model;
}

// --- (1) Bitwise determinism vs SyncEngine under sharding ------------------

TEST(ShardingTest, ShardedServerMatchesSyncEngineBitwiseAtEveryConfig) {
  constexpr int64_t kHidden = 4;
  constexpr int kRequests = 18;
  TinyLstmFixture ref_fix;
  const auto requests = MakeChainRequests(kRequests, kHidden, /*seed=*/71);
  const auto reference = ReferenceOutputs(&ref_fix.registry, ref_fix.model,
                                          requests, kHidden);

  for (const int shards : {1, 2, 4}) {
    for (const int workers : {2, 4}) {
      for (const int depth : {1, 2}) {
        TinyLstmFixture fix;
        ServerOptions options;
        options.num_workers = workers;
        options.num_shards = shards;
        options.pipeline_depth = depth;
        options.enable_tracing = true;
        Server server(&fix.registry, options);
        ASSERT_EQ(server.num_shards(), std::min(shards, workers));
        server.Start();

        std::vector<std::promise<Response>> promises(kRequests);
        std::vector<std::future<Response>> futures;
        for (int i = 0; i < kRequests; ++i) {
          futures.push_back(promises[static_cast<size_t>(i)].get_future());
        }
        for (int i = 0; i < kRequests; ++i) {
          const ChainRequest& r = requests[static_cast<size_t>(i)];
          auto* promise = &promises[static_cast<size_t>(i)];
          server.Submit(fix.model.Unfold(r.length), MakeChainExternals(r.xs, kHidden),
                        {ValueRef::Output(r.length - 1, 0)},
                        [promise](RequestId, RequestStatus status,
                                  std::vector<Tensor> outputs) {
                          promise->set_value(Response{status, std::move(outputs)});
                        });
        }
        for (int i = 0; i < kRequests; ++i) {
          const Response res = futures[static_cast<size_t>(i)].get();
          ASSERT_TRUE(res.ok())
              << "request " << i << " shards " << shards << " workers " << workers
              << " depth " << depth;
          ASSERT_EQ(res.outputs.size(), 1u);
          // Bitwise, not approximately: wherever the request ran — home
          // shard or stolen — the numbers must be the serial numbers.
          EXPECT_TRUE(res.outputs[0].ElementsEqual(reference[static_cast<size_t>(i)]))
              << "request " << i << " shards " << shards << " workers " << workers
              << " depth " << depth;
        }
        server.Shutdown();

        // Steal accounting is consistent however many steals happened:
        // the atomic total, the per-shard counters and the trace agree.
        EXPECT_EQ(server.metrics().TotalSteals(), server.StealsExecuted());
        EXPECT_EQ(server.trace().Count(TraceEventKind::kShardSteal),
                  server.StealsExecuted());
        if (server.num_shards() == 1) {
          EXPECT_EQ(server.StealsExecuted(), 0);
        }
        size_t shard_completions = 0;
        for (int s = 0; s < server.num_shards(); ++s) {
          shard_completions += static_cast<size_t>(
              server.metrics().shard(s).completions.load());
        }
        EXPECT_EQ(shard_completions, static_cast<size_t>(kRequests));
      }
    }
  }
}

// --- (2) Steal policy, deterministically in virtual time --------------------

TEST(ShardingTest, SkewedLoadTriggersStealsDeterministically) {
  // Shard 0 (even ids) gets six length-1 chains, shard 1 (odd ids) six
  // length-12 chains. Batch cap 2 and a one-deep stream keep four of
  // shard 1's requests never-scheduled; when shard 0 drains at t~3 its
  // worker idles with no compatible work and must steal them. Virtual
  // time makes the whole schedule — including every migration — exactly
  // reproducible, so we run it twice and demand identical timelines.
  const auto run_once = [](std::map<RequestId, double>* completions) {
    TinyLstmFixture fix;
    fix.registry.SetMaxBatch(fix.model.cell_type(), 2);
    const CostModel cost = UnitCostModel(fix.registry);
    SimEngineOptions options;
    options.num_workers = 2;
    options.num_shards = 2;
    options.enable_tracing = true;
    options.scheduler.max_tasks_to_submit = 1;
    SimEngine engine(&fix.registry, &cost, options);
    for (int i = 0; i < 12; ++i) {
      // Submission i gets id i+1: odd ids (even i) route to shard 1 and
      // are long; even ids route to shard 0 and are short.
      const int length = (i % 2 == 0) ? 12 : 1;
      engine.SubmitAt(0.0, fix.model.Unfold(length));
    }
    engine.Run();
    EXPECT_EQ(engine.metrics().NumCompleted(), 12u);
    EXPECT_GT(engine.StealsExecuted(), 0);
    EXPECT_EQ(engine.trace().Count(TraceEventKind::kShardSteal),
              engine.StealsExecuted());
    for (const RequestRecord& r : engine.metrics().records()) {
      (*completions)[r.id] = r.completion_micros;
    }
    return engine.StealsExecuted();
  };

  std::map<RequestId, double> first, second;
  const int64_t steals_first = run_once(&first);
  const int64_t steals_second = run_once(&second);
  EXPECT_EQ(steals_first, steals_second);
  ASSERT_EQ(first.size(), 12u);
  ASSERT_EQ(second.size(), 12u);
  for (const auto& [id, t] : first) {
    EXPECT_DOUBLE_EQ(second.at(id), t) << "request " << id;
  }
}

TEST(ShardingTest, InFlightRequestsAreNeverStolen) {
  // Shard 0's two long requests are co-batched and scheduled immediately,
  // so when shard 1 drains its short ones and goes hungry there is
  // nothing stealable anywhere: pinned (ever-scheduled) work must stay
  // put, even though shard 1's worker then idles for ten task-times.
  TinyLstmFixture fix;
  fix.registry.SetMaxBatch(fix.model.cell_type(), 2);
  const CostModel cost = UnitCostModel(fix.registry);
  SimEngineOptions options;
  options.num_workers = 2;
  options.num_shards = 2;
  options.enable_tracing = true;
  options.scheduler.max_tasks_to_submit = 1;
  SimEngine engine(&fix.registry, &cost, options);
  for (int i = 0; i < 4; ++i) {
    // ids 1..4: odd -> shard 1 (short), even -> shard 0 (long).
    const int length = (i % 2 == 0) ? 1 : 20;
    engine.SubmitAt(0.0, fix.model.Unfold(length));
  }
  engine.Run();
  EXPECT_EQ(engine.metrics().NumCompleted(), 4u);
  EXPECT_EQ(engine.StealsExecuted(), 0);
  EXPECT_EQ(engine.trace().Count(TraceEventKind::kShardSteal), 0);
}

TEST(ShardingTest, SingleShardSimTimelineIsUnchangedByShardingCode) {
  // The Figure 5 scenario (asserted step-by-step in sim_engine_test) run
  // through the sharded code path with num_shards = 1: the timeline must
  // be the pre-sharding one, to the last decimal.
  TinyLstmFixture fix;
  fix.registry.SetMaxBatch(fix.model.cell_type(), 4);
  const CostModel cost = UnitCostModel(fix.registry);
  SimEngineOptions options;
  options.scheduler.max_tasks_to_submit = 1;
  SimEngine engine(&fix.registry, &cost, options);
  const int lengths[8] = {2, 3, 3, 5, 5, 7, 3, 1};
  const double arrivals[8] = {0, 0, 0, 0, 1.5, 2.5, 2.5, 4.5};
  for (int i = 0; i < 8; ++i) {
    engine.SubmitAt(arrivals[i], fix.model.Unfold(lengths[i]));
  }
  engine.Run();
  ASSERT_EQ(engine.metrics().NumCompleted(), 8u);
  EXPECT_EQ(engine.num_shards(), 1);
  EXPECT_EQ(engine.StealsExecuted(), 0);
  std::map<RequestId, double> done;
  for (const auto& r : engine.metrics().records()) {
    done[r.id] = r.completion_micros;
  }
  EXPECT_DOUBLE_EQ(done[1], 2.0);
  EXPECT_DOUBLE_EQ(done[2], 3.0);
  EXPECT_DOUBLE_EQ(done[3], 3.0);
  EXPECT_DOUBLE_EQ(done[4], 5.0);
}

// --- (3) Faults, cancels and shutdown races under sharding ------------------

TEST(ShardingTest, CancelBroadcastLandsExactlyOnceWhereverTheRequestLives) {
  // Cancels are broadcast to every shard (the owner may have changed via
  // a steal; non-owners keep a tombstone in case the request migrates in
  // behind the cancel). Whatever the interleaving: one terminal callback,
  // status kCancelled or kOk, never a hang.
  TinyLstmFixture fix;
  ServerOptions options;
  options.num_workers = 2;
  options.num_shards = 2;
  options.pipeline_depth = 2;
  Server server(&fix.registry, options);
  server.Start();
  Rng data_rng(72);

  constexpr int kRequests = 24;
  std::mutex mu;
  std::map<RequestId, int> callback_counts;
  std::map<RequestId, RequestStatus> statuses;
  std::vector<RequestId> ids;
  for (int i = 0; i < kRequests; ++i) {
    const int len = 2 + (i % 5);
    std::vector<Tensor> xs;
    for (int t = 0; t < len; ++t) {
      xs.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng));
    }
    ids.push_back(server.Submit(
        fix.model.Unfold(len), MakeChainExternals(xs, 4), {ValueRef::Output(len - 1, 0)},
        [&](RequestId rid, RequestStatus status, std::vector<Tensor>) {
          std::lock_guard<std::mutex> lock(mu);
          callback_counts[rid]++;
          statuses[rid] = status;
        }));
    if (i % 2 == 1) {
      server.Cancel(ids.back());
    }
  }
  server.Shutdown();

  ASSERT_EQ(callback_counts.size(), static_cast<size_t>(kRequests));
  for (const auto& [id, count] : callback_counts) {
    EXPECT_EQ(count, 1) << "request " << id;
    const RequestStatus status = statuses.at(id);
    EXPECT_TRUE(status == RequestStatus::kOk || status == RequestStatus::kCancelled)
        << "request " << id;
  }
}

TEST(ShardingTest, InjectedFaultsUnderShardingInnocentsBitwiseIdentical) {
  constexpr int64_t kHidden = 4;
  TinyLstmFixture fix;
  const auto requests = MakeChainRequests(16, kHidden, /*seed=*/73);
  const auto reference = ReferenceOutputs(&fix.registry, fix.model, requests, kHidden);

  ServerOptions options;
  options.num_workers = 2;
  options.num_shards = 2;
  options.fault.fail_rate = 0.2;
  options.fault.fail_task_id = 0;  // guarantee at least one fault fires
  options.fault.seed = 321;
  Server server(&fix.registry, options);
  server.Start();

  std::mutex mu;
  std::map<RequestId, int> callback_counts;
  std::map<RequestId, RequestStatus> statuses;
  std::map<RequestId, std::vector<Tensor>> outputs;
  std::vector<RequestId> ids;
  for (const ChainRequest& r : requests) {
    ids.push_back(server.Submit(
        fix.model.Unfold(r.length), MakeChainExternals(r.xs, kHidden),
        {ValueRef::Output(r.length - 1, 0)},
        [&](RequestId rid, RequestStatus status, std::vector<Tensor> out) {
          std::lock_guard<std::mutex> lock(mu);
          callback_counts[rid]++;
          statuses[rid] = status;
          outputs[rid] = std::move(out);
        }));
  }
  server.Shutdown();

  EXPECT_GE(server.TasksFailed(), 1);
  ASSERT_EQ(callback_counts.size(), ids.size());
  size_t ok = 0, failed = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(callback_counts.at(ids[i]), 1) << "request " << i;
    const RequestStatus status = statuses.at(ids[i]);
    if (status == RequestStatus::kOk) {
      ++ok;
      ASSERT_EQ(outputs.at(ids[i]).size(), 1u);
      EXPECT_TRUE(outputs.at(ids[i])[0].ElementsEqual(reference[i])) << "request " << i;
    } else {
      ASSERT_EQ(status, RequestStatus::kFailed) << "request " << i;
      ++failed;
    }
  }
  EXPECT_EQ(ok + failed, ids.size());
  EXPECT_EQ(server.metrics().NumCompleted(), ok);
  EXPECT_EQ(server.metrics().NumFailed(), failed);
}

// Submissions (valid and invalid), deadlines, faults, cancels and a racing
// Shutdown against a 2-shard server. The invariant: exactly one terminal
// callback per Submit, and the status counters add up. Run under TSan.
TEST(ShardingTest, ConcurrentStressUnderShardingExactlyOneTerminalCallback) {
  constexpr int kSubmitters = 3;
  constexpr int kPerThread = 50;
  TinyLstmFixture fix;
  ServerOptions options;
  options.num_workers = 2;
  options.num_shards = 2;
  options.pipeline_depth = 2;
  options.fault.fail_rate = 0.05;
  options.fault.seed = 74;
  options.admission.queue_timeout_micros = 50000.0;
  Server server(&fix.registry, options);
  server.Start();

  std::mutex mu;
  std::map<RequestId, int> callback_counts;
  std::map<RequestId, RequestStatus> statuses;
  std::atomic<int> submitted{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(200 + t));
      std::vector<RequestId> my_ids;
      for (int i = 0; i < kPerThread; ++i) {
        const int len = 1 + (i % 4);
        std::vector<Tensor> externals;
        if (i % 9 == 4) {
          // Deliberately invalid: missing the zero-state externals.
          for (int s = 0; s < len; ++s) {
            externals.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &rng));
          }
        } else {
          std::vector<Tensor> xs;
          for (int s = 0; s < len; ++s) {
            xs.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &rng));
          }
          externals = MakeChainExternals(xs, 4);
        }
        submitted.fetch_add(1);
        const double deadline = (i % 5 == 4) ? 200.0 : 0.0;
        const RequestId id = server.Submit(
            fix.model.Unfold(len), std::move(externals), {ValueRef::Output(len - 1, 0)},
            [&](RequestId rid, RequestStatus status, std::vector<Tensor>) {
              std::lock_guard<std::mutex> lock(mu);
              callback_counts[rid]++;
              statuses[rid] = status;
            },
            SubmitOptions{.deadline_micros = deadline, .priority = i % 3});
        my_ids.push_back(id);
        if (i % 7 == 6) {
          server.Cancel(my_ids[rng.NextBelow(my_ids.size())]);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  server.Shutdown();  // races the submitters: stragglers get kRejected
  for (std::thread& t : submitters) {
    t.join();
  }

  ASSERT_EQ(callback_counts.size(), static_cast<size_t>(submitted.load()));
  size_t ok = 0, shed = 0, rejected = 0, failed = 0, cancelled = 0;
  for (const auto& [id, count] : callback_counts) {
    EXPECT_EQ(count, 1) << "request " << id;
    switch (statuses.at(id)) {
      case RequestStatus::kOk: ++ok; break;
      case RequestStatus::kShed: ++shed; break;
      case RequestStatus::kRejected: ++rejected; break;
      case RequestStatus::kFailed: ++failed; break;
      case RequestStatus::kCancelled: ++cancelled; break;
    }
  }
  EXPECT_EQ(ok + shed + rejected + failed + cancelled,
            static_cast<size_t>(submitted.load()));
  EXPECT_EQ(server.metrics().NumCompleted(), ok);
  EXPECT_EQ(server.metrics().NumDropped(), shed);
  EXPECT_EQ(server.metrics().NumRejected(), rejected);
  EXPECT_EQ(server.metrics().NumFailed(), failed);
  EXPECT_EQ(server.metrics().TotalSteals(), server.StealsExecuted());
}

// --- (4) Liveness at light load ---------------------------------------------

constexpr int kChainLength = 24;

// A compute-free server (the null device) with one worker per shard.
ServerOptions NullDeviceOptions(int shards) {
  ServerOptions options;
  options.backend = "null";
  options.num_workers = shards;
  options.num_shards = shards;
  return options;
}

Response SubmitZeroChain(Server& server, const LstmModel& model) {
  std::vector<Tensor> xs(kChainLength, ExternalZeroVecTensor(4));
  return server.SubmitAndWait(model.Unfold(kChainLength), MakeChainExternals(xs, 4),
                              {ValueRef::Output(kChainLength - 1, 0)});
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

TEST(ShardingTest, LightLoadStealsNeverExceedCompletedRequests) {
  // Closed loops of 1-8 clients leave shards starved most of the time. Two
  // starved shards once traded the same never-scheduled request back and
  // forth (tens of thousands of steals in half a second, collapsing
  // throughput); with hunger notices, surplus-only donation and one
  // migration per request, steals are bounded by requests.
  for (const int shards : {2, 4}) {
    for (const int clients : {1, 4, 8}) {
      TinyLstmFixture fix;
      Server server(&fix.registry, NullDeviceOptions(shards));
      server.Start();
      const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
      std::vector<std::thread> loops;
      for (int c = 0; c < clients; ++c) {
        loops.emplace_back([&] {
          while (std::chrono::steady_clock::now() < until) {
            EXPECT_TRUE(SubmitZeroChain(server, fix.model).ok());
          }
        });
      }
      for (std::thread& t : loops) {
        t.join();
      }
      server.Shutdown();
      const int64_t completed = static_cast<int64_t>(server.metrics().NumCompleted());
      EXPECT_GT(completed, 0);
      EXPECT_LE(server.StealsExecuted(), completed)
          << "shards " << shards << " clients " << clients;
    }
  }
}

TEST(ShardingTest, IdleShardedServerBurnsNoCpu) {
  // After a drain, starved shards send each peer one hunger notice and then
  // block; they used to deny each other's steal requests forever, keeping
  // about one core busy on an idle server.
  for (const int shards : {2, 4}) {
    TinyLstmFixture fix;
    Server server(&fix.registry, NullDeviceOptions(shards));
    server.Start();
    ASSERT_TRUE(SubmitZeroChain(server, fix.model).ok());
    const double cpu_before = ProcessCpuSeconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const double idle_cpu = ProcessCpuSeconds() - cpu_before;
    server.Shutdown();
    EXPECT_LT(idle_cpu, 0.05) << "shards " << shards;
  }
}

TEST(ShardingTest, ClosedLoopSimStealsBoundedAndTimelineReproducible) {
  // The virtual-time twin of the closed loop above: one client, two shards,
  // each request sent the instant the previous one completed. Hunger
  // notices and migrations travel as same-instant events, so the whole run
  // is reproducible, and no request waits on a steal.
  const auto run_once = [](std::vector<double>* completions) {
    TinyLstmFixture fix;
    const CostModel cost = UnitCostModel(fix.registry);
    SimEngineOptions options;
    options.num_workers = 2;
    options.num_shards = 2;
    SimEngine engine(&fix.registry, &cost, options);
    constexpr size_t kRequests = 40;
    for (size_t i = 0; i < kRequests; ++i) {
      engine.SubmitAt(engine.events().Now(), fix.model.Unfold(kChainLength));
      engine.Run();
    }
    EXPECT_EQ(engine.metrics().NumCompleted(), kRequests);
    EXPECT_LE(engine.StealsExecuted(), static_cast<int64_t>(kRequests));
    for (const RequestRecord& r : engine.metrics().records()) {
      EXPECT_DOUBLE_EQ(r.completion_micros - r.arrival_micros, kChainLength)
          << "request " << r.id;
      completions->push_back(r.completion_micros);
    }
  };

  std::vector<double> first, second;
  run_once(&first);
  run_once(&second);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_DOUBLE_EQ(first[i], second[i]) << "request " << i;
  }
}

}  // namespace
}  // namespace batchmaker
