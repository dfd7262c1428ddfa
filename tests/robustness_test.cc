// Robustness tests for the real-time Server: submission validation,
// admission control, deadline-based load shedding, deterministic fault
// injection with innocent-request recovery, cancellation under pipelined
// streams, and a concurrent stress of all of the above. The invariant under
// test throughout: every Submit gets exactly one terminal callback, and
// every kOk response is bitwise identical to the fault-free SyncEngine.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

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

// One chain request: its inputs and the server-independent description
// needed to replay it against the SyncEngine reference.
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

// --- Submission validation -------------------------------------------------

TEST(RobustnessTest, InvalidSubmissionsAreRejectedNotFatal) {
  TinyLstmFixture fix;
  Server server(&fix.registry);
  server.Start();
  Rng data_rng(31);
  std::vector<Tensor> xs = {Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng)};

  size_t rejected = 0;
  const auto expect_rejected = [&](Response res) {
    EXPECT_EQ(res.status, RequestStatus::kRejected);
    EXPECT_TRUE(res.outputs.empty());
    ++rejected;
    EXPECT_EQ(server.metrics().NumRejected(), rejected);
  };

  // Empty graph.
  expect_rejected(server.SubmitAndWait(CellGraph(), MakeChainExternals(xs, 4),
                                       {ValueRef::Output(0, 0)}));
  // No externals at all for a graph that references them.
  expect_rejected(server.SubmitAndWait(fix.model.Unfold(1), {}, {ValueRef::Output(0, 0)}));
  // Too few externals: Unfold(2) references external ids the vector lacks.
  expect_rejected(server.SubmitAndWait(fix.model.Unfold(2), MakeChainExternals(xs, 4),
                                       {ValueRef::Output(1, 0)}));
  // outputs_wanted referencing a node that does not exist.
  expect_rejected(server.SubmitAndWait(fix.model.Unfold(1), MakeChainExternals(xs, 4),
                                       {ValueRef::Output(7, 0)}));
  // outputs_wanted referencing an output slot beyond the cell's arity.
  expect_rejected(server.SubmitAndWait(fix.model.Unfold(1), MakeChainExternals(xs, 4),
                                       {ValueRef::Output(0, 99)}));
  // outputs_wanted referencing an external instead of a node output.
  expect_rejected(server.SubmitAndWait(fix.model.Unfold(1), MakeChainExternals(xs, 4),
                                       {ValueRef::External(0)}));
  // Externals that do not fit the input slot they feed. Each used to pass
  // validation and abort the whole process in the exec thread's gather.
  const std::vector<Tensor> narrow(3, Tensor::Zeros(Shape{1, 2}));
  expect_rejected(server.SubmitAndWait(fix.model.Unfold(3), MakeChainExternals(narrow, 4),
                                       {ValueRef::Output(2, 0)}));
  const std::vector<Tensor> ints(3, Tensor::Zeros(Shape{1, 4}, DType::kI32));
  expect_rejected(server.SubmitAndWait(fix.model.Unfold(3), MakeChainExternals(ints, 4),
                                       {ValueRef::Output(2, 0)}));
  const std::vector<Tensor> two_rows(1, Tensor::Zeros(Shape{2, 4}));
  expect_rejected(server.SubmitAndWait(fix.model.Unfold(1), MakeChainExternals(two_rows, 4),
                                       {ValueRef::Output(0, 0)}));
  const std::vector<Tensor> unbatched(1, Tensor::Zeros(Shape{4}));
  expect_rejected(server.SubmitAndWait(fix.model.Unfold(1), MakeChainExternals(unbatched, 4),
                                       {ValueRef::Output(0, 0)}));
  std::vector<Tensor> bad_state = MakeChainExternals(xs, 4);
  bad_state.back() = Tensor::Zeros(Shape{1, 3});  // c0 one column short
  expect_rejected(server.SubmitAndWait(fix.model.Unfold(1), std::move(bad_state),
                                       {ValueRef::Output(0, 0)}));

  // The server survived all of it and still serves valid requests.
  const Response ok = server.SubmitAndWait(fix.model.Unfold(1), MakeChainExternals(xs, 4),
                                           {ValueRef::Output(0, 0)});
  server.Shutdown();
  ASSERT_TRUE(ok.ok());
  ASSERT_EQ(ok.outputs.size(), 1u);
  EXPECT_EQ(server.metrics().NumCompleted(), 1u);
  EXPECT_EQ(server.metrics().NumRejected(), rejected);
}

// --- Admission control -----------------------------------------------------

TEST(RobustnessTest, AdmissionCapRejectsWhenFull) {
  TinyLstmFixture fix;
  ServerOptions options;
  options.admission.max_queued_requests = 1;
  Server server(&fix.registry, options);
  server.Start();
  Rng data_rng(32);
  std::vector<Tensor> xs = {Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng)};

  // Request 1's callback blocks the manager until released, pinning
  // unfinished_requests_ at the cap (the count only drops after the
  // terminal callback returns).
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> first_status{-1};
  server.Submit(fix.model.Unfold(1), MakeChainExternals(xs, 4), {ValueRef::Output(0, 0)},
                [&, released](RequestId, RequestStatus status, std::vector<Tensor>) {
                  first_status.store(static_cast<int>(status));
                  released.wait();
                });

  // The server is at capacity: the second submission is rejected
  // synchronously, never enqueued.
  const Response second = server.SubmitAndWait(fix.model.Unfold(1),
                                               MakeChainExternals(xs, 4),
                                               {ValueRef::Output(0, 0)});
  EXPECT_EQ(second.status, RequestStatus::kRejected);
  EXPECT_EQ(server.metrics().NumRejected(), 1u);

  release.set_value();
  // Once request 1 fully retires, admission reopens. The retirement races
  // with this thread, so retry until a slot frees up.
  Response third;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    third = server.SubmitAndWait(fix.model.Unfold(1), MakeChainExternals(xs, 4),
                                 {ValueRef::Output(0, 0)});
    if (third.ok()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Shutdown();
  EXPECT_EQ(first_status.load(), static_cast<int>(RequestStatus::kOk));
  EXPECT_TRUE(third.ok());
  EXPECT_EQ(server.metrics().NumCompleted(), 2u);
}

// --- Deadline-based load shedding ------------------------------------------

TEST(RobustnessTest, ExpiredDeadlinesShedQueuedRequests) {
  // One slow worker, drain-then-refill streams: request A's chain keeps the
  // worker busy for many task-times, so requests B1..B5 — submitted with a
  // deadline far shorter than the worker's backlog — expire in the queue
  // before the scheduler can ever touch them.
  constexpr int64_t kHidden = 512;
  constexpr int kChainLen = 12;
  CellRegistry registry;
  Rng weight_rng(33);
  LstmModel model(&registry, LstmSpec{.input_dim = kHidden, .hidden = kHidden},
                  &weight_rng);
  ServerOptions options;
  options.num_workers = 1;
  options.threads_per_worker = 1;
  options.pipeline_depth = 1;
  Server server(&registry, options);
  server.Start();
  Rng data_rng(34);

  std::vector<Tensor> xs_a;
  for (int t = 0; t < kChainLen; ++t) {
    xs_a.push_back(Tensor::RandomUniform(Shape{1, kHidden}, 1.0f, &data_rng));
  }
  std::atomic<int> a_status{-1};
  server.Submit(model.Unfold(kChainLen), MakeChainExternals(xs_a, kHidden),
                {ValueRef::Output(kChainLen - 1, 0)},
                [&](RequestId, RequestStatus status, std::vector<Tensor>) {
                  a_status.store(static_cast<int>(status));
                });
  // Wait until A is on the worker: at least one of its tasks executed, so
  // several more (scheduled into the same stream) still lie ahead.
  const auto poll_start = std::chrono::steady_clock::now();
  while (server.TasksExecuted() < 1) {
    ASSERT_LT(std::chrono::steady_clock::now() - poll_start, std::chrono::seconds(10))
        << "request A never started executing";
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  // Each B would need the worker within 100us; the worker is busy with A's
  // remaining tasks for far longer than that.
  constexpr int kShedCandidates = 5;
  std::atomic<int> shed{0};
  std::atomic<int> b_callbacks{0};
  for (int i = 0; i < kShedCandidates; ++i) {
    std::vector<Tensor> xs = {Tensor::RandomUniform(Shape{1, kHidden}, 1.0f, &data_rng)};
    server.Submit(model.Unfold(1), MakeChainExternals(xs, kHidden),
                  {ValueRef::Output(0, 0)},
                  [&](RequestId, RequestStatus status, std::vector<Tensor> outputs) {
                    b_callbacks.fetch_add(1);
                    if (status == RequestStatus::kShed) {
                      EXPECT_TRUE(outputs.empty());
                      shed.fetch_add(1);
                    }
                  },
                  SubmitOptions{.deadline_micros = 100.0});
  }
  server.Shutdown();

  EXPECT_EQ(a_status.load(), static_cast<int>(RequestStatus::kOk));
  EXPECT_EQ(b_callbacks.load(), kShedCandidates);
  EXPECT_EQ(shed.load(), kShedCandidates);
  EXPECT_EQ(server.metrics().NumDropped(), static_cast<size_t>(kShedCandidates));
  EXPECT_EQ(server.metrics().NumCompleted(), 1u);
}

TEST(RobustnessTest, CompletedRequestDeadlinesArePrunedNotReFired) {
  // Regression (stale deadline-heap entries): a request that completes
  // before its deadline used to leave its heap entry behind; the manager
  // would then compute wake-ups from a dead heap top and could try to shed
  // the id again. Every completed request's entry must be lazily pruned:
  // after the fleet drains, the heap is empty and nothing was dropped.
  TinyLstmFixture fix;
  Server server(&fix.registry);
  server.Start();
  Rng data_rng(41);
  for (int i = 0; i < 16; ++i) {
    std::vector<Tensor> xs = {Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng)};
    const Response res = server.SubmitAndWait(
        fix.model.Unfold(1), MakeChainExternals(xs, 4), {ValueRef::Output(0, 0)},
        SubmitOptions{.deadline_micros = 200000.0});
    ASSERT_TRUE(res.ok()) << "request " << i;
  }
  server.Shutdown();
  EXPECT_EQ(server.metrics().NumCompleted(), 16u);
  EXPECT_EQ(server.metrics().NumDropped(), 0u);
  // The lazy prune popped every terminal entry: no stale deadline remains
  // to wake the manager.
  EXPECT_EQ(server.PendingDeadlines(), 0u);
}

TEST(RobustnessTest, QueueTimeoutAndSlaDeadlineStayDistinctTighterWins) {
  // The engine-wide queue timeout and the per-request SLA deadline are
  // separate knobs; shedding fires on whichever is tighter. Here the queue
  // timeout (100us) is far tighter than the generous SLA (10s): queued
  // requests must shed at the timeout, not coast on the big deadline. A
  // request that opts out entirely (negative deadline) must never shed,
  // even with the engine-wide timeout set.
  constexpr int64_t kHidden = 512;
  constexpr int kChainLen = 12;
  CellRegistry registry;
  Rng weight_rng(42);
  LstmModel model(&registry, LstmSpec{.input_dim = kHidden, .hidden = kHidden},
                  &weight_rng);
  ServerOptions options;
  options.num_workers = 1;
  options.threads_per_worker = 1;
  options.pipeline_depth = 1;
  options.admission.queue_timeout_micros = 100.0;
  Server server(&registry, options);
  server.Start();
  Rng data_rng(43);

  // Request A keeps the single worker busy for many task-times. It opts
  // out of shedding (negative deadline beats the engine timeout).
  std::vector<Tensor> xs_a;
  for (int t = 0; t < kChainLen; ++t) {
    xs_a.push_back(Tensor::RandomUniform(Shape{1, kHidden}, 1.0f, &data_rng));
  }
  std::atomic<int> a_status{-1};
  server.Submit(model.Unfold(kChainLen), MakeChainExternals(xs_a, kHidden),
                {ValueRef::Output(kChainLen - 1, 0)},
                [&](RequestId, RequestStatus status, std::vector<Tensor>) {
                  a_status.store(static_cast<int>(status));
                },
                SubmitOptions{.deadline_micros = -1.0});
  const auto poll_start = std::chrono::steady_clock::now();
  while (server.TasksExecuted() < 1) {
    ASSERT_LT(std::chrono::steady_clock::now() - poll_start, std::chrono::seconds(10))
        << "request A never started executing";
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  // Each B carries a 10-second SLA — but the 100us queue timeout is
  // tighter, and the worker is busy far longer than that.
  constexpr int kShedCandidates = 5;
  std::atomic<int> shed{0};
  std::atomic<int> b_callbacks{0};
  for (int i = 0; i < kShedCandidates; ++i) {
    std::vector<Tensor> xs = {Tensor::RandomUniform(Shape{1, kHidden}, 1.0f, &data_rng)};
    server.Submit(model.Unfold(1), MakeChainExternals(xs, kHidden),
                  {ValueRef::Output(0, 0)},
                  [&](RequestId, RequestStatus status, std::vector<Tensor>) {
                    b_callbacks.fetch_add(1);
                    if (status == RequestStatus::kShed) {
                      shed.fetch_add(1);
                    }
                  },
                  SubmitOptions{.deadline_micros = 10e6});
  }
  server.Shutdown();

  // A was never shed despite blowing through the queue timeout: the
  // negative deadline opted it out. Every B shed at the timeout despite
  // its 10-second SLA: tighter wins.
  EXPECT_EQ(a_status.load(), static_cast<int>(RequestStatus::kOk));
  EXPECT_EQ(b_callbacks.load(), kShedCandidates);
  EXPECT_EQ(shed.load(), kShedCandidates);
  EXPECT_EQ(server.metrics().NumDropped(), static_cast<size_t>(kShedCandidates));
  EXPECT_EQ(server.metrics().NumCompleted(), 1u);
  EXPECT_EQ(server.PendingDeadlines(), 0u);
}

// --- Fault injection -------------------------------------------------------

TEST(RobustnessTest, InjectedFaultKillsVictimOnlyInnocentsBitwiseIdentical) {
  constexpr int64_t kHidden = 4;
  const std::vector<int> lengths = {3, 5, 2, 4};
  TinyLstmFixture fix;
  const auto requests = MakeChainRequests(lengths, kHidden, /*seed=*/35);
  const auto reference = ReferenceOutputs(&fix.registry, fix.model, requests, kHidden);

  ServerOptions options;
  options.num_workers = 2;
  options.fault.fail_task_id = 0;  // the first task formed always fails
  Server server(&fix.registry, options);
  server.Start();

  std::mutex mu;
  std::map<RequestId, RequestStatus> statuses;
  std::map<RequestId, std::vector<Tensor>> outputs;
  std::vector<RequestId> ids;
  for (const ChainRequest& r : requests) {
    const RequestId id = server.Submit(
        fix.model.Unfold(r.length), MakeChainExternals(r.xs, kHidden),
        {ValueRef::Output(r.length - 1, 0)},
        [&](RequestId rid, RequestStatus status, std::vector<Tensor> out) {
          std::lock_guard<std::mutex> lock(mu);
          ASSERT_EQ(statuses.count(rid), 0u) << "second terminal callback";
          statuses[rid] = status;
          outputs[rid] = std::move(out);
        });
    ids.push_back(id);
  }
  server.Shutdown();

  ASSERT_EQ(statuses.size(), ids.size());
  EXPECT_EQ(server.TasksFailed(), 1);
  int failed = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    const RequestStatus status = statuses.at(ids[i]);
    if (status == RequestStatus::kFailed) {
      ++failed;
      EXPECT_TRUE(outputs.at(ids[i]).empty());
      continue;
    }
    // Innocent co-batched requests were re-queued and completed with
    // outputs bitwise identical to a fault-free serial run.
    ASSERT_EQ(status, RequestStatus::kOk) << "request " << i;
    ASSERT_EQ(outputs.at(ids[i]).size(), 1u);
    EXPECT_TRUE(outputs.at(ids[i])[0].ElementsEqual(reference[i])) << "request " << i;
  }
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(server.metrics().NumFailed(), 1u);
  EXPECT_EQ(server.metrics().NumCompleted(), ids.size() - 1);
}

TEST(RobustnessTest, FaultRateEveryRequestGetsExactlyOneStatus) {
  constexpr int64_t kHidden = 4;
  std::vector<int> lengths;
  for (int i = 0; i < 24; ++i) {
    lengths.push_back(1 + (i * 7) % 6);
  }
  TinyLstmFixture fix;
  const auto requests = MakeChainRequests(lengths, kHidden, /*seed=*/36);
  const auto reference = ReferenceOutputs(&fix.registry, fix.model, requests, kHidden);

  ServerOptions options;
  options.num_workers = 2;
  options.pipeline_depth = 2;
  options.fault.fail_rate = 0.2;
  options.fault.fail_task_id = 0;  // guarantee at least one fault fires
  options.fault.seed = 123;
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
      EXPECT_TRUE(outputs.at(ids[i]).empty());
    }
  }
  EXPECT_EQ(ok + failed, ids.size());
  EXPECT_EQ(server.metrics().NumCompleted(), ok);
  EXPECT_EQ(server.metrics().NumFailed(), failed);
}

// --- Cancellation under pipelined streams ----------------------------------

TEST(RobustnessTest, CancelUnderPipelinedStreamsSurvivorsBitwiseIdentical) {
  constexpr int64_t kHidden = 16;
  constexpr int kRequests = 8;
  std::vector<int> lengths;
  for (int i = 0; i < kRequests; ++i) {
    lengths.push_back(8 + i);
  }

  for (const int depth : {2, 4}) {
    CellRegistry registry;
    Rng weight_rng(37);
    LstmModel model(&registry, LstmSpec{.input_dim = kHidden, .hidden = kHidden},
                    &weight_rng);
    const auto requests = MakeChainRequests(lengths, kHidden, /*seed=*/38);
    const auto reference = ReferenceOutputs(&registry, model, requests, kHidden);

    ServerOptions options;
    options.num_workers = 2;
    options.pipeline_depth = depth;
    Server server(&registry, options);
    server.Start();

    std::mutex mu;
    std::map<RequestId, int> callback_counts;
    std::map<RequestId, RequestStatus> statuses;
    std::map<RequestId, std::vector<Tensor>> outputs;
    std::vector<RequestId> ids;
    for (const ChainRequest& r : requests) {
      ids.push_back(server.Submit(
          model.Unfold(r.length), MakeChainExternals(r.xs, kHidden),
          {ValueRef::Output(r.length - 1, 0)},
          [&](RequestId rid, RequestStatus status, std::vector<Tensor> out) {
            std::lock_guard<std::mutex> lock(mu);
            callback_counts[rid]++;
            statuses[rid] = status;
            outputs[rid] = std::move(out);
          }));
    }
    // Cancel every odd request while its tasks may be anywhere in the
    // pipeline: queued, staging, executing, or already done.
    for (size_t i = 1; i < ids.size(); i += 2) {
      server.Cancel(ids[i]);
    }
    server.Shutdown();  // must not hang, whatever the cancels hit

    ASSERT_EQ(callback_counts.size(), ids.size()) << "depth " << depth;
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(callback_counts.at(ids[i]), 1) << "depth " << depth << " request " << i;
      const RequestStatus status = statuses.at(ids[i]);
      if (i % 2 == 1) {
        // A cancel either lands (kCancelled) or loses the race to normal
        // completion (kOk) — never anything else, never a second callback.
        EXPECT_TRUE(status == RequestStatus::kCancelled || status == RequestStatus::kOk)
            << "depth " << depth << " request " << i;
      } else {
        ASSERT_EQ(status, RequestStatus::kOk) << "depth " << depth << " request " << i;
      }
      if (status == RequestStatus::kOk && !outputs.at(ids[i]).empty()) {
        // Survivors (and cancel-losers) are bitwise identical to the
        // serial reference: cancellation never double-scatters or corrupts
        // co-batched rows.
        EXPECT_TRUE(outputs.at(ids[i])[0].ElementsEqual(reference[i]))
            << "depth " << depth << " request " << i;
      }
    }
  }
}

// --- Concurrent stress: everything at once ---------------------------------

// Submissions (valid and invalid), per-request deadlines, fault injection,
// scattered cancels, and a racing Shutdown. The one invariant: every Submit
// observes exactly one terminal callback. Run under TSan in CI.
TEST(RobustnessTest, ConcurrentStressExactlyOneTerminalCallbackPerRequest) {
  constexpr int kSubmitters = 3;
  constexpr int kPerThread = 60;
  TinyLstmFixture fix;
  ServerOptions options;
  options.num_workers = 2;
  options.pipeline_depth = 2;
  options.fault.fail_rate = 0.05;
  options.fault.seed = 39;
  options.admission.queue_timeout_micros = 50000.0;  // 50ms: rarely fires, but armed
  Server server(&fix.registry, options);
  server.Start();

  std::mutex mu;
  std::map<RequestId, int> callback_counts;
  std::map<RequestId, RequestStatus> statuses;
  std::atomic<int> submitted{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(100 + t));
      std::vector<RequestId> my_ids;
      for (int i = 0; i < kPerThread; ++i) {
        const int len = 1 + (i % 4);
        std::vector<Tensor> externals;
        if (i % 7 == 3) {
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
            SubmitOptions{.deadline_micros = deadline});
        my_ids.push_back(id);
        if (i % 11 == 10) {
          // Cancel a random earlier request from this thread.
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
}

}  // namespace
}  // namespace batchmaker
