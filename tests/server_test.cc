// Tests for the real-time threaded Server: correctness of concurrent
// batched execution against sequential references, callback semantics, and
// early return of short requests.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "src/core/server.h"
#include "src/graph/executor.h"
#include "tests/test_models.h"

namespace batchmaker {
namespace {

std::vector<Tensor> MakeChainExternals(const std::vector<Tensor>& xs, int64_t hidden) {
  std::vector<Tensor> ext = xs;
  ext.push_back(ExternalZeroVecTensor(hidden));
  ext.push_back(ExternalZeroVecTensor(hidden));
  return ext;
}

std::pair<Tensor, Tensor> ReferenceChain(const CellRegistry& registry, CellTypeId type,
                                         const std::vector<Tensor>& xs, int64_t hidden) {
  const CellExecutor& exec = registry.executor(type);
  Tensor h = Tensor::Zeros(Shape{1, hidden});
  Tensor c = Tensor::Zeros(Shape{1, hidden});
  for (const Tensor& x : xs) {
    auto out = exec.Execute({&x, &h, &c});
    h = std::move(out[0]);
    c = std::move(out[1]);
  }
  return {h, c};
}

TEST(ServerTest, SubmitAndWaitMatchesReference) {
  TinyLstmFixture fix;
  Server server(&fix.registry);
  server.Start();

  Rng data_rng(1);
  std::vector<Tensor> xs;
  for (int t = 0; t < 5; ++t) {
    xs.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng));
  }
  const Response res = server.SubmitAndWait(fix.model.Unfold(5), MakeChainExternals(xs, 4),
                                            {ValueRef::Output(4, 0)});
  server.Shutdown();

  const auto [ref_h, ref_c] = ReferenceChain(fix.registry, fix.model.cell_type(), xs, 4);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.outputs.size(), 1u);
  EXPECT_TRUE(res.outputs[0].AllClose(ref_h, 1e-5f));
}

TEST(ServerTest, ConcurrentSubmissionsAllCorrect) {
  TinyLstmFixture fix;
  ServerOptions options;
  options.num_workers = 2;
  Server server(&fix.registry, options);
  server.Start();

  constexpr int kRequests = 24;
  std::vector<std::vector<Tensor>> inputs(kRequests);
  std::vector<std::future<std::vector<Tensor>>> futures;
  std::vector<std::promise<std::vector<Tensor>>> promises(kRequests);

  Rng data_rng(2);
  std::vector<int> lengths;
  for (int i = 0; i < kRequests; ++i) {
    const int len = 1 + static_cast<int>(data_rng.NextBelow(7));
    lengths.push_back(len);
    for (int t = 0; t < len; ++t) {
      inputs[static_cast<size_t>(i)].push_back(
          Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng));
    }
  }
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(promises[static_cast<size_t>(i)].get_future());
    auto* promise = &promises[static_cast<size_t>(i)];
    server.Submit(fix.model.Unfold(lengths[static_cast<size_t>(i)]),
                  MakeChainExternals(inputs[static_cast<size_t>(i)], 4),
                  {ValueRef::Output(lengths[static_cast<size_t>(i)] - 1, 0),
                   ValueRef::Output(lengths[static_cast<size_t>(i)] - 1, 1)},
                  [promise](RequestId, RequestStatus, std::vector<Tensor> outputs) {
                    promise->set_value(std::move(outputs));
                  });
  }
  for (int i = 0; i < kRequests; ++i) {
    const auto outputs = futures[static_cast<size_t>(i)].get();
    const auto [ref_h, ref_c] = ReferenceChain(fix.registry, fix.model.cell_type(),
                                               inputs[static_cast<size_t>(i)], 4);
    ASSERT_EQ(outputs.size(), 2u);
    EXPECT_TRUE(outputs[0].AllClose(ref_h, 1e-5f)) << "request " << i;
    EXPECT_TRUE(outputs[1].AllClose(ref_c, 1e-5f)) << "request " << i;
  }
  server.Shutdown();
  EXPECT_EQ(server.metrics().NumCompleted(), static_cast<size_t>(kRequests));
}

TEST(ServerTest, BatchesConcurrentRequests) {
  TinyLstmFixture fix;
  Server server(&fix.registry);
  server.Start();

  // Many same-length requests submitted at once: the server must batch
  // them (far fewer tasks than total cells).
  constexpr int kRequests = 16;
  constexpr int kLen = 6;
  Rng data_rng(3);
  std::vector<std::future<std::vector<Tensor>>> futures;
  std::vector<std::promise<std::vector<Tensor>>> promises(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    std::vector<Tensor> xs;
    for (int t = 0; t < kLen; ++t) {
      xs.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng));
    }
    futures.push_back(promises[static_cast<size_t>(i)].get_future());
    auto* promise = &promises[static_cast<size_t>(i)];
    server.Submit(fix.model.Unfold(kLen), MakeChainExternals(xs, 4),
                  {ValueRef::Output(kLen - 1, 0)},
                  [promise](RequestId, RequestStatus, std::vector<Tensor> outputs) {
                    promise->set_value(std::move(outputs));
                  });
  }
  for (auto& f : futures) {
    f.get();
  }
  server.Shutdown();
  // Perfect batching would be kLen tasks; allow slack for requests that
  // raced ahead before others were admitted.
  EXPECT_LT(server.TasksExecuted(), static_cast<int64_t>(kRequests) * kLen / 2);
}

TEST(ServerTest, TreeLstmRequestsServe) {
  TinyTreeLstmFixture fix;
  ServerOptions options;
  options.num_workers = 2;
  Server server(&fix.registry, options);
  server.Start();

  Rng rng(4);
  const CellExecutor& leaf_exec = fix.registry.executor(fix.model.leaf_type());
  const CellExecutor& internal_exec = fix.registry.executor(fix.model.internal_type());

  for (int iter = 0; iter < 8; ++iter) {
    const BinaryTree tree = BinaryTree::RandomParse(3 + static_cast<int>(rng.NextBelow(10)),
                                                    32, &rng);
    const CellGraph graph = fix.model.Unfold(tree);
    std::vector<Tensor> externals;
    for (const auto& n : tree.nodes) {
      if (n.is_leaf()) {
        externals.push_back(ExternalTokenTensor(n.token));
      }
    }
    const Response res =
        server.SubmitAndWait(CellGraph(graph), std::move(externals),
                             {ValueRef::Output(graph.NumNodes() - 1, 0)});

    // Recursive reference.
    std::function<std::pair<Tensor, Tensor>(int)> eval = [&](int id) {
      const auto& n = tree.nodes[static_cast<size_t>(id)];
      if (n.is_leaf()) {
        const Tensor token = ExternalTokenTensor(n.token);
        auto out = leaf_exec.Execute({&token});
        return std::make_pair(out[0], out[1]);
      }
      const auto [hl, cl] = eval(n.left);
      const auto [hr, cr] = eval(n.right);
      auto out = internal_exec.Execute({&hl, &cl, &hr, &cr});
      return std::make_pair(out[0], out[1]);
    };
    const auto [ref_h, ref_c] = eval(tree.root);
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res.outputs[0].AllClose(ref_h, 1e-5f)) << "iteration " << iter;
  }
  server.Shutdown();
}

TEST(ServerTest, ShortRequestReturnsBeforeLongOne) {
  TinyLstmFixture fix;
  Server server(&fix.registry);
  server.Start();

  Rng data_rng(5);
  std::atomic<bool> short_done{false};
  std::atomic<bool> long_done_after_short{false};
  std::promise<void> both_done;
  std::atomic<int> remaining{2};

  auto make_xs = [&data_rng](int len) {
    std::vector<Tensor> xs;
    for (int t = 0; t < len; ++t) {
      xs.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng));
    }
    return xs;
  };

  server.Submit(fix.model.Unfold(40), MakeChainExternals(make_xs(40), 4),
                {ValueRef::Output(39, 0)}, [&](RequestId, RequestStatus, std::vector<Tensor>) {
                  long_done_after_short.store(short_done.load());
                  if (remaining.fetch_sub(1) == 1) {
                    both_done.set_value();
                  }
                });
  server.Submit(fix.model.Unfold(2), MakeChainExternals(make_xs(2), 4),
                {ValueRef::Output(1, 0)}, [&](RequestId, RequestStatus, std::vector<Tensor>) {
                  short_done.store(true);
                  if (remaining.fetch_sub(1) == 1) {
                    both_done.set_value();
                  }
                });
  both_done.get_future().wait();
  server.Shutdown();
  // The length-2 request must complete before the length-40 one even
  // though they execute batched together.
  EXPECT_TRUE(long_done_after_short.load());
}

TEST(ServerTest, MetricsRecordEveryRequest) {
  TinyLstmFixture fix;
  Server server(&fix.registry);
  server.Start();
  Rng data_rng(6);
  for (int i = 0; i < 5; ++i) {
    std::vector<Tensor> xs;
    xs.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng));
    server.SubmitAndWait(fix.model.Unfold(1), MakeChainExternals(xs, 4),
                         {ValueRef::Output(0, 0)});
  }
  server.Shutdown();
  EXPECT_EQ(server.metrics().NumCompleted(), 5u);
  for (const auto& r : server.metrics().records()) {
    EXPECT_GE(r.exec_start_micros, r.arrival_micros);
    EXPECT_GE(r.completion_micros, r.exec_start_micros);
  }
}

TEST(ServerTest, ShutdownWithoutWorkIsClean) {
  TinyLstmFixture fix;
  Server server(&fix.registry);
  server.Start();
  server.Shutdown();
  server.Shutdown();  // second call is a no-op
  EXPECT_EQ(server.metrics().NumCompleted(), 0u);
}

TEST(ServerTest, Seq2SeqEndToEnd) {
  TinySeq2SeqFixture fix;
  Server server(&fix.registry);
  server.Start();
  const CellGraph graph = fix.model.Unfold(3, 3);
  std::vector<Tensor> externals;
  for (int32_t tok : {4, 7, 2}) {
    externals.push_back(ExternalTokenTensor(tok));
  }
  externals.push_back(ExternalTokenTensor(0));
  externals.push_back(ExternalZeroVecTensor(4));
  externals.push_back(ExternalZeroVecTensor(4));
  const Response res = server.SubmitAndWait(CellGraph(graph), std::move(externals),
                                            {ValueRef::Output(5, 2)});
  server.Shutdown();
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.outputs.size(), 1u);
  EXPECT_EQ(res.outputs[0].dtype(), DType::kI32);
  EXPECT_GE(res.outputs[0].IntAt(0, 0), 0);
  EXPECT_LT(res.outputs[0].IntAt(0, 0), 32);
}

TEST(ServerTest, SubmitAndWaitAfterShutdownIsRejected) {
  TinyLstmFixture fix;
  Server server(&fix.registry);
  server.Start();
  server.Shutdown();
  Rng data_rng(7);
  std::vector<Tensor> xs = {Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng)};
  const Response res = server.SubmitAndWait(fix.model.Unfold(1), MakeChainExternals(xs, 4),
                                            {ValueRef::Output(0, 0)});
  // Rejection (raced/after Shutdown) is a kRejected terminal answer —
  // distinguishable from a legitimate response with no tensors.
  EXPECT_EQ(res.status, RequestStatus::kRejected);
  EXPECT_TRUE(res.outputs.empty());
  EXPECT_EQ(server.metrics().NumRejected(), 1u);
}

TEST(ServerTest, SubmitAndWaitEmptyOutputSetIsEngaged) {
  TinyLstmFixture fix;
  Server server(&fix.registry);
  server.Start();
  Rng data_rng(8);
  std::vector<Tensor> xs = {Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng)};
  // No outputs wanted: the request still executes and responds kOk with an
  // empty tensor vector, not a rejection.
  const Response res =
      server.SubmitAndWait(fix.model.Unfold(1), MakeChainExternals(xs, 4), {});
  server.Shutdown();
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.outputs.empty());
  EXPECT_EQ(server.metrics().NumCompleted(), 1u);
}

TEST(ServerTest, PipelinedStreamsMatchReferenceUnderLoad) {
  // Depth-4 streams on two workers with multi-threaded intra-task pools:
  // each worker has several tasks queued while its exec thread gathers,
  // executes and scatters, so this doubles as the TSan stress for the
  // stream protocol. Results must still match the sequential reference
  // exactly per request.
  TinyLstmFixture fix;
  ServerOptions options;
  options.num_workers = 2;
  options.threads_per_worker = 2;
  options.pipeline_depth = 4;
  Server server(&fix.registry, options);
  server.Start();

  constexpr int kRequests = 32;
  Rng data_rng(9);
  std::vector<std::vector<Tensor>> inputs(kRequests);
  std::vector<int> lengths;
  std::vector<std::promise<std::vector<Tensor>>> promises(kRequests);
  std::vector<std::future<std::vector<Tensor>>> futures;
  for (int i = 0; i < kRequests; ++i) {
    const int len = 1 + static_cast<int>(data_rng.NextBelow(9));
    lengths.push_back(len);
    for (int t = 0; t < len; ++t) {
      inputs[static_cast<size_t>(i)].push_back(
          Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng));
    }
  }
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(promises[static_cast<size_t>(i)].get_future());
    auto* promise = &promises[static_cast<size_t>(i)];
    server.Submit(fix.model.Unfold(lengths[static_cast<size_t>(i)]),
                  MakeChainExternals(inputs[static_cast<size_t>(i)], 4),
                  {ValueRef::Output(lengths[static_cast<size_t>(i)] - 1, 0)},
                  [promise](RequestId, RequestStatus, std::vector<Tensor> outputs) {
                    promise->set_value(std::move(outputs));
                  });
  }
  for (int i = 0; i < kRequests; ++i) {
    const auto outputs = futures[static_cast<size_t>(i)].get();
    const auto [ref_h, ref_c] = ReferenceChain(fix.registry, fix.model.cell_type(),
                                               inputs[static_cast<size_t>(i)], 4);
    ASSERT_EQ(outputs.size(), 1u);
    EXPECT_TRUE(outputs[0].AllClose(ref_h, 1e-5f)) << "request " << i;
  }
  server.Shutdown();
  EXPECT_EQ(server.metrics().NumCompleted(), static_cast<size_t>(kRequests));
}

TEST(ServerTest, WorkerIdleMetricAccumulates) {
  TinyLstmFixture fix;
  ServerOptions options;
  options.num_workers = 2;
  Server server(&fix.registry, options);
  server.Start();
  Rng data_rng(10);
  std::vector<Tensor> xs = {Tensor::RandomUniform(Shape{1, 4}, 1.0f, &data_rng)};
  server.SubmitAndWait(fix.model.Unfold(1), MakeChainExternals(xs, 4),
                       {ValueRef::Output(0, 0)});
  server.Shutdown();
  // Both exec threads spent time waiting for work (at minimum the gap
  // between Start and the first task / shutdown), and the total is the sum
  // of the per-worker figures.
  EXPECT_GT(server.TotalWorkerIdleMicros(), 0.0);
  double sum = 0.0;
  for (int w = 0; w < options.num_workers; ++w) {
    EXPECT_GE(server.WorkerIdleMicros(w), 0.0);
    sum += server.WorkerIdleMicros(w);
  }
  EXPECT_DOUBLE_EQ(sum, server.TotalWorkerIdleMicros());
}

TEST(ServerTest, SubmitRacingShutdownNeverLosesRequests) {
  // Stress the Submit/Shutdown race: submitter threads hammer Submit while
  // the main thread shuts the server down. Every submission gets exactly
  // one terminal callback: kOk before Shutdown() returns for accepted
  // requests, kRejected synchronously for ones that lost the race (which
  // used to wedge the drain with unfinished_requests_ stuck > 0).
  for (int round = 0; round < 5; ++round) {
    TinyLstmFixture fix;
    ServerOptions options;
    options.num_workers = 2;
    Server server(&fix.registry, options);
    server.Start();

    constexpr int kSubmitters = 4;
    constexpr int kMaxPerThread = 400;
    std::atomic<int> submitted{0};
    std::atomic<int> completed{0};
    std::atomic<int> rejected{0};
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        Rng rng(100 + t);
        for (int i = 0; i < kMaxPerThread; ++i) {
          std::vector<Tensor> xs = {Tensor::RandomUniform(Shape{1, 4}, 1.0f, &rng)};
          submitted.fetch_add(1);
          server.Submit(fix.model.Unfold(1), MakeChainExternals(xs, 4),
                        {ValueRef::Output(0, 0)},
                        [&](RequestId, RequestStatus status, std::vector<Tensor>) {
                          if (status == RequestStatus::kRejected) {
                            rejected.fetch_add(1);
                          } else {
                            EXPECT_EQ(status, RequestStatus::kOk);
                            completed.fetch_add(1);
                          }
                        });
          if (rejected.load() > 0) {
            return;  // the server is shutting down; stop submitting
          }
        }
      });
    }
    // Let the submitters race the shutdown for a moment.
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + round));
    server.Shutdown();
    for (std::thread& t : submitters) {
      t.join();
    }
    // Exactly one terminal answer per submission, and every accepted
    // request completed before Shutdown returned.
    EXPECT_EQ(completed.load() + rejected.load(), submitted.load()) << "round " << round;
    EXPECT_EQ(server.metrics().NumCompleted(), static_cast<size_t>(completed.load()))
        << "round " << round;
    EXPECT_EQ(server.metrics().NumRejected(), static_cast<size_t>(rejected.load()))
        << "round " << round;
  }
}

}  // namespace
}  // namespace batchmaker
