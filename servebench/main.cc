// Serving benchmark: drives the threaded Server through one workload from a
// single generator thread, checks the outputs, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as the last line, one
// JSON object. NOTES.md explains the workloads and the metrics.
//
// Usage: servebench --workload NAME --seed N --seconds S --trace 0|1
//                   [--spans PATH]
//
// A run is a sequence of rounds filling --seconds. Each round builds a
// fresh serving stack (timed as setup), keeps a closed loop of clients
// busy for a fixed number of requests, drains, and compares sampled
// outputs with SyncEngine. Fixed work per round keeps each round's peak
// memory independent of speed. Each end-to-end metric summarizes the
// run's rounds (see Totals); the wall-clock ones are read at one host
// steal share, whatever steal the run met. With --trace 1 the rounds
// alternate untraced and traced; per-layer numbers come from the traced
// ones, and the difference between the two is the trace overhead.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "servebench/bench_math.h"
#include "servebench/probes.h"
#include "servebench/timed_backend.h"
#include "servebench/workload.h"
#include "src/core/metrics.h"
#include "src/core/server.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace servebench {
namespace {

using batchmaker::CellGraph;
using batchmaker::RequestId;
using batchmaker::RequestRecord;
using batchmaker::RequestStatus;
using batchmaker::Rng;
using batchmaker::Server;
using batchmaker::Tensor;
using Clock = std::chrono::steady_clock;

// Distinct requests per run; each send copies one of them.
constexpr int kTemplates = 256;
// Outputs per round compared with SyncEngine.
constexpr int kChecksPerRound = 128;
// Each round leaves this many times its client count of completions out
// of the head of the window, so batches have settled.
constexpr int kWarmupClientRounds = 4;
// Host steal share at which wall-clock metrics are read off the rounds'
// fit (Totals::AtReferenceSteal). It lies inside the range rounds meet,
// so the fit interpolates rather than extrapolates.
constexpr double kReferenceSteal = 0.02;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Mean(const std::vector<double>& v) {
  return Ratio(std::accumulate(v.begin(), v.end(), 0.0), static_cast<double>(v.size()));
}

double StealShare(const HostCpu& begin, const HostCpu& end) {
  return Ratio(static_cast<double>(end.steal - begin.steal),
               static_cast<double>(end.total - begin.total));
}

// Per-request state of one round, shared with the response callbacks
// (which run on the manager thread). Stamps are microseconds since the
// round's origin.
class Tracker {
 public:
  Tracker(int n, Clock::time_point origin)
      : due_us(n), send_us(n), submit_end_us(n), done_us(n), callback_end_us(n),
        status(n, RequestStatus::kOk), ids(n), outputs(n), sampled(n), origin_(origin) {}

  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  void OnResponse(int seq, RequestStatus st, std::vector<Tensor> out) {
    done_us[seq] = Now();
    status[seq] = st;
    if (sampled[seq]) {
      outputs[seq] = std::move(out);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      freed_.push_back(seq);
      if (waiting_) {
        cv_.notify_one();
      }
    }
    callback_end_us[seq] = Now();
  }

  // Generator side: the requests completed since the last call, without
  // blocking.
  std::vector<int> TakeFreed() {
    std::vector<int> out;
    std::lock_guard<std::mutex> lock(mu_);
    out.swap(freed_);
    return out;
  }

  // Generator side: like TakeFreed, but blocks until there is one.
  std::vector<int> WaitFreed() {
    std::vector<int> out;
    std::unique_lock<std::mutex> lock(mu_);
    waiting_ = true;
    cv_.wait(lock, [&] { return !freed_.empty(); });
    waiting_ = false;
    out.swap(freed_);
    return out;
  }

  // When a request was due: when the completion that freed its slot
  // arrived (the first round of clients: their send).
  std::vector<double> due_us;
  std::vector<double> send_us;
  std::vector<double> submit_end_us;
  std::vector<double> done_us;
  std::vector<double> callback_end_us;
  std::vector<RequestStatus> status;
  std::vector<RequestId> ids;
  std::vector<std::vector<Tensor>> outputs;  // sampled requests only
  std::vector<uint8_t> sampled;

 private:
  const Clock::time_point origin_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool waiting_ = false;
  std::vector<int> freed_;
};

// Readings at one edge of a round's measured window.
struct Edge {
  double wall_us = 0.0;
  double process_cpu = 0.0;
  double generator_cpu = 0.0;
  ThreadCpu threads;
  int64_t tasks = 0;
  double idle_us = 0.0;
};

Edge TakeEdge(const Tracker& tracker, const Server& server) {
  Edge e;
  e.wall_us = tracker.Now();
  e.process_cpu = ProcessCpuSeconds();
  e.generator_cpu = ThreadCpuSeconds();
  e.threads = ReadThreadCpu();
  e.tasks = server.TasksExecuted();
  e.idle_us = server.TotalWorkerIdleMicros();
  return e;
}

// The end-to-end values of one round's measured window.
struct RoundValues {
  double steal_share = 0.0;
  double setup_s = 0.0;
  double throughput_rps = 0.0;
  Quantile p50_ms;
  Quantile p99_ms;
  double slo_attainment = 0.0;
  double cpu_ms_per_req = 0.0;
  double peak_rss_mb = 0.0;
  // For the record and the per-layer metrics.
  double lag_ms_p99 = 0.0;
  double queue_ms_p50 = 0.0;
  double compute_ms_p50 = 0.0;
};

// All rounds of one kind (untraced or traced): their end-to-end values,
// and sums and samples pooled over their windows for the record and the
// per-layer metrics.
struct Totals {
  std::vector<RoundValues> rounds;
  double window_s = 0.0;
  int64_t completed = 0;  // kOk completions inside the windows
  int64_t window_sent = 0;
  double generator_cpu = 0.0;
  double process_cpu = 0.0;
  ThreadCpu threads;
  int64_t cells = 0;  // cells of the requests completed inside the windows
  int64_t tasks = 0;
  double idle_us = 0.0;
  double retained_mb = 0.0;
  // Traced rounds only.
  std::vector<double> submit_us;
  std::vector<double> between_us;
  std::vector<double> hop_us;
  double request_us = 0.0;
  double request_self_us = 0.0;
  double span_us[3] = {0.0, 0.0, 0.0};  // by TaskSpan::Kind
  int64_t span_rows[3] = {0, 0, 0};
  std::map<int, std::pair<int64_t, int64_t>> tasks_cells_by_type;

  // The median over the rounds of one per-round value.
  template <typename F>
  double MedianOverRounds(F value) const {
    std::vector<double> v;
    for (const RoundValues& r : rounds) {
      v.push_back(value(r));
    }
    return Median(std::move(v));
  }
  // Wall-clock values are read at kReferenceSteal off a fit of the rounds
  // against their host steal (AtSteal in bench_math.h): a stolen vCPU
  // stalls whichever server thread it runs, how much the host steals
  // varies from run to run, and a spell of steal can cover a whole run.
  template <typename F>
  double AtReferenceSteal(F value) const {
    std::vector<double> steal;
    std::vector<double> v;
    for (const RoundValues& r : rounds) {
      steal.push_back(r.steal_share);
      v.push_back(value(r));
    }
    return AtSteal(steal, v, kReferenceSteal);
  }
  double Throughput() const {
    return AtReferenceSteal([](const RoundValues& r) { return r.throughput_rps; });
  }
  double P50() const {
    return AtReferenceSteal([](const RoundValues& r) { return r.p50_ms.value; });
  }
  double P99() const {
    return AtReferenceSteal([](const RoundValues& r) { return r.p99_ms.value; });
  }
};

struct Run {
  Totals untraced;
  Totals traced;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatched = 0;
  // Spans of the last traced round, written out when the run ends.
  std::vector<TaskSpan> last_spans;
  std::vector<std::pair<RequestId, Interval>> last_submits;
  std::vector<std::pair<RequestId, Interval>> last_callbacks;
};

void RunRound(const WorkloadSpec& spec, const std::vector<RequestTemplate>& templates,
              const Options& opt, int round, bool traced, Run* run) {
  // ---- Inputs of this round, drawn before anything is timed.
  Rng rng(opt.seed * 1000003ULL + static_cast<uint64_t>(round) + 1);
  const int n = spec.round_requests;
  std::vector<int> order(static_cast<size_t>(n));
  for (int& t : order) {
    t = static_cast<int>(rng.NextBelow(templates.size()));
  }
  const auto request = [&](int seq) -> const RequestTemplate& {
    return templates[static_cast<size_t>(order[static_cast<size_t>(seq)])];
  };

  ResetPeakRss();
  const HostCpu host_begin = ReadHostCpu();
  const Clock::time_point origin = Clock::now();
  Tracker tr(n, origin);
  const int stride = std::max(1, n / kChecksPerRound);
  for (int i = stride / 2; i < n; i += stride) {
    tr.sampled[i] = 1;
  }

  // ---- Setup: weights, cell definitions, pre-packed executors, Server.
  std::unique_ptr<SpanLog> log;
  if (traced) {
    log = std::make_unique<SpanLog>(origin);
    RegisterTimedBackend(spec.backend, log.get());
  }
  const double setup_begin_us = tr.Now();
  auto stack = std::make_unique<Stack>(spec, traced ? "timed" : spec.backend);
  Server& server = stack->server;
  const double start_us = tr.Now();
  server.Start();
  const double setup_s = (tr.Now() - setup_begin_us) / 1e6;

  // Inputs are copied from their template ahead of time, while the
  // generator would otherwise wait, so a send is only the Submit call.
  std::deque<std::pair<CellGraph, std::vector<Tensor>>> ready;
  int prepared = 0;
  const auto prepare = [&] {
    const RequestTemplate& r = request(prepared++);
    ready.emplace_back(r.graph, r.externals);
  };
  const auto send = [&](int seq, double due_us) {
    if (ready.empty()) {
      prepare();
    }
    auto [graph, externals] = std::move(ready.front());
    ready.pop_front();
    tr.due_us[seq] = due_us;
    tr.send_us[seq] = tr.Now();
    tr.ids[seq] = server.Submit(std::move(graph), std::move(externals), {request(seq).output},
                                [&tr, seq](RequestId, RequestStatus st, std::vector<Tensor> out) {
                                  tr.OnResponse(seq, st, std::move(out));
                                });
    tr.submit_end_us[seq] = tr.Now();
  };

  // ---- Traffic. Each completion frees a slot that the next request
  // fills. The window runs from the warm-up'th completion to the last
  // send, where the drain starts.
  const int warmup = kWarmupClientRounds * spec.clients;
  BM_CHECK_GT(n, warmup + spec.clients) << "round too short for its window";
  Edge a;
  Edge b;
  int sent = 0;
  for (; sent < spec.clients; ++sent) {
    send(sent, tr.Now());
  }
  int seen = 0;
  while (seen < n) {
    std::vector<int> freed = tr.TakeFreed();
    if (freed.empty()) {
      if (prepared < n && static_cast<int>(ready.size()) < spec.clients) {
        prepare();
        continue;
      }
      freed = tr.WaitFreed();
    }
    for (const int done : freed) {
      if (++seen == warmup) {
        a = TakeEdge(tr, server);
      }
      if (sent < n) {
        send(sent, tr.done_us[done]);
        if (++sent == n) {
          b = TakeEdge(tr, server);
        }
      }
    }
  }
  server.Shutdown();
  const HostCpu host_end = ReadHostCpu();
  const double peak_rss_mb = PeakRssMb();

  // ---- Window arithmetic: throughput and latency over the requests
  // that complete in the window, slo_attainment over those sent in it.
  // There is no latency limit, so a request meets it when it ends kOk.
  Totals& t = traced ? run->traced : run->untraced;
  const double window_s = (b.wall_us - a.wall_us) / 1e6;
  const std::vector<size_t> completed_set = InWindow(tr.done_us, a.wall_us, b.wall_us);
  const std::vector<size_t> sent_set = InWindow(tr.send_us, a.wall_us, b.wall_us);
  int64_t completed = 0;
  std::vector<double> latencies;
  for (const size_t i : completed_set) {
    if (tr.status[i] == RequestStatus::kOk) {
      ++completed;
      t.cells += request(static_cast<int>(i)).cells;
      latencies.push_back((tr.done_us[i] - tr.send_us[i]) / 1e3);
    }
  }
  int64_t met = 0;
  std::vector<double> lags;
  for (const size_t i : sent_set) {
    if (tr.status[i] == RequestStatus::kOk) {
      ++met;
    }
    lags.push_back((tr.send_us[i] - tr.due_us[i]) / 1e3);
  }

  RoundValues v;
  v.steal_share = StealShare(host_begin, host_end);
  v.setup_s = setup_s;
  v.throughput_rps = Ratio(static_cast<double>(completed), window_s);
  v.p50_ms = PercentileOf(latencies, 50);
  v.p99_ms = PercentileOf(latencies, 99);
  v.slo_attainment = Ratio(static_cast<double>(met), static_cast<double>(sent_set.size()));
  v.cpu_ms_per_req =
      Ratio((b.process_cpu - a.process_cpu) * 1e3, static_cast<double>(completed));
  v.peak_rss_mb = peak_rss_mb;
  v.lag_ms_p99 = PercentileOf(std::move(lags), 99).value;
  // Server-side stages, from its own records (microseconds since Start).
  const double server_a = a.wall_us - start_us;
  const double server_b = b.wall_us - start_us;
  v.queue_ms_p50 =
      PercentileOf(server.metrics().QueueingTimes(server_a, server_b).raw(), 50).value / 1e3;
  v.compute_ms_p50 =
      PercentileOf(server.metrics().ComputeTimes(server_a, server_b).raw(), 50).value / 1e3;
  t.rounds.push_back(v);
  std::printf(
      "servebench: round=%d traced=%d host.steal_share=%.4f setup_s=%.5f window_s=%.3f "
      "throughput_rps=%.1f latency_p50_ms=%.3f latency_p99_ms=%.3f samples=%zu%s "
      "slo_attainment=%.4f cpu_ms_per_req=%.4f peak_rss_mb=%.2f\n",
      round, traced ? 1 : 0, v.steal_share, v.setup_s, window_s, v.throughput_rps,
      v.p50_ms.value, v.p99_ms.value, v.p99_ms.samples,
      TailSupported(v.p99_ms.samples, 99) ? "" : " (fewer than 10 beyond p99)",
      v.slo_attainment, v.cpu_ms_per_req, v.peak_rss_mb);

  t.window_s += window_s;
  t.completed += completed;
  t.window_sent += static_cast<int64_t>(sent_set.size());
  t.generator_cpu += b.generator_cpu - a.generator_cpu;
  t.process_cpu += b.process_cpu - a.process_cpu;
  const ThreadCpu threads = b.threads - a.threads;
  t.threads.manager += threads.manager;
  t.threads.stager += threads.stager;
  t.threads.exec += threads.exec;
  t.threads.other += threads.other;
  t.tasks += b.tasks - a.tasks;
  t.idle_us += b.idle_us - a.idle_us;
  t.retained_mb = std::max(
      t.retained_mb,
      static_cast<double>(server.metrics().NumCompleted() * sizeof(RequestRecord)) / 1e6);

  // ---- Traced rounds: submit, callback and device spans.
  if (traced) {
    std::vector<TaskSpan> spans = log->Take();
    for (const TaskSpan& s : spans) {
      if (s.time.begin < a.wall_us || s.time.begin >= b.wall_us) {
        continue;
      }
      t.span_us[s.kind] += s.time.length();
      t.span_rows[s.kind] += s.batch;
      if (s.kind == TaskSpan::kExec) {
        auto& [tasks, cells] = t.tasks_cells_by_type[s.type];
        ++tasks;
        cells += s.batch;
      }
    }
    const auto linked = LinkToRequests(spans);
    for (const size_t i : completed_set) {
      if (tr.status[i] != RequestStatus::kOk) {
        continue;
      }
      t.submit_us.push_back(tr.submit_end_us[i] - tr.send_us[i]);
      const auto it = linked.find(tr.ids[i]);
      if (it == linked.end()) {
        continue;
      }
      // The request's span runs from its send to the end of its callback;
      // its children are the submit call, its tasks and the callback.
      std::vector<Interval> children = TaskExtents(spans, it->second);
      for (const double gap : Gaps(children)) {
        t.between_us.push_back(gap);
      }
      t.hop_us.push_back(tr.done_us[i] - children.back().end);
      children.push_back({tr.send_us[i], tr.submit_end_us[i]});
      children.push_back({tr.done_us[i], tr.callback_end_us[i]});
      const Interval whole{tr.send_us[i], tr.callback_end_us[i]};
      t.request_us += whole.length();
      t.request_self_us += SelfTime(whole, children);
    }
    run->last_spans = std::move(spans);
    run->last_submits.clear();
    run->last_callbacks.clear();
    for (int i = 0; i < n; ++i) {
      run->last_submits.push_back({tr.ids[i], {tr.send_us[i], tr.submit_end_us[i]}});
      run->last_callbacks.push_back({tr.ids[i], {tr.done_us[i], tr.callback_end_us[i]}});
    }
  }

  // ---- Outputs: every request must end kOk, and the sampled outputs
  // must match the reference.
  run->attempted += n;
  std::vector<const RequestTemplate*> checked;
  std::vector<const std::vector<Tensor>*> outputs;
  for (int i = 0; i < n; ++i) {
    if (tr.status[i] != RequestStatus::kOk) {
      ++run->failed;
    } else if (tr.sampled[i]) {
      checked.push_back(&request(i));
      outputs.push_back(&tr.outputs[i]);
    }
  }
  const int mismatched = CountMismatches(server.device_caps().real_compute, spec.hidden,
                                         stack->models.registry(), checked, outputs);
  run->mismatched += mismatched;
  run->failed += mismatched;
}

void WriteSpans(const std::string& path, const Run& run) {
  std::ofstream out(path);
  static const char* const kKinds[] = {"gather", "exec", "scatter"};
  out << "kind\tid\ttype\tbatch\tbegin_us\tend_us\tcauses\n";
  for (const auto& [id, time] : run.last_submits) {
    out << "submit\t" << id << "\t\t1\t" << time.begin << "\t" << time.end << "\t" << id << "\n";
  }
  for (const auto& [id, time] : run.last_callbacks) {
    out << "callback\t" << id << "\t\t1\t" << time.begin << "\t" << time.end << "\t" << id
        << "\n";
  }
  for (const TaskSpan& s : run.last_spans) {
    out << kKinds[s.kind] << "\t" << s.task << "\t" << s.type << "\t" << s.batch << "\t"
        << s.time.begin << "\t" << s.time.end << "\t";
    for (size_t i = 0; i < s.causes.size(); ++i) {
      out << (i ? "," : "") << s.causes[i];
    }
    out << "\n";
  }
}

// The per-run record for one kind of round: CPU per request by thread,
// pooled over the windows, and the generator's lag.
void PrintRecord(const char* label, const Totals& t) {
  if (t.rounds.empty()) {
    return;
  }
  const double req = static_cast<double>(std::max<int64_t>(t.completed, 1));
  std::printf(
      "servebench: %s rounds=%zu window_s=%.3f completed=%lld cpu_us_per_req "
      "manager=%.1f stager=%.1f exec=%.1f generator=%.1f other=%.1f process=%.1f "
      "lag_ms_p99=%.3f\n",
      label, t.rounds.size(), t.window_s, static_cast<long long>(t.completed),
      t.threads.manager * 1e6 / req, t.threads.stager * 1e6 / req, t.threads.exec * 1e6 / req,
      t.generator_cpu * 1e6 / req, (t.threads.other - t.generator_cpu) * 1e6 / req,
      t.process_cpu * 1e6 / req,
      t.MedianOverRounds([](const RoundValues& r) { return r.lag_ms_p99; }));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatResult(bool correct, int64_t attempted, int64_t failed,
                         const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

std::vector<Metric> EndToEndMetrics(const Totals& t) {
  return {
      {"setup_s", t.MedianOverRounds([](const RoundValues& r) { return r.setup_s; }), "s"},
      {"throughput_rps", t.Throughput(), "1/s"},
      {"latency_p50_ms", t.P50(), "ms"},
      {"latency_p99_ms", t.P99(), "ms"},
      {"slo_attainment",
       t.MedianOverRounds([](const RoundValues& r) { return r.slo_attainment; }), "ratio"},
      {"cpu_ms_per_req",
       t.MedianOverRounds([](const RoundValues& r) { return r.cpu_ms_per_req; }), "ms"},
      {"peak_rss_mb", t.MedianOverRounds([](const RoundValues& r) { return r.peak_rss_mb; }),
       "MB"},
  };
}

std::vector<Metric> PerLayerMetrics(const Run& run, const Models& reference,
                                    double steal_share) {
  const Totals& t = run.traced;
  const double cells = static_cast<double>(t.cells);
  // graph.cell_us and tensor.gemm_share: each cell type executed from
  // outside at the mean batch the traced rounds formed, weighted by its
  // share of the tasks.
  double cell_us = 0.0;
  double gemm_us = 0.0;
  int64_t span_tasks = 0;
  int64_t span_cells = 0;
  for (const auto& [type, tc] : t.tasks_cells_by_type) {
    const int batch = std::max(
        1, static_cast<int>(std::lround(static_cast<double>(tc.second) / tc.first)));
    const CellProbe probe = ProbeCell(reference.registry(), type, batch);
    std::printf("servebench: cell_type=%d tasks=%lld mean_batch=%d cell_us=%.2f gemm_us=%.2f\n",
                type, static_cast<long long>(tc.first), batch, probe.cell_us, probe.gemm_us);
    cell_us += static_cast<double>(tc.first) * probe.cell_us;
    gemm_us += static_cast<double>(tc.first) * probe.gemm_us;
    span_tasks += tc.first;
    span_cells += tc.second;
  }
  // A closed loop loses throughput to tracing.
  const double overhead = 1.0 - Ratio(t.Throughput(), run.untraced.Throughput());
  const auto per_row = [&](TaskSpan::Kind kind) {
    return Ratio(t.span_us[kind], static_cast<double>(t.span_rows[kind]));
  };
  return {
      {"server.submit_us", Mean(t.submit_us), "us"},
      {"server.manager_cpu_us_per_cell", Ratio(t.threads.manager * 1e6, cells), "us"},
      {"server.manager_busy", Ratio(t.threads.manager, t.window_s), "ratio"},
      {"server.stager_cpu_us_per_cell", Ratio(t.threads.stager * 1e6, cells), "us"},
      {"server.exec_cpu_us_per_cell", Ratio(t.threads.exec * 1e6, cells), "us"},
      {"server.exec_idle_share", Ratio(t.idle_us, t.window_s * 1e6), "ratio"},
      {"scheduler.cells_per_task",
       Ratio(static_cast<double>(span_cells), static_cast<double>(span_tasks)), "count"},
      {"scheduler.tasks_per_req",
       Ratio(static_cast<double>(t.tasks), static_cast<double>(t.completed)), "count"},
      {"request.queue_ms_p50",
       t.MedianOverRounds([](const RoundValues& r) { return r.queue_ms_p50; }), "ms"},
      {"request.compute_ms_p50",
       t.MedianOverRounds([](const RoundValues& r) { return r.compute_ms_p50; }), "ms"},
      {"request.between_tasks_us", Mean(t.between_us), "us"},
      {"request.completion_hop_us", Mean(t.hop_us), "us"},
      {"request.wait_share", Ratio(t.request_self_us, t.request_us), "ratio"},
      {"device.gather_us_per_cell", per_row(TaskSpan::kGather), "us"},
      {"device.exec_us_per_cell", per_row(TaskSpan::kExec), "us"},
      {"device.scatter_us_per_cell", per_row(TaskSpan::kScatter), "us"},
      {"graph.cell_us", Ratio(cell_us, static_cast<double>(span_tasks)), "us"},
      {"tensor.gemm_share", Ratio(gemm_us, cell_us), "ratio"},
      {"metrics.retained_mb", t.retained_mb, "MB"},
      {"client.cpu_us_per_req",
       Ratio(t.generator_cpu * 1e6, static_cast<double>(t.window_sent)), "us"},
      {"loadgen.lag_ms_p99",
       t.MedianOverRounds([](const RoundValues& r) { return r.lag_ms_p99; }), "ms"},
      {"host.steal_share", steal_share, "ratio"},
      {"trace.overhead_share", overhead, "ratio"},
  };
}

int Main(const Options& opt) {
  const WorkloadSpec* spec = FindWorkload(opt.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (one of: %s)\n", opt.workload.c_str(),
                 WorkloadNames().c_str());
    return 2;
  }
  const Models reference(*spec);
  const std::vector<RequestTemplate> templates = reference.MakeTemplates(kTemplates, opt.seed);

  const HostCpu host_begin = ReadHostCpu();
  const Clock::time_point begin = Clock::now();
  Run run;
  // Rounds fill --seconds: another starts only if a round of the mean
  // length so far still fits. Two rounds at least, so a traced run has
  // one of each kind.
  for (int round = 0;; ++round) {
    const double elapsed = std::chrono::duration<double>(Clock::now() - begin).count();
    if (round >= 2 && elapsed + elapsed / round > opt.seconds) {
      break;
    }
    RunRound(*spec, templates, opt, round, opt.trace && round % 2 == 1, &run);
  }
  const double steal_share = StealShare(host_begin, ReadHostCpu());

  std::printf("servebench: workload=%s seed=%llu host.steal_share=%.4f attempted=%lld "
              "failed=%lld mismatched=%lld\n",
              spec->name.c_str(), static_cast<unsigned long long>(opt.seed), steal_share,
              static_cast<long long>(run.attempted), static_cast<long long>(run.failed),
              static_cast<long long>(run.mismatched));
  PrintRecord("untraced", run.untraced);
  PrintRecord("traced", run.traced);

  const bool correct = run.failed == 0 && run.mismatched == 0;
  std::vector<Metric> metrics;
  if (opt.trace) {
    metrics = PerLayerMetrics(run, reference, steal_share);
    if (!opt.spans_path.empty()) {
      WriteSpans(opt.spans_path, run);
    }
  } else {
    metrics = EndToEndMetrics(run.untraced);
  }
  std::printf("%s\n", FormatResult(correct, run.attempted, run.failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && opt->seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      opt->trace = value == "1";
    } else if (flag == "--spans") {
      opt->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds && have_trace;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Options opt;
  if (!servebench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--spans PATH]\n");
    return 2;
  }
  return servebench::Main(opt);
}
