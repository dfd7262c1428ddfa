#include "servebench/probes.h"

#include <malloc.h>
#include <time.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "servebench/bench_math.h"
#include "src/graph/executor.h"
#include "src/tensor/arena.h"
#include "src/tensor/gemm.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace servebench {

using namespace batchmaker;

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Median wall time of `fn` in microseconds, over at least 15 calls and
// 10 ms after three warm-up calls.
double MedianMicros(const std::function<void()>& fn) {
  for (int i = 0; i < 3; ++i) {
    fn();
  }
  std::vector<double> samples;
  double total = 0.0;
  while (samples.size() < 15 || (total < 1e4 && samples.size() < 2000)) {
    const auto begin = std::chrono::steady_clock::now();
    fn();
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - begin)
                          .count();
    samples.push_back(us);
    total += us;
  }
  return Median(std::move(samples));
}

}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

ThreadCpu ReadThreadCpu() {
  ThreadCpu out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    std::ifstream comm(entry.path() / "comm");
    std::ifstream schedstat(entry.path() / "schedstat");
    std::string name;
    uint64_t on_cpu_ns = 0;
    if (!std::getline(comm, name) || !(schedstat >> on_cpu_ns)) {
      continue;  // the thread exited while we looked
    }
    const double seconds = static_cast<double>(on_cpu_ns) * 1e-9;
    if (name.rfind("manager/", 0) == 0) {
      out.manager += seconds;
    } else if (EndsWith(name, "-stager")) {
      out.stager += seconds;
    } else if (EndsWith(name, "-exec")) {
      out.exec += seconds;
    } else {
      out.other += seconds;
    }
  }
  return out;
}

ThreadCpu operator-(const ThreadCpu& a, const ThreadCpu& b) {
  return {a.manager - b.manager, a.stager - b.stager, a.exec - b.exec, a.other - b.other};
}

HostCpu ReadHostCpu() {
  std::ifstream stat("/proc/stat");
  std::string line;
  std::getline(stat, line);
  std::istringstream fields(line);
  std::string label;
  fields >> label;  // "cpu": the sum over all cpus
  HostCpu out;
  // user nice system idle iowait irq softirq steal; guest time is already
  // part of user.
  for (int i = 0; i < 8; ++i) {
    uint64_t ticks = 0;
    fields >> ticks;
    out.total += ticks;
    if (i == 7) {
      out.steal = ticks;
    }
  }
  return out;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

CellProbe ProbeCell(const CellRegistry& registry, CellTypeId type, int batch) {
  const CellDef& def = registry.def(type);
  Rng rng(11);
  std::vector<Tensor> inputs;
  for (int i = 0; i < def.NumInputs(); ++i) {
    const CellInputSpec& spec = def.input_spec(i);
    std::vector<int64_t> dims{batch};
    dims.insert(dims.end(), spec.row_shape.dims().begin(), spec.row_shape.dims().end());
    // Integer inputs are token ids; id 0 is valid for every vocabulary.
    inputs.push_back(spec.dtype == DType::kI32
                         ? Tensor::Zeros(Shape(dims), DType::kI32)
                         : Tensor::RandomUniform(Shape(dims), 1.0f, &rng));
  }
  std::vector<const Tensor*> args;
  for (const Tensor& t : inputs) {
    args.push_back(&t);
  }
  // The same resources a one-thread CPU worker executes with.
  ThreadPool pool(1);
  TensorArena arena;
  const ExecContext ctx{&pool, &arena, Precision::kF32, -1};
  const CellExecutor& executor = registry.executor(type);

  CellProbe probe;
  probe.cell_us = MedianMicros([&] {
    executor.Execute(args, &ctx);
    arena.Reset();
  });
  for (int id = 0; id < def.NumOps(); ++id) {
    const OpNode& op = def.op(id);
    if (op.kind != OpKind::kMatMul || def.op(op.inputs[1]).kind != OpKind::kParam) {
      continue;
    }
    const Tensor& weight = def.op(op.inputs[1]).weight;
    const PackedMatrix packed = PackedMatrix::Pack(weight);
    const Tensor a = Tensor::RandomUniform(Shape{batch, weight.shape().dims()[0]}, 1.0f, &rng);
    probe.gemm_us += MedianMicros([&] { MatMulPacked(a, packed); });
  }
  return probe;
}

}  // namespace servebench
