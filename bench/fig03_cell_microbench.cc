// Figure 3: latency vs. throughput for a single LSTM step at different
// batch sizes, on CPU and GPU.
//
// The GPU rows replay the calibrated cost model (no GPU in this
// environment; anchors derive from numbers printed in the paper). The CPU
// rows are measured for real with this repository's tensor library at the
// paper's configuration (hidden size 1024, one [b,2h]x[2h,4h] matmul plus
// elementwise gates) and at servebench's h=256 cell, scaled down in batch
// range to keep runtime sane on a small machine. Beside every `lstm_step`
// row sits an `lstm_gemm` row: the gate GEMM alone, as the executor calls
// it — the same weight packed at the same precision, the bias in the store
// epilogue, and at fp32 split-K straight from x and h (int8 reads the
// concatenated xh) — so each pair of rows gives the GEMM's share of the
// step.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <utility>

#include "bench/bench_common.h"
#include "src/graph/executor.h"
#include "src/nn/lstm.h"
#include "src/tensor/activation.h"
#include "src/tensor/arena.h"
#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"

namespace batchmaker {
namespace {

void PrintCurveTable(const char* title, const CostCurve& curve, int max_batch) {
  bench::PrintHeader(title);
  std::printf("%8s %14s %20s\n", "batch", "time", "throughput(ops/s)");
  for (int b = 2; b <= max_batch; b *= 2) {
    std::printf("%8d %14s %20.0f\n", b, FormatMicros(curve.Micros(b)).c_str(),
                curve.Throughput(b));
  }
}

// The cell's one MatMul: its [2h, 4h] gate weight, and the [4h] bias of the
// AddBias that reads it.
struct GateParams {
  const Tensor* weight = nullptr;
  const Tensor* bias = nullptr;
};
GateParams FindGateParams(const CellDef& def) {
  GateParams gate;
  for (const int id : def.TopoOrder()) {
    const OpNode& node = def.op(id);
    if (node.kind == OpKind::kMatMul) {
      gate.weight = &def.op(node.inputs[1]).weight;
    } else if (node.kind == OpKind::kAddBias && def.op(node.inputs[0]).kind == OpKind::kMatMul) {
      gate.bias = &def.op(node.inputs[1]).weight;
    }
  }
  BM_CHECK(gate.weight != nullptr && gate.bias != nullptr) << "cell has no biased MatMul";
  return gate;
}

// Times `step` and `gemm` interleaved over five rounds, each round a
// trimmed mean over enough calls to fill ~20 ms, and returns the two
// medians, so a burst of host noise cannot move one number alone.
std::pair<double, double> MeasureStepAndGemmNs(const std::function<void()>& step,
                                               const std::function<void()>& gemm) {
  const double once_ns = bench::MeasureTrimmedNs(/*warmup=*/2, /*iters=*/1, step);
  const int iters = std::clamp(static_cast<int>(20e6 / once_ns), 10, 400);
  std::vector<double> step_ns;
  std::vector<double> gemm_ns;
  for (int round = 0; round < 5; ++round) {
    step_ns.push_back(bench::MeasureTrimmedNs(/*warmup=*/1, iters, step));
    gemm_ns.push_back(bench::MeasureTrimmedNs(/*warmup=*/1, iters, gemm));
  }
  std::sort(step_ns.begin(), step_ns.end());
  std::sort(gemm_ns.begin(), gemm_ns.end());
  return {step_ns[2], gemm_ns[2]};
}

void MeasureCpuLstm(int64_t hidden, std::vector<bench::BenchRecord>* records) {
  char title[160];
  std::snprintf(title, sizeof(title),
                "Figure 3 (top, measured): single LSTM step on this CPU, h=%lld, "
                "bm_tensor backend, activations=%s",
                static_cast<long long>(hidden), ActivationKernelName());
  bench::PrintHeader(title);
  Rng rng(7);
  const LstmSpec spec{.input_dim = hidden, .hidden = hidden};
  const auto def = BuildLstmCell(spec, &rng);
  const GateParams gate = FindGateParams(*def);
  const std::string shape = "h=" + std::to_string(hidden);

  // Precision sweep: the same cell executed fp32 / int8 (the engine-wide
  // precision rides in the ExecContext; the int8 packs are built up front).
  for (const Precision prec : {Precision::kF32, Precision::kInt8}) {
    const CellExecutor exec(def.get());
    exec.EnsurePacked(prec);
    const PackedMatrix gemm_weight = prec == Precision::kInt8
                                         ? PackedMatrix::PackInt8(*gate.weight)
                                         : PackedMatrix::Pack(*gate.weight);
    // Serving configuration: intermediates come from a recycled arena, as
    // in the server's workers.
    TensorArena arena;
    const ExecContext ctx{/*pool=*/nullptr, &arena, prec};

    std::printf("-- precision=%s kernel=%s\n", PrecisionName(prec),
                GemmKernelName(prec));
    std::printf("%8s %14s %14s %11s %20s\n", "batch", "step", "gate gemm", "gemm share",
                "throughput(ops/s)");
    // 53 is servebench's lstm-cpu-closed batch.
    for (const int b : {1, 2, 4, 8, 16, 32, 53, 64, 128, 256}) {
      const Tensor x = Tensor::RandomUniform(Shape{b, hidden}, 1.0f, &rng);
      const Tensor h = Tensor::RandomUniform(Shape{b, hidden}, 1.0f, &rng);
      const Tensor c = Tensor::RandomUniform(Shape{b, hidden}, 1.0f, &rng);
      const Tensor xh = ConcatCols({&x, &h});
      const std::vector<const Tensor*> gemm_parts =
          prec == Precision::kF32 ? std::vector<const Tensor*>{&x, &h}
                                  : std::vector<const Tensor*>{&xh};
      const auto [step_ns, gemm_ns] = MeasureStepAndGemmNs(
          [&] {
            exec.Execute({&x, &h, &c}, &ctx);
            arena.Reset();
          },
          [&] {
            {
              const ArenaScope scope(&arena);
              MatMulPackedParts(gemm_parts, gemm_weight, gate.bias);
            }
            arena.Reset();
          });
      const double flop = 2.0 * b * (2.0 * hidden) * (4.0 * hidden);
      for (const auto& [op, ns] : {std::pair{"lstm_step", step_ns}, {"lstm_gemm", gemm_ns}}) {
        bench::BenchRecord rec;
        rec.op = op;
        rec.shape = shape;
        rec.batch = b;
        rec.ns_per_iter = ns;
        rec.gflops = flop / ns;
        rec.precision = PrecisionName(prec);
        rec.kernel = GemmKernelName(prec);
        records->push_back(std::move(rec));
      }
      std::printf("%8d %14s %14s %10.0f%% %20.0f\n", b,
                  FormatMicros(step_ns / 1e3).c_str(), FormatMicros(gemm_ns / 1e3).c_str(),
                  100.0 * gemm_ns / step_ns, b / (step_ns * 1e-9));
    }
  }
}

}  // namespace
}  // namespace batchmaker

int main() {
  using batchmaker::AutotuneMaxBatch;
  using batchmaker::CpuLstmCurve;
  using batchmaker::GpuDecoderCurve;
  using batchmaker::GpuLstmCurve;

  std::vector<batchmaker::bench::BenchRecord> records;
  batchmaker::MeasureCpuLstm(1024, &records);
  batchmaker::MeasureCpuLstm(256, &records);
  batchmaker::bench::WriteBenchJson("BENCH_fig03.json", "fig03_cpu_lstm_step", records);
  batchmaker::PrintCurveTable(
      "Figure 3 (top, modeled): LSTM step on Xeon E5-2698v4 (paper's CPU cost model)",
      CpuLstmCurve(), 4096);
  batchmaker::PrintCurveTable(
      "Figure 3 (bottom, modeled): LSTM step on Tesla V100 (paper's GPU cost model)",
      GpuLstmCurve(), 4096);
  batchmaker::PrintCurveTable("Seq2Seq decoder step (modeled, 30k-vocab projection)",
                              GpuDecoderCurve(), 2048);

  std::printf("\nautotuned max batch: LSTM=%d (paper: 512), decoder=%d (paper: 256)\n",
              AutotuneMaxBatch(GpuLstmCurve(), 4096),
              AutotuneMaxBatch(GpuDecoderCurve(), 2048));
  return 0;
}
