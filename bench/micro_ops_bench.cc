// google-benchmark microbenchmarks for the tensor substrate and the
// batch-assembly (gather/scatter) path — the real-compute analogue of the
// paper's "scheduling and gathering overhead" discussion (§7.3).
//
// Before handing control to google-benchmark, main() measures the GEMM
// configurations the CPU backend actually runs (per-call pack, cached pack,
// cached pack + intra-task pool) with the shared warmup + trimmed-mean
// harness and writes them to BENCH_gemm.json, one machine-readable row per
// (op, shape): {op, shape, batch, ns_per_iter, gflops}.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/graph/executor.h"
#include "src/nn/lstm.h"
#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace batchmaker {
namespace {

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::RandomUniform(Shape{n, n}, 1.0f, &rng);
  const Tensor b = Tensor::RandomUniform(Shape{n, n}, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmPacked(benchmark::State& state) {
  // The serving-path configuration: B packed once (as CellExecutor caches
  // per-weight packs), A read in place per call. Args: m, k, n.
  const int64_t m = state.range(0);
  const int64_t k = state.range(1);
  const int64_t n = state.range(2);
  Rng rng(1);
  const Tensor a = Tensor::RandomUniform(Shape{m, k}, 1.0f, &rng);
  const Tensor b = Tensor::RandomUniform(Shape{k, n}, 1.0f, &rng);
  const PackedMatrix packed = PackedMatrix::Pack(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulPacked(a, packed));
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
// Square sizes, then servebench lstm-cpu-closed's gate GEMM: 53 rows of
// [x | h] at h=256 times the [512, 1024] gate weight.
BENCHMARK(BM_GemmPacked)
    ->Args({64, 64, 64})
    ->Args({128, 128, 128})
    ->Args({256, 256, 256})
    ->Args({512, 512, 512})
    ->Args({53, 512, 1024});

void BM_GemmPackedPool(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::RandomUniform(Shape{n, n}, 1.0f, &rng);
  const Tensor b = Tensor::RandomUniform(Shape{n, n}, 1.0f, &rng);
  const PackedMatrix packed = PackedMatrix::Pack(b);
  ThreadPool pool(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulPacked(a, packed, &pool));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmPackedPool)->Arg(256)->Arg(512);

void BM_LstmStep(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Rng rng(2);
  const LstmSpec spec{.input_dim = 256, .hidden = 256};
  const auto def = BuildLstmCell(spec, &rng);
  const CellExecutor exec(def.get());
  const Tensor x = Tensor::RandomUniform(Shape{batch, 256}, 1.0f, &rng);
  const Tensor h = Tensor::RandomUniform(Shape{batch, 256}, 1.0f, &rng);
  const Tensor c = Tensor::RandomUniform(Shape{batch, 256}, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.Execute({&x, &h, &c}));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LstmStep)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

void BM_LstmStepArena(benchmark::State& state) {
  // Same cell with a worker-style arena: intermediates bump-allocate and
  // the arena is recycled per step, as in BatchAssembler::ExecuteTask.
  const int64_t batch = state.range(0);
  Rng rng(2);
  const LstmSpec spec{.input_dim = 256, .hidden = 256};
  const auto def = BuildLstmCell(spec, &rng);
  const CellExecutor exec(def.get());
  const Tensor x = Tensor::RandomUniform(Shape{batch, 256}, 1.0f, &rng);
  const Tensor h = Tensor::RandomUniform(Shape{batch, 256}, 1.0f, &rng);
  const Tensor c = Tensor::RandomUniform(Shape{batch, 256}, 1.0f, &rng);
  TensorArena arena;
  const ExecContext ctx{/*pool=*/nullptr, &arena};
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.Execute({&x, &h, &c}, &ctx));
    arena.Reset();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LstmStepArena)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

void BM_GatherRows(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Rng rng(3);
  std::vector<Tensor> rows;
  std::vector<const Tensor*> ptrs;
  std::vector<int64_t> idx;
  for (int64_t i = 0; i < batch; ++i) {
    rows.push_back(Tensor::RandomUniform(Shape{1, 1024}, 1.0f, &rng));
  }
  for (const Tensor& t : rows) {
    ptrs.push_back(&t);
    idx.push_back(0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(GatherRows(ptrs, idx));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_GatherRows)->Arg(16)->Arg(64)->Arg(256);

void BM_Sigmoid(benchmark::State& state) {
  Rng rng(4);
  const Tensor a = Tensor::RandomUniform(Shape{64, 4096}, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sigmoid(a));
  }
  state.SetItemsProcessed(state.iterations() * a.NumElements());
}
BENCHMARK(BM_Sigmoid);

void BM_EmbeddingLookup(benchmark::State& state) {
  Rng rng(5);
  const Tensor table = Tensor::RandomUniform(Shape{30000, 512}, 1.0f, &rng);
  std::vector<int32_t> ids;
  for (int i = 0; i < 256; ++i) {
    ids.push_back(static_cast<int32_t>(rng.NextBelow(30000)));
  }
  const Tensor id_tensor = Tensor::FromIntVector(Shape{256, 1}, std::move(ids));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EmbeddingLookup(table, id_tensor));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_EmbeddingLookup);

// The BENCH_gemm.json rows: the acceptance shape (m=512, k=1024, n=4096)
// plus the LSTM gate GEMM [b, 2h] x [2h, 4h] at h=1024 across batch sizes.
void EmitGemmJson() {
  std::vector<bench::BenchRecord> records;
  Rng rng(6);
  ThreadPool pool(4);

  struct GemmCase {
    int64_t m, k, n;
  };
  auto run_case = [&](const GemmCase& gc) {
    const Tensor a = Tensor::RandomUniform(Shape{gc.m, gc.k}, 1.0f, &rng);
    const Tensor b = Tensor::RandomUniform(Shape{gc.k, gc.n}, 1.0f, &rng);
    const PackedMatrix packed = PackedMatrix::Pack(b);
    const PackedMatrix packed_int8 = PackedMatrix::PackInt8(b);
    const double flop = 2.0 * static_cast<double>(gc.m) * static_cast<double>(gc.k) *
                        static_cast<double>(gc.n);
    const std::string shape = "m=" + std::to_string(gc.m) + ",k=" + std::to_string(gc.k) +
                              ",n=" + std::to_string(gc.n);
    // Size the iteration count so each configuration runs ~10 timed samples
    // even for the big acceptance shape.
    const int iters = flop > 1e9 ? 10 : 30;

    auto add = [&](const std::string& op, Precision prec,
                   const std::function<void()>& fn) {
      const double ns = bench::MeasureTrimmedNs(/*warmup=*/2, iters, fn);
      bench::BenchRecord rec;
      rec.op = op;
      rec.shape = shape;
      rec.batch = gc.m;
      rec.ns_per_iter = ns;
      rec.gflops = flop / ns;  // flop/ns == GFLOP/s
      rec.precision = PrecisionName(prec);
      rec.kernel = GemmKernelName(prec);
      records.push_back(std::move(rec));
    };
    add("gemm", Precision::kF32, [&] { benchmark::DoNotOptimize(MatMul(a, b)); });
    add("gemm_packed", Precision::kF32,
        [&] { benchmark::DoNotOptimize(MatMulPacked(a, packed)); });
    add("gemm_packed_pool4", Precision::kF32,
        [&] { benchmark::DoNotOptimize(MatMulPacked(a, packed, &pool)); });
    // The low-precision serving path: per-weight quantized pack cached, A
    // quantized per call (as CellExecutor does).
    add("gemm_packed", Precision::kInt8,
        [&] { benchmark::DoNotOptimize(MatMulPacked(a, packed_int8)); });
    add("gemm_packed_pool4", Precision::kInt8,
        [&] { benchmark::DoNotOptimize(MatMulPacked(a, packed_int8, &pool)); });
  };

  run_case({512, 1024, 4096});
  for (int64_t b : {1, 8, 32, 128}) {
    run_case({b, 2048, 4096});
  }
  bench::WriteBenchJson("BENCH_gemm.json", "micro_ops_gemm", records);
  std::printf("simd kernel: %s\n", GemmUsesSimd() ? "yes" : "no (scalar fallback)");
  for (Precision p : {Precision::kF32, Precision::kInt8}) {
    std::printf("%s kernel: %s\n", PrecisionName(p), GemmKernelName(p));
  }
}

}  // namespace
}  // namespace batchmaker

int main(int argc, char** argv) {
  batchmaker::EmitGemmJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
