#include "servebench/workload.h"

#include <algorithm>
#include <utility>

#include "src/core/batch_assembler.h"
#include "src/core/sync_engine.h"
#include "src/util/rng.h"
#include "src/workload/datasets.h"

namespace servebench {

using namespace batchmaker;

namespace {

// Weights are the same in every round and run; --seed only draws inputs.
constexpr uint64_t kWeightSeed = 7;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = {
      // Real compute: the exec thread's kernels take most of the CPU.
      {.name = "lstm-cpu-closed",
       .backend = "cpu",
       .hidden = 256,
       .max_len = 30,
       .clients = 64,
       .round_requests = 2400},
      // Nothing computed: the manager and the worker handoffs set the pace.
      {.name = "lstm-null-closed",
       .backend = "null",
       .hidden = 64,
       .fixed_len = 24,
       .clients = 512,
       .round_requests = 12000},
  };
  return workloads;
}

ServerOptions StackOptions(const std::string& backend) {
  ServerOptions options;
  options.backend = backend;
  options.num_workers = 1;
  options.threads_per_worker = 1;
  options.num_shards = 1;
  options.pipeline_depth = 2;
  return options;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadSpec& spec : Workloads()) {
    names += (names.empty() ? "" : ", ") + spec.name;
  }
  return names;
}

Models::Models(const WorkloadSpec& spec) : spec_(spec) {
  Rng rng(kWeightSeed);
  lstm_ = std::make_unique<LstmModel>(
      &registry_, LstmSpec{.input_dim = spec.hidden, .hidden = spec.hidden}, &rng);
}

std::vector<RequestTemplate> Models::MakeTemplates(int count, uint64_t seed) const {
  Rng rng(seed);
  std::vector<RequestTemplate> out;
  out.reserve(static_cast<size_t>(count));
  const WmtLengthSampler sampler;
  for (int i = 0; i < count; ++i) {
    const int len =
        spec_.fixed_len > 0 ? spec_.fixed_len : std::min(spec_.max_len, sampler.Sample(&rng));
    RequestTemplate r;
    r.graph = lstm_->Unfold(len);
    for (int t = 0; t < len; ++t) {
      r.externals.push_back(Tensor::RandomUniform(Shape{1, spec_.hidden}, 1.0f, &rng));
    }
    r.externals.push_back(ExternalZeroVecTensor(spec_.hidden));
    r.externals.push_back(ExternalZeroVecTensor(spec_.hidden));
    r.cells = len;
    r.output = ValueRef::Output(len - 1, 0);  // the last step's h
    out.push_back(std::move(r));
  }
  return out;
}

Stack::Stack(const WorkloadSpec& spec, const std::string& backend)
    : models(spec), server(&models.registry(), StackOptions(backend)) {}

int CountMismatches(bool real_compute, int64_t hidden, const CellRegistry& registry,
                    const std::vector<const RequestTemplate*>& requests,
                    const std::vector<const std::vector<Tensor>*>& outputs) {
  int bad = 0;
  if (!real_compute) {
    for (const std::vector<Tensor>* out : outputs) {
      if (out->size() != 1 || (*out)[0].dtype() != DType::kF32 ||
          !((*out)[0].shape() == Shape{1, hidden})) {
        ++bad;
      }
    }
    return bad;
  }
  SyncEngine engine(&registry);
  std::vector<RequestId> ids;
  for (const RequestTemplate* r : requests) {
    ids.push_back(engine.Submit(CellGraph(r->graph), std::vector<Tensor>(r->externals),
                                {r->output}));
  }
  engine.RunToCompletion();
  for (size_t i = 0; i < ids.size(); ++i) {
    const Response expected = engine.TakeResponse(ids[i]);
    const std::vector<Tensor>& got = *outputs[i];
    bool same = expected.ok() && expected.outputs.size() == got.size();
    for (size_t j = 0; same && j < got.size(); ++j) {
      same = got[j].ElementsEqual(expected.outputs[j]);
    }
    bad += same ? 0 : 1;
  }
  return bad;
}

}  // namespace servebench
