// Pins the DeviceBackend contract (DESIGN.md "Device backend API"):
// registry round-trips, per-backend capability flags, staging-buffer
// lifetime, completed-result events (outputs or the failure flag), and the
// null backend's compute-free zero outputs and fixed latency. Engine-level
// conformance (Server x {cpu, null} driven by identical submission code)
// lives in api_conformance_test.cc; bitwise identity of the cpu backend
// lives in determinism_test.cc.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "src/device/cpu_backend.h"
#include "src/device/device_backend.h"
#include "src/device/device_registry.h"
#include "src/device/null_backend.h"
#include "tests/test_models.h"

namespace batchmaker {
namespace {

DeviceConfig CpuConfig(const CellRegistry* registry) {
  DeviceConfig config;
  config.registry = registry;
  return config;
}

// ---- Registry --------------------------------------------------------------

TEST(DeviceRegistryTest, BuiltinNamesRoundTrip) {
  DeviceRegistry& reg = DeviceRegistry::Instance();
  EXPECT_TRUE(reg.Has("cpu"));
  EXPECT_TRUE(reg.Has("null"));
  const std::vector<std::string> names = reg.Names();
  EXPECT_GE(names.size(), 2u);

  TinyLstmFixture fix;
  for (const char* name : {"cpu", "null"}) {
    auto backend = reg.Create(name, CpuConfig(&fix.registry));
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_STREQ(backend->name(), name);
  }
}

TEST(DeviceRegistryTest, UnknownOrMisconfiguredBackendsCreateNull) {
  DeviceRegistry& reg = DeviceRegistry::Instance();
  EXPECT_FALSE(reg.Has("tpu"));
  EXPECT_EQ(reg.Create("tpu", DeviceConfig{}), nullptr);
  // Builtins refuse configs missing their required inputs.
  EXPECT_EQ(reg.Create("cpu", DeviceConfig{}), nullptr);   // no CellRegistry
}

// A registered third-party backend is creatable by name, just like the
// builtins the engines resolve through EngineOptions::backend.
class FixedCapsBackend : public DeviceBackend {
 public:
  FixedCapsBackend() { caps_.requires_gather = true; }
  const char* name() const override { return "test-fixed"; }
  const DeviceCaps& caps() const override { return caps_; }
  std::unique_ptr<DeviceQueue> CreateQueue(const DeviceQueueOptions&) override {
    return nullptr;  // unavailable; never exercised by this test
  }

 private:
  DeviceCaps caps_;
};

TEST(DeviceRegistryTest, ThirdPartyBackendsRegisterByName) {
  DeviceRegistry& reg = DeviceRegistry::Instance();
  reg.Register("test-fixed", [](const DeviceConfig&) {
    return std::make_unique<FixedCapsBackend>();
  });
  ASSERT_TRUE(reg.Has("test-fixed"));
  auto backend = reg.Create("test-fixed", DeviceConfig{});
  ASSERT_NE(backend, nullptr);
  EXPECT_TRUE(backend->caps().requires_gather);
}

// ---- Capability flags ------------------------------------------------------

TEST(DeviceCapsTest, PerBackendFlagsMatchTheirContracts) {
  TinyLstmFixture fix;
  DeviceRegistry& reg = DeviceRegistry::Instance();

  const auto cpu = reg.Create("cpu", CpuConfig(&fix.registry));
  ASSERT_NE(cpu, nullptr);
  EXPECT_TRUE(cpu->caps().real_compute);
  EXPECT_TRUE(cpu->caps().requires_gather);
  EXPECT_TRUE(cpu->caps().supports_numa_pinning);

  const auto null_backend = reg.Create("null", CpuConfig(&fix.registry));
  ASSERT_NE(null_backend, nullptr);
  EXPECT_FALSE(null_backend->caps().real_compute);
  EXPECT_FALSE(null_backend->caps().requires_gather);
}

// ---- Events ----------------------------------------------------------------

TEST(DeviceEventTest, CompleteSignalsOnceAndHandsOverOutputs) {
  const DeviceEventPtr event = std::make_shared<DeviceEvent>();
  std::vector<Tensor> outputs;
  outputs.push_back(Tensor::Zeros(Shape{2, 4}));
  event->Complete(std::move(outputs));
  EXPECT_FALSE(event->failed());
  const std::vector<Tensor> taken = event->TakeOutputs();
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].shape(), (Shape{2, 4}));
}

TEST(DeviceEventTest, FailSignalsWithEmptyOutputs) {
  const DeviceEventPtr event = std::make_shared<DeviceEvent>();
  event->Fail();
  EXPECT_TRUE(event->failed());
  EXPECT_TRUE(event->TakeOutputs().empty());
}

// ---- Staging arenas --------------------------------------------------------

TEST(DeviceArenaTest, CpuArenaExposesHostStorageNullArenaDoesNot) {
  TinyLstmFixture fix;
  CpuBackend cpu(&fix.registry, Precision::kF32);
  const auto arena = cpu.CreateArena();
  ASSERT_NE(arena, nullptr);
  ASSERT_NE(arena->host(), nullptr);
  arena->Prefault(size_t{1} << 16);
  // The arena is reusable across tasks: allocate, reset, and the next
  // gather can allocate again.
  Tensor staged = Tensor::Zeros(Shape{2, 4});
  (void)staged;
  arena->Reset();
  arena->Prefault(size_t{1} << 16);
  arena->Reset();

  NullBackend null_backend(&fix.registry, /*latency_micros=*/0.0);
  const auto null_arena = null_backend.CreateArena();
  ASSERT_NE(null_arena, nullptr);
  EXPECT_EQ(null_arena->host(), nullptr);  // stages nothing
  null_arena->Prefault(size_t{1} << 16);   // no-ops by contract
  null_arena->Reset();
}

// ---- Null backend queue ----------------------------------------------------

BatchedTask MakeTask(uint64_t id, CellTypeId type, int batch) {
  BatchedTask task;
  task.id = id;
  task.type = type;
  for (int i = 0; i < batch; ++i) {
    task.entries.push_back(TaskEntry{static_cast<RequestId>(100 + i), i});
  }
  return task;
}

TEST(NullBackendTest, QueueReturnsZeroOutputsShapedForTheBatch) {
  TinyLstmFixture fix;
  const CellTypeId type = fix.model.cell_type();
  const CellDef& def = fix.registry.def(type);
  NullBackend backend(&fix.registry, /*latency_micros=*/0.0);
  const auto queue = backend.CreateQueue(DeviceQueueOptions{});
  ASSERT_NE(queue, nullptr);

  const GatheredBatch empty_gather;  // !requires_gather: nothing staged
  for (int batch : {1, 3}) {
    const DeviceEventPtr event = queue->Submit(MakeTask(1, type, batch), empty_gather);
    ASSERT_NE(event, nullptr);
    EXPECT_FALSE(event->failed());
    const std::vector<Tensor> outputs = event->TakeOutputs();
    ASSERT_EQ(outputs.size(), static_cast<size_t>(def.NumOutputs()));
    for (int i = 0; i < def.NumOutputs(); ++i) {
      const ValueType& vt = def.output_type(i);
      const Tensor& out = outputs[static_cast<size_t>(i)];
      ASSERT_EQ(out.shape().dims().size(), vt.shape.dims().size() + 1);
      EXPECT_EQ(out.shape().Dim(0), batch);
      for (size_t d = 0; d < vt.shape.dims().size(); ++d) {
        EXPECT_EQ(out.shape().Dim(static_cast<int>(d) + 1), vt.shape.dims()[d]);
      }
      for (int64_t r = 0; r < out.shape().Dim(0); ++r) {
        for (int64_t c = 0; c < out.shape().Dim(1); ++c) {
          ASSERT_EQ(out.At(r, c), 0.0f);
        }
      }
    }
  }
}

TEST(NullBackendTest, SubmitReturnsZeroOutputsNoEarlierThanItsLatency) {
  TinyLstmFixture fix;
  const CellTypeId type = fix.model.cell_type();
  const CellDef& def = fix.registry.def(type);
  NullBackend backend(&fix.registry, /*latency_micros=*/15000.0);
  const auto queue = backend.CreateQueue(DeviceQueueOptions{});
  ASSERT_NE(queue, nullptr);

  const GatheredBatch empty_gather;
  const auto start = std::chrono::steady_clock::now();
  const DeviceEventPtr event = queue->Submit(MakeTask(1, type, 2), empty_gather);
  const double took_micros =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(took_micros, 15000.0);
  ASSERT_NE(event, nullptr);
  EXPECT_FALSE(event->failed());
  const std::vector<Tensor> outputs = event->TakeOutputs();
  ASSERT_EQ(outputs.size(), static_cast<size_t>(def.NumOutputs()));
  for (const Tensor& out : outputs) {
    EXPECT_EQ(out.shape().Dim(0), 2);
    for (int64_t r = 0; r < out.shape().Dim(0); ++r) {
      for (int64_t c = 0; c < out.shape().Dim(1); ++c) {
        ASSERT_EQ(out.At(r, c), 0.0f);
      }
    }
  }
}

}  // namespace
}  // namespace batchmaker
