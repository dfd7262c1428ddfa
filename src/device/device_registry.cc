#include "src/device/device_registry.h"

#include <utility>

#include "src/device/cpu_backend.h"
#include "src/device/null_backend.h"

namespace batchmaker {

DeviceRegistry& DeviceRegistry::Instance() {
  static DeviceRegistry* instance = new DeviceRegistry();
  return *instance;
}

DeviceRegistry::DeviceRegistry() {
  factories_["cpu"] = [](const DeviceConfig& config) -> std::unique_ptr<DeviceBackend> {
    if (config.registry == nullptr) {
      return nullptr;
    }
    return std::make_unique<CpuBackend>(config.registry, config.precision);
  };
  factories_["null"] = [](const DeviceConfig& config) -> std::unique_ptr<DeviceBackend> {
    if (config.registry == nullptr) {
      return nullptr;
    }
    return std::make_unique<NullBackend>(config.registry, config.null_latency_micros);
  };
}

void DeviceRegistry::Register(const std::string& name, Factory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  factories_[name] = std::move(factory);
}

std::unique_ptr<DeviceBackend> DeviceRegistry::Create(
    const std::string& name, const DeviceConfig& config) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = factories_.find(name);
    if (it == factories_.end()) {
      return nullptr;
    }
    factory = it->second;
  }
  return factory(config);
}

bool DeviceRegistry::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_.count(name) != 0;
}

std::vector<std::string> DeviceRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) {
    names.push_back(name);
  }
  return names;  // std::map iterates sorted
}

}  // namespace batchmaker
