// DeviceRegistry: name -> DeviceBackend factory, the one place the Server
// resolves EngineOptions::backend.
//
// Builtin backends ("cpu", "null") self-register on first use;
// embedders may Register additional backends before constructing an
// engine. Create returns null for unknown names and for devices that are
// unavailable at runtime (e.g. a builtin missing its required config) —
// engines turn that into a loud construction failure, tests into a skip.

#ifndef SRC_DEVICE_DEVICE_REGISTRY_H_
#define SRC_DEVICE_DEVICE_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/device/device_backend.h"

namespace batchmaker {

class DeviceRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<DeviceBackend>(const DeviceConfig&)>;

  // The process-wide registry (builtins pre-registered).
  static DeviceRegistry& Instance();

  // Registers (or replaces) a factory. Thread-safe.
  void Register(const std::string& name, Factory factory);

  // Resolves `name` and constructs the backend; null for unknown names or
  // runtime-unavailable devices. Thread-safe.
  std::unique_ptr<DeviceBackend> Create(const std::string& name,
                                        const DeviceConfig& config) const;

  bool Has(const std::string& name) const;
  // Registered backend names, sorted.
  std::vector<std::string> Names() const;

 private:
  DeviceRegistry();  // registers the builtins

  mutable std::mutex mu_;
  std::map<std::string, Factory> factories_;
};

}  // namespace batchmaker

#endif  // SRC_DEVICE_DEVICE_REGISTRY_H_
