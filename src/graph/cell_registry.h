// CellRegistry: interns cell definitions and assigns stable CellTypeIds.
//
// The registry is the source of truth the scheduler consults: each type
// carries a priority (paper §4.3: decoder > encoder, internal > leaf) and a
// desired maximum batch size ("determined through offline benchmarking",
// §4.2 — see Autotune in src/runtime/cost_model.h).

#ifndef SRC_GRAPH_CELL_REGISTRY_H_
#define SRC_GRAPH_CELL_REGISTRY_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/graph/cell_def.h"
#include "src/graph/executor.h"

namespace batchmaker {

using CellTypeId = int;
inline constexpr CellTypeId kInvalidCellType = -1;

struct CellTypeInfo {
  CellTypeId id = kInvalidCellType;
  std::string name;
  // Higher value = preferred by the scheduler when several types are
  // runnable at the same criterion level (Algorithm 1, line 10).
  int priority = 0;
  // Desired maximum batch size for tasks of this type.
  int max_batch = 256;
  // Smallest batch the scheduler will submit beyond the first task of a
  // round (Algorithm 1, line 16: Bsizes.Min()).
  int min_batch = 1;
};

class CellRegistry {
 public:
  CellRegistry() = default;
  CellRegistry(const CellRegistry&) = delete;
  CellRegistry& operator=(const CellRegistry&) = delete;

  // Registers a finalized cell. If an identical cell (by content) is already
  // registered, returns its existing id. The registry takes ownership.
  // `max_batch` must be positive.
  CellTypeId Register(std::unique_ptr<CellDef> def, int priority = 0, int max_batch = 256);

  int NumTypes() const { return static_cast<int>(cells_.size()); }
  const CellDef& def(CellTypeId id) const;
  const CellExecutor& executor(CellTypeId id) const;
  const CellTypeInfo& info(CellTypeId id) const;

  void SetPriority(CellTypeId id, int priority);
  void SetMaxBatch(CellTypeId id, int max_batch);
  void SetMinBatch(CellTypeId id, int min_batch);

  // Finds a type by its cell name; returns kInvalidCellType if absent.
  CellTypeId FindByName(const std::string& name) const;

 private:
  struct Entry {
    std::unique_ptr<CellDef> def;
    std::unique_ptr<CellExecutor> executor;
    CellTypeInfo info;
  };

  std::vector<Entry> cells_;
  std::unordered_multimap<uint64_t, CellTypeId> by_hash_;
};

}  // namespace batchmaker

#endif  // SRC_GRAPH_CELL_REGISTRY_H_
