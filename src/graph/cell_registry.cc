#include "src/graph/cell_registry.h"

#include "src/util/logging.h"

namespace batchmaker {

CellTypeId CellRegistry::Register(std::unique_ptr<CellDef> def, int priority, int max_batch) {
  BM_CHECK(def != nullptr);
  BM_CHECK(def->finalized()) << "register only finalized cells";
  BM_CHECK_GT(max_batch, 0);
  const uint64_t hash = def->ContentHash();
  auto [it, end] = by_hash_.equal_range(hash);
  for (; it != end; ++it) {
    const CellTypeId existing = it->second;
    if (cells_[static_cast<size_t>(existing)].def->ContentEquals(*def)) {
      return existing;
    }
  }
  const CellTypeId id = static_cast<CellTypeId>(cells_.size());
  Entry entry;
  entry.info =
      CellTypeInfo{id, def->name(), priority, max_batch, /*min_batch=*/1};
  entry.executor = std::make_unique<CellExecutor>(def.get());
  entry.def = std::move(def);
  cells_.push_back(std::move(entry));
  by_hash_.emplace(hash, id);
  return id;
}

const CellDef& CellRegistry::def(CellTypeId id) const {
  BM_CHECK_GE(id, 0);
  BM_CHECK_LT(id, NumTypes());
  return *cells_[static_cast<size_t>(id)].def;
}

const CellExecutor& CellRegistry::executor(CellTypeId id) const {
  BM_CHECK_GE(id, 0);
  BM_CHECK_LT(id, NumTypes());
  return *cells_[static_cast<size_t>(id)].executor;
}

const CellTypeInfo& CellRegistry::info(CellTypeId id) const {
  BM_CHECK_GE(id, 0);
  BM_CHECK_LT(id, NumTypes());
  return cells_[static_cast<size_t>(id)].info;
}

void CellRegistry::SetPriority(CellTypeId id, int priority) {
  BM_CHECK_GE(id, 0);
  BM_CHECK_LT(id, NumTypes());
  cells_[static_cast<size_t>(id)].info.priority = priority;
}

void CellRegistry::SetMaxBatch(CellTypeId id, int max_batch) {
  BM_CHECK_GE(id, 0);
  BM_CHECK_LT(id, NumTypes());
  BM_CHECK_GT(max_batch, 0);
  cells_[static_cast<size_t>(id)].info.max_batch = max_batch;
}

void CellRegistry::SetMinBatch(CellTypeId id, int min_batch) {
  BM_CHECK_GE(id, 0);
  BM_CHECK_LT(id, NumTypes());
  BM_CHECK_GT(min_batch, 0);
  cells_[static_cast<size_t>(id)].info.min_batch = min_batch;
}

void CellRegistry::SetPrecision(CellTypeId id, Precision precision) {
  BM_CHECK_GE(id, 0);
  BM_CHECK_LT(id, NumTypes());
  Entry& entry = cells_[static_cast<size_t>(id)];
  if (entry.info.precision == precision) {
    return;
  }
  entry.info.precision = precision;
  entry.executor = std::make_unique<CellExecutor>(entry.def.get(), precision);
}

CellTypeId CellRegistry::FindByName(const std::string& name) const {
  for (const Entry& entry : cells_) {
    if (entry.info.name == name) {
      return entry.info.id;
    }
  }
  return kInvalidCellType;
}

}  // namespace batchmaker
