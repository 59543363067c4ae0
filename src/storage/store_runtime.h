// StoreRuntime: one per network host — turns a StoreConfig into per-node
// StorageBackend instances and owns the on-disk root directory for the run.
// With the default "mem" backend it does nothing (make_backend returns null
// and BlockStore keeps its MemBackend). With "disk" each node gets
// <root>/node-<id>; when StoreConfig::dir is empty the root is a fresh
// temp directory removed on destruction, so benches leave nothing behind.
// A caller-supplied dir is kept on teardown, but its node-* subdirectories
// are cleared on construction — every run starts from empty per-node logs,
// never from a previous run's recovered segments.
#pragma once

#include <filesystem>
#include <memory>

#include "storage/backend.h"

namespace ici {

class StoreRuntime {
 public:
  /// Validates the backend name ("mem" or "disk"; throws
  /// std::invalid_argument otherwise) and, for disk, creates the root.
  explicit StoreRuntime(StoreConfig cfg);
  ~StoreRuntime();

  StoreRuntime(const StoreRuntime&) = delete;
  StoreRuntime& operator=(const StoreRuntime&) = delete;

  [[nodiscard]] bool disk() const { return cfg_.backend == "disk"; }
  [[nodiscard]] const StoreConfig& config() const { return cfg_; }
  [[nodiscard]] const std::filesystem::path& root() const { return root_; }

  /// A fresh backend for node `id`, or null for the mem backend (the
  /// store's built-in MemBackend already is the right thing).
  [[nodiscard]] std::unique_ptr<StorageBackend> make_backend(std::size_t node_id) const;

 private:
  StoreConfig cfg_;
  std::filesystem::path root_;
  bool owns_root_ = false;
};

}  // namespace ici
