// ICIStrategy configuration knobs. Defaults reproduce the paper's headline
// setting; every experiment sweeps a subset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/event_queue.h"

namespace ici::core {

struct IciConfig {
  /// Number of clusters k. Per-cluster size m ≈ N/k determines the per-node
  /// storage share (D·r/m).
  std::size_t cluster_count = 8;

  /// Intra-cluster replication r (DESIGN.md D3). 1 = pure ICI as in the
  /// abstract: each body lives on exactly one member; the cluster as a whole
  /// is the redundancy unit. Ignored when erasure coding is enabled.
  std::size_t replication = 1;

  /// Erasure-coded storage mode (extension of D3): when erasure_data > 0,
  /// each committed block is Reed-Solomon encoded into erasure_data +
  /// erasure_parity shards stored on that many distinct members. Per-node
  /// storage cost becomes (d+p)/d of a block split d ways instead of whole
  /// copies, and the cluster tolerates any `erasure_parity` holders being
  /// offline per block. 0 = whole-copy replication (the paper's mode).
  std::size_t erasure_data = 0;
  std::size_t erasure_parity = 0;

  /// Clustering strategy: "kmeans" (default), "random", or "grid" (D1).
  std::string clustering = "kmeans";

  /// Extra full passes over the candidate list after the first exhausts
  /// (retry-with-backoff for lossy networks; E20 enables it under message
  /// drops). 0 = one pass then give up — the fault-free default, which
  /// keeps sim metrics bit-identical with pre-fault builds.
  std::size_t fetch_retry_rounds = 0;

  /// When a block's own-cluster holders are all unreachable, fall back to
  /// the storers of other clusters (the network keeps k copies — one per
  /// cluster). Costs a wider-area fetch but turns cluster-local outages
  /// into latency instead of misses. Test seam: only tests set this, to
  /// reach the fallback-off case (test_ici_fallback).
  bool cross_cluster_fallback = true;

  /// Repair may also pull blocks a cluster lost entirely (every local holder
  /// crashed) from another cluster's storers, restoring the "every cluster
  /// retains a complete ledger" invariant instead of waiting for holders to
  /// return. Off by default so fault-free repair metrics stay unchanged.
  bool cross_cluster_repair = false;

  /// Deterministic seeds for clustering / placement.
  std::uint64_t seed = 1;

  [[nodiscard]] bool valid(std::string* why = nullptr) const;
};

}  // namespace ici::core
