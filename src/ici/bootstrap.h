// Joiner placement for ICI: a new node joins the cluster whose members are
// nearest on average — the same latency-aware choice the clustering made
// for the original population. The join itself (bulk-sync driver,
// crash/resume, byte-accurate report) is the host's
// (host::Host::bootstrap, docs/BOOTSTRAP.md).
#pragma once

#include "cluster/directory.h"
#include "sim/network.h"

namespace ici::core {

class Bootstrapper {
 public:
  /// Cluster with the smallest mean member distance to `coord`.
  [[nodiscard]] static std::size_t nearest_cluster(const cluster::ClusterDirectory& dir,
                                                   sim::Coord coord);
};

}  // namespace ici::core
