#include "ici/bootstrap.h"

#include <limits>

namespace ici::core {

std::size_t Bootstrapper::nearest_cluster(const cluster::ClusterDirectory& dir,
                                          sim::Coord coord) {
  std::size_t best_cluster = 0;
  double best_dist = std::numeric_limits<double>::max();
  for (std::size_t c = 0; c < dir.cluster_count(); ++c) {
    double total = 0.0;
    std::size_t count = 0;
    for (cluster::NodeId id : dir.members(c)) {
      total += sim::distance(coord, dir.info(id).coord);
      ++count;
    }
    if (count == 0) continue;
    const double mean = total / static_cast<double>(count);
    if (mean < best_dist) {
      best_dist = mean;
      best_cluster = c;
    }
  }
  return best_cluster;
}

}  // namespace ici::core
