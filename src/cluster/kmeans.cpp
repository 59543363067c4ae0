#include "cluster/kmeans.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace ici::cluster {

namespace {

// Points per parallel_for chunk in the assign step. Fixed, so the tiling
// depends on the point count only; at k=500 a chunk is ~10^5 distance
// evaluations (~100 us), well above the pool's claim cost.
constexpr std::size_t kAssignGrain = 256;

double sq_dist(const sim::Coord& a, const sim::Coord& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// k-means++ seeding: first centroid uniform, subsequent ones proportional
/// to squared distance from the nearest chosen centroid.
std::vector<sim::Coord> seed_centroids(const std::vector<sim::Coord>& points, std::size_t k,
                                       Rng& rng) {
  std::vector<sim::Coord> centroids;
  centroids.reserve(k);
  centroids.push_back(points[rng.index(points.size())]);

  std::vector<double> d2(points.size(), std::numeric_limits<double>::max());
  while (centroids.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      d2[i] = std::min(d2[i], sq_dist(points[i], centroids.back()));
      total += d2[i];
    }
    if (total <= 0.0) {
      // All remaining points coincide with chosen centroids; duplicate one.
      centroids.push_back(points[rng.index(points.size())]);
      continue;
    }
    double target = rng.uniform01() * total;
    std::size_t chosen = points.size() - 1;
    for (std::size_t i = 0; i < points.size(); ++i) {
      target -= d2[i];
      if (target <= 0.0) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(points[chosen]);
  }
  return centroids;
}

}  // namespace

KMeansResult kmeans(const std::vector<sim::Coord>& points, std::size_t k, KMeansConfig cfg) {
  if (k == 0 || k > points.size())
    throw std::invalid_argument("kmeans: k must be in [1, points.size()]");

  Rng rng(cfg.seed);
  KMeansResult result;
  result.centroids = seed_centroids(points, k, rng);
  result.assignment.assign(points.size(), 0);

  // One changed flag per assign chunk, OR-reduced after the join.
  std::vector<std::uint8_t> chunk_changed((points.size() + kAssignGrain - 1) / kAssignGrain);
  for (std::size_t iter = 0; iter < cfg.max_iterations; ++iter) {
    // Assign step: each chunk reads the centroids and writes only its own
    // assignment slots and changed flag.
    ThreadPool::global().parallel_for(
        0, points.size(), kAssignGrain, [&](std::size_t begin, std::size_t end) {
          bool changed = false;
          for (std::size_t i = begin; i < end; ++i) {
            std::size_t best = 0;
            double best_d = std::numeric_limits<double>::max();
            for (std::size_t c = 0; c < k; ++c) {
              const double d = sq_dist(points[i], result.centroids[c]);
              if (d < best_d) {
                best_d = d;
                best = c;
              }
            }
            if (result.assignment[i] != best) {
              result.assignment[i] = best;
              changed = true;
            }
          }
          chunk_changed[begin / kAssignGrain] = changed ? 1 : 0;
        });
    const bool changed = std::any_of(chunk_changed.begin(), chunk_changed.end(),
                                     [](std::uint8_t c) { return c != 0; });
    result.iterations = iter + 1;
    if (!changed && iter > 0) break;

    // Update step.
    std::vector<double> sx(k, 0.0), sy(k, 0.0);
    std::vector<std::size_t> count(k, 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      sx[result.assignment[i]] += points[i].x;
      sy[result.assignment[i]] += points[i].y;
      ++count[result.assignment[i]];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (count[c] == 0) {
        // Empty cluster: re-seed at the point farthest from its centroid.
        std::size_t far = 0;
        double far_d = -1.0;
        for (std::size_t i = 0; i < points.size(); ++i) {
          const double d = sq_dist(points[i], result.centroids[result.assignment[i]]);
          if (d > far_d) {
            far_d = d;
            far = i;
          }
        }
        result.centroids[c] = points[far];
      } else {
        result.centroids[c] = {sx[c] / static_cast<double>(count[c]),
                               sy[c] / static_cast<double>(count[c])};
      }
    }
  }

  result.inertia = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    result.inertia += sq_dist(points[i], result.centroids[result.assignment[i]]);
  }
  return result;
}

}  // namespace ici::cluster
