#include "cluster/kmeans.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace ici::cluster {
namespace {

std::vector<sim::Coord> blob(Rng& rng, double cx, double cy, std::size_t n, double spread) {
  std::vector<sim::Coord> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.normal(cx, spread), rng.normal(cy, spread)});
  }
  return pts;
}

TEST(KMeans, RejectsBadK) {
  std::vector<sim::Coord> pts = {{0, 0}, {1, 1}};
  EXPECT_THROW(kmeans(pts, 0), std::invalid_argument);
  EXPECT_THROW(kmeans(pts, 3), std::invalid_argument);
}

TEST(KMeans, KEqualsOneCentroidIsMean) {
  std::vector<sim::Coord> pts = {{0, 0}, {2, 0}, {0, 2}, {2, 2}};
  const KMeansResult r = kmeans(pts, 1);
  EXPECT_NEAR(r.centroids[0].x, 1.0, 1e-9);
  EXPECT_NEAR(r.centroids[0].y, 1.0, 1e-9);
  for (std::size_t a : r.assignment) EXPECT_EQ(a, 0u);
}

TEST(KMeans, KEqualsNPerfectFit) {
  std::vector<sim::Coord> pts = {{0, 0}, {10, 0}, {0, 10}};
  const KMeansResult r = kmeans(pts, 3);
  EXPECT_NEAR(r.inertia, 0.0, 1e-9);
}

TEST(KMeans, SeparatesWellSeparatedBlobs) {
  Rng rng(5);
  auto pts = blob(rng, 0, 0, 50, 1.0);
  const auto far = blob(rng, 100, 100, 50, 1.0);
  pts.insert(pts.end(), far.begin(), far.end());

  const KMeansResult r = kmeans(pts, 2);
  // All points of each blob share a cluster.
  const std::size_t first = r.assignment[0];
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(r.assignment[i], first);
  const std::size_t second = r.assignment[50];
  EXPECT_NE(second, first);
  for (std::size_t i = 50; i < 100; ++i) EXPECT_EQ(r.assignment[i], second);
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  Rng rng(7);
  auto pts = blob(rng, 0, 0, 40, 5.0);
  auto more = blob(rng, 30, 30, 40, 5.0);
  pts.insert(pts.end(), more.begin(), more.end());
  more = blob(rng, 0, 60, 40, 5.0);
  pts.insert(pts.end(), more.begin(), more.end());

  const double i1 = kmeans(pts, 1).inertia;
  const double i3 = kmeans(pts, 3).inertia;
  const double i8 = kmeans(pts, 8).inertia;
  EXPECT_GT(i1, i3);
  EXPECT_GT(i3, i8);
}

TEST(KMeans, DeterministicForSeed) {
  Rng rng(9);
  const auto pts = blob(rng, 0, 0, 60, 10.0);
  const KMeansResult a = kmeans(pts, 4, {.max_iterations = 100, .seed = 42});
  const KMeansResult b = kmeans(pts, 4, {.max_iterations = 100, .seed = 42});
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.inertia, b.inertia);
}

TEST(KMeans, HandlesDuplicatePoints) {
  std::vector<sim::Coord> pts(10, {5, 5});
  const KMeansResult r = kmeans(pts, 3);
  EXPECT_EQ(r.assignment.size(), 10u);
  EXPECT_NEAR(r.inertia, 0.0, 1e-9);
}

TEST(KMeans, AssignmentWithinRange) {
  Rng rng(11);
  const auto pts = blob(rng, 10, 10, 100, 20.0);
  const KMeansResult r = kmeans(pts, 7);
  for (std::size_t a : r.assignment) EXPECT_LT(a, 7u);
}

TEST(KMeans, ConvergesBeforeMaxIterations) {
  Rng rng(13);
  const auto pts = blob(rng, 0, 0, 50, 2.0);
  const KMeansResult r = kmeans(pts, 2, {.max_iterations = 1000, .seed = 1});
  EXPECT_LT(r.iterations, 1000u);
}

// The assign step runs on the worker pool in fixed 256-point chunks; the
// result must not depend on how many lanes claim them, and must equal the
// serial loop it replaced (iterations and inertia recorded from it).
TEST(KMeans, BitIdenticalAcrossPoolThreads) {
  Rng rng(21);
  std::vector<sim::Coord> pts;
  for (int b = 0; b < 10; ++b) {
    const auto part = blob(rng, rng.uniform01() * 100, rng.uniform01() * 100, 500, 8.0);
    pts.insert(pts.end(), part.begin(), part.end());
  }
  std::vector<KMeansResult> runs;
  for (const std::size_t lanes : {1, 2, 8}) {
    ThreadPool::set_global_threads(lanes);
    runs.push_back(kmeans(pts, 250, {.max_iterations = 100, .seed = 3}));
  }
  ThreadPool::set_global_threads(1);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].assignment, runs[0].assignment);
    ASSERT_EQ(runs[i].centroids.size(), runs[0].centroids.size());
    for (std::size_t c = 0; c < runs[0].centroids.size(); ++c) {
      EXPECT_EQ(runs[i].centroids[c].x, runs[0].centroids[c].x);
      EXPECT_EQ(runs[i].centroids[c].y, runs[0].centroids[c].y);
    }
    EXPECT_EQ(runs[i].iterations, runs[0].iterations);
    EXPECT_EQ(runs[i].inertia, runs[0].inertia);
  }
  EXPECT_EQ(runs[0].iterations, 15u);
  EXPECT_EQ(runs[0].inertia, 0x1.3b7203cca42d3p+14);
}

}  // namespace
}  // namespace ici::cluster
