#include "ici/config.h"

#include <gtest/gtest.h>

namespace ici::core {
namespace {

TEST(IciConfig, DefaultsAreValid) {
  IciConfig cfg;
  std::string why;
  EXPECT_TRUE(cfg.valid(&why)) << why;
}

TEST(IciConfig, RejectsZeroClusters) {
  IciConfig cfg;
  cfg.cluster_count = 0;
  std::string why;
  EXPECT_FALSE(cfg.valid(&why));
  EXPECT_NE(why.find("cluster_count"), std::string::npos);
}

TEST(IciConfig, RejectsZeroReplication) {
  IciConfig cfg;
  cfg.replication = 0;
  EXPECT_FALSE(cfg.valid());
}

TEST(IciConfig, RejectsUnknownClustering) {
  IciConfig cfg;
  cfg.clustering = "voronoi";
  std::string why;
  EXPECT_FALSE(cfg.valid(&why));
  EXPECT_NE(why.find("clustering"), std::string::npos);
  for (const char* ok : {"kmeans", "random", "grid"}) {
    cfg.clustering = ok;
    EXPECT_TRUE(cfg.valid()) << ok;
  }
}

TEST(IciConfig, ValidWorksWithoutWhy) {
  IciConfig cfg;
  cfg.cluster_count = 0;
  EXPECT_FALSE(cfg.valid(nullptr));
}

}  // namespace
}  // namespace ici::core
