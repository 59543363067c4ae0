#include "cluster/directory.h"

#include <gtest/gtest.h>

namespace ici::cluster {
namespace {

ClusterDirectory make_directory(std::size_t n = 12, std::size_t k = 3) {
  auto nodes = generate_topology(n, 2, 5);
  Clustering clustering = RandomClusterer(1).cluster(nodes, k);
  return ClusterDirectory(std::move(nodes), std::move(clustering));
}

TEST(Directory, BasicLookups) {
  const ClusterDirectory dir = make_directory();
  EXPECT_EQ(dir.cluster_count(), 3u);
  EXPECT_EQ(dir.node_count(), 12u);
  std::size_t total = 0;
  for (std::size_t c = 0; c < dir.cluster_count(); ++c) {
    for (NodeId id : dir.members(c)) {
      EXPECT_EQ(dir.cluster_of(id), c);
      ++total;
    }
  }
  EXPECT_EQ(total, 12u);
}

TEST(Directory, RejectsIncompleteClustering) {
  auto nodes = generate_topology(4, 1, 1);
  Clustering partial;
  partial.clusters = {{0, 1}};  // misses 2, 3
  EXPECT_THROW(ClusterDirectory(std::move(nodes), std::move(partial)), std::invalid_argument);
}

TEST(Directory, RejectsUnknownNodeInClustering) {
  auto nodes = generate_topology(2, 1, 1);
  Clustering bad;
  bad.clusters = {{0, 1, 99}};
  EXPECT_THROW(ClusterDirectory(std::move(nodes), std::move(bad)), std::invalid_argument);
}

TEST(Directory, OnlineTracking) {
  ClusterDirectory dir = make_directory();
  const NodeId id = dir.members(0).front();
  EXPECT_TRUE(dir.online(id));
  dir.set_online(id, false);
  EXPECT_FALSE(dir.online(id));
  const auto online = dir.online_members(0);
  for (const NodeInfo& m : online) EXPECT_NE(m.id, id);
  EXPECT_EQ(online.size(), dir.members(0).size() - 1);
}

TEST(Directory, HeadRotatesWithHeight) {
  const ClusterDirectory dir = make_directory(12, 2);
  const std::size_t m = dir.members(0).size();
  std::vector<NodeId> heads;
  for (std::uint64_t h = 0; h < m; ++h) {
    const auto head = dir.head(0, h);
    ASSERT_TRUE(head.has_value());
    heads.push_back(*head);
  }
  // All members take a turn over one full rotation.
  std::sort(heads.begin(), heads.end());
  std::vector<NodeId> expected = dir.members(0);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(heads, expected);
}

TEST(Directory, HeadSkipsOfflineMembers) {
  ClusterDirectory dir = make_directory(12, 2);
  const NodeId victim = dir.members(0).front();
  dir.set_online(victim, false);
  for (std::uint64_t h = 0; h < 20; ++h) {
    const auto head = dir.head(0, h);
    ASSERT_TRUE(head.has_value());
    EXPECT_NE(*head, victim);
  }
}

TEST(Directory, HeadNulloptWhenClusterDark) {
  ClusterDirectory dir = make_directory(6, 2);
  for (NodeId id : dir.members(0)) dir.set_online(id, false);
  EXPECT_FALSE(dir.head(0, 1).has_value());
  EXPECT_TRUE(dir.head(1, 1).has_value());
}

TEST(Directory, AddMemberJoins) {
  ClusterDirectory dir = make_directory(6, 2);
  NodeInfo joiner{100, {1, 2}, 1.5};
  dir.add_member(joiner, 1);
  EXPECT_EQ(dir.cluster_of(100), 1u);
  EXPECT_TRUE(dir.online(100));
  EXPECT_EQ(dir.info(100).capacity, 1.5);
  EXPECT_NE(std::find(dir.members(1).begin(), dir.members(1).end(), 100), dir.members(1).end());
}

TEST(Directory, AddDuplicateThrows) {
  ClusterDirectory dir = make_directory(6, 2);
  const NodeId existing = dir.members(0).front();
  EXPECT_THROW(dir.add_member(NodeInfo{existing, {0, 0}, 1.0}, 0), std::invalid_argument);
}

TEST(Directory, RemoveMemberLeaves) {
  ClusterDirectory dir = make_directory(6, 2);
  const NodeId victim = dir.members(0).front();
  dir.remove_member(victim);
  EXPECT_EQ(std::find(dir.members(0).begin(), dir.members(0).end(), victim),
            dir.members(0).end());
  EXPECT_THROW((void)dir.cluster_of(victim), std::out_of_range);
}

TEST(Directory, MemberInfosTrackMembership) {
  ClusterDirectory dir = make_directory(12, 3);
  const auto expect_fresh = [&] {
    for (std::size_t c = 0; c < dir.cluster_count(); ++c) {
      const std::vector<NodeInfo>& cached = dir.member_infos(c);
      ASSERT_EQ(cached.size(), dir.members(c).size()) << "cluster " << c;
      for (std::size_t i = 0; i < cached.size(); ++i) {
        const NodeInfo& fresh = dir.info(dir.members(c)[i]);
        EXPECT_EQ(cached[i].id, fresh.id);
        EXPECT_EQ(cached[i].coord.x, fresh.coord.x);
        EXPECT_EQ(cached[i].coord.y, fresh.coord.y);
        EXPECT_EQ(cached[i].capacity, fresh.capacity);
      }
    }
  };
  expect_fresh();
  dir.add_member(NodeInfo{100, {3, 4}, 2.0}, 1);
  dir.add_member(NodeInfo{50, {5, 6}, 0.5}, 1);  // sorts ahead of 100
  expect_fresh();
  dir.remove_member(dir.members(0).front());
  dir.remove_member(100);
  expect_fresh();
  dir.set_online(dir.members(2).front(), false);  // liveness is not membership
  expect_fresh();
  EXPECT_THROW((void)dir.member_infos(99), std::out_of_range);
}

TEST(Directory, UnknownIdsThrow) {
  ClusterDirectory dir = make_directory();
  EXPECT_THROW((void)dir.cluster_of(999), std::out_of_range);
  EXPECT_THROW((void)dir.online(999), std::out_of_range);
  EXPECT_THROW(dir.set_online(999, true), std::out_of_range);
  EXPECT_THROW((void)dir.info(999), std::out_of_range);
  EXPECT_THROW((void)dir.members(99), std::out_of_range);
}

}  // namespace
}  // namespace ici::cluster
