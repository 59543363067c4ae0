#include "ici/network.h"

#include <gtest/gtest.h>

#include "chain/workload.h"

namespace ici::core {
namespace {

struct PreloadedNet {
  explicit PreloadedNet(std::size_t nodes = 20, std::size_t clusters = 2,
                        std::size_t blocks = 12) {
    ChainGenConfig ccfg;
    ccfg.blocks = blocks;
    ccfg.txs_per_block = 8;
    chain = std::make_unique<Chain>(ChainGenerator(ccfg).generate());

    IciNetworkConfig ncfg;
    ncfg.node_count = nodes;
    ncfg.ici.cluster_count = clusters;
    net = std::make_unique<IciNetwork>(ncfg);
    net->init_with_genesis(chain->at_height(0));
    net->preload_chain(*chain);
  }

  std::unique_ptr<Chain> chain;
  std::unique_ptr<IciNetwork> net;
};

TEST(Bootstrap, JoinerSyncsHeadersAndAssignedBodies) {
  PreloadedNet rig;
  const host::JoinReport report = rig.net->bootstrap({50, 50});
  const std::size_t joined = rig.net->directory().cluster_of(report.joiner);
  EXPECT_TRUE(report.complete);

  const IciNode& joiner = rig.net->node(report.joiner);
  // All headers synced.
  EXPECT_EQ(joiner.store().header_count(), rig.chain->size());
  // Holds exactly the bodies assigned to it under the new membership.
  for (std::uint64_t h = 0; h <= rig.chain->height(); ++h) {
    const Hash256 hash = rig.chain->at_height(h).hash();
    const auto storers = rig.net->storers_of(hash, h, joined, false);
    const bool assigned =
        std::find(storers.begin(), storers.end(), report.joiner) != storers.end();
    EXPECT_EQ(joiner.store().has_block(hash), assigned) << "height " << h;
  }
  EXPECT_EQ(joiner.store().block_count(), report.bodies_fetched);
}

TEST(Bootstrap, DownloadsFractionOfChain) {
  PreloadedNet rig(20, 2, 20);
  const host::JoinReport report = rig.net->bootstrap({10, 10});
  ASSERT_TRUE(report.complete);
  // A cluster of ~10 members: the joiner should download roughly 1/10 of the
  // ledger, far below the full chain a full-replication joiner pulls.
  EXPECT_LT(report.bytes_downloaded, rig.chain->total_bytes() / 2);
  EXPECT_GT(report.bytes_downloaded, 0u);
  EXPECT_GT(report.elapsed_us, 0u);
}

TEST(Bootstrap, JoinerPicksNearestCluster) {
  PreloadedNet rig(30, 3, 4);
  const host::JoinReport report = rig.net->bootstrap({0, 0});
  const std::size_t joined = rig.net->directory().cluster_of(report.joiner);
  // The chosen cluster must be the arg-min of mean member distance.
  auto& dir = rig.net->directory();
  double chosen_mean = 0, best = 1e18;
  std::size_t best_c = 0;
  for (std::size_t c = 0; c < dir.cluster_count(); ++c) {
    double total = 0;
    std::size_t count = 0;
    for (auto id : dir.members(c)) {
      if (id == report.joiner) continue;  // exclude the joiner itself
      total += sim::distance({0, 0}, dir.info(id).coord);
      ++count;
    }
    const double mean = total / static_cast<double>(count);
    if (c == joined) chosen_mean = mean;
    if (mean < best) {
      best = mean;
      best_c = c;
    }
  }
  EXPECT_EQ(joined, best_c);
  EXPECT_DOUBLE_EQ(chosen_mean, best);
}

TEST(Bootstrap, JoinerServesFetchesAfterJoin) {
  PreloadedNet rig;
  const host::JoinReport report = rig.net->bootstrap({50, 50});
  const std::size_t joined = rig.net->directory().cluster_of(report.joiner);
  ASSERT_TRUE(report.complete);
  ASSERT_GT(report.bodies_fetched, 0u);

  // A block now assigned to the joiner can be fetched by a cluster peer.
  Hash256 target;
  std::uint64_t target_height = 0;
  for (std::uint64_t h = 0; h <= rig.chain->height(); ++h) {
    const Hash256 hash = rig.chain->at_height(h).hash();
    const auto storers = rig.net->storers_of(hash, h, joined, false);
    if (storers[0] == report.joiner) {
      target = hash;
      target_height = h;
      break;
    }
  }
  if (target.is_zero()) GTEST_SKIP() << "joiner not primary for any block";

  cluster::NodeId peer = cluster::kNoNode;
  for (auto id : rig.net->directory().members(joined)) {
    if (id != report.joiner && !rig.net->node(id).store().has_block(target)) {
      peer = id;
      break;
    }
  }
  ASSERT_NE(peer, cluster::kNoNode);
  bool got = false;
  rig.net->node(peer).fetch_block(target, target_height, [&](const FetchResult& r) {
    got = r.block != nullptr && r.block->hash() == target;
  });
  rig.net->settle();
  EXPECT_TRUE(got);
}

TEST(Bootstrap, MultipleJoinersSucceed) {
  PreloadedNet rig;
  const host::JoinReport r1 = rig.net->bootstrap({20, 20});
  const host::JoinReport r2 = rig.net->bootstrap({80, 80});
  EXPECT_TRUE(r1.complete);
  EXPECT_TRUE(r2.complete);
  EXPECT_NE(r1.joiner, r2.joiner);
}

}  // namespace
}  // namespace ici::core
