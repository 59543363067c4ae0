#include "baseline/rapidchain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "chain/workload.h"
#include "storage/storage_meter.h"

namespace ici::baseline {
namespace {

Chain make_chain(std::size_t blocks = 12) {
  ChainGenConfig cfg;
  cfg.blocks = blocks;
  cfg.txs_per_block = 6;
  return ChainGenerator(cfg).generate();
}

RapidChainConfig make_config(std::size_t nodes = 20, std::size_t committees = 4) {
  RapidChainConfig cfg;
  cfg.node_count = nodes;
  cfg.committee_count = committees;
  return cfg;
}

TEST(RapidChain, CommitteesPartitionNodes) {
  // n=8, k=3 hashes every node into two committees; the third is filled by
  // moving a member over, and that member must know its new committee.
  for (const auto& [nodes, committees] :
       {std::pair<std::size_t, std::size_t>{20, 4}, {8, 3}}) {
    RapidChainNetwork net(make_config(nodes, committees));
    std::unordered_set<sim::NodeId> seen;
    std::size_t total = 0;
    for (std::size_t c = 0; c < committees; ++c) {
      const auto& members = net.committee_members(c);
      EXPECT_FALSE(members.empty());
      for (sim::NodeId id : members) {
        EXPECT_TRUE(seen.insert(id).second);
        EXPECT_EQ(net.node(id).committee(), c) << "n=" << nodes << " k=" << committees;
        ++total;
      }
    }
    EXPECT_EQ(total, nodes);
  }
}

TEST(RapidChain, RebalancedCommitteeHoldsExactlyItsBlocks) {
  // At n=8, k=3 one committee exists only through rebalancing (a single
  // moved member). Every committee — that one included — must end up
  // holding exactly its own blocks; a one-member committee has the block
  // the moment its leader stores it.
  const Chain chain = make_chain(12);
  RapidChainNetwork net(make_config(8, 3));
  net.init_with_genesis(chain.at_height(0));
  std::unordered_set<std::size_t> routed;
  for (std::uint64_t h = 1; h <= chain.height(); ++h) {
    const Block& block = chain.at_height(h);
    const Hash256 hash = block.hash();
    const std::size_t c = net.committee_of_block(hash);
    routed.insert(c);
    const sim::SimTime latency = net.disseminate_and_settle(block);
    const auto& members = net.committee_members(c);
    if (members.size() > 1) {
      EXPECT_GT(latency, 0u) << "height " << h;
    } else {
      EXPECT_EQ(latency, 0u) << "height " << h;
    }
    for (sim::NodeId id = 0; id < net.node_count(); ++id) {
      const bool member = std::find(members.begin(), members.end(), id) != members.end();
      EXPECT_EQ(net.node(id).store().has_block(hash), member)
          << "height " << h << " node " << id << " committee " << c;
    }
  }
  EXPECT_EQ(routed.size(), 3u) << "some committee got no block to check";
}

TEST(RapidChain, RejectsBadCommitteeCount) {
  EXPECT_THROW(RapidChainNetwork net(make_config(4, 0)), std::invalid_argument);
  EXPECT_THROW(RapidChainNetwork net(make_config(4, 5)), std::invalid_argument);
}

TEST(RapidChain, DisseminationReachesWholeCommittee) {
  const Chain chain = make_chain(1);
  RapidChainNetwork net(make_config());
  net.init_with_genesis(chain.at_height(0));
  const sim::SimTime latency = net.disseminate_and_settle(chain.at_height(1));
  EXPECT_GT(latency, 0u);

  const Hash256 hash = chain.at_height(1).hash();
  const std::size_t c = net.committee_of_block(hash);
  for (sim::NodeId id : net.committee_members(c)) {
    EXPECT_TRUE(net.node(id).store().has_block(hash)) << "member " << id;
  }
  // Other committees never see the body.
  for (std::size_t other = 0; other < 4; ++other) {
    if (other == c) continue;
    for (sim::NodeId id : net.committee_members(other)) {
      EXPECT_FALSE(net.node(id).store().has_block(hash));
    }
  }
}

TEST(RapidChain, IdaGossipCostsAboutGossipDegreeBlocksPerMember) {
  // Use a realistically sized block so chunk payloads dominate the
  // per-message framing (tiny chunks would make overhead the whole story).
  ChainGenConfig ccfg;
  ccfg.blocks = 1;
  ccfg.txs_per_block = 80;
  const Chain chain = ChainGenerator(ccfg).generate();

  RapidChainNetwork net(make_config(32, 2));
  net.init_with_genesis(chain.at_height(0));
  net.network().reset_traffic();
  ASSERT_GT(net.disseminate_and_settle(chain.at_height(1)), 0u);

  const std::size_t c = net.committee_of_block(chain.at_height(1).hash());
  const double m = static_cast<double>(net.committee_members(c).size());
  const double d = static_cast<double>(RapidChainNetwork::kGossipDegree);
  const double copies = static_cast<double>(net.network().total_traffic().bytes_sent) /
                        static_cast<double>(chain.at_height(1).serialized_size());
  // Flooding with dedup: every member relays each fresh chunk to d ring
  // successors → ≈ d·m block-equivalents plus framing.
  EXPECT_GT(copies, m * 0.5);
  EXPECT_LT(copies, m * (d + 2.0));
}

TEST(RapidChain, PreloadStoresShardsOnly) {
  const Chain chain = make_chain(16);
  RapidChainNetwork net(make_config(20, 4));
  net.init_with_genesis(chain.at_height(0));
  net.preload_chain(chain);

  // Every block on every member of exactly its own committee.
  for (std::uint64_t h = 1; h <= chain.height(); ++h) {
    const Hash256 hash = chain.at_height(h).hash();
    const std::size_t c = net.committee_of_block(hash);
    for (sim::NodeId id : net.committee_members(c)) {
      EXPECT_TRUE(net.node(id).store().has_block(hash));
    }
  }
  // Per-node storage ≈ D/k, far below the ledger.
  const StorageSnapshot snap = StorageMeter::snapshot(net.stores());
  EXPECT_LT(snap.mean_bytes, static_cast<double>(chain.total_bytes()) * 0.6);
  EXPECT_GT(snap.mean_bytes, 0.0);
}

TEST(RapidChain, BootstrapDownloadsOneShard) {
  const Chain chain = make_chain(20);
  RapidChainNetwork net(make_config(20, 4));
  net.init_with_genesis(chain.at_height(0));
  net.preload_chain(chain);

  const auto report = net.bootstrap({50, 50});
  EXPECT_TRUE(report.complete);
  EXPECT_GT(report.bodies_fetched, 0u);
  EXPECT_LT(report.bytes_downloaded, chain.total_bytes());
  // The joiner holds its committee's shard.
  const auto& joiner = net.node(static_cast<sim::NodeId>(net.node_count() - 1));
  EXPECT_EQ(joiner.store().block_count(), report.bodies_fetched);
}

TEST(RapidChain, BlockCommitteeAssignmentIsDeterministicAndSpread) {
  RapidChainNetwork net(make_config(40, 8));
  std::unordered_set<std::size_t> used;
  for (std::uint64_t i = 0; i < 64; ++i) {
    ByteWriter w;
    w.u64(i);
    const Hash256 h = Hash256::of(ByteSpan(w.bytes().data(), w.bytes().size()));
    const std::size_t c = net.committee_of_block(h);
    EXPECT_EQ(c, net.committee_of_block(h));
    EXPECT_LT(c, 8u);
    used.insert(c);
  }
  EXPECT_EQ(used.size(), 8u);  // all committees get blocks
}

}  // namespace
}  // namespace ici::baseline
