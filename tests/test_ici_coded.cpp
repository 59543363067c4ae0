// Coded-storage mode: blocks live as Reed-Solomon shards spread over d+p
// cluster members instead of whole copies.
#include <gtest/gtest.h>

#include "chain/workload.h"
#include "ici/network.h"
#include "storage/shard_store.h"

namespace ici::core {
namespace {

struct CodedRig {
  CodedRig(std::size_t nodes = 24, std::size_t clusters = 2, std::size_t data = 4,
           std::size_t parity = 2) {
    ChainGenConfig ccfg;
    ccfg.txs_per_block = 10;
    gen = std::make_unique<ChainGenerator>(ccfg);

    IciNetworkConfig ncfg;
    ncfg.node_count = nodes;
    ncfg.ici.cluster_count = clusters;
    ncfg.ici.erasure_data = data;
    ncfg.ici.erasure_parity = parity;
    net = std::make_unique<IciNetwork>(ncfg);

    Block genesis = gen->workload().make_genesis();
    gen->workload().confirm(genesis);
    chain = std::make_unique<Chain>(genesis);
    net->init_with_genesis(genesis);
  }

  sim::SimTime step() {
    chain->append(gen->next_block(*chain));
    return net->disseminate_and_settle(chain->tip());
  }

  std::unique_ptr<ChainGenerator> gen;
  std::unique_ptr<IciNetwork> net;
  std::unique_ptr<Chain> chain;
};

TEST(ShardStore, PutGetPruneAccounting) {
  ShardStore store;
  const Hash256 h = Hash256::of({});
  erasure::Shard s1{1, Bytes{1, 2, 3}};
  erasure::Shard s2{2, Bytes{4, 5}};
  store.put(h, s1);
  store.put(h, s2);
  store.put(h, s1);  // idempotent
  EXPECT_EQ(store.shard_count(), 2u);
  EXPECT_EQ(store.total_bytes(), 5u);
  EXPECT_TRUE(store.has(h, 1));
  EXPECT_TRUE(store.has_any(h));
  EXPECT_FALSE(store.has(h, 3));
  ASSERT_NE(store.get(h, 2), nullptr);
  EXPECT_EQ(store.get(h, 2)->bytes, (Bytes{4, 5}));
  EXPECT_EQ(store.indices(h).size(), 2u);

  EXPECT_EQ(store.prune(h, 1), 3u);
  EXPECT_EQ(store.total_bytes(), 2u);
  EXPECT_EQ(store.prune(h, 1), 0u);
  EXPECT_EQ(store.prune(h, 9), 0u);
}

TEST(CodedMode, DisseminationStoresShardsNotBodies) {
  CodedRig rig;
  ASSERT_GT(rig.step(), 0u);
  const Hash256 hash = rig.chain->tip().hash();

  auto& dir = rig.net->directory();
  for (std::size_t c = 0; c < dir.cluster_count(); ++c) {
    const auto holders = rig.net->shard_holders(hash, 1, c);
    EXPECT_EQ(holders.size(), 6u);  // d + p
    std::size_t shard_count = 0;
    for (auto id : dir.members(c)) {
      EXPECT_FALSE(rig.net->node(id).store().has_block(hash))
          << "coded mode must not store whole bodies";
      shard_count += rig.net->node(id).shards().indices(hash).size();
    }
    EXPECT_EQ(shard_count, 6u) << "cluster " << c;
    // Holder i has shard index i.
    for (std::uint32_t i = 0; i < holders.size(); ++i) {
      EXPECT_TRUE(rig.net->node(holders[i]).shards().has(hash, i));
    }
  }
}

TEST(CodedMode, FetchReconstructsBlock) {
  CodedRig rig;
  for (int i = 0; i < 3; ++i) ASSERT_GT(rig.step(), 0u);
  const Block& target = rig.chain->at_height(2);

  bool got = false;
  rig.net->node(0).fetch_block(target.hash(), 2, [&](const FetchResult& r) {
    ASSERT_NE(r.block, nullptr);
    EXPECT_EQ(r.block->hash(), target.hash());
    EXPECT_TRUE(r.block->merkle_ok());
    EXPECT_GT(r.elapsed_us, 0u);
    got = true;
  });
  rig.net->settle();
  EXPECT_TRUE(got);
}

TEST(CodedMode, SurvivesParityManyHoldersOffline) {
  CodedRig rig(24, 2, 4, 2);
  ASSERT_GT(rig.step(), 0u);
  const Hash256 hash = rig.chain->tip().hash();
  auto& dir = rig.net->directory();

  // Take 2 (= parity) holders of cluster 0 offline; the block must still
  // reconstruct from the remaining 4 shards.
  const auto holders = rig.net->shard_holders(hash, 1, 0);
  for (int i = 0; i < 2; ++i) {
    rig.net->network().set_online(holders[static_cast<std::size_t>(i)], false);
    dir.set_online(holders[static_cast<std::size_t>(i)], false);
  }
  EXPECT_NEAR(rig.net->availability(), 1.0, 1e-9);

  cluster::NodeId requester = cluster::kNoNode;
  for (auto id : dir.members(0)) {
    if (dir.online(id) && std::find(holders.begin(), holders.end(), id) == holders.end()) {
      requester = id;
      break;
    }
  }
  ASSERT_NE(requester, cluster::kNoNode);
  bool got = false;
  rig.net->node(requester).fetch_block(
      hash, 1, [&](const FetchResult& r) { got = r.block != nullptr; });
  rig.net->settle();
  EXPECT_TRUE(got);
}

TEST(CodedMode, UnavailableWhenMoreThanParityOffline) {
  CodedRig rig(24, 2, 4, 2);
  ASSERT_GT(rig.step(), 0u);
  const Hash256 hash = rig.chain->tip().hash();
  auto& dir = rig.net->directory();

  const auto holders = rig.net->shard_holders(hash, 1, 0);
  for (int i = 0; i < 3; ++i) {  // parity + 1
    rig.net->network().set_online(holders[static_cast<std::size_t>(i)], false);
    dir.set_online(holders[static_cast<std::size_t>(i)], false);
  }
  EXPECT_LT(rig.net->availability(), 1.0);
}

TEST(CodedMode, RepairRestoresMissingShards) {
  CodedRig rig(24, 2, 4, 2);
  for (int i = 0; i < 3; ++i) ASSERT_GT(rig.step(), 0u);
  auto& dir = rig.net->directory();

  // Knock one member of cluster 0 offline, repair, and check the cluster is
  // back to full d+p online shards for every block.
  const cluster::NodeId victim = dir.members(0).front();
  rig.net->network().set_online(victim, false);
  dir.set_online(victim, false);
  rig.net->repair_cluster(0);
  rig.net->settle();

  for (const auto& b : rig.net->committed()) {
    std::size_t online_shards = 0;
    std::vector<bool> seen(6, false);
    for (auto id : dir.members(0)) {
      if (!dir.online(id)) continue;
      for (auto index : rig.net->node(id).shards().indices(b.hash)) {
        if (!seen[index]) {
          seen[index] = true;
          ++online_shards;
        }
      }
    }
    EXPECT_GE(online_shards, 6u) << "block " << b.height << " not fully repaired";
  }
  EXPECT_NEAR(rig.net->availability(), 1.0, 1e-9);
}

TEST(CodedMode, StorageIsFractionOfReplication) {
  // Same ledger, r=2 replication vs (4,2) coding: coding should cost
  // ~1.5/... per cluster: replication 2 whole copies vs coded 1.5x one copy.
  ChainGenConfig ccfg;
  ccfg.blocks = 10;
  ccfg.txs_per_block = 20;
  const Chain chain = ChainGenerator(ccfg).generate();

  IciNetworkConfig rep_cfg;
  rep_cfg.node_count = 24;
  rep_cfg.ici.cluster_count = 2;
  rep_cfg.ici.replication = 2;
  IciNetwork replicated(rep_cfg);
  replicated.init_with_genesis(chain.at_height(0));
  replicated.preload_chain(chain);

  IciNetworkConfig coded_cfg;
  coded_cfg.node_count = 24;
  coded_cfg.ici.cluster_count = 2;
  coded_cfg.ici.erasure_data = 4;
  coded_cfg.ici.erasure_parity = 2;
  IciNetwork coded(coded_cfg);
  coded.init_with_genesis(chain.at_height(0));
  coded.preload_chain(chain);

  const double rep_bytes = static_cast<double>(replicated.storage_snapshot().total_bytes);
  const double coded_bytes = static_cast<double>(coded.storage_snapshot().total_bytes);
  // Bodies: replication = 2.0×D per cluster; coded = 1.5×D per cluster.
  // Headers are a shared constant. Expect coded < replication.
  EXPECT_LT(coded_bytes, rep_bytes * 0.9);
  // And the coded overhead ratio on shard bytes alone is ~1.5/2.0 = 0.75.
}

TEST(CodedMode, BootstrapFetchesOnlyAssignedShards) {
  ChainGenConfig ccfg;
  ccfg.blocks = 12;
  ccfg.txs_per_block = 8;
  const Chain chain = ChainGenerator(ccfg).generate();

  IciNetworkConfig cfg;
  cfg.node_count = 24;
  cfg.ici.cluster_count = 2;
  cfg.ici.erasure_data = 4;
  cfg.ici.erasure_parity = 2;
  IciNetwork net(cfg);
  net.init_with_genesis(chain.at_height(0));
  net.preload_chain(chain);

  const host::JoinReport report = net.bootstrap({50, 50});
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(net.node(report.joiner).store().header_count(), chain.size());
  // The joiner holds exactly one shard per block it is assigned to.
  std::size_t held = 0;
  for (std::uint64_t h = 0; h <= chain.height(); ++h) {
    held += net.node(report.joiner).shards().indices(chain.at_height(h).hash()).size();
  }
  EXPECT_EQ(held, report.bodies_fetched);
  // Downloads stay well under the ledger size (it pulled d shards per
  // assigned block, not the whole chain).
  EXPECT_LT(report.bytes_downloaded, chain.total_bytes());
}

TEST(CodedMode, ConfigValidation) {
  IciConfig cfg;
  cfg.erasure_data = 200;
  cfg.erasure_parity = 100;
  EXPECT_FALSE(cfg.valid());
  cfg.erasure_parity = 55;
  EXPECT_TRUE(cfg.valid());
}

}  // namespace
}  // namespace ici::core
