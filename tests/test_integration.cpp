// Cross-system integration tests: the three network flavours processing the
// SAME ledger, verifying the paper's comparative claims hold structurally
// (storage ordering, communication ordering, bootstrap ordering).
#include <gtest/gtest.h>

#include "baseline/fullrep.h"
#include "baseline/rapidchain.h"
#include "chain/workload.h"
#include "ici/network.h"
#include "storage/storage_meter.h"

namespace ici {
namespace {

Chain shared_chain(std::size_t blocks = 24, std::size_t txs = 10) {
  ChainGenConfig cfg;
  cfg.blocks = blocks;
  cfg.txs_per_block = txs;
  return ChainGenerator(cfg).generate();
}

TEST(Integration, StorageOrderingFullrepVsRapidchainVsIci) {
  const Chain chain = shared_chain();
  constexpr std::size_t kNodes = 40;

  baseline::FullRepConfig fr_cfg;
  fr_cfg.node_count = kNodes;
  fr_cfg.validate = false;
  baseline::FullRepNetwork fullrep(fr_cfg);
  fullrep.init_with_genesis(chain.at_height(0));
  fullrep.preload_chain(chain);

  baseline::RapidChainConfig rc_cfg;
  rc_cfg.node_count = kNodes;
  rc_cfg.committee_count = 4;
  baseline::RapidChainNetwork rapidchain(rc_cfg);
  rapidchain.init_with_genesis(chain.at_height(0));
  rapidchain.preload_chain(chain);

  core::IciNetworkConfig ici_cfg;
  ici_cfg.node_count = kNodes;
  ici_cfg.ici.cluster_count = 4;  // cluster size 10 > committee count 4
  core::IciNetwork ici(ici_cfg);
  ici.init_with_genesis(chain.at_height(0));
  ici.preload_chain(chain);

  const double fr = StorageMeter::snapshot(fullrep.stores()).mean_bytes;
  const double rc = StorageMeter::snapshot(rapidchain.stores()).mean_bytes;
  const double ic = StorageMeter::snapshot(ici.stores()).mean_bytes;

  // The paper's ordering: ICI < RapidChain < full replication.
  EXPECT_LT(ic, rc);
  EXPECT_LT(rc, fr);
  // Full replication stores the whole ledger.
  EXPECT_GE(fr, static_cast<double>(chain.total_bytes()));
}

TEST(Integration, HeadlineRatioMatchesTheory) {
  // Per-node bodies: ICI ≈ D·r/m (m = cluster size), RapidChain ≈ D/k.
  // With N=48, ICI k_ici=3 (m=16) vs RapidChain k_rc=4: ratio = k_rc/m = 1/4.
  const Chain chain = shared_chain(30, 10);
  constexpr std::size_t kNodes = 48;

  baseline::RapidChainConfig rc_cfg;
  rc_cfg.node_count = kNodes;
  rc_cfg.committee_count = 4;
  baseline::RapidChainNetwork rapidchain(rc_cfg);
  rapidchain.init_with_genesis(chain.at_height(0));
  rapidchain.preload_chain(chain);

  core::IciNetworkConfig ici_cfg;
  ici_cfg.node_count = kNodes;
  ici_cfg.ici.cluster_count = 3;
  core::IciNetwork ici(ici_cfg);
  ici.init_with_genesis(chain.at_height(0));
  ici.preload_chain(chain);

  // Compare body bytes only (headers are a shared constant cost).
  double rc_bodies = 0, ic_bodies = 0;
  for (const BlockStore* s : rapidchain.stores()) rc_bodies += s->body_bytes();
  rc_bodies /= static_cast<double>(rapidchain.node_count());
  for (const BlockStore* s : ici.stores()) ic_bodies += s->body_bytes();
  ic_bodies /= static_cast<double>(ici.node_count());

  EXPECT_NEAR(ic_bodies / rc_bodies, 0.25, 0.08)
      << "expected the paper's ~25% headline at m = 4k_rc";
}

TEST(Integration, DisseminationTrafficIciBelowFullrep) {
  ChainGenConfig ccfg;
  ccfg.txs_per_block = 16;
  constexpr std::size_t kNodes = 32;

  // Drive both networks with identically configured (but independently
  // generated) workloads; compare bytes per disseminated block.
  ChainGenerator gen_a(ccfg), gen_b(ccfg);

  baseline::FullRepConfig fr_cfg;
  fr_cfg.node_count = kNodes;
  baseline::FullRepNetwork fullrep(fr_cfg);
  Block genesis_a = gen_a.workload().make_genesis();
  gen_a.workload().confirm(genesis_a);
  Chain chain_a(genesis_a);
  fullrep.init_with_genesis(genesis_a);

  // Cluster size 16 — the regime the paper targets (ICI's per-cluster cost
  // is ~(3.75 + r) block-equivalents regardless of m, so savings grow with
  // cluster size).
  core::IciNetworkConfig ici_cfg;
  ici_cfg.node_count = kNodes;
  ici_cfg.ici.cluster_count = 2;
  core::IciNetwork ici(ici_cfg);
  Block genesis_b = gen_b.workload().make_genesis();
  gen_b.workload().confirm(genesis_b);
  Chain chain_b(genesis_b);
  ici.init_with_genesis(genesis_b);

  std::uint64_t fr_bytes = 0, ic_bytes = 0;
  for (int i = 0; i < 3; ++i) {
    chain_a.append(gen_a.next_block(chain_a));
    fullrep.network().reset_traffic();
    EXPECT_GT(fullrep.disseminate_and_settle(chain_a.tip()), 0u);
    fr_bytes += fullrep.network().total_traffic().bytes_sent;

    chain_b.append(gen_b.next_block(chain_b));
    ici.network().reset_traffic();
    EXPECT_GT(ici.disseminate_and_settle(chain_b.tip()), 0u);
    ic_bytes += ici.network().total_traffic().bytes_sent;
  }
  EXPECT_LT(ic_bytes, fr_bytes / 2) << "ICI should at least halve dissemination traffic";
}

TEST(Integration, BootstrapOrderingIciBelowRapidchainBelowFullrep) {
  const Chain chain = shared_chain(30, 10);
  constexpr std::size_t kNodes = 32;

  baseline::FullRepConfig fr_cfg;
  fr_cfg.node_count = kNodes;
  fr_cfg.validate = false;
  baseline::FullRepNetwork fullrep(fr_cfg);
  fullrep.init_with_genesis(chain.at_height(0));
  fullrep.preload_chain(chain);
  const auto fr = fullrep.bootstrap({50, 50});
  ASSERT_TRUE(fr.complete);

  baseline::RapidChainConfig rc_cfg;
  rc_cfg.node_count = kNodes;
  rc_cfg.committee_count = 4;
  baseline::RapidChainNetwork rapidchain(rc_cfg);
  rapidchain.init_with_genesis(chain.at_height(0));
  rapidchain.preload_chain(chain);
  const auto rc = rapidchain.bootstrap({50, 50});
  ASSERT_TRUE(rc.complete);

  core::IciNetworkConfig ici_cfg;
  ici_cfg.node_count = kNodes;
  ici_cfg.ici.cluster_count = 2;  // cluster size 16 = 4 × k_rc
  core::IciNetwork ici(ici_cfg);
  ici.init_with_genesis(chain.at_height(0));
  ici.preload_chain(chain);
  const auto ic = ici.bootstrap({50, 50});
  ASSERT_TRUE(ic.complete);

  EXPECT_LT(ic.bytes_downloaded, rc.bytes_downloaded);
  EXPECT_LT(rc.bytes_downloaded, fr.bytes_downloaded);
}

TEST(Integration, IntraClusterIntegrityInvariant) {
  // The defining invariant: every cluster holds the complete ledger.
  ChainGenConfig ccfg;
  ccfg.txs_per_block = 8;
  ChainGenerator gen(ccfg);

  core::IciNetworkConfig cfg;
  cfg.node_count = 30;
  cfg.ici.cluster_count = 3;
  cfg.ici.replication = 1;
  core::IciNetwork net(cfg);
  Block genesis = gen.workload().make_genesis();
  gen.workload().confirm(genesis);
  Chain chain(genesis);
  net.init_with_genesis(genesis);

  for (int i = 0; i < 8; ++i) {
    chain.append(gen.next_block(chain));
    ASSERT_GT(net.disseminate_and_settle(chain.tip()), 0u);
  }

  auto& dir = net.directory();
  for (std::size_t c = 0; c < dir.cluster_count(); ++c) {
    for (std::uint64_t h = 0; h <= chain.height(); ++h) {
      bool cluster_has = false;
      for (auto id : dir.members(c)) {
        if (net.node(id).store().has_block(chain.at_height(h).hash())) {
          cluster_has = true;
          break;
        }
      }
      EXPECT_TRUE(cluster_has) << "cluster " << c << " missing height " << h;
    }
  }
}

}  // namespace
}  // namespace ici
