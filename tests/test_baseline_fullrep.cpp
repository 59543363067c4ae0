#include "baseline/fullrep.h"

#include <gtest/gtest.h>

#include "chain/workload.h"
#include "storage/storage_meter.h"

namespace ici::baseline {
namespace {

struct Rig {
  explicit Rig(std::size_t nodes = 16, bool validate = true) {
    ChainGenConfig ccfg;
    ccfg.txs_per_block = 8;
    gen = std::make_unique<ChainGenerator>(ccfg);

    FullRepConfig cfg;
    cfg.node_count = nodes;
    cfg.validate = validate;
    net = std::make_unique<FullRepNetwork>(cfg);

    Block genesis = gen->workload().make_genesis();
    gen->workload().confirm(genesis);
    chain = std::make_unique<Chain>(genesis);
    net->init_with_genesis(genesis);
  }

  sim::SimTime step() {
    Block b = gen->next_block(*chain);
    chain->append(b);
    return net->disseminate_and_settle(chain->tip());
  }

  std::unique_ptr<ChainGenerator> gen;
  std::unique_ptr<FullRepNetwork> net;
  std::unique_ptr<Chain> chain;
};

TEST(FullRep, GossipReachesEveryNode) {
  Rig rig;
  const sim::SimTime latency = rig.step();
  EXPECT_GT(latency, 0u);
  const Hash256 hash = rig.chain->tip().hash();
  for (std::size_t id = 0; id < rig.net->node_count(); ++id) {
    EXPECT_TRUE(rig.net->node(static_cast<sim::NodeId>(id)).store().has_block(hash))
        << "node " << id;
  }
}

TEST(FullRep, EveryNodeValidates) {
  Rig rig;
  ASSERT_GT(rig.step(), 0u);
  // Everyone except the proposer validated via gossip; the proposer
  // validated on injection.
  EXPECT_EQ(rig.net->metrics().counter_value("fullrep.validated"), rig.net->node_count());
  EXPECT_EQ(rig.net->metrics().counter_value("fullrep.rejected"), 0u);
}

TEST(FullRep, EveryNodeReceivesBodyExactlyOnce) {
  Rig rig;
  rig.net->network().reset_traffic();
  ASSERT_GT(rig.step(), 0u);
  const auto traffic = rig.net->network().total_traffic();
  const double copies = static_cast<double>(traffic.bytes_sent) /
                        static_cast<double>(rig.chain->tip().serialized_size());
  // INV/GETDATA dedup means ~N-1 body transfers plus chatter.
  EXPECT_GT(copies, static_cast<double>(rig.net->node_count()) * 0.8);
  EXPECT_LT(copies, static_cast<double>(rig.net->node_count()) * 1.6);
}

TEST(FullRep, UtxoConsistentAcrossNodes) {
  Rig rig;
  for (int i = 0; i < 3; ++i) ASSERT_GT(rig.step(), 0u);
  const Amount expected = rig.net->node(0).utxo().total_value();
  for (std::size_t id = 1; id < rig.net->node_count(); ++id) {
    EXPECT_EQ(rig.net->node(static_cast<sim::NodeId>(id)).utxo().total_value(), expected);
    EXPECT_EQ(rig.net->node(static_cast<sim::NodeId>(id)).utxo().size(),
              rig.net->node(0).utxo().size());
  }
}

TEST(FullRep, StorageEqualsLedgerEverywhere) {
  Rig rig(10, /*validate=*/false);
  ChainGenConfig ccfg;
  ccfg.blocks = 6;
  const Chain chain = ChainGenerator(ccfg).generate();

  FullRepConfig cfg;
  cfg.node_count = 10;
  cfg.validate = false;
  FullRepNetwork net(cfg);
  net.init_with_genesis(chain.at_height(0));
  net.preload_chain(chain);

  const StorageSnapshot snap = StorageMeter::snapshot(net.stores());
  EXPECT_EQ(snap.mean_bytes, snap.max_bytes);  // identical everywhere
  EXPECT_GE(snap.mean_bytes, static_cast<double>(chain.total_bytes()));
}

TEST(FullRep, BootstrapDownloadsWholeChain) {
  Rig rig;
  for (int i = 0; i < 4; ++i) ASSERT_GT(rig.step(), 0u);
  const auto report = rig.net->bootstrap({50, 50});
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.bodies_fetched, rig.chain->size());
  EXPECT_GE(report.bytes_downloaded, rig.chain->total_bytes());
}

TEST(FullRep, PeerGraphDegreeAndSymmetry) {
  Rig rig(20);
  for (std::size_t id = 0; id < rig.net->node_count(); ++id) {
    const auto& peers = rig.net->peers(static_cast<sim::NodeId>(id));
    EXPECT_GE(peers.size(), FullRepNetwork::kPeerDegree);
    for (sim::NodeId p : peers) {
      const auto& back = rig.net->peers(p);
      EXPECT_NE(std::find(back.begin(), back.end(), static_cast<sim::NodeId>(id)), back.end())
          << "edge not symmetric";
    }
  }
}

TEST(FullRep, RejectsTinyNetworks) {
  FullRepConfig cfg;
  cfg.node_count = 1;
  EXPECT_THROW(FullRepNetwork net(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace ici::baseline
