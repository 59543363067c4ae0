// Property sweeps: the protocol's core invariants must hold across the
// whole configuration grid, not just hand-picked settings.
//
// Invariants checked after disseminating a few blocks under (N, k, r) /
// (N, k, d, p) combinations:
//  P1  every cluster commits every block;
//  P2  intra-cluster integrity — every cluster can produce every block;
//  P3  per-cluster copy count equals r (replication) / d+p shards (coded);
//  P4  all nodes hold all headers;
//  P5  total traffic is byte-positive and bounded by a loose cap;
//  P6  the same seed reproduces the exact same storage layout.
#include <gtest/gtest.h>

#include "chain/workload.h"
#include "ici/network.h"

namespace ici::core {
namespace {

struct GridCase {
  std::size_t nodes;
  std::size_t clusters;
  std::size_t replication;  // used when erasure_data == 0
  std::size_t erasure_data;
  std::size_t erasure_parity;
};

std::string case_name(const ::testing::TestParamInfo<GridCase>& info) {
  const GridCase& c = info.param;
  std::string name = "n";
  name += std::to_string(c.nodes);
  name += "_k";
  name += std::to_string(c.clusters);
  if (c.erasure_data > 0) {
    name += "_rs";
    name += std::to_string(c.erasure_data);
    name += "x";
    name += std::to_string(c.erasure_parity);
  } else {
    name += "_r";
    name += std::to_string(c.replication);
  }
  return name;
}

class ProtocolGrid : public ::testing::TestWithParam<GridCase> {
 protected:
  struct Run {
    std::unique_ptr<IciNetwork> net;
    std::unique_ptr<Chain> chain;
  };

  Run run_case(const GridCase& c, int blocks) {
    ChainGenConfig ccfg;
    ccfg.txs_per_block = 8;
    ChainGenerator gen(ccfg);

    IciNetworkConfig ncfg;
    ncfg.node_count = c.nodes;
    ncfg.ici.cluster_count = c.clusters;
    ncfg.ici.replication = c.replication;
    ncfg.ici.erasure_data = c.erasure_data;
    ncfg.ici.erasure_parity = c.erasure_parity;

    Run run;
    run.net = std::make_unique<IciNetwork>(ncfg);
    Block genesis = gen.workload().make_genesis();
    gen.workload().confirm(genesis);
    run.chain = std::make_unique<Chain>(genesis);
    run.net->init_with_genesis(genesis);
    for (int i = 0; i < blocks; ++i) {
      run.chain->append(gen.next_block(*run.chain));
      EXPECT_GT(run.net->disseminate_and_settle(run.chain->tip()), 0u)
          << "P1 violated at height " << run.chain->height();
    }
    return run;
  }
};

TEST_P(ProtocolGrid, InvariantsHold) {
  const GridCase c = GetParam();
  constexpr int kBlocks = 3;
  Run run = run_case(c, kBlocks);
  auto& net = *run.net;
  auto& chain = *run.chain;
  auto& dir = net.directory();

  // P1 already checked in run_case; commit count is k per block.
  EXPECT_EQ(net.metrics().counter_value("commit.count"),
            static_cast<std::uint64_t>(kBlocks) * c.clusters);

  for (std::uint64_t h = 1; h <= chain.height(); ++h) {
    const Hash256 hash = chain.at_height(h).hash();
    for (std::size_t cl = 0; cl < dir.cluster_count(); ++cl) {
      if (c.erasure_data > 0) {
        // P2/P3 coded: min(d+p, m) distinct shards (a small cluster drops
        // parity, never data), always enough to decode.
        std::size_t shards = 0;
        for (auto id : dir.members(cl)) {
          shards += net.node(id).shards().indices(hash).size();
        }
        EXPECT_EQ(shards,
                  std::min(c.erasure_data + c.erasure_parity, dir.members(cl).size()))
            << "height " << h << " cluster " << cl;
        EXPECT_GE(shards, c.erasure_data) << "undecodable: cluster smaller than d";
      } else {
        // P3: exactly min(r, m) holders.
        std::size_t holders = 0;
        for (auto id : dir.members(cl)) {
          if (net.node(id).store().has_block(hash)) ++holders;
        }
        EXPECT_EQ(holders, std::min(c.replication, dir.members(cl).size()))
            << "height " << h << " cluster " << cl;
      }
    }
  }

  // P4: all headers everywhere.
  for (std::size_t id = 0; id < net.node_count(); ++id) {
    EXPECT_EQ(net.node(static_cast<cluster::NodeId>(id)).store().header_count(),
              chain.size());
  }

  // P5: sane traffic: at least one body per cluster entered the network;
  // at most a gossip-storm's worth.
  const auto traffic = net.network().total_traffic();
  const double body = static_cast<double>(chain.tip().serialized_size());
  EXPECT_GT(static_cast<double>(traffic.bytes_sent), body * static_cast<double>(c.clusters));
  EXPECT_LT(static_cast<double>(traffic.bytes_sent),
            body * static_cast<double>(c.nodes) * kBlocks * 4);
  EXPECT_EQ(traffic.msgs_sent >= traffic.msgs_received, true);  // drops only
}

TEST_P(ProtocolGrid, DeterministicLayoutForSameSeed) {
  const GridCase c = GetParam();
  Run a = run_case(c, 2);
  Run b = run_case(c, 2);
  ASSERT_EQ(a.chain->tip().hash(), b.chain->tip().hash());
  for (std::size_t id = 0; id < a.net->node_count(); ++id) {
    const auto& na = a.net->node(static_cast<cluster::NodeId>(id));
    const auto& nb = b.net->node(static_cast<cluster::NodeId>(id));
    EXPECT_EQ(na.store().block_count(), nb.store().block_count()) << id;
    EXPECT_EQ(na.storage_bytes(), nb.storage_bytes()) << id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProtocolGrid,
    ::testing::Values(GridCase{12, 1, 1, 0, 0}, GridCase{16, 2, 1, 0, 0},
                      GridCase{16, 2, 2, 0, 0}, GridCase{24, 3, 1, 0, 0},
                      GridCase{24, 2, 3, 0, 0}, GridCase{30, 5, 2, 0, 0},
                      GridCase{40, 4, 1, 0, 0}, GridCase{16, 2, 1, 2, 1},
                      GridCase{24, 2, 1, 4, 2}, GridCase{30, 3, 1, 3, 2},
                      GridCase{40, 2, 1, 8, 4}),
    case_name);

}  // namespace
}  // namespace ici::core
