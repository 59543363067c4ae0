// The committee-shard contract of the RapidChain baseline
// (baseline/rapidchain.h): which committee a node joins, which committee a
// block is routed to, and which blocks each node ends up storing are a pure
// function of the configuration. Separate runs at 1, 2 and 8 worker-pool
// threads must produce the same shard layout, with and without a
// message-fault plan installed (the test_shard_determinism_faults CTest
// variant sets ICI_FAULT_PLAN). No node ever stores a block of another
// committee; without faults every node holds its committee's whole shard,
// genesis included. IDA gossip has no retransmission, so dropped chunks may
// leave gaps under a fault plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "baseline/rapidchain.h"
#include "chain/workload.h"
#include "common/thread_pool.h"
#include "sim/faults.h"

namespace ici {
namespace {

constexpr std::size_t kPoolWidths[] = {1, 2, 8};

class ShardDeterminism : public ::testing::Test {
 protected:
  // Tests mutate the process-wide pool; always hand back a 1-lane pool so
  // suites that run after this one see the serial default.
  void TearDown() override { ThreadPool::set_global_threads(1); }
};

/// Where every node and block landed, and what each node stores.
struct ShardLayout {
  std::vector<std::size_t> node_committee;
  std::vector<std::size_t> block_committee;  // genesis first
  std::vector<std::vector<Hash256>> stored;  // per node, sorted

  bool operator==(const ShardLayout&) const = default;
};

/// The ICI_FAULT_PLAN spec, or null when none is set.
const char* env_fault_plan() {
  const char* spec = std::getenv("ICI_FAULT_PLAN");
  return spec != nullptr && *spec != '\0' ? spec : nullptr;
}

/// Installs the ICI_FAULT_PLAN message-fault plan, if one is set
/// (drop/dup/delay only — random crash schedules never quiesce).
void install_env_fault_plan(baseline::RapidChainNetwork& net) {
  if (const char* spec = env_fault_plan()) {
    sim::FaultPlan plan;
    std::string error;
    if (!sim::FaultPlan::parse(spec, &plan, &error)) {
      ADD_FAILURE() << "bad ICI_FAULT_PLAN: " << error;
    } else if (plan.enabled()) {
      net.start_faults(plan);
    }
  }
}

ShardLayout run_rapidchain(std::vector<Hash256>* block_hashes) {
  ChainGenConfig ccfg;
  ccfg.txs_per_block = 16;
  ccfg.workload.wallet_count = 16;
  ChainGenerator gen(ccfg);

  baseline::RapidChainConfig ncfg;
  ncfg.node_count = 24;
  ncfg.committee_count = 4;
  baseline::RapidChainNetwork net(ncfg);

  Block genesis = gen.workload().make_genesis();
  gen.workload().confirm(genesis);
  Chain chain(genesis);
  net.init_with_genesis(genesis);
  install_env_fault_plan(net);

  ShardLayout layout;
  block_hashes->assign({genesis.hash()});
  layout.block_committee.push_back(net.committee_of_block(genesis.hash()));
  for (int i = 0; i < 8; ++i) {
    chain.append(gen.next_block(chain));
    const Hash256 hash = chain.tip().hash();
    block_hashes->push_back(hash);
    layout.block_committee.push_back(net.committee_of_block(hash));
    net.disseminate_and_settle(chain.tip());
  }
  for (sim::NodeId id = 0; id < net.node_count(); ++id) {
    layout.node_committee.push_back(net.node(id).committee());
    std::vector<Hash256> hashes = net.node(id).store().stored_hashes();
    std::sort(hashes.begin(), hashes.end());
    layout.stored.push_back(std::move(hashes));
  }
  return layout;
}

TEST_F(ShardDeterminism, LayoutIsIdenticalAcrossPoolWidths) {
  std::vector<ShardLayout> runs;
  std::vector<Hash256> hashes;
  for (const std::size_t width : kPoolWidths) {
    ThreadPool::set_global_threads(width);
    runs.push_back(run_rapidchain(&hashes));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].node_committee, runs[0].node_committee) << kPoolWidths[i] << " threads";
    EXPECT_EQ(runs[i].block_committee, runs[0].block_committee) << kPoolWidths[i] << " threads";
    EXPECT_TRUE(runs[i].stored == runs[0].stored) << kPoolWidths[i] << " threads";
  }
}

TEST_F(ShardDeterminism, EveryNodeHoldsOnlyItsCommitteeShard) {
  std::vector<Hash256> hashes;
  const ShardLayout layout = run_rapidchain(&hashes);
  std::size_t routed_committees = 0;
  for (std::size_t c = 0; c < 4; ++c) {
    routed_committees += std::count(layout.block_committee.begin(),
                                    layout.block_committee.end(), c) > 0;
  }
  EXPECT_GE(routed_committees, 2u) << "every block went to one committee";

  for (std::size_t id = 0; id < layout.stored.size(); ++id) {
    std::vector<Hash256> expected;
    for (std::size_t b = 0; b < layout.block_committee.size(); ++b) {
      if (layout.block_committee[b] == layout.node_committee[id]) {
        expected.push_back(hashes[b]);
      }
    }
    std::sort(expected.begin(), expected.end());
    const auto& stored = layout.stored[id];
    EXPECT_TRUE(std::includes(expected.begin(), expected.end(), stored.begin(), stored.end()))
        << "node " << id << " stores a block outside committee "
        << layout.node_committee[id] << "'s shard";
    if (env_fault_plan() == nullptr) {
      EXPECT_TRUE(stored == expected)
          << "node " << id << " committee " << layout.node_committee[id] << " stores "
          << stored.size() << " blocks, shard has " << expected.size();
    }
  }
}

}  // namespace
}  // namespace ici
