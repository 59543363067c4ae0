// The host contract every simulated strategy inherits (src/host/host.h):
// genesis exactly once and before any traffic, faults installed at most
// once, and settle() mirroring the store.* and faults.* tallies into the
// facade's registry. One typed suite over the three facades.
#include "host/host.h"

#include <gtest/gtest.h>

#include <type_traits>

#include "baseline/fullrep.h"
#include "baseline/rapidchain.h"
#include "chain/workload.h"
#include "ici/network.h"
#include "storage/store_metrics.h"

namespace ici {
namespace {

const Chain& test_chain() {
  static const Chain chain = [] {
    ChainGenConfig cfg;
    cfg.blocks = 6;
    cfg.txs_per_block = 4;
    return ChainGenerator(cfg).generate();
  }();
  return chain;
}

template <class Net>
std::unique_ptr<Net> make_net(const StoreConfig& store = {}) {
  if constexpr (std::is_same_v<Net, core::IciNetwork>) {
    core::IciNetworkConfig cfg;
    cfg.node_count = 12;
    cfg.ici.cluster_count = 2;
    cfg.store = store;
    return std::make_unique<Net>(cfg);
  } else if constexpr (std::is_same_v<Net, baseline::FullRepNetwork>) {
    baseline::FullRepConfig cfg;
    cfg.node_count = 12;
    cfg.validate = false;
    cfg.store = store;
    return std::make_unique<Net>(cfg);
  } else {
    baseline::RapidChainConfig cfg;
    cfg.node_count = 12;
    cfg.committee_count = 2;
    cfg.store = store;
    return std::make_unique<Net>(cfg);
  }
}

template <class Net>
class HostContract : public ::testing::Test {};

using Facades =
    ::testing::Types<core::IciNetwork, baseline::FullRepNetwork, baseline::RapidChainNetwork>;
TYPED_TEST_SUITE(HostContract, Facades);

TYPED_TEST(HostContract, GenesisExactlyOnce) {
  auto net = make_net<TypeParam>();
  net->init_with_genesis(test_chain().at_height(0));
  EXPECT_THROW(net->init_with_genesis(test_chain().at_height(0)), std::logic_error);
}

TYPED_TEST(HostContract, TrafficBeforeGenesisThrows) {
  auto net = make_net<TypeParam>();
  EXPECT_THROW((void)net->disseminate_and_settle(test_chain().at_height(1)), std::logic_error);
  EXPECT_THROW(net->preload_chain(test_chain()), std::logic_error);
}

TYPED_TEST(HostContract, FaultsStartOnce) {
  auto net = make_net<TypeParam>();
  net->start_faults(sim::FaultPlan{});
  EXPECT_THROW(net->start_faults(sim::FaultPlan{}), std::logic_error);
}

TYPED_TEST(HostContract, SettleMirrorsDiskStoreCounters) {
  StoreConfig store;
  store.backend = "disk";
  auto net = make_net<TypeParam>(store);
  net->init_with_genesis(test_chain().at_height(0));
  net->preload_chain(test_chain());
  net->settle();

  const StoreCounters fleet = sum_store_counters(net->stores());
  ASSERT_GT(fleet.puts, 0u);
  EXPECT_EQ(net->metrics().counter_value("store.puts"), fleet.puts);
  EXPECT_EQ(net->metrics().counter_value("store.appended_bytes"), fleet.appended_bytes);
  EXPECT_EQ(net->metrics().counter_value("store.wq_retired"), fleet.wq_retired);
}

TYPED_TEST(HostContract, SettleMirrorsFaultCounters) {
  auto net = make_net<TypeParam>();
  net->init_with_genesis(test_chain().at_height(0));
  const sim::SimTime now = net->simulator().now();
  sim::FaultPlan plan;
  plan.crashes.push_back(sim::CrashWindow{3, now + 1'000, now + 50'000});
  net->start_faults(plan);
  net->settle();

  EXPECT_EQ(net->metrics().counter_value("faults.crashes"), 1u);
  EXPECT_EQ(net->metrics().counter_value("faults.restarts"), 1u);
  EXPECT_EQ(net->metrics().counter_value("churn.down"), 1u);
  EXPECT_EQ(net->metrics().counter_value("churn.up"), 1u);
  EXPECT_TRUE(net->network().online(3));
}

}  // namespace
}  // namespace ici
