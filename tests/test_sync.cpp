// Streaming bulk-sync protocol tests (docs/BOOTSTRAP.md): determinism,
// crash/resume equivalence, closed-form differential byte accounting, and
// multi-peer pull spread.
#include <gtest/gtest.h>

#include "baseline/fullrep.h"
#include "baseline/rapidchain.h"
#include "chain/workload.h"
#include "ici/network.h"
#include "sim/faults.h"
#include "strategy/strategy.h"

namespace ici {
namespace {

Chain make_test_chain(std::size_t blocks, std::size_t txs = 8) {
  ChainGenConfig cfg;
  cfg.blocks = blocks;
  cfg.txs_per_block = txs;
  return ChainGenerator(cfg).generate();
}

template <class Net, class Config>
std::unique_ptr<Net> preloaded(Config cfg, const Chain& chain) {
  auto net = std::make_unique<Net>(cfg);
  net->init_with_genesis(chain.at_height(0));
  net->preload_chain(chain);
  return net;
}

struct IciRig {
  explicit IciRig(const Chain& chain, std::size_t nodes = 20, std::size_t clusters = 2) {
    core::IciNetworkConfig cfg;
    cfg.node_count = nodes;
    cfg.ici.cluster_count = clusters;
    net = preloaded<core::IciNetwork>(cfg, chain);
  }
  std::unique_ptr<core::IciNetwork> net;
};

struct FullRepRig {
  explicit FullRepRig(const Chain& chain, std::size_t nodes = 16) {
    baseline::FullRepConfig cfg;
    cfg.node_count = nodes;
    cfg.validate = false;
    net = preloaded<baseline::FullRepNetwork>(cfg, chain);
  }
  std::unique_ptr<baseline::FullRepNetwork> net;
};

/// A preloaded network of `flavour` (ici, fullrep or rapidchain), seen
/// through the host every flavour shares.
std::unique_ptr<host::Host> make_host(std::string_view flavour, const Chain& chain,
                                      double serve_rate_bps = 0.0) {
  if (flavour == "ici") {
    core::IciNetworkConfig cfg;
    cfg.node_count = 20;
    cfg.ici.cluster_count = 2;
    cfg.sync_serve_rate_bps = serve_rate_bps;
    return preloaded<core::IciNetwork>(cfg, chain);
  }
  if (flavour == "fullrep") {
    baseline::FullRepConfig cfg;
    cfg.node_count = 16;
    cfg.validate = false;
    cfg.sync_serve_rate_bps = serve_rate_bps;
    return preloaded<baseline::FullRepNetwork>(cfg, chain);
  }
  baseline::RapidChainConfig cfg;
  cfg.node_count = 20;
  cfg.committee_count = 2;
  cfg.sync_serve_rate_bps = serve_rate_bps;
  return preloaded<baseline::RapidChainNetwork>(cfg, chain);
}

/// The joiner's final verified state: headers, bodies and RS shard bytes.
struct JoinerState {
  std::uint64_t headers = 0;
  std::uint64_t blocks = 0;
  std::uint64_t body_bytes = 0;
  std::uint64_t shard_bytes = 0;

  JoinerState(const host::Host& net, sim::NodeId joiner) {
    const BlockStore& store = *net.stores().at(joiner);
    headers = store.header_count();
    blocks = store.block_count();
    body_bytes = store.body_bytes();
    shard_bytes = net.fleet_tally().slot(joiner).shard_bytes;
  }
  bool operator==(const JoinerState&) const = default;
};

class SyncJoin : public ::testing::TestWithParam<std::string_view> {};

// Two identical fresh rigs at the same seed must produce bit-identical
// joins: same bytes, same timing, same per-peer attribution, in the same
// order (the determinism contract of docs/BOOTSTRAP.md).
TEST(Sync, BitIdenticalReruns) {
  const Chain chain = make_test_chain(16);
  host::JoinReport a, b;
  {
    IciRig rig(chain);
    a = rig.net->bootstrap({50, 50});
  }
  {
    IciRig rig(chain);
    b = rig.net->bootstrap({50, 50});
  }
  ASSERT_TRUE(a.complete);
  ASSERT_TRUE(b.complete);
  EXPECT_EQ(a.bytes_downloaded, b.bytes_downloaded);
  EXPECT_EQ(a.elapsed_us, b.elapsed_us);
  EXPECT_EQ(a.sync.frontier_us, b.sync.frontier_us);
  EXPECT_EQ(a.sync.ranges_committed, b.sync.ranges_committed);
  EXPECT_EQ(a.sync.headers_committed, b.sync.headers_committed);
  ASSERT_EQ(a.sync.by_peer.size(), b.sync.by_peer.size());
  for (std::size_t i = 0; i < a.sync.by_peer.size(); ++i) {
    EXPECT_EQ(a.sync.by_peer[i].peer, b.sync.by_peer[i].peer);
    EXPECT_EQ(a.sync.by_peer[i].bytes, b.sync.by_peer[i].bytes);
    EXPECT_EQ(a.sync.by_peer[i].responses, b.sync.by_peer[i].responses);
  }
}

// A joiner crashed mid-sync by a FaultPlan window must resume from the
// driver-owned checkpoint and end in the same final verified state
// (bit-identical storage counters) as an uninterrupted join.
TEST_P(SyncJoin, ResumeAfterCrashMatchesUninterrupted) {
  const Chain chain = make_test_chain(24);

  const auto clean = make_host(GetParam(), chain);
  const host::JoinReport clean_report = clean->bootstrap({50, 50});
  ASSERT_TRUE(clean_report.complete);
  const sim::SimTime t_clean = clean_report.sync.time_to_synced_us;
  ASSERT_GT(t_clean, 0u);

  const auto faulted = make_host(GetParam(), chain);
  const sim::NodeId joiner = faulted->add_sync_joiner({50, 50});
  const sim::SimTime now = faulted->simulator().now();
  sim::FaultPlan plan;
  plan.crashes.push_back(
      sim::CrashWindow{joiner, now + t_clean * 2 / 5, now + t_clean * 9 / 10});
  faulted->start_faults(plan);

  const host::JoinReport resumed = faulted->bootstrap_added(joiner);
  ASSERT_TRUE(resumed.complete);
  EXPECT_GE(resumed.sync.resume_count, 1u) << "crash window missed the sync";

  EXPECT_EQ(JoinerState(*faulted, joiner), JoinerState(*clean, clean_report.joiner));
  EXPECT_EQ(resumed.sync.headers_committed, clean_report.sync.headers_committed);
  EXPECT_EQ(resumed.sync.bodies_committed, clean_report.sync.bodies_committed);
}

// Serve-side rate limiting (--sync-serve-rate): a join against throttled
// servers must be delayed (sync.serve_throttled fires, the join takes
// longer in sim time) but land in the exact same verified state — same
// bytes, same ranges, same final store — as the unthrottled join. The
// token-bucket delay only reorders *when* responses leave, never what they
// contain.
TEST_P(SyncJoin, ThrottledJoinLandsBitIdentical) {
  const Chain chain = make_test_chain(16);

  const auto clean = make_host(GetParam(), chain);
  const host::JoinReport clean_report = clean->bootstrap({50, 50});
  ASSERT_TRUE(clean_report.complete);

  // 1 MB/s of sim time: every response is delayed by its serialization
  // cost (tens of ms for a range) while staying far inside the sync
  // timeouts, so nothing is retried — only deferred.
  const auto throttled = make_host(GetParam(), chain, /*serve_rate_bps=*/1'000'000.0);
  const host::JoinReport throttled_report = throttled->bootstrap({50, 50});
  ASSERT_TRUE(throttled_report.complete);

  EXPECT_GT(throttled->metrics().counter_value("sync.serve_throttled"), 0u)
      << "throttle never fired";
  EXPECT_GT(throttled_report.sync.time_to_synced_us, clean_report.sync.time_to_synced_us)
      << "throttled join should be slower in sim time";

  // Same payload, same final verified state.
  EXPECT_EQ(throttled_report.bytes_downloaded, clean_report.bytes_downloaded);
  EXPECT_EQ(throttled_report.sync.ranges_committed, clean_report.sync.ranges_committed);
  EXPECT_EQ(throttled_report.sync.headers_committed, clean_report.sync.headers_committed);
  EXPECT_EQ(throttled_report.sync.bodies_committed, clean_report.sync.bodies_committed);
  EXPECT_EQ(JoinerState(*throttled, throttled_report.joiner),
            JoinerState(*clean, clean_report.joiner));

  // And the throttled run itself is deterministic: an identical rig reruns
  // to the same timing and per-peer attribution, byte for byte.
  const auto rerun = make_host(GetParam(), chain, /*serve_rate_bps=*/1'000'000.0);
  const host::JoinReport rerun_report = rerun->bootstrap({50, 50});
  ASSERT_TRUE(rerun_report.complete);
  EXPECT_EQ(rerun_report.elapsed_us, throttled_report.elapsed_us);
  EXPECT_EQ(rerun_report.bytes_downloaded, throttled_report.bytes_downloaded);
  ASSERT_EQ(rerun_report.sync.by_peer.size(), throttled_report.sync.by_peer.size());
  for (std::size_t i = 0; i < rerun_report.sync.by_peer.size(); ++i) {
    EXPECT_EQ(rerun_report.sync.by_peer[i].peer, throttled_report.sync.by_peer[i].peer);
    EXPECT_EQ(rerun_report.sync.by_peer[i].bytes, throttled_report.sync.by_peer[i].bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Flavours, SyncJoin,
                         ::testing::Values("ici", "fullrep", "rapidchain"),
                         [](const auto& info) { return std::string(info.param); });

// Differential test against the closed-form byte accounting the old E05
// used: with no faults, a full-replication joiner's verified payload equals
// headers-for-the-whole-chain plus every body, exactly.
TEST(Sync, FullRepPayloadMatchesClosedForm) {
  const Chain chain = make_test_chain(20);
  FullRepRig rig(chain);
  const auto report = rig.net->bootstrap({50, 50});
  ASSERT_TRUE(report.complete);

  const std::uint64_t header_closed_form =
      static_cast<std::uint64_t>(chain.size()) * BlockHeader::kWireSize;
  std::uint64_t body_closed_form = 0;
  for (const Block& b : chain.blocks()) body_closed_form += b.serialized_size();

  EXPECT_EQ(report.sync.header_payload_bytes, header_closed_form);
  EXPECT_EQ(report.sync.body_payload_bytes, body_closed_form);
  EXPECT_EQ(report.sync.headers_committed, chain.size());
  EXPECT_EQ(report.bodies_fetched, chain.size());
  // Wire bytes = payload + framing, so the protocol total must dominate the
  // closed form but stay within the per-message overhead budget.
  EXPECT_GE(report.bytes_downloaded, header_closed_form + body_closed_form);
}

// ICI joiner: all headers, but only the bodies the placement function
// assigns to it — the paper's bootstrap-saving claim, measured.
TEST(Sync, IciPayloadMatchesAssignment) {
  const Chain chain = make_test_chain(20);
  IciRig rig(chain);
  const auto report = rig.net->bootstrap({50, 50});
  ASSERT_TRUE(report.complete);
  const std::size_t joined = rig.net->directory().cluster_of(report.joiner);

  EXPECT_EQ(report.sync.header_payload_bytes,
            static_cast<std::uint64_t>(chain.size()) * BlockHeader::kWireSize);

  std::uint64_t assigned_bodies = 0;
  for (std::uint64_t h = 0; h <= chain.height(); ++h) {
    const Hash256 hash = chain.at_height(h).hash();
    const auto storers = rig.net->storers_of(hash, h, joined, false);
    if (std::find(storers.begin(), storers.end(), report.joiner) != storers.end())
      ++assigned_bodies;
  }
  EXPECT_EQ(report.sync.bodies_committed, assigned_bodies);
  EXPECT_EQ(report.bodies_fetched, assigned_bodies);
}

// The windowed pull must actually spread load: with several responsive
// peers at the target height, more than one peer serves bytes.
TEST(Sync, PullsFromMultiplePeers) {
  const Chain chain = make_test_chain(32);
  FullRepRig rig(chain);
  const auto report = rig.net->bootstrap({50, 50});
  ASSERT_TRUE(report.complete);
  EXPECT_GT(report.sync.peers_used, 1u);
  std::size_t serving = 0;
  for (const auto& p : report.sync.by_peer)
    if (p.bytes > 0) ++serving;
  EXPECT_GT(serving, 1u);
}

// Every strategy exposes bootstrap_join; the simulated ones go through the
// protocol, pruned stays closed-form (protocol=false).
TEST(Sync, AllStrategiesJoin) {
  const Chain chain = make_test_chain(12);
  core::StrategyConfig cfg;
  cfg.node_count = 20;
  cfg.groups = 2;
  cfg.fullrep_validate = false;
  for (const std::string_view name : core::strategy_names()) {
    auto s = core::make_strategy(name, cfg);
    s->init(chain.at_height(0));
    s->preload(chain);
    const core::JoinReport r = s->bootstrap_join({50, 50}, sync::SyncConfig{});
    EXPECT_TRUE(r.complete) << name;
    EXPECT_GT(r.bytes_downloaded, 0u) << name;
    EXPECT_EQ(r.protocol, name != "pruned") << name;
    if (r.protocol) {
      EXPECT_GT(r.sync.ranges_committed, 0u) << name;
      EXPECT_EQ(r.sync.resume_count, 0u) << name;
    }
  }
}

}  // namespace
}  // namespace ici
