// Fault injection (sim/faults.h): plan-spec parsing, bit-identical replay
// from a seed, crash-window reconstruction invariants, and retrieval
// retry-with-backoff under a lossy network. docs/FAULTS.md documents the
// fault model these tests pin down.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "chain/workload.h"
#include "ici/network.h"
#include "ici/retrieval.h"
#include "sim/faults.h"

namespace ici::core {
namespace {

struct Rig {
  explicit Rig(std::size_t replication = 2, std::size_t data = 0, std::size_t parity = 0,
               std::size_t retry_rounds = 0, int blocks = 3) {
    ChainGenConfig ccfg;
    ccfg.txs_per_block = 8;
    gen = std::make_unique<ChainGenerator>(ccfg);
    IciNetworkConfig ncfg;
    ncfg.node_count = 24;
    ncfg.ici.cluster_count = 3;
    ncfg.ici.replication = replication;
    ncfg.ici.erasure_data = data;
    ncfg.ici.erasure_parity = parity;
    ncfg.ici.fetch_retry_rounds = retry_rounds;
    net = std::make_unique<IciNetwork>(ncfg);
    Block genesis = gen->workload().make_genesis();
    gen->workload().confirm(genesis);
    chain = std::make_unique<Chain>(genesis);
    net->init_with_genesis(genesis);
    for (int i = 0; i < blocks; ++i) {
      chain->append(gen->next_block(*chain));
      EXPECT_GT(net->disseminate_and_settle(chain->tip()), 0u);
    }
  }

  std::unique_ptr<ChainGenerator> gen;
  std::unique_ptr<IciNetwork> net;
  std::unique_ptr<Chain> chain;
};

cluster::NodeId pick_online_non_holder(Rig& rig, const Hash256& hash, std::size_t cluster) {
  for (auto id : rig.net->directory().members(cluster)) {
    if (rig.net->directory().online(id) && !rig.net->node(id).store().has_block(hash) &&
        !rig.net->node(id).shards().has_any(hash)) {
      return id;
    }
  }
  return cluster::kNoNode;
}

/// Everything the injector and the protocol counted, as one comparable blob.
std::string fingerprint(Rig& rig) {
  std::ostringstream os;
  const sim::FaultStats& fs = rig.net->faults()->stats();
  os << fs.msgs_dropped << '/' << fs.msgs_duplicated << '/' << fs.msgs_delayed << '/'
     << fs.partition_drops << '/' << fs.crashes << '/' << fs.restarts << '\n';
  for (const auto& [name, counter] : rig.net->metrics().counters()) {
    os << name << '=' << counter.value() << '\n';
  }
  return os.str();
}

// -- plan spec ----------------------------------------------------------------

TEST(FaultPlanSpec, ParsesEveryKey) {
  sim::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::FaultPlan::parse("seed=7,crash=0.3,up_s=600,down_s=60,drop=0.1,dup=0.02,delay_us=5000",
                                    &plan, &error))
      << error;
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.crash_fraction, 0.3);
  EXPECT_EQ(plan.mean_uptime_us, 600'000'000u);
  EXPECT_EQ(plan.mean_downtime_us, 60'000'000u);
  EXPECT_DOUBLE_EQ(plan.message.drop_prob, 0.1);
  EXPECT_DOUBLE_EQ(plan.message.duplicate_prob, 0.02);
  EXPECT_DOUBLE_EQ(plan.message.extra_delay_mean_us, 5000.0);
  EXPECT_TRUE(plan.enabled());
}

TEST(FaultPlanSpec, DescribeRoundTrips) {
  sim::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::FaultPlan::parse("seed=9,crash=0.25,drop=0.05", &plan, &error));
  sim::FaultPlan again;
  ASSERT_TRUE(sim::FaultPlan::parse(plan.describe(), &again, &error)) << error;
  EXPECT_EQ(again.describe(), plan.describe());
}

TEST(FaultPlanSpec, EmptySpecIsDisabled) {
  sim::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::FaultPlan::parse("", &plan, &error));
  EXPECT_FALSE(plan.enabled());
}

TEST(FaultPlanSpec, RejectsMalformed) {
  // NaN passes a `p < 0 || p > 1` check, a leading '-' wraps an unsigned
  // parse to ~1.8e19, and a negative or oversized duration makes the
  // double -> SimTime cast undefined: all must be refused outright.
  for (const char* spec :
       {"bogus=1", "drop=1.5", "crash", "up_s=0,crash=0.1", "crash=nan", "drop=nan", "dup=nan",
        "crash=inf", "drop=-inf", "delay_us=-5", "seed=-1", "seed=+1", "seed= 1",
        "seed=18446744073709551616", "up_s=-1", "down_s=-0.5", "up_s=nan", "down_s=inf",
        "up_s=1e300", "up_s=0.0000001", "delay_us=1.5"}) {
    sim::FaultPlan plan;
    std::string error;
    EXPECT_FALSE(sim::FaultPlan::parse(spec, &plan, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
  // The largest representable values still parse.
  sim::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::FaultPlan::parse("seed=18446744073709551615,up_s=1e12", &plan, &error))
      << error;
  EXPECT_EQ(plan.seed, 18446744073709551615u);
  EXPECT_EQ(plan.mean_uptime_us, 1'000'000'000'000'000'000u);
}

// -- determinism --------------------------------------------------------------

TEST(FaultDeterminism, SameSeedReplaysBitIdentically) {
  // Two independent deployments under the same plan must produce the same
  // crash schedule, the same drops, the same repair traffic — everything.
  sim::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::FaultPlan::parse("seed=11,crash=0.5,up_s=90,down_s=45,drop=0.15,dup=0.05",
                                    &plan, &error));

  std::vector<std::string> prints;
  std::vector<double> avail;
  for (int run = 0; run < 2; ++run) {
    Rig rig;
    rig.net->start_faults(plan);
    // Recurring crash/restart sessions keep the queue alive forever, so
    // advance in bounded windows (never settle()).
    for (int minute = 0; minute < 5; ++minute) {
      rig.net->run_for(60'000'000);
      avail.push_back(rig.net->network_availability());
    }
    EXPECT_EQ(rig.net->simulator().late_events(), 0u);
    prints.push_back(fingerprint(rig));
  }
  EXPECT_EQ(prints[0], prints[1]);
  ASSERT_EQ(avail.size(), 10u);
  for (int minute = 0; minute < 5; ++minute) {
    EXPECT_EQ(avail[static_cast<std::size_t>(minute)],
              avail[static_cast<std::size_t>(minute + 5)])
        << "availability trajectory diverged at minute " << minute;
  }
}

// -- crash windows ------------------------------------------------------------

TEST(FaultCrash, AllReplicationHoldersDownBlockStillServable) {
  // Scripted windows take every own-cluster holder of one block down at the
  // same instant; repair plus cross-cluster fallback must keep the block
  // fetchable (the paper's reconstruction invariant, read-path form).
  Rig rig(/*replication=*/2);
  const Hash256 hash = rig.chain->at_height(2).hash();
  const auto holders = rig.net->storers_of(hash, 2, 0, false);
  ASSERT_FALSE(holders.empty());

  sim::FaultPlan plan;
  const sim::SimTime t0 = rig.net->simulator().now() + 1'000'000;
  for (auto id : holders) plan.crashes.push_back({id, t0, /*restart_at_us=*/0});
  rig.net->start_faults(plan);
  rig.net->run_for(2'000'000);
  EXPECT_EQ(rig.net->faults()->stats().crashes, holders.size());
  for (auto id : holders) EXPECT_FALSE(rig.net->network().online(id));

  const auto requester = pick_online_non_holder(rig, hash, 0);
  ASSERT_NE(requester, cluster::kNoNode);
  bool got = false;
  rig.net->node(requester).fetch_block(hash, 2, [&](const FetchResult& r) {
    got = r.block != nullptr && r.block->hash() == hash;
  });
  // Scripted windows with no restart schedule nothing further, so the queue
  // drains and settle() is safe here.
  rig.net->settle();
  EXPECT_TRUE(got) << "every in-cluster holder is down; the network still owns copies";
}

TEST(FaultCrash, CodedParityHoldersDownBlockReconstructs) {
  // RS(4,2): two crashed shard holders are exactly the parity budget; the
  // fetch must reconstruct from the surviving 4 shards. kmeans clusters are
  // not balanced, so pick a cluster big enough to hold one shard per node
  // (smaller clusters double up shards and a 2-node crash could cost 3).
  Rig rig(/*replication=*/1, /*data=*/4, /*parity=*/2);
  const Hash256 hash = rig.chain->at_height(1).hash();
  std::size_t cluster = rig.net->config().cluster_count;
  std::vector<cluster::NodeId> holders;
  for (std::size_t c = 0; c < rig.net->config().cluster_count; ++c) {
    holders = rig.net->shard_holders(hash, 1, c);
    if (holders.size() >= 6) {
      cluster = c;
      break;
    }
  }
  ASSERT_LT(cluster, rig.net->config().cluster_count)
      << "no cluster has one holder per RS(4,2) shard";

  sim::FaultPlan plan;
  const sim::SimTime t0 = rig.net->simulator().now() + 1'000'000;
  plan.crashes.push_back({holders[0], t0, 0});
  plan.crashes.push_back({holders[1], t0, 0});
  rig.net->start_faults(plan);
  rig.net->run_for(2'000'000);

  // Any surviving member works as the requester: a shard holder still needs
  // d-1 remote shards, a non-holder needs d — either way reconstruction
  // must succeed within the parity budget.
  cluster::NodeId requester = cluster::kNoNode;
  for (auto id : rig.net->directory().members(cluster)) {
    if (rig.net->directory().online(id)) {
      requester = id;
      break;
    }
  }
  ASSERT_NE(requester, cluster::kNoNode);
  bool got = false;
  rig.net->node(requester).fetch_block(hash, 1, [&](const FetchResult& r) {
    got = r.block != nullptr && r.block->hash() == hash && r.block->merkle_ok();
  });
  rig.net->settle();
  EXPECT_TRUE(got) << "d shards survive, so the block must reconstruct";
}

TEST(FaultCrash, RestartWindowBringsNodeBack) {
  Rig rig;
  const auto victim = static_cast<cluster::NodeId>(3);
  sim::FaultPlan plan;
  const sim::SimTime t0 = rig.net->simulator().now() + 1'000'000;
  plan.crashes.push_back({victim, t0, t0 + 3'000'000});
  rig.net->start_faults(plan);

  rig.net->run_for(2'000'000);
  EXPECT_FALSE(rig.net->network().online(victim));
  rig.net->run_for(3'000'000);
  EXPECT_TRUE(rig.net->network().online(victim));
  EXPECT_EQ(rig.net->faults()->stats().crashes, 1u);
  EXPECT_EQ(rig.net->faults()->stats().restarts, 1u);
}

// -- message drops + retry ----------------------------------------------------

TEST(FaultDrop, RetrievalRetriesThroughHeavyDrop) {
  // Nearly half of all messages vanish (each fetch attempt needs both the
  // request and the response to survive, so ~30% of attempts land). With
  // two retry rounds the driver should still win most fetches, and the
  // retry/timeout machinery must be visibly exercised.
  Rig rig(/*replication=*/2, 0, 0, /*retry_rounds=*/2);
  sim::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::FaultPlan::parse("seed=5,drop=0.45", &plan, &error));
  rig.net->start_faults(plan);

  // Message faults schedule no recurring events, so settle-mode retrieval
  // (each fetch drains timeout timers) is safe.
  const RetrievalStats stats = RetrievalDriver::run(*rig.net, 25, /*seed=*/123);
  EXPECT_GT(stats.local_hits + stats.remote_hits, stats.misses())
      << "most fetches must survive the drop rate";
  EXPECT_GT(stats.attempt_timeouts, 0u) << "dropped attempts must be counted";
  EXPECT_GT(stats.retry_rounds, 0u) << "retry-with-backoff must have kicked in";
  EXPECT_GT(rig.net->faults()->stats().msgs_dropped, 0u);
}

TEST(FaultDrop, MissSplitsIntoTimeoutsVsNotFound) {
  // A fetch for a hash nobody has, under drops, must classify as not_found
  // only when every candidate definitively answered; unanswered attempts
  // make it a timeout. Either way it lands in exactly one bucket.
  Rig rig(/*replication=*/2, 0, 0, /*retry_rounds=*/1);
  sim::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::FaultPlan::parse("seed=6,drop=0.4", &plan, &error));
  rig.net->start_faults(plan);

  bool called = false;
  rig.net->node(0).fetch_block(Hash256::tagged("missing", {}), 99,
                               [&](const FetchResult& r) {
                                 called = true;
                                 EXPECT_EQ(r.block, nullptr);
                                 EXPECT_TRUE(r.outcome == FetchOutcome::kTimeout ||
                                             r.outcome == FetchOutcome::kNotFound);
                               });
  rig.net->settle();
  EXPECT_TRUE(called);
  const auto timeouts = rig.net->metrics().counter_value("retrieval.timeouts");
  const auto not_found = rig.net->metrics().counter_value("retrieval.not_found");
  EXPECT_EQ(timeouts + not_found, rig.net->metrics().counter_value("retrieval.misses"));
}

// -- background repair --------------------------------------------------------

TEST(FaultRepair, DaemonRestoresReplicasUnderChurn) {
  // Long-downtime churn with the repair daemon on: lost replicas must be
  // re-replicated (copies counted) and network-wide serveability must hold
  // at the end of the window.
  Rig rig(/*replication=*/2);
  sim::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::FaultPlan::parse("seed=13,crash=0.4,up_s=60,down_s=600", &plan, &error));
  constexpr sim::SimTime kWindow = 5 * 60'000'000;
  rig.net->start_faults(plan);
  rig.net->start_repair_daemon(30'000'000, rig.net->simulator().now() + kWindow);
  rig.net->run_for(kWindow);

  EXPECT_GT(rig.net->metrics().counter_value("repair.copies_started"), 0u);
  EXPECT_GT(rig.net->network_availability(), 0.99)
      << "repair must keep committed blocks servable somewhere";
}

}  // namespace
}  // namespace ici::core
