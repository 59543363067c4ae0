// The ingest determinism contract (docs/INGEST.md): the admission pipeline
// — TrafficGenerator arrivals through TxAcceptor batching/dedup/prescreen
// into the fee-prioritized mempool and out through block templates — must
// produce bit-identical ingest.*/mempool.* tallies AND an identical
// accepted-tx order at any worker-pool width (--threads 1/2/8), for every
// strategy in the registry,
// with and without a message-fault plan installed (the test_ingest_faults
// CTest variant sets ICI_FAULT_PLAN).
//
// Also pins the duplicate-confirmation guard: a txid confirmed in an
// ancestor block can never re-enter a later template, even when it is
// re-admitted to the pool directly (the acceptor's stateful prescreen
// blocks the ordinary resubmission path upstream).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "chain/utxo.h"
#include "chain/workload.h"
#include "common/thread_pool.h"
#include "ingest/driver.h"
#include "sim/faults.h"
#include "strategy/strategy.h"

namespace ici {
namespace {

constexpr std::size_t kWidths[] = {1, 2, 8};

class IngestDeterminism : public ::testing::Test {
 protected:
  void SetUp() override { ThreadPool::set_global_threads(4); }
  void TearDown() override { ThreadPool::set_global_threads(1); }
};

void install_env_fault_plan(const std::function<void(const sim::FaultPlan&)>& start) {
  // Message-fault plans only (drop/dup/delay): random crash schedules never
  // quiesce, so a settle-based run cannot carry them through the env.
  if (const char* spec = std::getenv("ICI_FAULT_PLAN");
      spec != nullptr && *spec != '\0') {
    sim::FaultPlan plan;
    std::string error;
    if (!sim::FaultPlan::parse(spec, &plan, &error)) {
      ADD_FAILURE() << "bad ICI_FAULT_PLAN: " << error;
    } else if (plan.enabled()) {
      start(plan);
    }
  }
}

ingest::DriverConfig pipeline_driver_config() {
  ingest::DriverConfig dcfg;
  dcfg.block_interval_us = 200'000;
  dcfg.blocks = 4;
  dcfg.max_block_txs = 120;
  dcfg.mempool.capacity = 256;
  dcfg.acceptor.queue_capacity = 64;  // small: overload must hit backpressure
  dcfg.acceptor.batch_budget = 64;
  dcfg.acceptor.batch_interval_us = 50'000;
  dcfg.acceptor.min_fee = 1;
  dcfg.capture_accepted_order = true;
  dcfg.after_init = [](core::Strategy& s) {
    install_env_fault_plan([&s](const sim::FaultPlan& p) { s.start_faults(p); });
  };
  return dcfg;
}

TrafficConfig pipeline_traffic_config() {
  TrafficConfig tcfg;
  tcfg.user_count = 500;
  tcfg.outputs_per_user = 4;
  tcfg.tx_rate_tps = 1500;  // ~2.5x the 120-tx/200ms block budget
  tcfg.seed = 42;
  return tcfg;
}

ingest::DriverReport run_pipeline(std::string_view strategy_name, std::size_t threads,
                                  ingest::DriverConfig dcfg = pipeline_driver_config()) {
  ThreadPool::set_global_threads(threads);
  core::StrategyConfig scfg;
  scfg.node_count = 16;
  scfg.groups = 2;
  scfg.pruned_window = 8;
  scfg.fullrep_validate = false;
  const auto strat = core::make_strategy(strategy_name, scfg);
  ingest::IngestDriver driver(dcfg, pipeline_traffic_config());
  return driver.run(*strat);
}

void expect_identical(const ingest::DriverReport& a, const ingest::DriverReport& b,
                      std::string_view what) {
  const std::string ctx = std::string(what);
  EXPECT_EQ(a.ingest.submitted, b.ingest.submitted) << ctx;
  EXPECT_EQ(a.ingest.accepted, b.ingest.accepted) << ctx;
  EXPECT_EQ(a.ingest.deduped, b.ingest.deduped) << ctx;
  EXPECT_EQ(a.ingest.rejected_backpressure, b.ingest.rejected_backpressure) << ctx;
  EXPECT_EQ(a.ingest.prescreen_failed, b.ingest.prescreen_failed) << ctx;
  EXPECT_EQ(a.ingest.batches, b.ingest.batches) << ctx;
  EXPECT_EQ(a.ingest.batched_txs, b.ingest.batched_txs) << ctx;
  EXPECT_EQ(a.batch_occupancy_pct, b.batch_occupancy_pct) << ctx;
  EXPECT_EQ(a.mempool.accepted, b.mempool.accepted) << ctx;
  EXPECT_EQ(a.mempool.rejected_dup, b.mempool.rejected_dup) << ctx;
  EXPECT_EQ(a.mempool.rejected_conflict, b.mempool.rejected_conflict) << ctx;
  EXPECT_EQ(a.mempool.rejected_full, b.mempool.rejected_full) << ctx;
  EXPECT_EQ(a.mempool.evictions, b.mempool.evictions) << ctx;
  EXPECT_EQ(a.mempool.size_peak, b.mempool.size_peak) << ctx;
  EXPECT_EQ(a.blocks_proposed, b.blocks_proposed) << ctx;
  EXPECT_EQ(a.txs_confirmed, b.txs_confirmed) << ctx;
  EXPECT_EQ(a.template_skipped_confirmed, b.template_skipped_confirmed) << ctx;
  EXPECT_EQ(a.generated, b.generated) << ctx;
  EXPECT_EQ(a.skipped_no_funds, b.skipped_no_funds) << ctx;
  EXPECT_EQ(a.final_time_us, b.final_time_us) << ctx;
  EXPECT_EQ(a.submit_to_commit_us.count(), b.submit_to_commit_us.count()) << ctx;
  EXPECT_EQ(a.submit_to_commit_us.sum(), b.submit_to_commit_us.sum()) << ctx;
  EXPECT_EQ(a.submit_to_commit_us.p99(), b.submit_to_commit_us.p99()) << ctx;
  EXPECT_EQ(a.retry_after_us.count(), b.retry_after_us.count()) << ctx;
  EXPECT_EQ(a.retry_after_us.sum(), b.retry_after_us.sum()) << ctx;
  // The strongest check: every accepted txid, in admission order.
  EXPECT_EQ(a.accepted_order, b.accepted_order) << ctx;
}

TEST_F(IngestDeterminism, PipelineBitIdenticalAcrossThreadCounts) {
  for (const std::string_view name : core::strategy_names()) {
    const ingest::DriverReport base = run_pipeline(name, kWidths[0]);
    ASSERT_GT(base.ingest.accepted, 0u) << name;
    for (std::size_t i = 1; i < std::size(kWidths); ++i) {
      const ingest::DriverReport other = run_pipeline(name, kWidths[i]);
      expect_identical(base, other,
                       std::string(name) + " at " + std::to_string(kWidths[i]) +
                           " threads");
    }
  }
}

TEST_F(IngestDeterminism, OverloadExercisesBackpressureAndEviction) {
  // The determinism runs are only meaningful if the interesting counters
  // actually fire under this configuration.
  const ingest::DriverReport r = run_pipeline("ici", 4);
  EXPECT_GT(r.ingest.rejected_backpressure, 0u);
  EXPECT_GT(r.mempool.evictions, 0u);
  EXPECT_GT(r.mempool.size_peak, 0u);
  EXPECT_GT(r.retry_after_us.count(), 0u);
  EXPECT_GT(r.txs_confirmed, 0u);
  EXPECT_GT(r.submit_to_commit_us.count(), 0u);
  EXPECT_GT(r.batch_occupancy_pct, 0u);
}

TEST_F(IngestDeterminism, SyncsCountersIntoStrategyRegistry) {
  ThreadPool::set_global_threads(2);
  core::StrategyConfig scfg;
  scfg.node_count = 16;
  scfg.groups = 2;
  const auto strat = core::make_strategy("ici", scfg);
  ingest::IngestDriver driver(pipeline_driver_config(), pipeline_traffic_config());
  const ingest::DriverReport r = driver.run(*strat);
  metrics::Registry* reg = strat->metrics_registry();
  ASSERT_NE(reg, nullptr);
  EXPECT_EQ(reg->counter_value("ingest.submitted"), r.ingest.submitted);
  EXPECT_EQ(reg->counter_value("ingest.accepted"), r.ingest.accepted);
  EXPECT_EQ(reg->counter_value("ingest.rejected_backpressure"),
            r.ingest.rejected_backpressure);
  EXPECT_EQ(reg->counter_value("ingest.batches"), r.ingest.batches);
  EXPECT_EQ(reg->counter_value("ingest.confirmed"), r.txs_confirmed);
  EXPECT_EQ(reg->counter_value("mempool.evictions"), r.mempool.evictions);
  EXPECT_EQ(reg->counter_value("mempool.size_peak"), r.mempool.size_peak);
}

// --- duplicate-confirmation guard (double submission across heights) --------

TEST_F(IngestDeterminism, ConfirmedTxidNeverReentersALaterBlock) {
  ingest::DriverConfig dcfg = pipeline_driver_config();
  int injected = 0;
  dcfg.before_template = [&injected](std::uint64_t height, Mempool& pool,
                                     const Chain& chain) {
    if (height != 2) return;
    // Re-admit a tx confirmed at height 1 straight into the pool with the
    // best fee in the run — if the template guard is broken, it wins a slot.
    for (const Transaction& tx : chain.blocks()[1].txs()) {
      if (tx.is_coinbase()) continue;
      EXPECT_TRUE(pool.add(tx, 1'000'000));
      ++injected;
      break;
    }
  };
  const ingest::DriverReport r = run_pipeline("pruned", 2, dcfg);
  ASSERT_EQ(injected, 1);
  EXPECT_EQ(r.template_skipped_confirmed, 1u);
}

// --- TxAcceptor unit behaviour ----------------------------------------------

struct AcceptorRig {
  explicit AcceptorRig(ingest::AcceptorConfig acfg) {
    TrafficConfig tcfg;
    tcfg.user_count = 64;
    tcfg.outputs_per_user = 2;
    tcfg.tx_rate_tps = 400;
    tcfg.seed = 7;
    gen = std::make_unique<TrafficGenerator>(tcfg);
    Block genesis = gen->make_genesis();
    gen->confirm(genesis);
    for (const Transaction& tx : genesis.txs()) utxo.apply_tx(tx, 0);
    acceptor = std::make_unique<ingest::TxAcceptor>(acfg, &pool, &utxo);
  }

  std::vector<TrafficArrival> arrivals(std::uint64_t to_us) {
    return gen->arrivals_until(to_us);
  }

  std::unique_ptr<TrafficGenerator> gen;
  UtxoSet utxo;
  Mempool pool;
  std::unique_ptr<ingest::TxAcceptor> acceptor;
};

TEST(TxAcceptor, DedupsRepeatSubmissionsInWindow) {
  ingest::AcceptorConfig acfg;
  acfg.min_fee = 1;
  AcceptorRig rig(acfg);
  const auto arr = rig.arrivals(100'000);
  ASSERT_FALSE(arr.empty());
  rig.acceptor->submit(arr[0].tx, arr[0].at_us);
  rig.acceptor->submit(arr[0].tx, arr[0].at_us);
  rig.acceptor->advance(200'000);
  EXPECT_EQ(rig.acceptor->counters().submitted, 2u);
  EXPECT_EQ(rig.acceptor->counters().accepted, 1u);
  EXPECT_EQ(rig.acceptor->counters().deduped, 1u);
  EXPECT_EQ(rig.pool.size(), 1u);
}

TEST(TxAcceptor, PrescreenRejectsUnknownInputs) {
  ingest::AcceptorConfig acfg;
  AcceptorRig rig(acfg);
  // A syntactically valid, correctly signed tx spending an outpoint that
  // does not exist in the UTXO view.
  const KeyPair owner = KeyPair::from_seed(999);
  const std::uint8_t salt[1] = {0xAB};
  Transaction ghost({TxInput{OutPoint{Hash256::of(ByteSpan(salt, 1)), 7}, {}, {}}},
                    {TxOutput{5, owner.pub}}, 1);
  ghost.sign_all_inputs(owner);
  std::vector<ingest::DropReason> drops;
  rig.acceptor->set_on_drop(
      [&drops](const Transaction&, ingest::DropReason r) { drops.push_back(r); });
  rig.acceptor->submit(ghost, 1);
  rig.acceptor->advance(100'000);
  EXPECT_EQ(rig.acceptor->counters().prescreen_failed, 1u);
  EXPECT_EQ(rig.acceptor->counters().accepted, 0u);
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0], ingest::DropReason::kPrescreen);
  EXPECT_TRUE(rig.pool.empty());
}

TEST(TxAcceptor, PrescreenEnforcesMinimumFee) {
  ingest::AcceptorConfig acfg;
  acfg.min_fee = 1'000'000;  // far above any generated fee
  AcceptorRig rig(acfg);
  const auto arr = rig.arrivals(100'000);
  ASSERT_FALSE(arr.empty());
  for (const TrafficArrival& a : arr) rig.acceptor->submit(a.tx, a.at_us);
  rig.acceptor->advance(200'000);
  EXPECT_EQ(rig.acceptor->counters().accepted, 0u);
  EXPECT_EQ(rig.acceptor->counters().prescreen_failed, rig.acceptor->counters().submitted);
}

TEST(TxAcceptor, FullQueueRejectsWithRetryAfterHint) {
  ingest::AcceptorConfig acfg;
  acfg.queue_capacity = 2;
  acfg.batch_interval_us = 50'000;
  AcceptorRig rig(acfg);
  const auto arr = rig.arrivals(100'000);
  ASSERT_GE(arr.size(), 5u);
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    // All submitted at t=1, before the first batch tick can drain anything.
    if (rig.acceptor->submit(arr[i].tx, 1) == ingest::TxAcceptor::Submit::kRejected) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 3u);
  EXPECT_EQ(rig.acceptor->counters().rejected_backpressure, 3u);
  ASSERT_EQ(rig.acceptor->retry_after_us().count(), 3u);
  // The hint is the distance to the next batch tick: 50'000 - 1.
  EXPECT_EQ(rig.acceptor->retry_after_us().min(), 49'999.0);
  EXPECT_EQ(rig.acceptor->retry_after_us().max(), 49'999.0);
}

TEST(TxAcceptor, ResubmitOfConfirmedTxFailsStatefulPrescreen) {
  ingest::AcceptorConfig acfg;
  acfg.dedup_window = 1;  // let the resubmission past the dedup window
  acfg.min_fee = 1;
  AcceptorRig rig(acfg);
  const auto arr = rig.arrivals(100'000);
  ASSERT_GE(arr.size(), 2u);
  const Transaction first = arr[0].tx;
  rig.acceptor->submit(first, arr[0].at_us);
  rig.acceptor->advance(150'000);
  ASSERT_EQ(rig.acceptor->counters().accepted, 1u);

  // "Confirm" it: spend its inputs in the UTXO view and clear the pool,
  // exactly what the driver does when a block commits.
  rig.utxo.apply_tx(first, 1);
  rig.pool.remove_confirmed({first});

  // Push the txid out of the one-entry dedup window, then resubmit.
  rig.acceptor->submit(arr[1].tx, 160'000);
  rig.acceptor->advance(250'000);
  rig.acceptor->submit(first, 260'000);
  rig.acceptor->advance(350'000);
  EXPECT_EQ(rig.acceptor->counters().prescreen_failed, 1u);
  EXPECT_FALSE(rig.pool.contains(first.txid()));
}

}  // namespace
}  // namespace ici
