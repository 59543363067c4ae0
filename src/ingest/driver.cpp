#include "ingest/driver.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "chain/chain.h"
#include "chain/validator.h"

namespace ici::ingest {

namespace {

/// Mixed into the traffic seed to derive the proposer's coinbase key.
constexpr std::uint64_t kMinerSeed = 0xace;

}  // namespace

DriverReport IngestDriver::run(core::Strategy& strategy) {
  TrafficGenerator gen(traffic_);
  Block genesis = gen.make_genesis();
  strategy.init(genesis);
  if (cfg_.after_init) cfg_.after_init(strategy);
  gen.confirm(genesis);
  Chain chain(genesis);

  UtxoSet utxo;
  std::unordered_set<Hash256, Hash256Hasher> confirmed_ids;
  for (const Transaction& tx : genesis.txs()) {
    utxo.apply_tx(tx, 0);
    confirmed_ids.insert(tx.txid());
  }

  DriverReport report;
  Mempool pool(cfg_.mempool);
  TxAcceptor acceptor(cfg_.acceptor, &pool, &utxo);

  std::unordered_map<Hash256, std::uint64_t, Hash256Hasher> submitted_at;
  acceptor.set_on_accept(
      [&](const Transaction& tx, Amount /*fee*/, std::uint64_t at_us) {
        submitted_at[tx.txid()] = at_us;
        if (cfg_.capture_accepted_order) report.accepted_order.push_back(tx.txid());
      });
  acceptor.set_on_drop([&](const Transaction& tx, DropReason reason) {
    // Refund the locked inputs so sustained overload cannot drain the
    // spendable pool — except duplicates, whose inputs belong to the live
    // original submission.
    if (reason == DropReason::kDuplicate) return;
    if (reason == DropReason::kEvicted) submitted_at.erase(tx.txid());
    gen.release(tx);
  });

  ValidatorConfig vcfg;
  vcfg.max_block_txs = cfg_.max_block_txs + 1;  // + coinbase
  vcfg.check_signatures = cfg_.acceptor.check_signatures;
  const Validator validator(vcfg);
  const KeyPair miner = KeyPair::from_seed(traffic_.seed ^ kMinerSeed);

  // The driver's logical clock. Proposals serialize on full commit: block h
  // cannot be proposed before block h-1 finished disseminating, so when
  // latency exceeds the interval the schedule slips — the measured
  // saturation. Deliberately NOT the strategy's internal sim clock: settle()
  // drains trailing timeout no-ops scheduled far past the commit, so the sim
  // clock overshoots the pipeline's actual progress.
  std::uint64_t clock_us = 0;

  for (std::uint64_t h = 1; h <= cfg_.blocks; ++h) {
    const std::uint64_t target = h * cfg_.block_interval_us;
    const std::uint64_t propose_at = std::max(clock_us, target);

    for (TrafficArrival& arrival : gen.arrivals_until(propose_at)) {
      (void)acceptor.submit(std::move(arrival.tx), arrival.at_us);
    }
    acceptor.advance(propose_at);
    if (cfg_.before_template) cfg_.before_template(h, pool, chain);

    std::vector<Transaction> txs;
    txs.reserve(cfg_.max_block_txs + 1);
    txs.push_back(Transaction::coinbase(miner.pub, kBlockReward, h));
    while (txs.size() < cfg_.max_block_txs + 1 && !pool.empty()) {
      for (Transaction& tx : pool.take(cfg_.max_block_txs + 1 - txs.size())) {
        // The ancestor-confirmation guard: the pool knows nothing about
        // chain history, so the template fill is where an already-confirmed
        // txid (double submission straddling the dedup window, or a direct
        // pool write) must be caught.
        if (confirmed_ids.contains(tx.txid())) {
          ++report.template_skipped_confirmed;
          continue;
        }
        txs.push_back(std::move(tx));
      }
    }

    Block block = Block::assemble(chain.tip().hash(), h, propose_at, std::move(txs));
    if (const auto r = validator.validate_and_apply(block, chain.tip().hash(), h, utxo); !r) {
      throw std::logic_error("ingest driver assembled an invalid block: " + r.reason);
    }

    const sim::SimTime latency = strategy.ingest(block);
    const std::uint64_t commit_at = propose_at + latency;
    clock_us = commit_at;
    for (const Transaction& tx : block.txs()) {
      if (tx.is_coinbase()) continue;
      confirmed_ids.insert(tx.txid());
      ++report.txs_confirmed;
      if (const auto it = submitted_at.find(tx.txid()); it != submitted_at.end()) {
        report.submit_to_commit_us.add(static_cast<double>(commit_at - it->second));
        submitted_at.erase(it);
      }
    }
    pool.remove_confirmed(block.txs());
    gen.confirm(block);
    chain.append(std::move(block));
    ++report.blocks_proposed;
  }

  report.ingest = acceptor.counters();
  report.mempool = pool.stats();
  report.batch_occupancy_pct = acceptor.batch_occupancy_pct();
  report.generated = gen.generated();
  report.skipped_no_funds = gen.skipped_no_funds();
  report.final_time_us = clock_us;
  report.retry_after_us = acceptor.retry_after_us();
  if (report.final_time_us > 0) {
    const double seconds = static_cast<double>(report.final_time_us) / 1e6;
    report.sustained_tps = static_cast<double>(report.txs_confirmed) / seconds;
    report.offered_tps = static_cast<double>(report.generated) / seconds;
  }

  if (metrics::Registry* registry = strategy.metrics_registry()) {
    sync_ingest_counters(report, *registry);
  }
  return report;
}

void sync_ingest_counters(const DriverReport& report, metrics::Registry& registry) {
  const auto set = [&registry](const char* name, std::uint64_t value) {
    metrics::Counter& c = registry.counter(name);
    c.reset();
    c.inc(value);
  };
  set("ingest.submitted", report.ingest.submitted);
  set("ingest.accepted", report.ingest.accepted);
  set("ingest.deduped", report.ingest.deduped);
  set("ingest.rejected_backpressure", report.ingest.rejected_backpressure);
  set("ingest.prescreen_failed", report.ingest.prescreen_failed);
  set("ingest.batches", report.ingest.batches);
  set("ingest.batch_occupancy_pct", report.batch_occupancy_pct);
  set("ingest.confirmed", report.txs_confirmed);
  set("ingest.template_skipped_confirmed", report.template_skipped_confirmed);
  set("mempool.accepted", report.mempool.accepted);
  set("mempool.evictions", report.mempool.evictions);
  set("mempool.rejected_full", report.mempool.rejected_full);
  set("mempool.size_peak", report.mempool.size_peak);
}

}  // namespace ici::ingest
