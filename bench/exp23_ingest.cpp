// E23 [I] — Million-user transaction ingestion: sustained tx/s and
// submit→verified-block latency per strategy under skewed client load
// (docs/INGEST.md).
//
// The pipeline under test: a Zipf/burst/diurnal TrafficGenerator drives
// 100k simulated users (2k in --smoke) through the TxAcceptor — bounded
// submission queue, fixed-budget batches, recent-seen dedup, chunk-ordered
// fee/validity prescreen on the worker pool — into a fee-prioritized,
// capacity-bounded mempool; every block interval the IngestDriver fills a
// template from the pool and disseminates it through the strategy. The
// sweep raises offered load past block capacity so each strategy shows a
// measured saturation point: sustained tx/s flattens while backpressure
// rejects and fee-evictions absorb the excess, and the submit→commit tail
// stretches with queueing delay.
//
// Every ingest.*/mempool.* number is deterministic — bit-identical at any
// --threads (tests/test_ingest.cpp) — so the artifact doubles as a
// cross-configuration fingerprint. A final non-smoke pass reruns one cell
// at 1/2/4 worker lanes to demonstrate it inside the artifact (identical
// counters, wall clock free to move).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ingest/driver.h"
#include "sim/faults.h"
#include "strategy/strategy.h"

using namespace ici;
using namespace ici::bench;

namespace {

struct CellResult {
  ingest::DriverReport report;
  double wall_ms = 0;
};

CellResult run_cell(std::string_view strategy_name, const core::StrategyConfig& scfg,
                    const ingest::DriverConfig& dcfg, const TrafficConfig& tcfg) {
  const auto start = std::chrono::steady_clock::now();
  const auto strat = core::make_strategy(strategy_name, scfg);
  ingest::IngestDriver driver(dcfg, tcfg);
  CellResult out;
  out.report = driver.run(*strat);
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "exp23_ingest",
                                                kSeedFlags | kFaultFlags | kIngestFlags);
  const std::size_t kUsers = opts.smoke ? 2'000 : 100'000;
  const std::size_t kNodes = opts.smoke ? 24 : 48;
  const std::size_t kGroups = opts.smoke ? 2 : 4;
  const std::size_t kBlocks = opts.smoke ? 6 : 12;
  const std::uint64_t kIntervalUs = opts.smoke ? 250'000 : 500'000;
  const std::size_t kMaxBlockTxs = opts.smoke ? 400 : 4'000;
  const std::size_t kMempoolCap =
      opts.mempool_cap > 0 ? static_cast<std::size_t>(opts.mempool_cap)
                           : (opts.smoke ? 2'048 : 16'384);
  const std::size_t kQueueCap = opts.smoke ? 1'024 : 8'192;
  const std::size_t kBatchBudget = opts.smoke ? 256 : 1'024;
  const std::uint64_t kBatchIntervalUs = 50'000;

  // Offered-load ladder: below, at, and far past block capacity
  // (capacity = max_block_txs / interval). --tx-rate pins a single cell.
  std::vector<double> rates;
  if (opts.tx_rate > 0) {
    rates = {opts.tx_rate};
  } else if (opts.smoke) {
    rates = {800, 3'200};
  } else {
    rates = {2'000, 8'000, 32'000};
  }

  sim::FaultPlan plan;
  if (!opts.fault_plan.empty()) {
    std::string error;
    if (!sim::FaultPlan::parse(opts.fault_plan, &plan, &error)) {
      std::cerr << "exp23_ingest: " << error << "\n";
      return 2;
    }
    if (plan.crash_fraction > 0) {
      std::cerr << "exp23_ingest: crash plans never quiesce a settle-driven run; "
                   "use message faults (drop/dup/delay)\n";
      return 2;
    }
  }

  obs::BenchReport report("exp23_ingest", opts.seed);
  report.set_smoke(opts.smoke);
  report.set_config("users", kUsers);
  report.set_config("nodes", kNodes);
  report.set_config("groups", kGroups);
  report.set_config("blocks", kBlocks);
  report.set_config("block_interval_us", kIntervalUs);
  report.set_config("max_block_txs", kMaxBlockTxs);
  report.set_config("tx_rate", rates.back());
  report.set_config("mempool_cap", kMempoolCap);
  report.set_config("queue_capacity", kQueueCap);
  report.set_config("batch_budget", kBatchBudget);
  report.set_config("batch_interval_us", kBatchIntervalUs);
  if (plan.enabled()) report.set_config("fault_plan", plan.describe());

  print_experiment_header("E23", "transaction ingestion: sustained tx/s and latency");
  std::cout << "users=" << kUsers << "  N=" << kNodes << "  groups=" << kGroups
            << "  blocks=" << kBlocks << " @ " << kIntervalUs / 1000 << " ms"
            << "  block cap=" << kMaxBlockTxs << " txs"
            << "  mempool cap=" << kMempoolCap << "\n\n";

  const auto make_traffic = [&](double rate) {
    TrafficConfig tcfg;
    tcfg.user_count = kUsers;
    tcfg.tx_rate_tps = rate;
    tcfg.hot_account_count = std::max<std::size_t>(16, kUsers / 1000);
    tcfg.hot_account_outputs = 16;
    tcfg.seed = opts.seed;
    return tcfg;
  };
  const auto make_driver_cfg = [&] {
    ingest::DriverConfig dcfg;
    dcfg.block_interval_us = kIntervalUs;
    dcfg.blocks = kBlocks;
    dcfg.max_block_txs = kMaxBlockTxs;
    dcfg.mempool.capacity = kMempoolCap;
    dcfg.acceptor.queue_capacity = kQueueCap;
    dcfg.acceptor.batch_budget = kBatchBudget;
    dcfg.acceptor.batch_interval_us = kBatchIntervalUs;
    dcfg.acceptor.min_fee = 1;
    if (plan.enabled()) {
      dcfg.after_init = [&plan](core::Strategy& s) { s.start_faults(plan); };
    }
    return dcfg;
  };
  const auto make_strategy_cfg = [&] {
    core::StrategyConfig scfg;
    scfg.node_count = kNodes;
    scfg.groups = kGroups;
    scfg.pruned_window = kBlocks + 1;
    scfg.fullrep_validate = false;  // N full UTXO copies of a 100k-output genesis
    return scfg;
  };

  Table table({"rate tx/s", "system", "sustained", "p50 ms", "p99 ms", "accepted",
               "backpressure", "evicted", "pool peak"});

  ingest::AcceptorCounters totals;
  std::uint64_t total_evictions = 0, peak_pool = 0, total_batch_budget_slots = 0;
  struct Best {
    double sustained = 0;
    double at_rate = 0;
  };
  std::map<std::string, Best, std::less<>> saturation;

  for (const double rate : rates) {
    for (const std::string_view name : core::strategy_names()) {
      const CellResult cell = run_cell(name, make_strategy_cfg(), make_driver_cfg(),
                                       make_traffic(rate));
      const ingest::DriverReport& r = cell.report;

      totals.submitted += r.ingest.submitted;
      totals.accepted += r.ingest.accepted;
      totals.deduped += r.ingest.deduped;
      totals.rejected_backpressure += r.ingest.rejected_backpressure;
      totals.prescreen_failed += r.ingest.prescreen_failed;
      totals.batches += r.ingest.batches;
      totals.batched_txs += r.ingest.batched_txs;
      total_evictions += r.mempool.evictions;
      peak_pool = std::max(peak_pool, r.mempool.size_peak);
      total_batch_budget_slots += r.ingest.batches * kBatchBudget;

      auto& best = saturation[std::string(name)];
      if (r.sustained_tps > best.sustained) best = {r.sustained_tps, rate};

      table.row({format_double(rate, 0), std::string(name),
                 format_double(r.sustained_tps, 0),
                 format_double(r.submit_to_commit_us.p50() / 1000, 1),
                 format_double(r.submit_to_commit_us.p99() / 1000, 1),
                 std::to_string(r.ingest.accepted),
                 std::to_string(r.ingest.rejected_backpressure),
                 std::to_string(r.mempool.evictions),
                 std::to_string(r.mempool.size_peak)});

      const std::string label =
          "rate=" + format_double(rate, 0) + "/" + std::string(name);
      report.add_row(label)
          .set("strategy", name)
          .set("offered_tps", rate)
          .set("offered_tps_measured", r.offered_tps)
          .set("sustained_tps", r.sustained_tps)
          .set("submit_commit_p50_us", r.submit_to_commit_us.p50())
          .set("submit_commit_p99_us", r.submit_to_commit_us.p99())
          .set("submitted", r.ingest.submitted)
          .set("accepted", r.ingest.accepted)
          .set("deduped", r.ingest.deduped)
          .set("rejected_backpressure", r.ingest.rejected_backpressure)
          .set("prescreen_failed", r.ingest.prescreen_failed)
          .set("batches", r.ingest.batches)
          .set("batch_occupancy_pct", r.batch_occupancy_pct)
          .set("mempool_evictions", r.mempool.evictions)
          .set("mempool_size_peak", r.mempool.size_peak)
          .set("template_skipped_confirmed", r.template_skipped_confirmed)
          .set("txs_confirmed", r.txs_confirmed)
          .set("generated", r.generated)
          .set("skipped_no_funds", r.skipped_no_funds)
          .set("final_time_us", r.final_time_us)
          .set("wall_ms", cell.wall_ms);
      report.add_distribution("ingest.submit_commit_us." + label, r.submit_to_commit_us);
      if (r.retry_after_us.count() > 0) {
        report.add_distribution("ingest.retry_after_us." + label, r.retry_after_us);
      }
    }
  }
  table.print(std::cout);

  std::cout << "\nMeasured saturation (max sustained tx/s per strategy):\n";
  for (const auto& [name, best] : saturation) {
    std::cout << "  " << name << ": " << format_double(best.sustained, 0)
              << " tx/s (offered " << format_double(best.at_rate, 0) << ")\n";
    report.add_row("saturation/" + name)
        .set("strategy", name)
        .set("sustained_tps_max", best.sustained)
        .set("at_offered_tps", best.at_rate);
  }

  // Cross-thread invariance pass: same cell, 1/2/4 worker lanes — the
  // deterministic tallies must not move (wall clock may). Demonstrated in
  // the artifact; enforced by tests/test_ingest.cpp.
  if (!opts.smoke) {
    const std::size_t restore_threads = ThreadPool::global().thread_count();
    const double rate = rates[rates.size() / 2];
    std::cout << "\nThread invariance (ici @ " << format_double(rate, 0)
              << " tx/s offered):\n";
    for (const std::size_t threads : {1, 2, 4}) {
      ThreadPool::set_global_threads(threads);
      const CellResult cell =
          run_cell("ici", make_strategy_cfg(), make_driver_cfg(), make_traffic(rate));
      std::cout << "  threads=" << threads << ": accepted=" << cell.report.ingest.accepted
                << " sustained=" << format_double(cell.report.sustained_tps, 0)
                << " tx/s  wall=" << format_double(cell.wall_ms, 0) << " ms\n";
      report.add_row("threads=" + std::to_string(threads) + "/ici")
          .set("strategy", "ici")
          .set("threads", threads)
          .set("offered_tps", rate)
          .set("sustained_tps", cell.report.sustained_tps)
          .set("accepted", cell.report.ingest.accepted)
          .set("rejected_backpressure", cell.report.ingest.rejected_backpressure)
          .set("submit_commit_p99_us", cell.report.submit_to_commit_us.p99())
          .set("wall_ms", cell.wall_ms);
    }
    ThreadPool::set_global_threads(restore_threads);
  }

  report.add_counter("ingest.submitted", totals.submitted);
  report.add_counter("ingest.accepted", totals.accepted);
  report.add_counter("ingest.deduped", totals.deduped);
  report.add_counter("ingest.rejected_backpressure", totals.rejected_backpressure);
  report.add_counter("ingest.prescreen_failed", totals.prescreen_failed);
  report.add_counter("ingest.batches", totals.batches);
  report.add_counter("ingest.batch_occupancy_pct",
                     total_batch_budget_slots > 0
                         ? totals.batched_txs * 100 / total_batch_budget_slots
                         : 0);
  report.add_counter("mempool.evictions", total_evictions);
  report.add_counter("mempool.size_peak", peak_pool);

  std::cout << "\nExpected shape: below block capacity every live strategy sustains the "
               "offered load with batch-cadence latency; past capacity sustained tx/s "
               "flattens at the block budget while backpressure and fee-eviction absorb "
               "the excess and the p99 stretches toward the queueing limit. Pruned "
               "commits instantly (no dissemination), so its latency floor is the batch "
               "cadence itself.\n";
  finish_report(report, opts, kNodes);
  return 0;
}
