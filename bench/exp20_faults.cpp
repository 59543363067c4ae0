// E20 [F] — Availability, repair traffic, and retrieval latency under
// faults: node churn × message drops, swept over every strategy in the
// registry at (approximately) equal per-node storage.
//
// The claim under test: at the same per-node storage budget (≈ D/8 here —
// ICI m=16 r=2, RapidChain k=8, pruned window = blocks·r/m), ICIStrategy's
// cluster-scoped redundancy plus its repair daemon keeps committed blocks
// servable under churn, where RapidChain loses whole shards when a
// committee empties out and pruning has already discarded deep history.
// Full replication is the (expensive) availability anchor.
//
// Every cell is driven by a seed-derived sim::FaultPlan, so reruns with the
// same --seed reproduce the JSON sim metrics bit-for-bit. Pass --fault-plan
// to replace the sweep with one custom cell (see docs/FAULTS.md).
#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/faults.h"
#include "strategy/strategy.h"

using namespace ici;
using namespace ici::bench;

namespace {

struct Cell {
  double churn = 0.0;  // fraction of nodes on a crash/restart schedule
  double drop = 0.0;   // per-message drop probability
};

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts =
      parse_bench_options(argc, argv, "exp20_faults", kSeedFlags | kFaultFlags);
  const std::size_t kNodes = opts.smoke ? 32 : 96;
  const std::size_t kIciClusters = opts.smoke ? 2 : 6;  // m = 16 either way
  constexpr std::size_t kIciReplication = 2;            // per-node ≈ D·r/m = D/8
  const std::size_t kRcCommittees = opts.smoke ? 4 : 8;  // per-node ≈ D/8
  const std::size_t kBlocks = opts.smoke ? 24 : 96;
  constexpr std::size_t kTxs = 24;
  const std::size_t kClusterSize = kNodes / kIciClusters;
  const std::size_t kPrunedWindow =
      std::max<std::size_t>(1, kBlocks * kIciReplication / kClusterSize);
  const std::size_t kFetches = opts.smoke ? 20 : 80;
  const std::uint64_t kMinutes = opts.smoke ? 4 : 10;
  constexpr sim::SimTime kSampleUs = 60'000'000;        // 1 sim minute
  constexpr sim::SimTime kRepairIntervalUs = 30'000'000;
  const sim::SimTime kWindowUs = static_cast<sim::SimTime>(kMinutes) * kSampleUs;

  // Sweep cells; --fault-plan replaces the sweep with the given plan.
  std::vector<Cell> cells;
  sim::FaultPlan custom_plan;
  const bool use_custom = !opts.fault_plan.empty();
  if (use_custom) {
    std::string error;
    if (!sim::FaultPlan::parse(opts.fault_plan, &custom_plan, &error)) {
      std::cerr << "exp20_faults: " << error << "\n";
      return 2;
    }
    cells.push_back({custom_plan.crash_fraction, custom_plan.message.drop_prob});
  } else if (opts.smoke) {
    cells = {{0.2, 0.1}};
  } else {
    for (const double churn : {0.0, 0.2, 0.4}) {
      for (const double drop : {0.0, 0.1, 0.3}) cells.push_back({churn, drop});
    }
  }

  obs::BenchReport report("exp20_faults", opts.seed);
  report.set_smoke(opts.smoke);
  report.set_config("nodes", kNodes);
  report.set_config("blocks", kBlocks);
  report.set_config("txs_per_block", kTxs);
  report.set_config("ici_clusters", kIciClusters);
  report.set_config("ici_replication", kIciReplication);
  report.set_config("rapidchain_committees", kRcCommittees);
  report.set_config("pruned_window", kPrunedWindow);
  report.set_config("sim_minutes", kMinutes);
  report.set_config("fetches", kFetches);
  if (use_custom) report.set_config("fault_plan", custom_plan.describe());

  print_experiment_header("E20", "availability and repair under churn x message drops");
  std::cout << "N=" << kNodes << "  ICI: k=" << kIciClusters << " (m=" << kClusterSize
            << ", r=" << kIciReplication << ")  RapidChain: k=" << kRcCommittees
            << "  pruned window=" << kPrunedWindow << "  window=" << kMinutes
            << " sim min\n\n";

  const Chain chain = make_chain(kBlocks, kTxs, opts.seed);

  Table table({"churn", "drop", "system", "avail mean", "avail min", "node bytes",
               "repair copies", "dropped msgs"});

  std::size_t cell_index = 0;
  for (const Cell& cell : cells) {
    for (const std::string_view name : core::strategy_names()) {
      core::StrategyConfig scfg;
      scfg.node_count = kNodes;
      scfg.groups = name == "rapidchain" ? kRcCommittees : kIciClusters;
      scfg.replication = kIciReplication;
      scfg.pruned_window = kPrunedWindow;
      scfg.fullrep_validate = false;
      // E20 runs ICI with its lossy-network defenses on: retry-with-backoff
      // on fetches and cross-cluster repair for cluster-wiped blocks.
      scfg.fetch_retry_rounds = 2;
      scfg.cross_cluster_repair = true;
      const auto strat = core::make_strategy(name, scfg);
      strat->init(chain.at_height(0));
      strat->preload(chain);
      strat->reset_traffic();

      sim::FaultPlan plan = use_custom ? custom_plan : sim::FaultPlan{};
      plan.crash_fraction = cell.churn;
      plan.message.drop_prob = cell.drop;
      if (!use_custom) {
        // Session dynamics sized to the window: nodes crash and return a
        // few times over the run instead of once.
        plan.mean_uptime_us = 120'000'000;
        plan.mean_downtime_us = 60'000'000;
        plan.seed = opts.seed + 1000 * cell_index;
      }
      if (plan.enabled()) {
        strat->start_faults(plan);
        if (name == "ici") strat->start_repair(kRepairIntervalUs, kWindowUs);
      }

      // Advance minute by minute, sampling network-wide serveability.
      double sum = 0.0;
      double avail_min = 1.0;
      for (std::uint64_t minute = 0; minute < kMinutes; ++minute) {
        strat->run_for(kSampleUs);
        const double a = strat->availability();
        sum += a;
        avail_min = std::min(avail_min, a);
      }
      const double avail_mean = sum / static_cast<double>(kMinutes);
      const core::StrategyTraffic traffic = strat->traffic();
      const double node_bytes = strat->storage().mean_bytes;

      std::uint64_t repair_copies = 0, repair_bytes = 0, cross_copies = 0;
      std::uint64_t dropped = 0, crashes = 0, restarts = 0;
      if (metrics::Registry* reg = strat->metrics_registry()) {
        repair_copies = reg->counter_value("repair.copies_started");
        repair_bytes = reg->counter_value("repair.bytes_copied");
        cross_copies = reg->counter_value("repair.cross_cluster_copies");
        dropped = reg->counter_value("faults.msgs_dropped");
        crashes = reg->counter_value("faults.crashes");
        restarts = reg->counter_value("faults.restarts");
      }

      table.row({format_double(cell.churn, 1), format_double(cell.drop, 1),
                 std::string(name), format_double(avail_mean, 3),
                 format_double(avail_min, 3), format_bytes(node_bytes),
                 std::to_string(repair_copies), std::to_string(dropped)});

      auto& row = report
                      .add_row("churn=" + format_double(cell.churn, 1) +
                               "/drop=" + format_double(cell.drop, 1) + "/" +
                               std::string(name))
                      .set("strategy", name)
                      .set("churn", cell.churn)
                      .set("drop", cell.drop)
                      .set("avail_mean", avail_mean)
                      .set("avail_min", avail_min)
                      .set("per_node_bytes", node_bytes)
                      .set("window_bytes_sent", traffic.bytes_sent)
                      .set("window_msgs_sent", traffic.msgs_sent)
                      .set("repair_copies_started", repair_copies)
                      .set("repair_bytes_copied", repair_bytes)
                      .set("repair_cross_cluster_copies", cross_copies)
                      .set("faults_msgs_dropped", dropped)
                      .set("faults_crashes", crashes)
                      .set("faults_restarts", restarts);

      // Retry-latency distribution through the fetch path (ICI only — the
      // baselines have no block-fetch protocol in this harness).
      if (const auto probe = strat->probe_retrieval(kFetches, opts.seed + 99)) {
        row.set("retrieval_p50_us", probe->latency_us.p50())
            .set("retrieval_p99_us", probe->latency_us.p99())
            .set("retrieval_local_hits", probe->local_hits)
            .set("retrieval_remote_hits", probe->remote_hits)
            .set("retrieval_timeouts", probe->timeouts)
            .set("retrieval_not_found", probe->not_found)
            .set("retrieval_retry_rounds", probe->retry_rounds)
            .set("retrieval_attempt_timeouts", probe->attempt_timeouts);
      }
    }
    ++cell_index;
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: at churn=0 every system serves everything except pruned "
               "(window only). Under churn, ICI's repair daemon holds availability near "
               "full replication at ~1/8 the storage; RapidChain degrades when committees "
               "thin out, and message drops stretch ICI retrieval tails (retry rounds) "
               "without sinking availability.\n";
  finish_report(report, opts, kNodes);
  return 0;
}
