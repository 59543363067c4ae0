// E22 — Streaming bulk-sync bootstrap under fault plans.
//
// Sweeps the ICI join protocol (docs/BOOTSTRAP.md) over chain heights and
// three fault plans:
//   none  — clean network; measures the protocol's baseline cost/latency.
//   crash — the joiner itself crashes mid-sync and restarts before the
//           clean run would have finished; the driver-owned checkpoint must
//           resume from the last verified range, and the resumed node must
//           end bit-identical (storage counters) to the uninterrupted run.
//   drop  — a lossy network (uniform message drop); per-range timeouts
//           reassign work, so the join completes with retries > 0.
//
// The crash window is derived from the measured clean-run duration (crash
// at ~40%, restart at ~90% of T_clean), so the interrupt always lands
// mid-sync regardless of chain height — no tuned magic constants.
#include "bench_util.h"

#include "metrics/registry.h"
#include "sim/faults.h"

using namespace ici;
using namespace ici::bench;

namespace {

/// Joiner-side storage counters compared between the clean and the
/// crash-resumed run ("same final verified state, bit-identical").
struct JoinerState {
  std::size_t header_count = 0;
  std::size_t block_count = 0;
  std::uint64_t body_bytes = 0;
  std::uint64_t shard_bytes = 0;

  bool operator==(const JoinerState&) const = default;
};

JoinerState capture_state(const core::IciNetwork& net, cluster::NodeId joiner) {
  const auto& node = net.node(joiner);
  return {node.store().header_count(), node.store().block_count(),
          node.store().body_bytes(), node.shards().total_bytes()};
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "exp22_sync", kStoreFlags);
  const std::size_t kNodes = opts.smoke ? 40 : 120;
  const std::size_t kClusters = opts.smoke ? 2 : 6;
  constexpr std::size_t kTxs = 40;
  constexpr std::uint64_t kSeed = 42;
  const std::vector<std::size_t> heights =
      opts.smoke ? std::vector<std::size_t>{30} : std::vector<std::size_t>{200, 400, 800};

  obs::BenchReport report("exp22_sync", kSeed);
  report.set_smoke(opts.smoke);
  report.set_config("nodes", kNodes);
  report.set_config("ici_clusters", kClusters);
  report.set_config("txs_per_block", kTxs);

  print_experiment_header("E22", "streaming bulk-sync bootstrap under fault plans");
  std::cout << "N=" << kNodes << "; ICI m=" << kNodes / kClusters
            << " r=1; plans none/crash/drop\n\n";

  Table table({"blocks", "plan", "synced", "time (s)", "bytes", "peers", "ranges",
               "retried", "resumes", "state=clean"});

  // sync.* metrics aggregated across all runs (each run has its own network
  // registry; the artifact carries the union).
  metrics::Registry agg;
  const StoreConfig store = store_config_from(opts);
  StoreCounters store_totals;

  for (const std::size_t blocks : heights) {
    const Chain chain = make_chain(blocks, kTxs, kSeed);
    JoinerState clean_state;
    sim::SimTime t_clean = 0;

    const auto run_plan = [&](const char* plan_name) {
      auto net = make_ici_preloaded(chain, kNodes, kClusters, /*replication=*/1, store);
      const sim::NodeId joiner = net->add_sync_joiner({50, 50});
      const sim::SimTime now = net->simulator().now();

      if (std::string_view(plan_name) == "crash") {
        // Interrupt mid-sync: down at 40% of the measured clean duration,
        // back up at 90% — always before an uninterrupted join would end.
        sim::FaultPlan plan;
        plan.seed = kSeed;
        plan.crashes.push_back(sim::CrashWindow{
            joiner, now + std::max<sim::SimTime>(1, t_clean * 2 / 5),
            now + std::max<sim::SimTime>(2, t_clean * 9 / 10)});
        net->start_faults(plan);
      } else if (std::string_view(plan_name) == "drop") {
        sim::FaultPlan plan;
        plan.seed = kSeed;
        plan.message.drop_prob = 0.05;
        net->start_faults(plan);
      }

      const auto r = net->bootstrap_added(joiner);
      const JoinerState state = capture_state(*net, joiner);
      store_totals += sum_store_counters(net->stores());
      if (std::string_view(plan_name) == "none") {
        clean_state = state;
        t_clean = r.sync.time_to_synced_us;
      }
      const bool matches = state == clean_state;

      if (r.complete) agg.counter("sync.joins_completed").inc();
      agg.counter("sync.ranges_committed").inc(r.sync.ranges_committed);
      agg.counter("sync.ranges_retried").inc(r.sync.ranges_retried);
      agg.counter("sync.bodies_committed").inc(r.sync.bodies_committed);
      agg.counter("sync.resumes").inc(r.sync.resume_count);
      agg.distribution("sync.time_to_synced_us")
          .add(static_cast<double>(r.sync.time_to_synced_us));
      for (const auto& p : r.sync.by_peer)
        agg.distribution("sync.bytes_per_peer").add(static_cast<double>(p.bytes));

      std::uint64_t peer_max = 0;
      std::uint64_t peer_min = r.sync.by_peer.empty() ? 0 : ~0ULL;
      for (const auto& p : r.sync.by_peer) {
        peer_max = std::max(peer_max, p.bytes);
        peer_min = std::min(peer_min, p.bytes);
      }

      table.row({std::to_string(blocks), plan_name, r.complete ? "yes" : "NO",
                 format_double(static_cast<double>(r.sync.time_to_synced_us) / 1e6, 2),
                 format_bytes(static_cast<double>(r.bytes_downloaded)),
                 std::to_string(r.sync.peers_used), std::to_string(r.sync.ranges_committed),
                 std::to_string(r.sync.ranges_retried), std::to_string(r.sync.resume_count),
                 matches ? "yes" : "NO"});
      report.add_row("blocks=" + std::to_string(blocks) + "/" + plan_name)
          .set("blocks", blocks)
          .set("plan", plan_name)
          .set("complete", r.complete)
          .set("time_to_synced_us", r.sync.time_to_synced_us)
          .set("frontier_us", r.sync.frontier_us)
          .set("bytes_downloaded", r.bytes_downloaded)
          .set("header_payload_bytes", r.sync.header_payload_bytes)
          .set("body_payload_bytes", r.sync.body_payload_bytes)
          .set("peers_used", r.sync.peers_used)
          .set("peer_bytes_max", peer_max)
          .set("peer_bytes_min", peer_min)
          .set("ranges_committed", r.sync.ranges_committed)
          .set("ranges_retried", r.sync.ranges_retried)
          .set("resumes", r.sync.resume_count)
          .set("resumed_matches_clean", matches);
    };

    run_plan("none");
    run_plan("crash");
    run_plan("drop");
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: time-to-synced grows with chain height; the crash plan "
               "resumes (resumes >= 1) and lands in the same verified state as the clean "
               "run; the drop plan completes with retried ranges; bytes spread across "
               "multiple source peers.\n";
  report.capture_registry(agg);
  // With --store disk every serve above read bodies off the segment logs;
  // the artifact carries the summed backend instrumentation the schema
  // checker requires of disk captures.
  add_store_counters(report, store_totals);
  finish_report(report, opts, kNodes);
  return 0;
}
