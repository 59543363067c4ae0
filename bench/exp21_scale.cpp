// E21 [extension] — The headline ratio at 100k+ nodes.
//
// The flattened node state (shared HeaderIndex, SoA FleetTally, ObjectArena
// node storage, dense ClusterDirectory) exists so the simulator can hold
// fleets far beyond the paper's 320-node tables. This bench re-verifies the
// two headline claims at 10k/50k/100k nodes — per-node storage ≈ 25% of
// RapidChain's (m = 16, k_rc = 4, r = 1) and availability 1.000 with every
// node online — and records the memory-per-node trajectory as it scales.
//
// Clustering is "random": k-means is O(iters·N·k) and k = N/16 makes that
// quadratic in N, while the storage ratio is placement-invariant (rendezvous
// assignment spreads blocks evenly over whichever members a cluster has).
#include "bench_util.h"

using namespace ici;
using namespace ici::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "exp21_scale");
  constexpr std::size_t kClusterSize = 16;  // paper headline m
  constexpr std::size_t kRcCommittees = 4;  // theory ratio r*k_rc/m = 25%
  const std::size_t kBlocks = opts.smoke ? 12 : 48;
  const std::size_t kTxs = opts.smoke ? 8 : 32;
  constexpr std::uint64_t kSeed = 42;
  const std::vector<std::size_t> sizes = opts.smoke
                                             ? std::vector<std::size_t>{400, 800}
                                             : std::vector<std::size_t>{10'000, 50'000, 100'000};

  obs::BenchReport report("exp21_scale", kSeed);
  report.set_smoke(opts.smoke);
  report.set_config("nodes", sizes.back());
  report.set_config("cluster_size", kClusterSize);
  report.set_config("rapidchain_committees", kRcCommittees);
  report.set_config("blocks", kBlocks);
  report.set_config("txs_per_block", kTxs);
  report.set_config("clustering", "random");

  print_experiment_header("E21", "headline ratio and memory footprint at 100k+ nodes");
  std::cout << "m=" << kClusterSize << ", RapidChain k=" << kRcCommittees << ", " << kBlocks
            << " blocks x " << kTxs << " txs; tiers:";
  for (const std::size_t n : sizes) std::cout << " " << n;
  std::cout << "\n\n";

  const Chain chain = make_chain(kBlocks, kTxs, kSeed);

  Table table({"nodes", "ici k", "ici bytes/node", "rc bytes/node", "measured ici/rc",
               "theory", "availability", "rss/node"});
  for (const std::size_t n : sizes) {
    const std::size_t k = n / kClusterSize;
    const std::uint64_t rss_before = metrics::read_memory_stats().rss_bytes;

    core::IciNetworkConfig cfg;
    cfg.node_count = n;
    cfg.ici.cluster_count = k;
    cfg.ici.replication = 1;
    cfg.ici.clustering = "random";
    auto ici = std::make_unique<core::IciNetwork>(cfg);
    ici->init_with_genesis(chain.at_height(0));
    ici->preload_chain(chain);

    // Fleet resident cost attributable to this tier's ICI network: the RSS
    // growth across its construction + preload, amortised per node. Tiers
    // run ascending, so earlier tiers' freed pages recycle first and the
    // delta stays an upper bound on this tier's own footprint.
    const std::uint64_t rss_after = metrics::read_memory_stats().rss_bytes;
    const std::uint64_t rss_delta = rss_after > rss_before ? rss_after - rss_before : 0;
    const double rss_per_node = static_cast<double>(rss_delta) / static_cast<double>(n);

    const double ici_bodies = mean_body_bytes(ici->stores());
    const double avail = ici->availability();
    ici.reset();

    const auto rapidchain = make_rapidchain_preloaded(chain, n, kRcCommittees);
    const double rc_bodies = mean_body_bytes(rapidchain->stores());

    const double measured_pct = ici_bodies / rc_bodies * 100;
    const double theory_pct =
        static_cast<double>(kRcCommittees) / static_cast<double>(kClusterSize) * 100;

    table.row({std::to_string(n), std::to_string(k), format_bytes(ici_bodies),
               format_bytes(rc_bodies), format_double(measured_pct, 1) + "%",
               format_double(theory_pct, 1) + "%", format_double(avail, 3),
               format_bytes(rss_per_node)});
    report.add_row("n=" + std::to_string(n))
        .set("nodes", n)
        .set("clusters", k)
        .set("ici_body_bytes_per_node", ici_bodies)
        .set("rc_body_bytes_per_node", rc_bodies)
        .set("measured_ici_vs_rc_pct", measured_pct)
        .set("theory_ici_vs_rc_pct", theory_pct)
        .set("availability", avail)
        .set("rss_delta_bytes_per_node", rss_per_node);
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: the measured ratio stays ~25% at every tier (it is a "
               "property of m and k_rc, not N), availability stays 1.000 with all nodes "
               "online, and rss/node falls with N as shared state amortises.\n";
  finish_report(report, opts, sizes.back());
  return 0;
}
