// E16 [R, extension] — Epoch reconfiguration cost: migration traffic when
// the network re-clusters.
//
// Sharded blockchains must periodically reshuffle membership (RapidChain's
// Cuckoo-rule epochs). For ICIStrategy the epoch cost is the block
// migration needed so every new cluster regains the full ledger. This
// bench measures that cost for each clustering strategy — geometry-anchored
// k-means barely moves anyone; a random reshuffle moves almost everything.
#include "bench_util.h"

using namespace ici;
using namespace ici::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "exp16_reconfig");
  const std::size_t kNodes = opts.smoke ? 40 : 120;
  const std::size_t kClusters = opts.smoke ? 2 : 6;
  const std::size_t kBlocks = opts.smoke ? 30 : 150;
  constexpr std::size_t kTxs = 30;
  constexpr std::uint64_t kSeed = 42;

  obs::BenchReport bench_report("exp16_reconfig", kSeed);
  bench_report.set_smoke(opts.smoke);
  bench_report.set_config("nodes", kNodes);
  bench_report.set_config("clusters", kClusters);
  bench_report.set_config("blocks", kBlocks);
  bench_report.set_config("txs_per_block", kTxs);

  print_experiment_header("E16", "epoch reconfiguration: migration cost by clustering strategy");
  const Chain chain = make_chain(kBlocks, kTxs, kSeed);
  std::cout << "N=" << kNodes << ", k=" << kClusters << ", ledger "
            << format_bytes(static_cast<double>(chain.total_bytes()))
            << "; one epoch change (new clustering seed)\n\n";
  bench_report.set_config("ledger_bytes", chain.total_bytes());

  Table table({"clustering", "nodes moved", "block copies", "bytes migrated",
               "bytes pruned", "vs ledger"});

  for (const std::string strategy : {"kmeans", "grid", "random"}) {
    core::IciNetworkConfig cfg;
    cfg.node_count = kNodes;
    cfg.ici.cluster_count = kClusters;
    cfg.ici.clustering = strategy;
    core::IciNetwork net(cfg);
    net.init_with_genesis(chain.at_height(0));
    net.preload_chain(chain);

    net.network().reset_traffic();
    const auto report = net.reconfigure(/*epoch_seed=*/20260705);
    net.settle();
    const std::uint64_t migrated = net.network().total_traffic().bytes_sent;
    const std::uint64_t pruned = net.prune_unassigned();
    const double vs_ledger =
        static_cast<double>(migrated) / static_cast<double>(chain.total_bytes()) * 100;

    table.row({strategy, std::to_string(report.nodes_moved),
               std::to_string(report.copies_started),
               format_bytes(static_cast<double>(migrated)),
               format_bytes(static_cast<double>(pruned)),
               format_double(vs_ledger, 1) + "%"});

    bench_report.add_row("clustering=" + strategy)
        .set("clustering", strategy)
        .set("nodes_moved", report.nodes_moved)
        .set("block_copies_started", report.copies_started)
        .set("bytes_migrated", migrated)
        .set("bytes_pruned", pruned)
        .set("migrated_vs_ledger_pct", vs_ledger);
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: k-means re-clustering is anchored by geography, so few "
               "nodes change cluster and little data moves; random re-clustering moves "
               "most members and migrates a multiple of the ledger. Rendezvous assignment "
               "limits migration to blocks whose cluster membership actually changed.\n";
  finish_report(bench_report, opts, kNodes);
  return 0;
}
