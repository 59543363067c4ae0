// E06 [R] — Collaborative verification latency vs cluster size m.
//
// Larger clusters mean smaller verification slices per member (less CPU
// each) but more vote fan-in and more UTXO-lookup cross-talk; commit
// latency is governed by the slowest member round-trip. This bench sweeps
// m and reports cluster-commit and full-network-commit latency.
#include "bench_util.h"

using namespace ici;
using namespace ici::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "exp06_verify_latency");
  const std::size_t kNodes = opts.smoke ? 30 : 120;
  const std::size_t kTxs = opts.smoke ? 30 : 100;
  const int kBlocks = opts.smoke ? 2 : 5;
  constexpr std::uint64_t kSeed = 42;
  const std::vector<std::size_t> cluster_sizes =
      opts.smoke ? std::vector<std::size_t>{5, 10} : std::vector<std::size_t>{5, 10, 20, 40};

  obs::BenchReport report("exp06_verify_latency", kSeed);
  report.set_smoke(opts.smoke);
  report.set_config("nodes", kNodes);
  report.set_config("txs_per_block", kTxs);
  report.set_config("blocks_averaged", kBlocks);

  print_experiment_header("E06", "block verification latency vs cluster size m");
  std::cout << "N=" << kNodes << ", txs/block=" << kTxs << ", averaged over " << kBlocks
            << " blocks\n\n";

  Table table({"m (cluster size)", "k", "cluster commit p50 (ms)", "cluster commit p99 (ms)",
               "full commit mean (ms)", "slice txs/member"});

  for (const std::size_t m : cluster_sizes) {
    const std::size_t k = kNodes / m;
    LiveIciRig rig(kNodes, k, kTxs, /*replication=*/1, kSeed);

    Histogram full_commit;
    for (int i = 0; i < kBlocks; ++i) {
      const sim::SimTime latency = rig.step();
      if (latency > 0) full_commit.add(static_cast<double>(latency));
    }
    const auto* cluster_lat =
        rig.net->metrics().find_distribution("commit.cluster_latency_us");

    const double p50_us = cluster_lat ? cluster_lat->p50() : 0;
    const double p99_us = cluster_lat ? cluster_lat->p99() : 0;
    table.row({std::to_string(m), std::to_string(k), format_double(p50_us / 1000, 1),
               format_double(p99_us / 1000, 1), format_double(full_commit.mean() / 1000, 1),
               format_double(static_cast<double>(kTxs + 1) / static_cast<double>(m), 1)});

    report.add_row("m=" + std::to_string(m))
        .set("cluster_size", m)
        .set("clusters", k)
        .set("cluster_commit_p50_us", p50_us)
        .set("cluster_commit_p99_us", p99_us)
        .set("full_commit_mean_us", full_commit.mean())
        .set("slice_txs_per_member", static_cast<double>(kTxs + 1) / static_cast<double>(m));
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: per-member verification work falls as 1/m, but vote fan-in "
               "and head uplink serialization grow with m — latency is roughly flat-to-"
               "U-shaped across m, dominated by one slice round-trip.\n";
  finish_report(report, opts, kNodes);
  return 0;
}
