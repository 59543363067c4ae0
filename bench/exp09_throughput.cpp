// E09 [R] — Dissemination throughput vs number of clusters.
//
// Blocks commit when every cluster has verified them; more clusters means
// more parallel verification units but a wider proposer fan-out (the
// proposer ships one full body per cluster over its uplink). Throughput is
// measured as committed blocks per simulated second of dissemination time.
#include "bench_util.h"

using namespace ici;
using namespace ici::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "exp09_throughput");
  const std::size_t kNodes = opts.smoke ? 40 : 120;
  constexpr std::size_t kTxs = 60;
  const int kBlocks = opts.smoke ? 2 : 8;
  constexpr std::uint64_t kSeed = 42;
  const std::vector<std::size_t> cluster_counts =
      opts.smoke ? std::vector<std::size_t>{2, 4} : std::vector<std::size_t>{2, 4, 8, 15, 30};

  obs::BenchReport report("exp09_throughput", kSeed);
  report.set_smoke(opts.smoke);
  report.set_config("nodes", kNodes);
  report.set_config("txs_per_block", kTxs);
  report.set_config("blocks", kBlocks);

  print_experiment_header("E09", "dissemination throughput vs number of clusters k");
  std::cout << "N=" << kNodes << ", txs/block=" << kTxs << ", " << kBlocks
            << " blocks disseminated back-to-back\n\n";

  Table table({"k", "m", "mean full-commit (ms)", "p99 (ms)", "blocks/s"});
  for (const std::size_t k : cluster_counts) {
    LiveIciRig rig(kNodes, k, kTxs, /*replication=*/1, kSeed);
    Histogram latency;
    for (int i = 0; i < kBlocks; ++i) {
      const sim::SimTime t = rig.step();
      if (t > 0) latency.add(static_cast<double>(t));
    }
    const double mean_ms = latency.mean() / 1000.0;
    const double blocks_per_s = mean_ms > 0 ? 1000.0 / mean_ms : 0;
    table.row({std::to_string(k), std::to_string(kNodes / k), format_double(mean_ms, 1),
               format_double(latency.p99() / 1000.0, 1), format_double(blocks_per_s, 2)});

    report.add_row("k=" + std::to_string(k))
        .set("clusters", k)
        .set("cluster_size", kNodes / k)
        .set("full_commit_mean_us", latency.mean())
        .set("full_commit_p99_us", latency.p99())
        .set("blocks_per_s", blocks_per_s);
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: small k (huge clusters) suffers slice fan-out inside each "
               "cluster; very large k pays proposer uplink serialization (k full bodies). "
               "Throughput peaks at a moderate cluster count.\n";
  finish_report(report, opts, kNodes);
  return 0;
}
