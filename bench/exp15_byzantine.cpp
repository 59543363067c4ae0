// E15 [R, extension] — Commit robustness vs byzantine fraction.
//
// Collaborative verification commits on a 2/3 approval quorum per cluster.
// This bench poisons a growing fraction of every cluster with reject-voting
// members and reports the commit success rate and latency: the protocol
// must hold up to (but not beyond) the quorum margin.
#include "bench_util.h"

using namespace ici;
using namespace ici::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "exp15_byzantine");
  const std::size_t kNodes = opts.smoke ? 30 : 90;
  constexpr std::size_t kClusters = 3;
  constexpr std::size_t kTxs = 30;
  const int kBlocks = opts.smoke ? 2 : 6;
  constexpr std::uint64_t kSeed = 42;
  const std::vector<double> fractions =
      opts.smoke ? std::vector<double>{0.0, 0.4} : std::vector<double>{0.0, 0.1, 0.2, 0.30, 0.4, 0.5};

  obs::BenchReport report("exp15_byzantine", kSeed);
  report.set_smoke(opts.smoke);
  report.set_config("nodes", kNodes);
  report.set_config("clusters", kClusters);
  report.set_config("txs_per_block", kTxs);
  report.set_config("blocks", kBlocks);

  print_experiment_header("E15", "commit success vs byzantine (reject-voting) fraction");
  std::cout << "N=" << kNodes << ", k=" << kClusters << " (m=" << kNodes / kClusters
            << "), 2/3 quorum, " << kBlocks << " blocks per point\n\n";

  Table table({"byzantine fraction", "blocks committed", "commit rate", "mean latency (ms)",
               "rejected/aborted rounds"});

  for (const double fraction : fractions) {
    LiveIciRig rig(kNodes, kClusters, kTxs, /*replication=*/1, kSeed);
    auto& dir = rig.net->directory();
    for (std::size_t c = 0; c < dir.cluster_count(); ++c) {
      const auto& members = dir.members(c);
      const auto count =
          static_cast<std::size_t>(fraction * static_cast<double>(members.size()));
      for (std::size_t i = 0; i < count; ++i) {
        rig.net->set_fault(members[i], core::FaultProfile{.vote_reject = true});
      }
    }

    int committed = 0;
    Histogram latency;
    for (int i = 0; i < kBlocks; ++i) {
      const sim::SimTime t = rig.step();
      if (t > 0) {
        ++committed;
        latency.add(static_cast<double>(t));
      }
    }
    const std::uint64_t failures = rig.net->metrics().counter_value("verify.rejected") +
                                   rig.net->metrics().counter_value("verify.aborted");
    table.row({format_double(fraction * 100, 0) + "%", std::to_string(committed),
               format_double(100.0 * committed / kBlocks, 0) + "%",
               committed > 0 ? format_double(latency.mean() / 1000, 1) : "-",
               std::to_string(failures)});

    report.add_row("byzantine=" + format_double(fraction, 2))
        .set("byzantine_fraction", fraction)
        .set("blocks_committed", committed)
        .set("commit_rate", static_cast<double>(committed) / kBlocks)
        .set("commit_mean_us", committed > 0 ? latency.mean() : 0.0)
        .set("rejected_or_aborted_rounds", failures);
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: 100% commit rate while the byzantine fraction stays below "
               "the 1/3 quorum margin; a cliff to 0% once rejectors can veto the 2/3 "
               "approval threshold in any cluster.\n";
  finish_report(report, opts, kNodes);
  return 0;
}
