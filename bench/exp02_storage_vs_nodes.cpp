// E02 [R] — Per-node storage vs network size N (fixed ledger).
//
// ICIStrategy keeps cluster size m fixed as N grows (more clusters), so
// per-node storage stays ≈ D·r/m — constant in N. RapidChain keeps the
// committee *size* fixed for security, so its committee count grows with N
// and per-node storage falls as D/k(N). Full replication is flat at D.
#include "bench_util.h"

using namespace ici;
using namespace ici::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "exp02_storage_vs_nodes");
  const std::size_t kBlocks = opts.smoke ? 20 : 300;
  constexpr std::size_t kTxsPerBlock = 40;
  constexpr std::size_t kClusterSize = 20;    // ICI: m fixed, k = N/m
  constexpr std::size_t kCommitteeSize = 80;  // RapidChain: fixed for security
  constexpr std::uint64_t kSeed = 42;
  const std::vector<std::size_t> sizes =
      opts.smoke ? std::vector<std::size_t>{40, 80} : std::vector<std::size_t>{80, 160, 320, 640};

  obs::BenchReport report("exp02_storage_vs_nodes", kSeed);
  report.set_smoke(opts.smoke);
  report.set_config("blocks", kBlocks);
  report.set_config("txs_per_block", kTxsPerBlock);
  report.set_config("ici_cluster_size", kClusterSize);
  report.set_config("rapidchain_committee_size", kCommitteeSize);

  print_experiment_header("E02", "per-node storage vs network size N (fixed ledger)");
  std::cout << "ICI cluster size m=" << kClusterSize << " (k grows with N); RapidChain "
            << "committee size=" << kCommitteeSize << " (k_rc grows with N)\n\n";

  const Chain chain = make_chain(kBlocks, kTxsPerBlock, kSeed);

  Table table({"N", "full-rep/node", "rapidchain/node", "ici/node", "ici clusters",
               "rc committees"});
  for (const std::size_t n : sizes) {
    const std::size_t k_ici = n / kClusterSize;
    const std::size_t k_rc = std::max<std::size_t>(1, n / kCommitteeSize);

    const auto fullrep = make_fullrep_preloaded(chain, n);
    const auto rapidchain = make_rapidchain_preloaded(chain, n, k_rc);
    const auto ici = make_ici_preloaded(chain, n, k_ici);

    const double fr = StorageMeter::snapshot(fullrep->stores()).mean_bytes;
    const double rc = StorageMeter::snapshot(rapidchain->stores()).mean_bytes;
    const double ic = StorageMeter::snapshot(ici->stores()).mean_bytes;

    table.row({std::to_string(n), format_bytes(fr), format_bytes(rc), format_bytes(ic),
               std::to_string(k_ici), std::to_string(k_rc)});

    report.add_row("N=" + std::to_string(n))
        .set("nodes", n)
        .set("fullrep_node_bytes", fr)
        .set("rapidchain_node_bytes", rc)
        .set("ici_node_bytes", ic)
        .set("ici_clusters", k_ici)
        .set("rapidchain_committees", k_rc);
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: full-rep flat at D; rapidchain falls ~1/N (committee count "
               "grows); ici flat at ~D/m regardless of N — storage scales out.\n";
  finish_report(report, opts, sizes.back());
  return 0;
}
