// E03 [R] — Total network storage vs N (fixed ledger).
//
// Full replication burns N·D bytes network-wide. RapidChain burns
// (committee size)·D. ICIStrategy burns k·r·D — and with fixed cluster size
// m it is (N/m)·r·D, i.e. the network as a whole stores the ledger once per
// cluster instead of once per node.
#include "bench_util.h"

using namespace ici;
using namespace ici::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "exp03_total_storage");
  const std::size_t kBlocks = opts.smoke ? 20 : 300;
  constexpr std::size_t kTxsPerBlock = 40;
  constexpr std::size_t kClusterSize = 20;
  constexpr std::size_t kCommitteeSize = 80;
  constexpr std::uint64_t kSeed = 42;
  const std::vector<std::size_t> sizes =
      opts.smoke ? std::vector<std::size_t>{40, 80} : std::vector<std::size_t>{80, 160, 320, 640};

  obs::BenchReport report("exp03_total_storage", kSeed);
  report.set_smoke(opts.smoke);
  report.set_config("blocks", kBlocks);
  report.set_config("txs_per_block", kTxsPerBlock);
  report.set_config("ici_cluster_size", kClusterSize);
  report.set_config("rapidchain_committee_size", kCommitteeSize);

  print_experiment_header("E03", "total network storage vs N (fixed ledger)");
  const Chain chain = make_chain(kBlocks, kTxsPerBlock, kSeed);
  std::cout << "ledger D = " << format_bytes(static_cast<double>(chain.total_bytes()))
            << "\n\n";
  report.set_config("ledger_bytes", chain.total_bytes());

  Table table({"N", "full-rep total", "rapidchain total", "ici total", "ici/full"});
  for (const std::size_t n : sizes) {
    const std::size_t k_ici = n / kClusterSize;
    const std::size_t k_rc = std::max<std::size_t>(1, n / kCommitteeSize);

    const auto fullrep = make_fullrep_preloaded(chain, n);
    const auto rapidchain = make_rapidchain_preloaded(chain, n, k_rc);
    const auto ici = make_ici_preloaded(chain, n, k_ici);

    const double fr = static_cast<double>(StorageMeter::snapshot(fullrep->stores()).total_bytes);
    const double rc =
        static_cast<double>(StorageMeter::snapshot(rapidchain->stores()).total_bytes);
    const double ic = static_cast<double>(StorageMeter::snapshot(ici->stores()).total_bytes);

    table.row({std::to_string(n), format_bytes(fr), format_bytes(rc), format_bytes(ic),
               format_double(ic / fr * 100, 1) + "%"});

    report.add_row("N=" + std::to_string(n))
        .set("nodes", n)
        .set("fullrep_total_bytes", fr)
        .set("rapidchain_total_bytes", rc)
        .set("ici_total_bytes", ic)
        .set("ici_vs_fullrep_pct", ic / fr * 100);
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: full-rep grows N·D; ici grows only with the number of "
               "clusters (N/m)·D — the gap widens linearly with N.\n";
  finish_report(report, opts, sizes.back());
  return 0;
}
