// E08 [A] — Headline table: ICIStrategy storage as a fraction of RapidChain.
//
// The abstract's quantitative claim: "our strategy just needs 25% of the
// storage space needed by Rapidchain". Per-node body storage is D·r/m for
// ICI and D/k_rc for RapidChain, so the ratio is r·k_rc/m. The paper's
// configuration corresponds to m = 4·k_rc; this bench sweeps m around that
// point and prints the measured ratio next to the theoretical one.
#include "bench_util.h"

using namespace ici;
using namespace ici::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "exp08_headline_ratio");
  const std::size_t kNodes = opts.smoke ? 64 : 320;
  constexpr std::size_t kRcCommittees = 4;
  const std::size_t kBlocks = opts.smoke ? 25 : 250;
  constexpr std::size_t kTxs = 40;
  constexpr std::uint64_t kSeed = 42;
  const std::vector<std::size_t> cluster_sizes =
      opts.smoke ? std::vector<std::size_t>{8, 16} : std::vector<std::size_t>{8, 16, 32, 64};

  obs::BenchReport report("exp08_headline_ratio", kSeed);
  report.set_smoke(opts.smoke);
  report.set_config("nodes", kNodes);
  report.set_config("rapidchain_committees", kRcCommittees);
  report.set_config("blocks", kBlocks);
  report.set_config("txs_per_block", kTxs);

  print_experiment_header("E08", "headline: ICI per-node storage as % of RapidChain");
  const Chain chain = make_chain(kBlocks, kTxs, kSeed);
  const auto rapidchain = make_rapidchain_preloaded(chain, kNodes, kRcCommittees);
  const double rc_bodies = mean_body_bytes(rapidchain->stores());
  std::cout << "N=" << kNodes << ", RapidChain k=" << kRcCommittees
            << " -> per-node shard = " << format_bytes(rc_bodies) << " (bodies)\n\n";
  report.set_config("rapidchain_body_bytes_per_node", rc_bodies);

  Table table({"ici m", "ici k", "ici bytes/node", "measured ici/rc", "theory r*k_rc/m"});
  for (const std::size_t m : cluster_sizes) {
    const std::size_t k = kNodes / m;
    const auto ici = make_ici_preloaded(chain, kNodes, k);
    const double ic_bodies = mean_body_bytes(ici->stores());
    const double measured_pct = ic_bodies / rc_bodies * 100;
    const double theory_pct =
        static_cast<double>(kRcCommittees) / static_cast<double>(m) * 100;
    table.row({std::to_string(m), std::to_string(k), format_bytes(ic_bodies),
               format_double(measured_pct, 1) + "%", format_double(theory_pct, 1) + "%"});

    report.add_row("m=" + std::to_string(m))
        .set("cluster_size", m)
        .set("clusters", k)
        .set("ici_body_bytes_per_node", ic_bodies)
        .set("measured_ici_vs_rc_pct", measured_pct)
        .set("theory_ici_vs_rc_pct", theory_pct);
  }
  table.print(std::cout);
  std::cout << "\nThe m = 16 row (= 4 x k_rc) is the paper's headline configuration: "
               "ICIStrategy needs ~25% of RapidChain's per-node storage.\n";
  finish_report(report, opts, kNodes);
  return 0;
}
