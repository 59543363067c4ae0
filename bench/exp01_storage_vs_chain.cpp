// E01 [A] — Per-node storage vs chain length.
//
// The paper's core storage figure: as the ledger grows, a full-replication
// node stores all of D, a RapidChain member stores its committee's shard
// (≈ D/k_rc), and an ICIStrategy member stores only its intra-cluster
// assignment (≈ D·r/m). All three grow linearly; the slopes differ.
//
// Configuration mirrors the headline setting: ICI cluster size m = 20 with
// r = 1, RapidChain committee count k_rc = 5, so ICI/RapidChain = k_rc/m = 25%.
#include <map>

#include "bench_util.h"
#include "strategy/strategy.h"

using namespace ici;
using namespace ici::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "exp01_storage_vs_chain", kStoreFlags);
  const std::size_t kNodes = opts.smoke ? 40 : 240;
  const std::size_t kIciClusters = opts.smoke ? 2 : 12;  // m = 20
  const std::size_t kRcCommittees = opts.smoke ? 2 : 5;  // shard = D/k_rc
  constexpr std::size_t kTxsPerBlock = 40;
  constexpr std::uint64_t kSeed = 42;
  const std::vector<std::size_t> block_counts =
      opts.smoke ? std::vector<std::size_t>{20} : std::vector<std::size_t>{100, 250, 500, 1000};

  obs::BenchReport report("exp01_storage_vs_chain", kSeed);
  report.set_smoke(opts.smoke);
  report.set_config("nodes", kNodes);
  report.set_config("ici_clusters", kIciClusters);
  report.set_config("rapidchain_committees", kRcCommittees);
  report.set_config("txs_per_block", kTxsPerBlock);

  print_experiment_header("E01", "per-node storage vs chain length (blocks)");
  std::cout << "N=" << kNodes << "  ICI: k=" << kIciClusters << " (m="
            << kNodes / kIciClusters << ", r=1)  RapidChain: k=" << kRcCommittees
            << "  txs/block=" << kTxsPerBlock << "\n\n";

  Table table({"blocks", "ledger D", "full-rep/node", "rapidchain/node", "ici/node",
               "ici vs rc", "ici vs full"});

  StoreCounters store_totals;
  for (const std::size_t blocks : block_counts) {
    const Chain chain = make_chain(blocks, kTxsPerBlock, kSeed);

    // One pass over the strategy registry (pruned has its own experiment,
    // E17 — this figure compares the three unbounded-retention systems).
    std::map<std::string_view, double> per_node;
    for (const std::string_view name : core::strategy_names()) {
      if (name == "pruned") continue;
      core::StrategyConfig scfg;
      scfg.node_count = kNodes;
      scfg.groups = name == "rapidchain" ? kRcCommittees : kIciClusters;
      scfg.fullrep_validate = false;  // storage-only run skips the N UTXO copies
      scfg.store = store_config_from(opts);
      const auto strat = core::make_strategy(name, scfg);
      strat->init(chain.at_height(0));
      strat->preload(chain);
      // Retire any in-flight disk appends before reading the tallies (a
      // no-op for the default mem backend: preload adds zero events).
      strat->settle();
      per_node[name] = strat->storage().mean_bytes;
      store_totals += strat->store_counters();
    }
    const double fr = per_node.at("fullrep");
    const double rc = per_node.at("rapidchain");
    const double ic = per_node.at("ici");

    table.row({std::to_string(blocks), format_bytes(static_cast<double>(chain.total_bytes())),
               format_bytes(fr), format_bytes(rc), format_bytes(ic),
               format_double(ic / rc * 100, 1) + "%", format_double(ic / fr * 100, 1) + "%"});

    report.add_row("blocks=" + std::to_string(blocks))
        .set("blocks", blocks)
        .set("ledger_bytes", chain.total_bytes())
        .set("fullrep_node_bytes", fr)
        .set("rapidchain_node_bytes", rc)
        .set("ici_node_bytes", ic)
        .set("ici_vs_rapidchain_pct", ic / rc * 100)
        .set("ici_vs_fullrep_pct", ic / fr * 100);
  }
  // Disk-backed runs (--store disk) attach the backend instrumentation the
  // schema checker requires on such captures.
  if (opts.store == "disk") add_store_counters(report, store_totals);

  table.print(std::cout);
  std::cout << "\nExpected shape: all linear in blocks; ici/node ≈ 25% of rapidchain/node "
               "(paper's headline), and a small fraction of full replication.\n"
               "Note: ICI nodes keep ALL headers (every row includes them), so the printed "
               "ratio sits a few points above 25%; on body bytes alone it is exactly "
               "k_rc/m = 25% (see E08).\n";
  finish_report(report, opts, kNodes);
  return 0;
}
