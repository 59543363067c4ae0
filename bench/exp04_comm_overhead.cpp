// E04 [A] — Communication overhead per disseminated block vs N.
//
// Message-accurate comparison of what it costs the network to get one new
// block stored and verified everywhere it must be:
//  * full replication: INV/GETDATA gossip ships the body to every node;
//  * RapidChain: IDA chunk-flood inside the block's committee;
//  * ICIStrategy: one body per cluster head + slice fan-out + UTXO lookups
//    + votes + commit deltas + r storer hand-offs.
#include <map>

#include "bench_util.h"
#include "strategy/strategy.h"

using namespace ici;
using namespace ici::bench;

namespace {

struct Sample {
  double bytes_per_block = 0;
  double msgs_per_block = 0;
  double body_bytes = 0;  // serialized size of the last disseminated block
};

/// Drives `blocks` live dissemination rounds through a registry strategy
/// over a fresh deterministic workload (same shape as the old per-system
/// rigs: one generator + chain + network sharing a genesis).
Sample measure(core::Strategy& strat, std::size_t txs_per_block, std::uint64_t seed,
               int blocks) {
  ChainGenConfig ccfg;
  ccfg.txs_per_block = txs_per_block;
  ccfg.workload.seed = seed;
  ccfg.workload.wallet_count = 64;
  ccfg.workload.genesis_outputs_per_wallet = 8;
  ChainGenerator gen(ccfg);

  Block genesis = gen.workload().make_genesis();
  gen.workload().confirm(genesis);
  Chain chain(genesis);
  strat.init(genesis);

  std::uint64_t bytes = 0, msgs = 0;
  for (int i = 0; i < blocks; ++i) {
    strat.reset_traffic();
    chain.append(gen.next_block(chain));
    strat.ingest(chain.tip());
    const core::StrategyTraffic t = strat.traffic();
    bytes += t.bytes_sent;
    msgs += t.msgs_sent;
  }
  return {static_cast<double>(bytes) / blocks, static_cast<double>(msgs) / blocks,
          static_cast<double>(chain.tip().serialized_size())};
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "exp04_comm_overhead");
  constexpr std::size_t kTxs = 60;
  const int kBlocks = opts.smoke ? 2 : 5;
  constexpr std::size_t kClusterSize = 16;
  constexpr std::size_t kCommitteeSize = 24;
  constexpr std::uint64_t kSeed = 42;
  const std::vector<std::size_t> sizes =
      opts.smoke ? std::vector<std::size_t>{48} : std::vector<std::size_t>{48, 96, 192};

  obs::BenchReport report("exp04_comm_overhead", kSeed);
  report.set_smoke(opts.smoke);
  report.set_config("txs_per_block", kTxs);
  report.set_config("blocks_averaged", kBlocks);
  report.set_config("ici_cluster_size", kClusterSize);
  report.set_config("rapidchain_committee_size", kCommitteeSize);

  print_experiment_header("E04", "communication per disseminated block vs N");
  std::cout << "txs/block=" << kTxs << ", averaged over " << kBlocks
            << " blocks; ICI m=" << kClusterSize << ", RapidChain committee size ~"
            << kCommitteeSize << "\n\n";

  Table table({"N", "system", "bytes/block", "msgs/block", "body-equivalents"});
  for (const std::size_t n : sizes) {
    // Registry order (fullrep, rapidchain, ici) matches the historical rig
    // order, so trace spans and JSON rows line up with pre-registry runs.
    // Pruned is static (zero dissemination traffic) — not part of this
    // comparison.
    std::map<std::string_view, Sample> samples;
    for (const std::string_view name : core::strategy_names()) {
      if (name == "pruned") continue;
      core::StrategyConfig scfg;
      scfg.node_count = n;
      scfg.groups = name == "rapidchain" ? std::max<std::size_t>(1, n / kCommitteeSize)
                                         : n / kClusterSize;
      // Historical rig seeds: the ICI rig keyed its topology off the
      // workload seed, the baselines used the facade default.
      scfg.topology_seed = name == "ici" ? kSeed : 1;
      const auto strat = core::make_strategy(name, scfg);
      samples[name] = measure(*strat, kTxs, kSeed, kBlocks);
    }
    const Sample& fr = samples.at("fullrep");
    const Sample& rc = samples.at("rapidchain");
    const Sample& ic = samples.at("ici");
    const double body = fr.body_bytes;

    table.row({std::to_string(n), "full-rep", format_bytes(fr.bytes_per_block),
               format_double(fr.msgs_per_block, 0), format_double(fr.bytes_per_block / body, 1)});
    table.row({std::to_string(n), "rapidchain", format_bytes(rc.bytes_per_block),
               format_double(rc.msgs_per_block, 0), format_double(rc.bytes_per_block / body, 1)});
    table.row({std::to_string(n), "ici", format_bytes(ic.bytes_per_block),
               format_double(ic.msgs_per_block, 0), format_double(ic.bytes_per_block / body, 1)});

    for (const auto& [system, s] :
         {std::pair<const char*, const Sample*>{"fullrep", &fr},
          std::pair<const char*, const Sample*>{"rapidchain", &rc},
          std::pair<const char*, const Sample*>{"ici", &ic}}) {
      report.add_row("N=" + std::to_string(n) + "/" + system)
          .set("nodes", n)
          .set("system", system)
          .set("bytes_per_block", s->bytes_per_block)
          .set("msgs_per_block", s->msgs_per_block)
          .set("body_equivalents", s->bytes_per_block / body);
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: full-rep ships ≈N body-equivalents per block; ici ships "
               "≈(3.75+r) per cluster (N/m clusters) — several times less, with the gap "
               "growing in cluster size m. RapidChain only stores 1/k of blocks per "
               "committee but floods chunks with redundancy d within it.\n";
  finish_report(report, opts, sizes.back());
  return 0;
}
