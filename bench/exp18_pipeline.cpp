// E18 [R, extension] — Pipelined dissemination throughput vs depth.
//
// Sequential dissemination leaves the network idle between a block's commit
// and the next proposal. With the workload maturity window set at least as
// deep as the pipeline, several blocks can be verified concurrently; this
// bench sweeps the number of blocks in flight and reports effective
// throughput.
#include "bench_util.h"

using namespace ici;
using namespace ici::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "exp18_pipeline");
  const std::size_t kNodes = opts.smoke ? 30 : 90;
  constexpr std::size_t kClusters = 3;
  constexpr std::size_t kTxs = 40;
  const int kBlocks = opts.smoke ? 4 : 8;
  constexpr std::uint64_t kSeed = 42;
  const std::vector<int> depths =
      opts.smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};

  obs::BenchReport report("exp18_pipeline", kSeed);
  report.set_smoke(opts.smoke);
  report.set_config("nodes", kNodes);
  report.set_config("clusters", kClusters);
  report.set_config("txs_per_block", kTxs);
  report.set_config("blocks", kBlocks);

  print_experiment_header("E18", "pipelined dissemination throughput vs depth");
  std::cout << "N=" << kNodes << ", k=" << kClusters << ", " << kBlocks
            << " blocks total, workload maturity = " << kBlocks
            << " (in-flight blocks never depend on each other)\n\n";

  Table table({"pipeline depth", "wall time (ms)", "blocks/s", "speedup vs depth 1"});
  double baseline_ms = 0;

  for (const int depth : depths) {
    ChainGenConfig ccfg;
    ccfg.txs_per_block = kTxs;
    ccfg.workload.maturity = kBlocks;
    ccfg.workload.genesis_outputs_per_wallet = 16;
    ChainGenerator gen(ccfg);

    core::IciNetworkConfig ncfg;
    ncfg.node_count = kNodes;
    ncfg.ici.cluster_count = kClusters;
    core::IciNetwork net(ncfg);
    Block genesis = gen.workload().make_genesis();
    gen.workload().confirm(genesis);
    Chain chain(genesis);
    net.init_with_genesis(genesis);

    // Dissemination in waves of `depth`; a wave's cost is first proposal →
    // last full commit (settle() afterwards only drains no-op timers).
    double total_ms = 0;
    int committed = 0;
    for (int done = 0; done < kBlocks; done += depth) {
      const int wave = std::min(depth, kBlocks - done);
      const sim::SimTime start = net.simulator().now();
      std::vector<Hash256> hashes;
      for (int i = 0; i < wave; ++i) {
        chain.append(gen.next_block(chain));
        hashes.push_back(chain.tip().hash());
        net.disseminate(chain.tip());
      }
      net.settle();
      sim::SimTime last = start;
      for (const Hash256& h : hashes) {
        const sim::SimTime t = net.full_commit_time(h);
        if (t > 0) {
          ++committed;
          last = std::max(last, t);
        }
      }
      total_ms += static_cast<double>(last - start) / 1000.0;
    }

    if (depth == 1) baseline_ms = total_ms;
    const double blocks_per_s = committed > 0 && total_ms > 0 ? committed * 1000.0 / total_ms : 0;
    const double speedup = total_ms > 0 && baseline_ms > 0 ? baseline_ms / total_ms : 0;
    table.row({std::to_string(depth), format_double(total_ms, 1),
               format_double(blocks_per_s, 2), format_double(speedup, 2) + "x"});

    report.add_row("depth=" + std::to_string(depth))
        .set("pipeline_depth", depth)
        .set("sim_time_ms", total_ms)
        .set("blocks_committed", committed)
        .set("blocks_per_s", blocks_per_s)
        .set("speedup_vs_depth1", speedup);
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: throughput grows with depth while the proposer uplink and "
               "head fan-out have slack, then saturates — the verification rounds of "
               "consecutive blocks overlap almost entirely.\n";
  finish_report(report, opts, kNodes);
  return 0;
}
