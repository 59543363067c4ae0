// E14 [R, extension] — Erasure-coded intra-cluster storage vs whole-copy
// replication: the storage/availability frontier.
//
// Whole-copy replication pays integer multiples of the block for
// redundancy; a (d, p) Reed-Solomon code pays (d+p)/d — e.g. (4,2) delivers
// 2-failure tolerance at 1.5× instead of 3×. This bench runs identical
// churn over both modes and tabulates the frontier.
#include "bench_util.h"

using namespace ici;
using namespace ici::bench;

namespace {

struct ModeConfig {
  std::size_t nodes = 60;
  int blocks = 10;
  int minutes = 30;
};

struct ModeResult {
  double bytes_per_node = 0;
  double availability = 0;
  std::uint64_t repair_actions = 0;
};

ModeResult run_mode(const ModeConfig& mc, std::size_t replication, std::size_t data,
                    std::size_t parity) {
  ChainGenConfig ccfg;
  ccfg.txs_per_block = 20;
  ChainGenerator gen(ccfg);

  core::IciNetworkConfig cfg;
  cfg.node_count = mc.nodes;
  cfg.ici.cluster_count = 3;
  cfg.ici.replication = replication;
  cfg.ici.erasure_data = data;
  cfg.ici.erasure_parity = parity;
  core::IciNetwork net(cfg);

  Block genesis = gen.workload().make_genesis();
  gen.workload().confirm(genesis);
  Chain chain(genesis);
  net.init_with_genesis(genesis);
  for (int i = 0; i < mc.blocks; ++i) {
    chain.append(gen.next_block(chain));
    net.disseminate_and_settle(chain.tip());
  }

  sim::FaultPlan churn;
  churn.crash_fraction = 0.3;
  churn.mean_uptime_us = 600'000'000;
  churn.mean_downtime_us = 120'000'000;
  churn.seed = 11;
  net.start_faults(churn);

  RunningStat availability;
  for (int minute = 0; minute < mc.minutes; ++minute) {
    net.simulator().run_until(net.simulator().now() + 60'000'000);
    availability.add(net.availability());
  }

  ModeResult r;
  r.bytes_per_node = net.storage_snapshot().mean_bytes;
  r.availability = availability.mean();
  r.repair_actions = net.metrics().counter_value("repair.copies_completed") +
                     net.metrics().counter_value("repair.shards_completed");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "exp14_erasure");
  ModeConfig mc;
  if (opts.smoke) {
    mc.nodes = 30;
    mc.blocks = 3;
    mc.minutes = 4;
  }
  constexpr std::uint64_t kSeed = 42;

  obs::BenchReport report("exp14_erasure", kSeed);
  report.set_smoke(opts.smoke);
  report.set_config("nodes", mc.nodes);
  report.set_config("clusters", 3);
  report.set_config("blocks", mc.blocks);
  report.set_config("sim_minutes", mc.minutes);
  report.set_config("churn_fraction", 0.3);

  print_experiment_header("E14", "erasure coding vs replication: storage/availability frontier");
  std::cout << "N=" << mc.nodes << ", k=3 (m=" << mc.nodes / 3 << "), " << mc.blocks
            << " blocks, 30% churn, " << mc.minutes << " simulated minutes\n\n";

  Table table({"mode", "redundancy factor", "bytes/node", "availability", "repairs"});
  const auto add = [&](const char* name, const char* factor, double factor_num, std::size_t r,
                       std::size_t d, std::size_t p) {
    const ModeResult res = run_mode(mc, r, d, p);
    table.row({name, factor, format_bytes(res.bytes_per_node),
               format_double(res.availability, 4), std::to_string(res.repair_actions)});
    report.add_row(name)
        .set("mode", name)
        .set("redundancy_factor", factor_num)
        .set("replication", r)
        .set("erasure_data", d)
        .set("erasure_parity", p)
        .set("bytes_per_node", res.bytes_per_node)
        .set("availability", res.availability)
        .set("repair_actions", res.repair_actions);
  };
  add("replication r=1", "1.0x", 1.0, 1, 0, 0);
  add("replication r=2", "2.0x", 2.0, 2, 0, 0);
  if (!opts.smoke) add("replication r=3", "3.0x", 3.0, 3, 0, 0);
  add("coded (4,2)", "1.5x", 1.5, 1, 4, 2);
  if (!opts.smoke) {
    add("coded (8,2)", "1.25x", 1.25, 1, 8, 2);
    add("coded (8,4)", "1.5x", 1.5, 1, 8, 4);
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: coded (4,2) matches r=3's two-failure tolerance at half "
               "the storage; (8,2) undercuts even r=2 while tolerating two holders down. "
               "The cost is reconstruction reads (d shard fetches) instead of one copy.\n";
  finish_report(report, opts, mc.nodes);
  return 0;
}
