// icisim — configurable ICIStrategy scenario runner.
//
//   $ ./build/tools/icisim --nodes 120 --clusters 6 --blocks 20 --fault-plan crash=0.3
//   $ ./build/tools/icisim --erasure-data 8 --erasure-parity 2 --minutes 20
//   $ ./build/tools/icisim --fault-plan seed=7,crash=0.3,drop=0.1
//   $ ./build/tools/icisim --smoke          # tiny config, same output shape
//   $ ./build/tools/icisim --help
//
// Builds a network from command-line parameters, disseminates a workload,
// optionally runs a fault plan (crash sessions are the churn model, see
// docs/FAULTS.md), and prints a one-page report: storage, traffic,
// commit latency, availability, and protocol counters. The scriptable front
// door to everything the examples demonstrate one piece at a time. Every
// run also writes BENCH_icisim.json (ici-bench-v1 schema, see
// docs/OBSERVABILITY.md) with the config, metric rows, protocol counters,
// and span aggregates.
#include <algorithm>
#include <iostream>

#include "chain/workload.h"
#include "common/cpudispatch.h"
#include "common/flags.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "ici/network.h"
#include "metrics/memstats.h"
#include "obs/bench_report.h"
#include "sim/faults.h"

int main(int argc, char** argv) {
  using namespace ici;

  std::uint64_t nodes = 60;
  std::uint64_t clusters = 4;
  std::uint64_t replication = 1;
  std::uint64_t erasure_data = 0;
  std::uint64_t erasure_parity = 0;
  std::uint64_t blocks = 15;
  std::uint64_t txs = 40;
  std::uint64_t minutes = 20;
  bool sync_join = false;
  std::uint64_t sync_range = 16;
  std::uint64_t sync_window = 2;
  std::uint64_t sync_peers = 4;
  double sync_serve_rate = 0.0;
  std::string clustering = "kmeans";
  BenchOptions opts;

  FlagParser flags("icisim", "ICIStrategy network scenario runner");
  flags.add_uint("nodes", &nodes, "number of participants");
  flags.add_uint("clusters", &clusters, "number of clusters k");
  flags.add_uint("replication", &replication, "intra-cluster replication r");
  flags.add_uint("erasure-data", &erasure_data, "RS data shards d (0 = replication mode)");
  flags.add_uint("erasure-parity", &erasure_parity, "RS parity shards p");
  flags.add_uint("blocks", &blocks, "blocks to disseminate");
  flags.add_uint("txs", &txs, "transactions per block");
  flags.add_string("clustering", &clustering, "kmeans | random | grid");
  flags.add_uint("minutes", &minutes, "simulated minutes of the --fault-plan run");
  flags.add_bool("sync-join", &sync_join,
                 "bootstrap one extra node via streaming bulk-sync at the end");
  flags.add_uint("sync-range", &sync_range, "bulk-sync blocks per range request");
  flags.add_uint("sync-window", &sync_window, "bulk-sync in-flight requests per peer");
  flags.add_uint("sync-peers", &sync_peers, "bulk-sync parallel pull peers");
  flags.add_double("sync-serve-rate", &sync_serve_rate,
                   "serve-side bulk-sync rate limit in bytes/s of sim time (0 = off)");
  add_bench_flags(flags, &opts, kSeedFlags | kFaultFlags | kStoreFlags);

  std::string error;
  if (!flags.parse(argc, argv, &error)) {
    if (!error.empty()) std::cerr << "error: " << error << "\n\n";
    std::cout << flags.usage();
    return error.empty() ? 0 : 2;
  }
  apply_bench_options(opts);

  sim::FaultPlan fault_plan;
  if (!sim::FaultPlan::parse(opts.fault_plan, &fault_plan, &error)) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  const bool faults = fault_plan.enabled();

  const std::uint64_t seed = opts.seed;
  const bool smoke = opts.smoke;
  if (smoke) {
    nodes = 24;
    clusters = 2;
    blocks = 4;
    txs = 20;
    minutes = 2;
  }

  ChainGenConfig chain_cfg;
  chain_cfg.txs_per_block = txs;
  chain_cfg.workload.seed = seed;
  ChainGenerator generator(chain_cfg);

  core::IciNetworkConfig net_cfg;
  net_cfg.node_count = nodes;
  net_cfg.ici.cluster_count = clusters;
  net_cfg.ici.replication = replication;
  net_cfg.ici.erasure_data = erasure_data;
  net_cfg.ici.erasure_parity = erasure_parity;
  net_cfg.ici.clustering = clustering;
  net_cfg.seed = seed;
  net_cfg.sync_serve_rate_bps = sync_serve_rate;
  net_cfg.store.backend = opts.store;
  net_cfg.store.io_write_us = opts.io_write_us;
  net_cfg.store.io_read_us = opts.io_read_us;

  std::unique_ptr<core::IciNetwork> network;
  try {
    network = std::make_unique<core::IciNetwork>(net_cfg);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  obs::BenchReport report("icisim", seed);
  report.set_smoke(smoke);
  report.set_config("nodes", nodes);
  report.set_config("clusters", clusters);
  report.set_config("replication", replication);
  report.set_config("erasure_data", erasure_data);
  report.set_config("erasure_parity", erasure_parity);
  report.set_config("blocks", blocks);
  report.set_config("txs_per_block", txs);
  report.set_config("clustering", clustering);
  report.set_config("threads", ThreadPool::global().thread_count());
  report.set_config("cpu_backend", std::string(cpu::backend_name()));
  report.set_config("store_backend", opts.store);
  if (sync_serve_rate > 0.0) report.set_config("sync_serve_rate_bps", sync_serve_rate);
  if (faults) {
    report.set_config("fault_plan", fault_plan.describe());
    report.set_config("sim_minutes", minutes);
  }
  if (sync_join) {
    report.set_config("sync_range", sync_range);
    report.set_config("sync_window", sync_window);
    report.set_config("sync_peers", sync_peers);
  }

  Block genesis = generator.workload().make_genesis();
  generator.workload().confirm(genesis);
  Chain chain(genesis);
  network->init_with_genesis(genesis);

  Histogram commit_latency;
  for (std::uint64_t i = 0; i < blocks; ++i) {
    chain.append(generator.next_block(chain));
    const sim::SimTime t = network->disseminate_and_settle(chain.tip());
    if (t > 0) commit_latency.add(static_cast<double>(t));
  }

  // Faults start after dissemination: their recurring crash/restart
  // schedules keep the event queue populated forever, so the run advances
  // in bounded windows from here on (never settle()).
  RunningStat availability;
  if (faults) {
    network->start_faults(fault_plan);
    for (std::uint64_t minute = 0; minute < minutes; ++minute) {
      network->run_for(60'000'000);
      availability.add(network->availability());
    }
  }

  const auto snap = network->storage_snapshot();
  const auto traffic = network->network().total_traffic();

  std::cout << "=== icisim report ===\n";
  Table setup({"parameter", "value"});
  setup.row({"nodes", std::to_string(nodes)});
  setup.row({"clusters (k)", std::to_string(clusters)});
  setup.row({"cluster size (m)", std::to_string(nodes / clusters)});
  setup.row({"redundancy", erasure_data > 0 ? "RS(" + std::to_string(erasure_data) + "," +
                                                  std::to_string(erasure_parity) + ")"
                                            : "r=" + std::to_string(replication)});
  setup.row({"clustering", clustering});
  setup.row({"ledger", format_bytes(static_cast<double>(chain.total_bytes()))});
  setup.print(std::cout);

  std::cout << "\n";
  Table results({"metric", "value"});
  results.row({"blocks committed", std::to_string(commit_latency.count()) + "/" +
                                       std::to_string(blocks)});
  results.row({"commit latency p50", format_double(commit_latency.p50() / 1000, 1) + " ms"});
  results.row({"commit latency p99", format_double(commit_latency.p99() / 1000, 1) + " ms"});
  results.row({"storage mean/node", format_bytes(snap.mean_bytes)});
  results.row({"storage max/node", format_bytes(snap.max_bytes)});
  const double vs_full = snap.mean_bytes / static_cast<double>(chain.total_bytes()) * 100;
  results.row({"vs full replication", format_double(vs_full, 1) + "%"});
  results.row({"traffic total", format_bytes(static_cast<double>(traffic.bytes_sent))});
  results.row({"messages", std::to_string(traffic.msgs_sent)});
  if (faults) {
    results.row({"availability (mean)", format_double(availability.mean(), 4)});
    results.row({"availability (min)", format_double(availability.min(), 4)});
  }
  results.print(std::cout);

  // Optional join probe: bootstrap one fresh node through the streaming
  // bulk-sync protocol (docs/BOOTSTRAP.md) against the network as-is —
  // after the fault plan, so the join sees whatever the run left standing.
  if (sync_join) {
    sync::SyncConfig scfg;
    scfg.range_blocks = static_cast<std::uint32_t>(sync_range);
    scfg.per_peer_window = static_cast<std::uint32_t>(sync_window);
    scfg.max_peers = static_cast<std::uint32_t>(sync_peers);
    const auto join = network->bootstrap({50, 50}, scfg);

    std::cout << "\nBulk-sync join:\n";
    Table jt({"metric", "value"});
    jt.row({"synced", join.complete ? "yes" : "NO"});
    jt.row({"time to synced", format_double(
                static_cast<double>(join.sync.time_to_synced_us) / 1000, 1) + " ms"});
    jt.row({"bytes downloaded", format_bytes(static_cast<double>(join.bytes_downloaded))});
    jt.row({"peers used", std::to_string(join.sync.peers_used)});
    jt.row({"ranges", std::to_string(join.sync.ranges_committed) + " (+" +
                          std::to_string(join.sync.ranges_retried) + " retried)"});
    jt.row({"bodies fetched", std::to_string(join.bodies_fetched)});
    jt.print(std::cout);

    auto& jrow = report.add_row("sync_join");
    jrow.set("complete", join.complete);
    jrow.set("time_to_synced_us", join.sync.time_to_synced_us);
    jrow.set("frontier_us", join.sync.frontier_us);
    jrow.set("bytes_downloaded", join.bytes_downloaded);
    jrow.set("header_payload_bytes", join.sync.header_payload_bytes);
    jrow.set("body_payload_bytes", join.sync.body_payload_bytes);
    jrow.set("peers_used", join.sync.peers_used);
    jrow.set("ranges_committed", join.sync.ranges_committed);
    jrow.set("ranges_retried", join.sync.ranges_retried);
    jrow.set("resumes", join.sync.resume_count);
  }

  std::cout << "\nProtocol counters:\n";
  for (const auto& [name, counter] : network->metrics().counters()) {
    std::cout << "  " << name << " = " << counter.value() << "\n";
  }

  auto& row = report.add_row("run");
  row.set("blocks_committed", commit_latency.count());
  row.set("commit_p50_us", commit_latency.p50());
  row.set("commit_p99_us", commit_latency.p99());
  row.set("ledger_bytes", chain.total_bytes());
  row.set("storage_mean_bytes", snap.mean_bytes);
  row.set("storage_max_bytes", snap.max_bytes);
  row.set("vs_fullrep_pct", vs_full);
  row.set("traffic_bytes", traffic.bytes_sent);
  row.set("traffic_msgs", traffic.msgs_sent);
  if (faults) {
    row.set("availability_mean", availability.mean());
    row.set("availability_min", availability.min());
  }
  report.capture_registry(network->metrics());
  // Memory footprint of the run (environment measurement, not part of the
  // deterministic sim.* counters; see docs/MEMORY.md).
  const metrics::MemoryStats mem = metrics::read_memory_stats();
  if (mem.peak_rss_bytes != 0) {
    report.add_counter("sim.rss_bytes", mem.rss_bytes);
    report.add_counter("sim.peak_rss_bytes", mem.peak_rss_bytes);
    report.add_counter("sim.bytes_per_node", mem.peak_rss_bytes / nodes);
  }
  report.capture_spans();
  try {
    const std::string path = report.write();
    std::cout << "\nwrote " << path << "\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
