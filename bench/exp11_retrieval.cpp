// E11 [R] — Historical block retrieval latency vs cluster size m.
//
// The cost ICIStrategy pays for not storing everything locally: reading an
// unassigned block means one intra-cluster fetch. With latency-aware
// clustering the holder is nearby, so the penalty stays near a single
// intra-cluster round trip regardless of m. Full replication's baseline is
// a local read (0 ms) — shown as the local-hit rate column.
#include "bench_util.h"

#include "ici/retrieval.h"

using namespace ici;
using namespace ici::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "exp11_retrieval", kStoreFlags);
  const std::size_t kNodes = opts.smoke ? 40 : 120;
  const std::size_t kBlocks = opts.smoke ? 30 : 120;
  constexpr std::size_t kTxs = 30;
  const std::size_t kFetches = opts.smoke ? 40 : 150;
  constexpr std::uint64_t kSeed = 42;
  const std::vector<std::size_t> cluster_sizes =
      opts.smoke ? std::vector<std::size_t>{10, 20} : std::vector<std::size_t>{10, 20, 40, 60};

  obs::BenchReport report("exp11_retrieval", kSeed);
  report.set_smoke(opts.smoke);
  report.set_config("nodes", kNodes);
  report.set_config("blocks", kBlocks);
  report.set_config("txs_per_block", kTxs);
  report.set_config("fetches", kFetches);

  print_experiment_header("E11", "historical block retrieval latency vs cluster size m");
  const Chain chain = make_chain(kBlocks, kTxs, kSeed);
  std::cout << "N=" << kNodes << ", " << kFetches
            << " random (node, block) fetches per configuration\n\n";

  Table table({"m", "k", "local hits", "remote p50 (ms)", "remote p99 (ms)", "misses",
               "timeouts", "not found"});
  StoreCounters store_totals;
  for (const std::size_t m : cluster_sizes) {
    const std::size_t k = kNodes / m;
    auto net = make_ici_preloaded(chain, kNodes, k, /*replication=*/1,
                                  store_config_from(opts));
    const core::RetrievalStats stats = core::RetrievalDriver::run(*net, kFetches, 99);
    store_totals += sum_store_counters(net->stores());

    table.row({std::to_string(m), std::to_string(k), std::to_string(stats.local_hits),
               format_double(stats.latency_us.p50() / 1000, 2),
               format_double(stats.latency_us.p99() / 1000, 2),
               std::to_string(stats.misses()), std::to_string(stats.timeouts),
               std::to_string(stats.not_found)});

    report.add_row("m=" + std::to_string(m))
        .set("cluster_size", m)
        .set("clusters", k)
        .set("local_hits", stats.local_hits)
        .set("remote_p50_us", stats.latency_us.p50())
        .set("remote_p99_us", stats.latency_us.p99())
        .set("misses", stats.misses())
        .set("timeouts", stats.timeouts)
        .set("not_found", stats.not_found);
  }
  // Disk-backed runs (--store disk) attach the backend instrumentation the
  // schema checker requires on such captures.
  if (opts.store == "disk") add_store_counters(report, store_totals);

  table.print(std::cout);
  std::cout << "\nExpected shape: local-hit probability ~r/m falls with m, but the remote "
               "fetch stays ~one intra-cluster RTT + body transfer. Full replication always "
               "hits locally (0 ms) at m-times the storage.\n";
  finish_report(report, opts, kNodes);
  return 0;
}
