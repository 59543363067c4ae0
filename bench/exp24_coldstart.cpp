// E24 [S] — Cold-start cost of persistent storage: disk vs mem backend.
//
// The pluggable storage backend (docs/STORAGE.md) lets the same ICI
// deployment run with bodies in memory (the seed behaviour) or in
// log-structured on-disk segment files behind an async write queue whose IO
// completions are simulated-time events. This experiment measures what that
// persistence costs where it actually shows up:
//
//   - bootstrap: a joiner bulk-syncs its assigned bodies from disk-backed
//     servers, so every served range pays the servers' cold-read time;
//   - retrieval: random historical fetches hit cold bodies (the owner reads
//     from its segment log before answering) instead of warm pointers.
//
// Both backends run the identical protocol schedule — the disk rows differ
// only by the simulated IO service times (--io-write-us / --io-read-us).
#include "bench_util.h"

#include "ici/retrieval.h"
#include "storage/store_metrics.h"

using namespace ici;
using namespace ici::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "exp24_coldstart", kStoreFlags);
  const std::size_t kNodes = opts.smoke ? 40 : 120;
  const std::size_t kClusters = opts.smoke ? 2 : 6;  // m = 20
  const std::size_t kBlocks = opts.smoke ? 25 : 200;
  constexpr std::size_t kTxs = 40;
  const std::size_t kFetches = opts.smoke ? 40 : 150;
  constexpr std::uint64_t kSeed = 42;

  obs::BenchReport report("exp24_coldstart", kSeed);
  report.set_smoke(opts.smoke);
  report.set_config("nodes", kNodes);
  report.set_config("ici_clusters", kClusters);
  report.set_config("blocks", kBlocks);
  report.set_config("txs_per_block", kTxs);
  report.set_config("fetches", kFetches);
  report.set_config("io_write_us", opts.io_write_us);
  report.set_config("io_read_us", opts.io_read_us);

  print_experiment_header("E24", "cold-start cost of persistent storage (disk vs mem)");
  const Chain chain = make_chain(kBlocks, kTxs, kSeed);
  std::cout << "N=" << kNodes << ", m=" << kNodes / kClusters << ", " << kBlocks
            << " blocks; disk IO: write=" << opts.io_write_us
            << "µs read=" << opts.io_read_us << "µs\n\n";

  Table table({"backend", "bootstrap (s)", "bytes downloaded", "bodies", "retr p50 (ms)",
               "retr p99 (ms)", "cold reads", "warm reads"});

  StoreCounters disk_totals;
  for (const std::string_view backend : {std::string_view("mem"), std::string_view("disk")}) {
    StoreConfig store = store_config_from(opts);
    store.backend = std::string(backend);

    auto net = make_ici_preloaded(chain, kNodes, kClusters, /*replication=*/1, store);
    const host::JoinReport join = net->bootstrap({50, 50});
    const core::RetrievalStats stats = core::RetrievalDriver::run(*net, kFetches, 99);
    const StoreCounters sc = sum_store_counters(net->stores());
    if (backend == "disk") disk_totals = sc;

    table.row({std::string(backend), format_double(static_cast<double>(join.elapsed_us) / 1e6, 3),
               format_bytes(static_cast<double>(join.bytes_downloaded)),
               std::to_string(join.bodies_fetched),
               format_double(stats.latency_us.p50() / 1000, 2),
               format_double(stats.latency_us.p99() / 1000, 2), std::to_string(sc.cold_reads),
               std::to_string(sc.warm_reads)});

    report.add_row("backend=" + std::string(backend))
        .set("backend", backend)
        .set("bootstrap_us", join.elapsed_us)
        .set("bytes_downloaded", join.bytes_downloaded)
        .set("bodies_fetched", join.bodies_fetched)
        .set("bootstrap_complete", join.complete)
        .set("retrieval_p50_us", stats.latency_us.p50())
        .set("retrieval_p99_us", stats.latency_us.p99())
        .set("local_hits", stats.local_hits)
        .set("remote_hits", stats.remote_hits)
        .set("cold_reads", sc.cold_reads)
        .set("warm_reads", sc.warm_reads)
        .set("cold_read_bytes", sc.cold_read_bytes)
        .set("staged_puts", sc.staged_puts)
        .set("wq_depth_peak", sc.wq_depth_peak)
        .set("segments", sc.segments)
        .set("appended_bytes", sc.appended_bytes);
  }
  table.print(std::cout);

  // The artifact always carries the disk run's store.* instrumentation
  // (tools/check_bench_json.py requires it for this experiment).
  add_store_counters(report, disk_totals);

  std::cout << "\nExpected shape: identical bytes downloaded and bodies fetched (the protocol "
               "schedule does not depend on the backend); the disk rows pay the simulated "
               "cold-read and append times in bootstrap and retrieval latency, and the "
               "cold/warm split shows which fetches actually touched the segment log.\n";
  finish_report(report, opts, kNodes);
  return 0;
}
