// E05 [A] — Bootstrap cost for a new node vs chain length.
//
// The abstract claims ICIStrategy "greatly saves the overhead of
// bootstrapping": a joiner downloads all headers plus only its assigned
// share of bodies (≈ D/m), instead of the full chain (full replication) or
// a whole committee shard (RapidChain, ≈ D/k).
//
// Since the streaming bulk-sync protocol landed (docs/BOOTSTRAP.md), every
// number here is measured from simulated protocol traffic — frontier
// exchange, windowed multi-peer range pulls, per-range verification — not
// computed from a closed form. The rows carry the protocol detail (frontier
// latency, ranges, retries, peers used) alongside the headline bytes.
#include "bench_util.h"


using namespace ici;
using namespace ici::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "exp05_bootstrap", kStoreFlags);
  const std::size_t kNodes = opts.smoke ? 40 : 120;
  const std::size_t kIciClusters = opts.smoke ? 2 : 6;  // m = 20
  const std::size_t kRcCommittees = opts.smoke ? 2 : 5;
  constexpr std::size_t kTxs = 40;
  constexpr std::uint64_t kSeed = 42;
  const std::vector<std::size_t> block_counts =
      opts.smoke ? std::vector<std::size_t>{25} : std::vector<std::size_t>{100, 200, 400};

  obs::BenchReport report("exp05_bootstrap", kSeed);
  report.set_smoke(opts.smoke);
  report.set_config("nodes", kNodes);
  report.set_config("ici_clusters", kIciClusters);
  report.set_config("rapidchain_committees", kRcCommittees);
  report.set_config("txs_per_block", kTxs);

  print_experiment_header("E05", "new-node bootstrap cost vs chain length");
  std::cout << "N=" << kNodes << "; ICI m=" << kNodes / kIciClusters
            << " r=1; RapidChain k=" << kRcCommittees << "\n\n";

  Table table({"blocks", "system", "bytes downloaded", "sim time (s)", "bodies fetched",
               "peers", "ranges", "vs full-rep"});

  const StoreConfig store = store_config_from(opts);
  StoreCounters store_totals;
  for (const std::size_t blocks : block_counts) {
    const Chain chain = make_chain(blocks, kTxs, kSeed);

    auto fullrep = make_fullrep_preloaded(chain, kNodes, store);
    const auto fr = fullrep->bootstrap({50, 50});
    store_totals += sum_store_counters(fullrep->stores());

    auto rapidchain = make_rapidchain_preloaded(chain, kNodes, kRcCommittees, store);
    const auto rc = rapidchain->bootstrap({50, 50});
    store_totals += sum_store_counters(rapidchain->stores());

    auto ici = make_ici_preloaded(chain, kNodes, kIciClusters, /*replication=*/1, store);
    const auto ic = ici->bootstrap({50, 50});
    store_totals += sum_store_counters(ici->stores());

    const auto row = [&](const char* name, std::uint64_t bytes, sim::SimTime t,
                         std::size_t bodies, const sync::SyncReport& sync) {
      const double vs_full =
          static_cast<double>(bytes) / static_cast<double>(fr.bytes_downloaded) * 100;
      table.row({std::to_string(blocks), name, format_bytes(static_cast<double>(bytes)),
                 format_double(static_cast<double>(t) / 1e6, 2), std::to_string(bodies),
                 std::to_string(sync.peers_used), std::to_string(sync.ranges_committed),
                 format_double(vs_full, 1) + "%"});
      report.add_row("blocks=" + std::to_string(blocks) + "/" + name)
          .set("blocks", blocks)
          .set("system", name)
          .set("bytes_downloaded", bytes)
          .set("elapsed_us", t)
          .set("bodies_fetched", bodies)
          .set("vs_fullrep_pct", vs_full)
          .set("protocol", sync.protocol)
          .set("complete", sync.complete)
          .set("frontier_us", sync.frontier_us)
          .set("header_payload_bytes", sync.header_payload_bytes)
          .set("body_payload_bytes", sync.body_payload_bytes)
          .set("peers_used", sync.peers_used)
          .set("ranges_committed", sync.ranges_committed)
          .set("ranges_retried", sync.ranges_retried)
          .set("resumes", sync.resume_count);
    };
    row("full-rep", fr.bytes_downloaded, fr.elapsed_us, fr.bodies_fetched, fr.sync);
    row("rapidchain", rc.bytes_downloaded, rc.elapsed_us, rc.bodies_fetched, rc.sync);
    row("ici", ic.bytes_downloaded, ic.elapsed_us, ic.bodies_fetched, ic.sync);
  }
  table.print(std::cout);
  // With --store disk the joins above served every body off the segment
  // logs; the artifact carries the summed backend instrumentation the
  // schema checker requires of disk captures.
  add_store_counters(report, store_totals);
  std::cout << "\nExpected shape: full-rep downloads the whole ledger; rapidchain one shard "
               "(D/k); ici only headers + ~1/m of bodies — the cheapest join, and the gap "
               "grows with chain length. All rows are protocol-measured (bulk-sync ranges "
               "over multiple peers), not closed-form.\n";
  finish_report(report, opts, kNodes);
  return 0;
}
