// E10 [R] — Clustering ablation (DESIGN.md D1): latency-aware k-means vs
// random vs geographic grid.
//
// "via Clustering" is the paper's title claim — this bench shows why the
// clustering choice matters: k-means minimizes intra-cluster distance, so
// slice/vote round-trips (and therefore commit latency) shrink.
#include "bench_util.h"

#include "cluster/clusterer.h"

using namespace ici;
using namespace ici::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "exp10_clustering_ablation");
  const std::size_t kNodes = opts.smoke ? 48 : 150;
  const std::size_t kClusters = opts.smoke ? 3 : 6;
  const std::size_t kTxs = opts.smoke ? 30 : 60;
  const int kBlocks = opts.smoke ? 2 : 5;
  constexpr std::uint64_t kSeed = 42;

  obs::BenchReport report("exp10_clustering_ablation", kSeed);
  report.set_smoke(opts.smoke);
  report.set_config("nodes", kNodes);
  report.set_config("clusters", kClusters);
  report.set_config("txs_per_block", kTxs);
  report.set_config("blocks", kBlocks);

  print_experiment_header("E10", "clustering ablation: kmeans vs random vs grid");
  std::cout << "N=" << kNodes << ", k=" << kClusters << ", txs/block=" << kTxs << "\n\n";

  Table table({"clustering", "intra-cluster dist", "cluster commit p50 (ms)",
               "full commit mean (ms)"});

  for (const std::string strategy : {"kmeans", "random", "grid"}) {
    LiveIciRig rig(kNodes, kClusters, kTxs, 1, kSeed, strategy);

    // Geometry metric over the actual clustering the network built.
    const auto infos = cluster::generate_topology(kNodes, 5, kSeed);
    cluster::Clustering clustering;
    clustering.clusters.resize(kClusters);
    for (const auto& info : infos) {
      clustering.clusters[rig.net->directory().cluster_of(info.id)].push_back(info.id);
    }
    const double dist = cluster::mean_intra_cluster_distance(infos, clustering);

    Histogram full_commit;
    for (int i = 0; i < kBlocks; ++i) {
      const sim::SimTime t = rig.step();
      if (t > 0) full_commit.add(static_cast<double>(t));
    }
    const auto* cluster_lat =
        rig.net->metrics().find_distribution("commit.cluster_latency_us");
    const double p50_us = cluster_lat ? cluster_lat->p50() : 0;

    table.row({strategy, format_double(dist, 1), format_double(p50_us / 1000, 1),
               format_double(full_commit.mean() / 1000, 1)});

    report.add_row("clustering=" + strategy)
        .set("clustering", strategy)
        .set("mean_intra_cluster_distance", dist)
        .set("cluster_commit_p50_us", p50_us)
        .set("full_commit_mean_us", full_commit.mean());
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: kmeans yields the tightest clusters and the lowest commit "
               "latency; random is the upper bound on intra-cluster distance; grid sits "
               "between (cells approximate locality but ignore density).\n";
  finish_report(report, opts, kNodes);
  return 0;
}
