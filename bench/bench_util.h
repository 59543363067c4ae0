// Shared helpers for the experiment binaries: standard rig construction for
// the three network flavours over a common synthetic ledger, plus uniform
// headline printing. Every bench prints the rows of one paper table/figure
// (see DESIGN.md experiment index) through ici::Table.
#pragma once

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>

#include "baseline/fullrep.h"
#include "baseline/rapidchain.h"
#include "chain/workload.h"
#include "common/cpudispatch.h"
#include "common/flags.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "ici/network.h"
#include "metrics/memstats.h"
#include "obs/bench_report.h"
#include "storage/storage_meter.h"
#include "storage/store_metrics.h"

namespace ici::bench {

inline void print_experiment_header(const std::string& id, const std::string& title) {
  std::cout << "\n=== " << id << ": " << title << " ===\n";
}

/// The shared command-line contract now lives in common/flags.h
/// (ici::BenchOptions / add_bench_flags): every experiment binary and
/// tools/icisim register --smoke/--threads/--cpu/--seed/--fault-plan from
/// one place, so a new shared flag registers once.
using ici::BenchOptions;

/// The store backend the bench actually constructed, stamped into the
/// artifact as config.store_backend (read by record_thread_config). Set by
/// store_config_from, NOT by flag parsing: a bench that ignores --store
/// truthfully stamps "mem", so an artifact claiming "disk" always carries
/// the store.* instrumentation the schema checker demands of disk captures.
inline std::string& current_store_backend() {
  static std::string backend = "mem";
  return backend;
}

/// Translates the shared --store/--io-write-us/--io-read-us flags into the
/// StoreConfig embedded in facade configs and core::StrategyConfig, and
/// records the choice for the artifact's config.store_backend stamp.
inline StoreConfig store_config_from(const BenchOptions& opts) {
  StoreConfig cfg;
  cfg.backend = opts.store;
  cfg.io_write_us = opts.io_write_us;
  cfg.io_read_us = opts.io_read_us;
  current_store_backend() = opts.store;
  return cfg;
}

inline BenchOptions parse_bench_options(int argc, char** argv, std::string_view name) {
  return parse_bench_options_or_exit(
      argc, argv, std::string(name),
      "paper experiment; writes BENCH_" + std::string(name) +
          ".json (schema ici-bench-v1) into the current directory or $ICI_BENCH_DIR");
}

/// Attaches summed storage-backend tallies to the artifact as the store.*
/// counter block (docs/STORAGE.md). Storage-sensitive benches call this so
/// their --store disk captures carry the backend instrumentation the schema
/// checker requires (tools/check_bench_json.py).
inline void add_store_counters(obs::BenchReport& report, const StoreCounters& t) {
  report.add_counter("store.puts", t.puts);
  report.add_counter("store.dup_puts", t.dup_puts);
  report.add_counter("store.staged_puts", t.staged_puts);
  report.add_counter("store.wq_enqueued", t.wq_enqueued);
  report.add_counter("store.wq_retired", t.wq_retired);
  report.add_counter("store.wq_depth", t.wq_depth);
  report.add_counter("store.wq_depth_peak", t.wq_depth_peak);
  report.add_counter("store.warm_reads", t.warm_reads);
  report.add_counter("store.cold_reads", t.cold_reads);
  report.add_counter("store.cold_read_bytes", t.cold_read_bytes);
  report.add_counter("store.segments", t.segments);
  report.add_counter("store.segment_bytes", t.segment_bytes);
  report.add_counter("store.appended_bytes", t.appended_bytes);
  report.add_counter("store.tombstones", t.tombstones);
  report.add_counter("store.compactions", t.compactions);
  report.add_counter("store.reclaimed_bytes", t.reclaimed_bytes);
  report.add_counter("store.manifest_writes", t.manifest_writes);
  report.add_counter("store.recovered_blocks", t.recovered_blocks);
  report.add_counter("store.truncated_tail_bytes", t.truncated_tail_bytes);
}

/// Stamps the pool size and CPU dispatch tier every ici-bench-v1 artifact
/// must carry (the schema checker rejects files without them); call once
/// after building the report.
inline void record_thread_config(obs::BenchReport& report) {
  report.set_config("threads", ThreadPool::global().thread_count());
  report.set_config("cpu_backend", std::string(cpu::backend_name()));
  report.set_config("store_backend", current_store_backend());
}

/// Stamps process memory counters: sim.rss_bytes / sim.peak_rss_bytes always
/// (when procfs is readable), and sim.bytes_per_node — peak RSS divided by
/// the bench's headline simulated-node count — when `sim_nodes` > 0. These
/// are environment measurements, deliberately NOT part of the deterministic
/// sim.* counter set the bit-identity tests pin down.
inline void record_memory_metrics(obs::BenchReport& report, std::size_t sim_nodes) {
  const metrics::MemoryStats mem = metrics::read_memory_stats();
  if (mem.rss_bytes == 0 && mem.peak_rss_bytes == 0) return;
  report.add_counter("sim.rss_bytes", mem.rss_bytes);
  report.add_counter("sim.peak_rss_bytes", mem.peak_rss_bytes);
  if (sim_nodes > 0) {
    report.add_counter("sim.bytes_per_node", mem.peak_rss_bytes / sim_nodes);
  }
}

/// Captures the global span aggregates and writes the artifact; every bench
/// main() ends with this. A bad $ICI_BENCH_DIR must not look like a crash
/// after the tables already printed, so write failures exit 1 cleanly.
/// Sim-driven benches pass their headline node count so the artifact carries
/// the per-node memory footprint (sim.bytes_per_node).
inline void finish_report(obs::BenchReport& report, std::size_t sim_nodes = 0) {
  record_thread_config(report);
  record_memory_metrics(report, sim_nodes);
  report.capture_spans();
  try {
    const std::string path = report.write();
    std::cout << "\nwrote " << path << "\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(1);
  }
}

/// Builds a valid chain with the given shape (deterministic for a seed).
inline Chain make_chain(std::size_t blocks, std::size_t txs_per_block,
                        std::uint64_t seed = 42) {
  ChainGenConfig cfg;
  cfg.blocks = blocks;
  cfg.txs_per_block = txs_per_block;
  cfg.workload.seed = seed;
  cfg.workload.wallet_count = 64;
  cfg.workload.genesis_outputs_per_wallet = 8;
  return ChainGenerator(cfg).generate();
}

/// ICI network preloaded with `chain` (storage experiments fast path).
inline std::unique_ptr<core::IciNetwork> make_ici_preloaded(const Chain& chain,
                                                            std::size_t nodes,
                                                            std::size_t clusters,
                                                            std::size_t replication = 1,
                                                            const StoreConfig& store = {}) {
  core::IciNetworkConfig cfg;
  cfg.node_count = nodes;
  cfg.ici.cluster_count = clusters;
  cfg.ici.replication = replication;
  cfg.store = store;
  auto net = std::make_unique<core::IciNetwork>(cfg);
  net->init_with_genesis(chain.at_height(0));
  net->preload_chain(chain);
  return net;
}

inline std::unique_ptr<baseline::RapidChainNetwork> make_rapidchain_preloaded(
    const Chain& chain, std::size_t nodes, std::size_t committees,
    const StoreConfig& store = {}) {
  baseline::RapidChainConfig cfg;
  cfg.node_count = nodes;
  cfg.committee_count = committees;
  cfg.store = store;
  auto net = std::make_unique<baseline::RapidChainNetwork>(cfg);
  net->init_with_genesis(chain.at_height(0));
  net->preload_chain(chain);
  return net;
}

inline std::unique_ptr<baseline::FullRepNetwork> make_fullrep_preloaded(
    const Chain& chain, std::size_t nodes, const StoreConfig& store = {}) {
  baseline::FullRepConfig cfg;
  cfg.node_count = nodes;
  cfg.validate = false;  // storage-only runs skip the N UTXO copies
  cfg.store = store;
  auto net = std::make_unique<baseline::FullRepNetwork>(cfg);
  net->init_with_genesis(chain.at_height(0));
  net->preload_chain(chain);
  return net;
}

/// Mean per-node body bytes (headers excluded — shared constant).
inline double mean_body_bytes(const std::vector<const BlockStore*>& stores) {
  double total = 0;
  for (const BlockStore* s : stores) total += static_cast<double>(s->body_bytes());
  return stores.empty() ? 0.0 : total / static_cast<double>(stores.size());
}

/// A live (message-accurate) ICI rig: generator + chain + network share one
/// genesis so dissemination experiments can produce valid blocks on demand.
struct LiveIciRig {
  LiveIciRig(std::size_t nodes, std::size_t clusters, std::size_t txs_per_block,
             std::size_t replication = 1, std::uint64_t seed = 42,
             const std::string& clustering = "kmeans") {
    ChainGenConfig ccfg;
    ccfg.txs_per_block = txs_per_block;
    ccfg.workload.seed = seed;
    ccfg.workload.wallet_count = 64;
    ccfg.workload.genesis_outputs_per_wallet = 8;
    gen = std::make_unique<ChainGenerator>(ccfg);

    core::IciNetworkConfig ncfg;
    ncfg.node_count = nodes;
    ncfg.ici.cluster_count = clusters;
    ncfg.ici.replication = replication;
    ncfg.ici.clustering = clustering;
    ncfg.seed = seed;
    net = std::make_unique<core::IciNetwork>(ncfg);

    Block genesis = gen->workload().make_genesis();
    gen->workload().confirm(genesis);
    chain = std::make_unique<Chain>(genesis);
    net->init_with_genesis(genesis);
  }

  /// Produces + disseminates one block; returns full-commit latency (µs).
  sim::SimTime step() {
    chain->append(gen->next_block(*chain));
    return net->disseminate_and_settle(chain->tip());
  }

  std::unique_ptr<ChainGenerator> gen;
  std::unique_ptr<core::IciNetwork> net;
  std::unique_ptr<Chain> chain;
};

/// Live RapidChain rig with the same workload shape.
struct LiveRapidChainRig {
  LiveRapidChainRig(std::size_t nodes, std::size_t committees, std::size_t txs_per_block,
                    std::uint64_t seed = 42) {
    ChainGenConfig ccfg;
    ccfg.txs_per_block = txs_per_block;
    ccfg.workload.seed = seed;
    ccfg.workload.wallet_count = 64;
    ccfg.workload.genesis_outputs_per_wallet = 8;
    gen = std::make_unique<ChainGenerator>(ccfg);

    baseline::RapidChainConfig cfg;
    cfg.node_count = nodes;
    cfg.committee_count = committees;
    net = std::make_unique<baseline::RapidChainNetwork>(cfg);

    Block genesis = gen->workload().make_genesis();
    gen->workload().confirm(genesis);
    chain = std::make_unique<Chain>(genesis);
    net->init_with_genesis(genesis);
  }

  sim::SimTime step() {
    chain->append(gen->next_block(*chain));
    return net->disseminate_and_settle(chain->tip());
  }

  std::unique_ptr<ChainGenerator> gen;
  std::unique_ptr<baseline::RapidChainNetwork> net;
  std::unique_ptr<Chain> chain;
};

}  // namespace ici::bench
