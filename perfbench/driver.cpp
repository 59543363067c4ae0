// perfbench_driver — runs one benchmark workload against the program's
// public APIs (core::make_strategy / core::Strategy, ingest::IngestDriver,
// ChainGenerator, the strategies' bootstrap and retrieval paths,
// metrics::Registry and obs::TraceSink) and prints one JSON object with
// every metric, the run's fingerprint and its build stamp.
//
//   perfbench_driver --workload scale-10k|ingest-hot|join-disk --seed N
//                    --seconds S --trace 0|1 --store-dir DIR [--trace-out FILE]
//
// perfbench/run.py builds and invokes it; see perfbench/README.md.
// --store-dir is scratch space for disk stores; the caller removes it.
//
// The workload repeats whole iterations (set-up, measured phase, checks,
// teardown) until --seconds have passed, and reports medians over them.
// Every iteration of one seed must produce the same fingerprint.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "chain/workload.h"
#include "common/hex.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "crypto/sha256.h"
#include "ingest/driver.h"
#include "metrics/memstats.h"
#include "obs/trace.h"
#include "sim/shard.h"
#include "strategy/strategy.h"
#include "timed_strategy.h"
#include "tracer.h"

namespace {

using namespace perfbench;
using ici::core::Strategy;
using ici::core::StrategyConfig;

// ---- results ------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// One iteration's measurements. Host times vary run to run; every other
/// value is a pure function of the seed.
struct Iteration {
  double wall_s = 0;
  bool traced = false;
  std::map<std::string, Metric> metrics;
  /// Host ms per unit of work: one block ingest, or one ICI join.
  std::vector<double> op_ms;
  std::map<std::string, std::string> fingerprint;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
  void fp(const std::string& name, std::uint64_t value) {
    fingerprint[name] = std::to_string(value);
  }
};

/// Every per-layer metric, reported on every workload (0 where the
/// workload does not reach the layer).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"cluster.build_s", "s"},
    {"ici.genesis_s", "s"},
    {"sim.events", "count"},
    {"sim.peak_pending", "count"},
    {"sim.far_events", "count"},
    {"ici.ingest_s", "s"},
    {"ici.ingest_ms_p50", "ms"},
    {"ici.msgs_per_block", "count"},
    {"ici.bytes_per_block", "B"},
    {"ici.verify_rounds", "count"},
    {"ici.verify_slice_s", "s"},
    {"ici.head_checks_s", "s"},
    {"ici.codec_s", "s"},
    {"chain.driver_s", "s"},
    {"chain.generated", "count"},
    {"chain.skipped_no_funds", "count"},
    {"chain.payer_hit_ratio", "ratio"},
    {"ingest.accept_ratio", "ratio"},
    {"ingest.rejected_backpressure", "count"},
    {"ingest.batch_occupancy_pct", "%"},
    {"mempool.evictions", "count"},
    {"mempool.size_peak", "count"},
    {"common.pool_s", "s"},
    {"storage.preload_s", "s"},
    {"store.appended_bytes", "B"},
    {"store.segments", "count"},
    {"store.compactions", "count"},
    {"store.cold_reads", "count"},
    {"store.warm_ratio", "ratio"},
    {"store.wq_depth_peak", "count"},
    {"sync.join_s", "s"},
    {"sync.bodies_fetched", "count"},
    {"sync.range_success_ratio", "ratio"},
    {"sync.join_sim_s", "s"},
    {"retrieval.probe_s", "s"},
    {"retrieval.misses", "count"},
    {"retrieval.timeouts", "count"},
    {"retrieval.sim_ms_p50", "ms"},
    {"baseline.rc.preload_s", "s"},
    {"baseline.rc.join_s", "s"},
    {"baseline.rc.bytes_per_node", "B"},
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::uint64_t counter(Strategy& s, const char* name) {
  ici::metrics::Registry* reg = s.metrics_registry();
  return reg == nullptr ? 0 : reg->counter_value(name);
}

/// Hex digest of a sequence of hashes (block or tx order).
class OrderDigest {
 public:
  void add(const ici::Hash256& h) { sha_.update(h.span()); }
  [[nodiscard]] std::string hex() {
    const ici::Digest256 d = sha_.final();
    return ici::to_hex(ici::ByteSpan(d.data(), d.size()));
  }

 private:
  ici::Sha256 sha_;
};

/// Totals of the program's own obs::TraceSink spans since the last call,
/// which then clears the sink so every iteration starts empty.
struct ProgramSpans {
  double verify_slice_s = 0;
  double head_checks_s = 0;
  double codec_s = 0;
  double pool_s = 0;
};

ProgramSpans drain_program_spans() {
  ProgramSpans out;
  const auto ends_with = [](const std::string& s, std::string_view suffix) {
    return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(),
                                                  suffix) == 0;
  };
  ici::obs::TraceSink& sink = ici::obs::TraceSink::global();
  for (const ici::obs::LabelAggregate& a : sink.aggregates()) {
    if (!a.has_wall) continue;
    const double s = a.wall_us.total / 1e6;
    if (ends_with(a.label, "pool")) {
      out.pool_s += s;
    } else if (ends_with(a.label, "verify/slice")) {
      out.verify_slice_s += s;
    } else if (ends_with(a.label, "verify/head_checks")) {
      out.head_checks_s += s;
    } else if (ends_with(a.label, "codec/encode") || ends_with(a.label, "codec/decode")) {
      out.codec_s += s;
    }
  }
  sink.reset();
  return out;
}

void set_program_spans(Iteration& it, const ProgramSpans& p) {
  it.set("ici.verify_slice_s", p.verify_slice_s, "s");
  it.set("ici.head_checks_s", p.head_checks_s, "s");
  it.set("ici.codec_s", p.codec_s, "s");
  it.set("common.pool_s", p.pool_s, "s");
}

void set_sim_counters(Iteration& it, Strategy& s) {
  it.set("sim.events", static_cast<double>(counter(s, "sim.events_executed")), "count");
  it.set("sim.peak_pending", static_cast<double>(counter(s, "sim.peak_pending")), "count");
  it.set("sim.far_events", static_cast<double>(counter(s, "sim.far_events")), "count");
  it.set("ici.verify_rounds", static_cast<double>(counter(s, "verify.rounds_started")),
         "count");
}

double percentile_ms(const std::vector<double>& samples_us, double p) {
  ici::Histogram h;
  for (const double v : samples_us) h.add(v);
  return h.percentile(p) / 1e3;
}

// ---- workloads ----------------------------------------------------------------

/// A valid chain funding 64 wallets with an 8-output-each genesis.
std::unique_ptr<ici::Chain> make_chain(std::size_t blocks, std::size_t txs_per_block,
                                       std::uint64_t seed) {
  ici::ChainGenConfig cfg;
  cfg.blocks = blocks;
  cfg.txs_per_block = txs_per_block;
  cfg.workload.wallet_count = 64;
  cfg.workload.genesis_outputs_per_wallet = 8;
  cfg.workload.seed = seed;
  return std::make_unique<ici::Chain>(ici::ChainGenerator(cfg).generate());
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the seed's inputs once per process (not part of set-up time).
  virtual void prepare() = 0;
  virtual Iteration iterate(Tracer& tracer) = 0;
  [[nodiscard]] virtual const char* store_backend() const { return "mem"; }
};

// scale-10k: ICI over 10,000 nodes in 500 k-means clusters; pre-generated
// 8-tx blocks disseminated message-accurately, each once the previous one
// fully committed (closed loop). Topology, clustering, genesis placement,
// the event core and the ICI handlers do the work; tx crypto, ingest and
// storage barely run.
class Scale10k final : public Workload {
 public:
  static constexpr std::size_t kNodes = 10'000;
  static constexpr std::size_t kClusters = 500;
  static constexpr std::size_t kBlocks = 12;
  static constexpr std::size_t kTxsPerBlock = 8;

  explicit Scale10k(std::uint64_t seed) : seed_(seed) {}

  void prepare() override { chain_ = make_chain(kBlocks, kTxsPerBlock, seed_); }

  Iteration iterate(Tracer& tracer) override {
    Iteration it;
    StrategyConfig cfg;
    cfg.node_count = kNodes;
    cfg.groups = kClusters;
    cfg.topology_seed = seed_;
    cfg.placement_seed = seed_;

    std::unique_ptr<TimedStrategy> s;
    const double construct_s = phase(tracer, "setup/construct", [&] {
      s = std::make_unique<TimedStrategy>(ici::core::make_strategy("ici", cfg), tracer);
    });
    phase(tracer, "setup/genesis", [&] { s->init(chain_->at_height(0)); });
    const std::uint64_t events0 = counter(*s, "sim.events_executed");
    const ici::core::StrategyTraffic traffic0 = s->traffic();

    const double run_s = phase(tracer, "run/blocks", [&] {
      for (std::size_t h = 1; h <= kBlocks; ++h) {
        it.check(s->ingest(chain_->at_height(h)) > 0, "block " + std::to_string(h) +
                                                           " did not commit");
      }
    });

    phase(tracer, "run/check", [&] {
      it.check(s->cluster_availability() == 1.0, "cluster availability below 1");
      const ici::core::StrategyTraffic traffic = s->traffic();
      const double bytes = static_cast<double>(traffic.bytes_sent - traffic0.bytes_sent);
      const double msgs = static_cast<double>(traffic.msgs_sent - traffic0.msgs_sent);
      const std::uint64_t events = counter(*s, "sim.events_executed");
      const ici::StorageSnapshot storage = s->storage();
      const TimedStrategy::Times& t = s->times();

      it.set("setup_s", construct_s + t.init_s, "s");
      it.set("run_s", run_s, "s");
      it.set("events_per_s", ratio(static_cast<double>(events - events0), run_s), "1/s");
      it.set("confirmed_tx_per_s", ratio(kBlocks * kTxsPerBlock, run_s), "tx/s");
      it.set("sim_commit_ms_p50", percentile_ms(t.commit_latency_us, 50), "ms");
      it.set("sim_commit_ms_p99", percentile_ms(t.commit_latency_us, 99), "ms");
      it.set("bytes_sent_per_block", bytes / kBlocks, "B");
      it.set("storage_bytes_per_node", storage.mean_bytes, "B");
      it.op_ms = t.ingest_ms;

      it.set("cluster.build_s", construct_s, "s");
      it.set("ici.genesis_s", t.init_s, "s");
      it.set("ici.ingest_s", t.ingest_s, "s");
      it.set("ici.ingest_ms_p50", median(t.ingest_ms), "ms");
      it.set("ici.msgs_per_block", msgs / kBlocks, "count");
      it.set("ici.bytes_per_block", bytes / kBlocks, "B");
      set_sim_counters(it, *s);
      set_program_spans(it, drain_program_spans());

      OrderDigest order;
      for (const ici::Block& b : chain_->blocks()) {
        for (const ici::Transaction& tx : b.txs()) order.add(tx.txid());
      }
      it.fp("sim_events", events);
      it.fp("bytes_sent", traffic.bytes_sent);
      it.fp("storage_total_bytes", storage.total_bytes);
      it.fp("txs_confirmed", kBlocks * kTxsPerBlock);
      it.fingerprint["tx_order"] = order.hex();
      it.fp("join_bytes", 0);
    });
    phase(tracer, "teardown", [&] { s.reset(); });
    return it;
  }

 private:
  std::uint64_t seed_;
  std::unique_ptr<ici::Chain> chain_;
};

// ingest-hot: the full client-to-commit pipeline over ICI (48 nodes, 4
// clusters). 100k Zipf(1.1) users with 100 hot accounts offer 32,000 tx/s,
// four times the 8,000 tx/s block budget, open loop in sim time; proposals
// serialize on commit. Traffic generation, admission prescreen, mempool
// eviction and slice verification of 4,000-tx blocks do the work.
//
// Bursts are off: with the default 5% burst windows the number of bursts a
// seed draws decides whether the spendable pool ever runs dry, and with it
// whether TrafficGenerator spends seconds in full no-funds scans, so run
// time split into two modes 3x apart across seeds.
class IngestHot final : public Workload {
 public:
  static constexpr std::size_t kNodes = 48;
  static constexpr std::size_t kClusters = 4;
  static constexpr std::size_t kUsers = 100'000;
  static constexpr std::size_t kBlocks = 4;

  explicit IngestHot(std::uint64_t seed) : seed_(seed) {}

  void prepare() override {}

  Iteration iterate(Tracer& tracer) override {
    Iteration it;
    StrategyConfig scfg;
    scfg.node_count = kNodes;
    scfg.groups = kClusters;
    scfg.topology_seed = seed_;
    scfg.placement_seed = seed_;

    ici::TrafficConfig tcfg;
    tcfg.user_count = kUsers;
    tcfg.tx_rate_tps = 32'000;
    tcfg.zipf_s = 1.1;
    tcfg.hot_account_count = 100;
    tcfg.hot_account_outputs = 16;
    tcfg.burst_prob = 0;
    tcfg.seed = seed_;

    ici::ingest::DriverConfig dcfg;
    dcfg.block_interval_us = 500'000;
    dcfg.blocks = kBlocks;
    dcfg.max_block_txs = 4'000;
    dcfg.mempool.capacity = 16'384;
    dcfg.acceptor.queue_capacity = 8'192;
    dcfg.acceptor.batch_budget = 1'024;
    dcfg.acceptor.batch_interval_us = 50'000;
    dcfg.acceptor.min_fee = 1;
    dcfg.capture_accepted_order = true;

    std::unique_ptr<TimedStrategy> s;
    const double construct_s = phase(tracer, "setup/construct", [&] {
      s = std::make_unique<TimedStrategy>(ici::core::make_strategy("ici", scfg), tracer);
    });
    ici::ingest::DriverReport r;
    const double pipeline_s = phase(tracer, "run/pipeline", [&] {
      r = ici::ingest::IngestDriver(dcfg, tcfg).run(*s);
    });

    phase(tracer, "run/check", [&] {
      const TimedStrategy::Times& t = s->times();
      for (std::size_t i = 0; i < t.commit_latency_us.size(); ++i) {
        it.check(t.commit_latency_us[i] > 0, "block " + std::to_string(i + 1) +
                                                  " did not commit");
      }
      it.check(r.blocks_proposed == kBlocks, "pipeline proposed " +
                                                 std::to_string(r.blocks_proposed) + " blocks");
      it.check(s->cluster_availability() == 1.0, "cluster availability below 1");
      it.check(r.txs_confirmed > 0, "no transaction confirmed");

      const double run_s = pipeline_s - t.init_s;
      const ici::core::StrategyTraffic traffic = s->traffic();
      const std::uint64_t events = counter(*s, "sim.events_executed");
      const ici::StorageSnapshot storage = s->storage();
      const double bytes = static_cast<double>(traffic.bytes_sent);

      it.set("setup_s", construct_s + t.init_s, "s");
      it.set("run_s", run_s, "s");
      it.set("events_per_s", ratio(static_cast<double>(events), run_s), "1/s");
      it.set("confirmed_tx_per_s", ratio(static_cast<double>(r.txs_confirmed), run_s), "tx/s");
      it.set("sim_commit_ms_p50", r.submit_to_commit_us.p50() / 1e3, "ms");
      it.set("sim_commit_ms_p99", r.submit_to_commit_us.p99() / 1e3, "ms");
      it.set("sim_sustained_tps", r.sustained_tps, "tx/s");
      it.set("bytes_sent_per_block", bytes / kBlocks, "B");
      it.set("storage_bytes_per_node", storage.mean_bytes, "B");
      it.op_ms = t.ingest_ms;

      it.set("cluster.build_s", construct_s, "s");
      it.set("ici.genesis_s", t.init_s, "s");
      it.set("ici.ingest_s", t.ingest_s, "s");
      it.set("ici.ingest_ms_p50", median(t.ingest_ms), "ms");
      it.set("ici.msgs_per_block", static_cast<double>(traffic.msgs_sent) / kBlocks, "count");
      it.set("ici.bytes_per_block", bytes / kBlocks, "B");
      it.set("chain.driver_s", run_s - t.ingest_s, "s");
      it.set("chain.generated", static_cast<double>(r.generated), "count");
      it.set("chain.skipped_no_funds", static_cast<double>(r.skipped_no_funds), "count");
      it.set("chain.payer_hit_ratio",
             ratio(static_cast<double>(r.generated),
                   static_cast<double>(r.generated + r.skipped_no_funds)),
             "ratio");
      it.set("ingest.accept_ratio",
             ratio(static_cast<double>(r.ingest.accepted), static_cast<double>(r.ingest.submitted)),
             "ratio");
      it.set("ingest.rejected_backpressure", static_cast<double>(r.ingest.rejected_backpressure),
             "count");
      it.set("ingest.batch_occupancy_pct", static_cast<double>(r.batch_occupancy_pct), "%");
      it.set("mempool.evictions", static_cast<double>(r.mempool.evictions), "count");
      it.set("mempool.size_peak", static_cast<double>(r.mempool.size_peak), "count");
      set_sim_counters(it, *s);
      set_program_spans(it, drain_program_spans());

      OrderDigest order;
      for (const ici::Hash256& id : r.accepted_order) order.add(id);
      it.fp("sim_events", events);
      it.fp("bytes_sent", traffic.bytes_sent);
      it.fp("storage_total_bytes", storage.total_bytes);
      it.fp("txs_confirmed", r.txs_confirmed);
      it.fingerprint["tx_order"] = order.hex();
      it.fp("join_bytes", 0);
    });
    phase(tracer, "teardown", [&] { s.reset(); });
    return it;
  }

 private:
  std::uint64_t seed_;
};

// join-disk: one pre-generated chain preloaded into ICI (100 nodes, 5
// clusters of ~20, disk store) and RapidChain (100 nodes, 5 committees, so
// the theory ratio is 25%); then sequential bootstrap joins per strategy and
// ICI retrieval probes. Storage writes (segment appends during preload) and
// cold reads (serving sync ranges and fetches), sync, retrieval and the
// RapidChain baseline do the work; the generator, ingest and verify idle.
//
// Sized to write little: writing and deleting GBs of segment files slowed
// the file system's metadata operations for minutes, which made disk-store
// construction time drift 10x between runs. For the same reason RapidChain
// (each block on 20 nodes) keeps the mem store, and each iteration deletes
// its ~25 MB store in teardown, before the pages age into writeback, then
// syncs so the next set-up does not wait on those deletions. Many joins per
// iteration keep the share of time spent writing low and average the join
// cost over many joiner locations.
class JoinDisk final : public Workload {
 public:
  static constexpr std::size_t kNodes = 100;
  static constexpr std::size_t kIciClusters = 5;
  static constexpr std::size_t kRcCommittees = 5;
  static constexpr std::size_t kBlocks = 300;
  static constexpr std::size_t kTxsPerBlock = 40;
  static constexpr std::size_t kJoins = 128;
  static constexpr std::size_t kProbes = 200;

  JoinDisk(std::uint64_t seed, std::filesystem::path store_dir)
      : seed_(seed), store_dir_(std::move(store_dir)) {}

  [[nodiscard]] const char* store_backend() const override { return "disk"; }

  void prepare() override {
    chain_ = make_chain(kBlocks, kTxsPerBlock, seed_);
    ici::Rng rng(seed_ ^ 0x6a6f696eULL);
    for (std::size_t i = 0; i < kJoins; ++i) {
      coords_.push_back({rng.uniform01() * 100.0, rng.uniform01() * 100.0});
    }
  }

  Iteration iterate(Tracer& tracer) override {
    Iteration it;
    const auto make = [&](const char* name, std::size_t groups, const char* backend) {
      StrategyConfig cfg;
      cfg.node_count = kNodes;
      cfg.groups = groups;
      cfg.topology_seed = seed_;
      cfg.placement_seed = seed_;
      cfg.store.backend = backend;
      cfg.store.dir = (store_dir_ / name).string();
      return std::make_unique<TimedStrategy>(ici::core::make_strategy(name, cfg), tracer);
    };

    std::unique_ptr<TimedStrategy> ici_s, rc_s;
    double construct_s = 0;
    const double ici_setup_s = phase(tracer, "setup/ici", [&] {
      construct_s =
          layer(tracer, "cluster.build", [&] { ici_s = make("ici", kIciClusters, "disk"); });
      ici_s->init(chain_->at_height(0));
      ici_s->preload(*chain_);
    });
    const double rc_setup_s = phase(tracer, "setup/rapidchain", [&] {
      rc_s = make("rapidchain", kRcCommittees, "mem");
      rc_s->init(chain_->at_height(0));
      rc_s->preload(*chain_);
    });
    const ici::StorageSnapshot ici_storage = ici_s->storage();
    const ici::StorageSnapshot rc_storage = rc_s->storage();
    const std::uint64_t ici_events0 = counter(*ici_s, "sim.events_executed");
    const std::uint64_t rc_events0 = counter(*rc_s, "sim.events_executed");

    const ici::sync::SyncConfig sync_cfg;
    std::vector<ici::core::JoinReport> ici_joins, rc_joins;
    const double joins_s = phase(tracer, "run/joins", [&] {
      for (const ici::sim::Coord& c : coords_) {
        ici_joins.push_back(ici_s->bootstrap_join(c, sync_cfg));
      }
      for (const ici::sim::Coord& c : coords_) {
        rc_joins.push_back(rc_s->bootstrap_join(c, sync_cfg));
      }
    });
    std::optional<ici::core::RetrievalStats> probes;
    const double probes_s =
        phase(tracer, "run/probes", [&] { probes = ici_s->probe_retrieval(kProbes, seed_); });

    phase(tracer, "run/check", [&] {
      std::uint64_t ici_join_bytes = 0, rc_join_bytes = 0, bodies = 0;
      std::uint64_t ranges_ok = 0, ranges_retried = 0;
      double join_sim_s = 0;
      for (const auto& j : ici_joins) {
        it.check(j.complete, "ICI join incomplete");
        ici_join_bytes += j.bytes_downloaded;
        bodies += j.bodies_fetched;
        ranges_ok += j.sync.ranges_committed;
        ranges_retried += j.sync.ranges_retried;
        join_sim_s += static_cast<double>(j.elapsed_us) / 1e6;
      }
      for (const auto& j : rc_joins) {
        it.check(j.complete, "RapidChain join incomplete");
        rc_join_bytes += j.bytes_downloaded;
      }
      it.check(probes.has_value(), "ICI returned no retrieval stats");
      const ici::core::RetrievalStats stats = probes.value_or(ici::core::RetrievalStats{});
      const std::size_t hits = stats.local_hits + stats.remote_hits;
      for (std::size_t i = 0; i < kProbes; ++i) {
        it.check(i < hits, "retrieval probe missed");
      }
      it.check(ici_s->cluster_availability() == 1.0, "ICI cluster availability below 1");
      it.check(rc_s->availability() == 1.0, "RapidChain availability below 1");

      const TimedStrategy::Times& ti = ici_s->times();
      const TimedStrategy::Times& tr = rc_s->times();
      ici::StoreCounters sc = ici_s->store_counters();
      sc += rc_s->store_counters();
      const std::uint64_t ici_events = counter(*ici_s, "sim.events_executed");
      const std::uint64_t rc_events = counter(*rc_s, "sim.events_executed");
      const double run_s = joins_s + probes_s;
      const ici::core::StrategyTraffic ici_traffic = ici_s->traffic();
      const ici::core::StrategyTraffic rc_traffic = rc_s->traffic();

      it.set("setup_s", ici_setup_s + rc_setup_s, "s");
      it.set("run_s", run_s, "s");
      it.set("events_per_s",
             ratio(static_cast<double>(ici_events - ici_events0 + rc_events - rc_events0), run_s),
             "1/s");
      it.set("storage_bytes_per_node", ici_storage.mean_bytes, "B");
      it.set("ici_rc_storage_ratio", ratio(ici_storage.mean_bytes, rc_storage.mean_bytes),
             "ratio");
      it.set("join_bytes", static_cast<double>(ici_join_bytes) / kJoins, "B");
      it.op_ms = ti.join_ms;

      it.set("cluster.build_s", construct_s, "s");
      it.set("ici.genesis_s", ti.init_s, "s");
      it.set("storage.preload_s", ti.preload_s, "s");
      it.set("store.appended_bytes", static_cast<double>(sc.appended_bytes), "B");
      it.set("store.segments", static_cast<double>(sc.segments), "count");
      it.set("store.compactions", static_cast<double>(sc.compactions), "count");
      it.set("store.cold_reads", static_cast<double>(sc.cold_reads), "count");
      it.set("store.warm_ratio",
             ratio(static_cast<double>(sc.warm_reads),
                   static_cast<double>(sc.warm_reads + sc.cold_reads)),
             "ratio");
      it.set("store.wq_depth_peak", static_cast<double>(sc.wq_depth_peak), "count");
      it.set("sync.join_s", ti.join_s, "s");
      it.set("sync.bodies_fetched", static_cast<double>(bodies), "count");
      it.set("sync.range_success_ratio",
             ratio(static_cast<double>(ranges_ok), static_cast<double>(ranges_ok + ranges_retried)),
             "ratio");
      it.set("sync.join_sim_s", join_sim_s, "s");
      it.set("retrieval.probe_s", ti.probe_s, "s");
      it.set("retrieval.misses", static_cast<double>(stats.misses()), "count");
      it.set("retrieval.timeouts", static_cast<double>(stats.timeouts), "count");
      it.set("retrieval.sim_ms_p50", stats.latency_us.p50() / 1e3, "ms");
      it.set("baseline.rc.preload_s", tr.preload_s, "s");
      it.set("baseline.rc.join_s", tr.join_s, "s");
      it.set("baseline.rc.bytes_per_node", rc_storage.mean_bytes, "B");
      set_sim_counters(it, *ici_s);
      set_program_spans(it, drain_program_spans());

      it.fp("sim_events", ici_events + rc_events);
      it.fp("bytes_sent", ici_traffic.bytes_sent + rc_traffic.bytes_sent);
      it.fp("storage_total_bytes", ici_storage.total_bytes);
      it.fp("rc_storage_total_bytes", rc_storage.total_bytes);
      it.fp("txs_confirmed", 0);
      it.fp("join_bytes", ici_join_bytes);
      it.fp("rc_join_bytes", rc_join_bytes);
      it.fp("retrieval_hits", hits);
      it.fp("appended_bytes", sc.appended_bytes);
    });
    phase(tracer, "teardown", [&] {
      ici_s.reset();
      rc_s.reset();
      std::filesystem::remove_all(store_dir_);
      ::sync();
    });
    return it;
  }

 private:
  std::uint64_t seed_;
  std::filesystem::path store_dir_;
  std::unique_ptr<ici::Chain> chain_;
  std::vector<ici::sim::Coord> coords_;
};

// ---- driver -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string store_dir;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench_driver: " << error
            << "\nusage: perfbench_driver --workload scale-10k|ingest-hot|join-disk --seed N "
               "--seconds S --trace 0|1 --store-dir DIR [--trace-out FILE]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--store-dir") {
        a.store_dir = value;
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.store_dir.empty()) usage("--store-dir is required");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "scale-10k") return std::make_unique<Scale10k>(a.seed);
  if (a.workload == "ingest-hot") return std::make_unique<IngestHot>(a.seed);
  if (a.workload == "join-disk") {
    return std::make_unique<JoinDisk>(a.seed, std::filesystem::path(a.store_dir) / "join-disk");
  }
  usage("unknown workload " + a.workload);
}

/// Highest percentile with at least ten samples beyond it (nearest rank).
struct Tail {
  double value = 0;
  double percentile = 0;
};

Tail tail_of(std::vector<double> v) {
  if (v.size() < 11) return {};
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() - 11;
  return {v[k], 100.0 * static_cast<double>(k + 1) / static_cast<double>(v.size())};
}

}  // namespace

int main(int argc, char** argv) {
  const auto origin = Clock::now();
  const Args args = parse_args(argc, argv);
  Tracer tracer(origin);
  tracer.configure(args.trace, args.trace);
  ici::obs::TraceSink::global().reset();

  std::unique_ptr<Workload> workload = make_workload(args);
  const double inputs_s = phase(tracer, "setup/inputs", [&] { workload->prepare(); });
  drain_program_spans();

  // Untraced runs measure iterations back to back. Traced runs alternate:
  // even iterations record phase spans only, odd ones add the per-call
  // layer spans, so the difference of their medians is the tracing cost.
  const std::size_t min_iterations = args.trace ? 2 : 3;
  std::vector<Iteration> iters;
  const auto measure_start = Clock::now();
  while (iters.size() < min_iterations || seconds_since(measure_start) < args.seconds) {
    const bool traced = args.trace && iters.size() % 2 == 1;
    tracer.configure(args.trace, traced);
    const auto t0 = Clock::now();
    Iteration it = workload->iterate(tracer);
    it.wall_s = seconds_since(t0);
    it.traced = traced;
    iters.push_back(std::move(it));
  }

  // Aggregate: medians over iterations; op latencies pooled.
  std::map<std::string, Metric> out;
  for (const LayerMetric& lm : kLayerMetrics) out[lm.name] = {0, lm.unit};
  std::map<std::string, std::vector<double>> values;
  std::vector<double> op_ms;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  const auto& fp0 = iters.front().fingerprint;
  for (const Iteration& it : iters) {
    for (const auto& [name, m] : it.metrics) {
      values[name].push_back(m.value);
      out[name].unit = m.unit;
    }
    op_ms.insert(op_ms.end(), it.op_ms.begin(), it.op_ms.end());
    attempted += it.attempted + 1;
    failed += it.failed;
    failures.insert(failures.end(), it.failures.begin(), it.failures.end());
    if (it.fingerprint != fp0) {
      ++failed;
      failures.push_back("fingerprint differs between iterations of one seed");
    }
  }
  for (const auto& [name, v] : values) out[name].value = median(v);
  const Tail tail = tail_of(op_ms);
  out["op_host_ms_p50"] = {median(op_ms), "ms"};
  out["op_host_ms_tail"] = {tail.value, "ms"};
  out["op_host_ms_tail_pct"] = {tail.percentile, "%"};
  out["op_samples"] = {static_cast<double>(op_ms.size()), "count"};
  if (args.workload == "join-disk") {
    out["join_host_ms_p50"] = out["op_host_ms_p50"];
  } else {
    out["block_host_ms_p50"] = out["op_host_ms_p50"];
    out["block_host_ms_tail"] = out["op_host_ms_tail"];
  }
  out["inputs_s"] = {inputs_s, "s"};
  out["peak_rss_mib"] = {
      static_cast<double>(ici::metrics::read_memory_stats().peak_rss_bytes) / (1024.0 * 1024.0),
      "MiB"};

  double coverage = 0, overhead_s = 0;
  if (args.trace) {
    std::vector<double> plain, traced;
    for (const Iteration& it : iters) (it.traced ? traced : plain).push_back(it.wall_s);
    overhead_s = median(traced) - median(plain);
    coverage = ratio(tracer.root_seconds(), tracer.now_s());
    if (!args.trace_out.empty() && !tracer.write(args.trace_out)) {
      std::cerr << "perfbench_driver: cannot write " << args.trace_out << "\n";
      return 1;
    }
  }
  out["trace.coverage"] = {coverage, "ratio"};
  out["trace.overhead_s"] = {overhead_s, "s"};
  out["fail_frac"] = {ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                      "ratio"};

  ici::JsonWriter w;
  w.begin_object()
      .member("workload", std::string_view(args.workload))
      .member("seed", args.seed)
      .member("iterations", static_cast<std::uint64_t>(iters.size()))
      .member("attempted", attempted)
      .member("failed", failed);
  w.key("failures").begin_array();
  // The first 20 failures are enough to diagnose a run; `failed` counts all.
  for (std::size_t i = 0; i < failures.size() && i < 20; ++i) {
    w.value(std::string_view(failures[i]));
  }
  w.end_array();
  w.key("stamp")
      .begin_object()
      .member("compiler", PERFBENCH_COMPILER)
      .member("build_type", PERFBENCH_BUILD_TYPE)
      .member("cxx_flags", PERFBENCH_CXX_FLAGS)
      .member("pool_threads", static_cast<std::uint64_t>(ici::ThreadPool::global().thread_count()))
      .member("shards", static_cast<std::uint64_t>(ici::sim::default_shards()))
      .member("store_backend", workload->store_backend())
      .end_object();
  w.key("fingerprint").begin_object();
  for (const auto& [k, v] : fp0) w.member(k, std::string_view(v));
  w.end_object();
  w.key("iteration_wall_s").begin_array();
  for (const Iteration& it : iters) w.value(it.wall_s);
  w.end_array();
  w.key("metrics").begin_object();
  for (const auto& [name, m] : out) {
    w.key(name).begin_object();
    w.member("value", m.value).member("unit", std::string_view(m.unit)).end_object();
  }
  w.end_object().end_object();
  std::cout << w.str() << "\n";
  return 0;
}
