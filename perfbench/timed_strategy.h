// TimedStrategy — a forwarding core::Strategy that times, from outside,
// every call that does a layer's work (init, ingest, preload,
// bootstrap_join, probe_retrieval). Wrapping the strategy handed to
// ingest::IngestDriver lets the benchmark split IngestDriver::run into
// time spent inside the strategy and the driver's own remainder (traffic
// generation, admission, mempool, template fill) without touching src/.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "strategy/strategy.h"
#include "tracer.h"

namespace perfbench {

class TimedStrategy final : public ici::core::Strategy {
 public:
  struct Times {
    double init_s = 0;
    double preload_s = 0;
    double ingest_s = 0;
    double join_s = 0;
    double probe_s = 0;
    std::vector<double> ingest_ms;         ///< host ms per ingest call
    std::vector<double> join_ms;           ///< host ms per bootstrap_join call
    std::vector<double> commit_latency_us; ///< sim µs returned by ingest
  };

  TimedStrategy(std::unique_ptr<ici::core::Strategy> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {
    const std::string prefix(inner_->name() == "ici" ? "ici" : "baseline.rc");
    init_label_ = prefix + ".init";
    ingest_label_ = prefix + ".ingest";
    preload_label_ = prefix + ".preload";
    join_label_ = prefix + ".join";
    probe_label_ = prefix + ".probe";
  }

  [[nodiscard]] const Times& times() const { return times_; }

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }

  void init(const ici::Block& genesis) override {
    times_.init_s += layer(tracer_, init_label_, [&] { inner_->init(genesis); });
  }

  ici::sim::SimTime ingest(const ici::Block& block) override {
    ici::sim::SimTime latency = 0;
    const double s = layer(tracer_, ingest_label_, [&] { latency = inner_->ingest(block); });
    times_.ingest_s += s;
    times_.ingest_ms.push_back(s * 1e3);
    times_.commit_latency_us.push_back(static_cast<double>(latency));
    return latency;
  }

  void preload(const ici::Chain& chain) override {
    times_.preload_s += layer(tracer_, preload_label_, [&] { inner_->preload(chain); });
  }

  void settle() override { inner_->settle(); }
  void run_for(ici::sim::SimTime us) override { inner_->run_for(us); }
  void start_faults(const ici::sim::FaultPlan& plan) override { inner_->start_faults(plan); }
  void start_repair(ici::sim::SimTime interval_us, ici::sim::SimTime until_us) override {
    inner_->start_repair(interval_us, until_us);
  }

  [[nodiscard]] ici::StorageSnapshot storage() const override { return inner_->storage(); }
  [[nodiscard]] ici::core::StrategyTraffic traffic() const override {
    return inner_->traffic();
  }
  void reset_traffic() override { inner_->reset_traffic(); }
  [[nodiscard]] double availability() const override { return inner_->availability(); }
  [[nodiscard]] double cluster_availability() const override {
    return inner_->cluster_availability();
  }
  [[nodiscard]] ici::metrics::Registry* metrics_registry() override {
    return inner_->metrics_registry();
  }
  [[nodiscard]] ici::StoreCounters store_counters() const override {
    return inner_->store_counters();
  }

  [[nodiscard]] ici::core::JoinReport bootstrap_join(
      ici::sim::Coord coord, const ici::sync::SyncConfig& cfg) override {
    ici::core::JoinReport report;
    const double s =
        layer(tracer_, join_label_, [&] { report = inner_->bootstrap_join(coord, cfg); });
    times_.join_s += s;
    times_.join_ms.push_back(s * 1e3);
    return report;
  }

  std::optional<ici::core::RetrievalStats> probe_retrieval(std::size_t count,
                                                           std::uint64_t seed) override {
    std::optional<ici::core::RetrievalStats> stats;
    times_.probe_s +=
        layer(tracer_, probe_label_, [&] { stats = inner_->probe_retrieval(count, seed); });
    return stats;
  }

 private:
  std::unique_ptr<ici::core::Strategy> inner_;
  Tracer& tracer_;
  Times times_;
  std::string init_label_, ingest_label_, preload_label_, join_label_, probe_label_;
};

}  // namespace perfbench
