#include "strategy/strategy.h"

#include <stdexcept>

#include "baseline/fullrep.h"
#include "baseline/pruned.h"
#include "baseline/rapidchain.h"
#include "ici/network.h"
#include "storage/store_metrics.h"

namespace ici::core {

namespace {

// -- simulated strategies -----------------------------------------------------

/// One adapter for every simulated strategy: the facade's protocol entry
/// points (genesis, dissemination, preload) plus everything its host
/// provides (run/settle, faults, stores, traffic, joins).
template <class Net>
class HostedStrategy : public Strategy {
 public:
  HostedStrategy(std::string_view name, std::unique_ptr<Net> net)
      : name_(name), net_(std::move(net)) {}

  [[nodiscard]] std::string_view name() const override { return name_; }

  void init(const Block& genesis) override {
    net_->init_with_genesis(genesis);
    committed_.push_back(genesis.hash());
  }

  sim::SimTime ingest(const Block& block) override {
    committed_.push_back(block.hash());
    return net_->disseminate_and_settle(block);
  }

  void preload(const Chain& chain) override {
    net_->preload_chain(chain);
    for (std::size_t h = 1; h < chain.blocks().size(); ++h) {
      committed_.push_back(chain.blocks()[h].hash());
    }
  }

  void settle() override { net_->settle(); }
  void run_for(sim::SimTime us) override { net_->run_for(us); }
  void start_faults(const sim::FaultPlan& plan) override { net_->start_faults(plan); }

  [[nodiscard]] StorageSnapshot storage() const override {
    return StorageMeter::snapshot(net_->stores());
  }

  [[nodiscard]] StrategyTraffic traffic() const override {
    const sim::NodeTraffic t = net_->network().total_traffic();
    return {t.bytes_sent, t.msgs_sent};
  }
  void reset_traffic() override { net_->network().reset_traffic(); }

  /// Committed blocks some online node holds.
  [[nodiscard]] double availability() const override {
    if (committed_.empty()) return 1.0;
    const std::vector<const BlockStore*> stores = net_->stores();
    std::size_t servable = 0;
    for (const Hash256& hash : committed_) {
      for (sim::NodeId id = 0; id < stores.size(); ++id) {
        if (net_->network().online(id) && stores[id]->has_block(hash)) {
          ++servable;
          break;
        }
      }
    }
    return static_cast<double>(servable) / static_cast<double>(committed_.size());
  }

  [[nodiscard]] metrics::Registry* metrics_registry() override { return &net_->metrics(); }

  [[nodiscard]] StoreCounters store_counters() const override {
    return sum_store_counters(net_->stores());
  }

  [[nodiscard]] JoinReport bootstrap_join(sim::Coord coord,
                                          const sync::SyncConfig& cfg) override {
    return net_->bootstrap(coord, cfg);
  }

 protected:
  std::string_view name_;
  std::unique_ptr<Net> net_;
  std::vector<Hash256> committed_;
};

/// ICI adds repair, coded-aware availability and the retrieval probe.
class IciStrategy final : public HostedStrategy<IciNetwork> {
 public:
  using HostedStrategy::HostedStrategy;

  void start_repair(sim::SimTime interval_us, sim::SimTime until_us) override {
    net_->start_repair_daemon(interval_us, until_us);
  }

  [[nodiscard]] double availability() const override { return net_->network_availability(); }
  [[nodiscard]] double cluster_availability() const override { return net_->availability(); }

  std::optional<RetrievalStats> probe_retrieval(std::size_t count,
                                                std::uint64_t seed) override {
    // With a fault injector installed the crash schedule keeps the event
    // queue populated forever, so the driver must advance in bounded steps
    // instead of settling to quiescence.
    if (net_->faults() != nullptr) {
      return RetrievalDriver::run(*net_, count, seed, /*step_us=*/1'000'000,
                                  /*max_steps=*/600);
    }
    return RetrievalDriver::run(*net_, count, seed);
  }
};

/// The construction knobs every simulated strategy shares.
void apply_host_fields(host::HostConfig& out, const StrategyConfig& cfg) {
  out.node_count = cfg.node_count;
  out.seed = cfg.topology_seed;
  out.store = cfg.store;
}

// -- pruned -------------------------------------------------------------------

// Static storage policy — no simulated network, so faults and run_for are
// no-ops. Availability is the policy's intrinsic loss: the fraction of
// committed bodies still inside the retention window (crashes cannot make
// it worse because every node keeps the same window, and cannot be repaired
// because pruned history is gone network-wide).
class PrunedStrategy final : public Strategy {
 public:
  explicit PrunedStrategy(const StrategyConfig& cfg)
      : node_count_(cfg.node_count) {
    baseline::PrunedConfig ncfg;
    ncfg.node_count = cfg.node_count;
    ncfg.window = cfg.pruned_window;
    net_ = std::make_unique<baseline::PrunedNetwork>(ncfg);
  }

  [[nodiscard]] std::string_view name() const override { return "pruned"; }

  void init(const Block& genesis) override {
    net_->apply(std::make_shared<const Block>(genesis));
    committed_.push_back(genesis.hash());
  }

  sim::SimTime ingest(const Block& block) override {
    net_->apply(std::make_shared<const Block>(block));
    committed_.push_back(block.hash());
    return 0;
  }

  void preload(const Chain& chain) override {
    for (std::size_t h = 1; h < chain.blocks().size(); ++h) {
      const Block& block = chain.blocks()[h];
      net_->apply(std::make_shared<const Block>(block));
      committed_.push_back(block.hash());
    }
  }

  [[nodiscard]] StorageSnapshot storage() const override {
    StorageSnapshot snap;
    const std::uint64_t per_node = net_->per_node_bytes();
    snap.node_count = node_count_;
    snap.total_bytes = per_node * node_count_;
    snap.mean_bytes = static_cast<double>(per_node);
    snap.max_bytes = static_cast<double>(per_node);
    snap.min_bytes = static_cast<double>(per_node);
    snap.cv = 0.0;
    return snap;
  }

  [[nodiscard]] double availability() const override {
    if (committed_.empty()) return 1.0;
    std::size_t servable = 0;
    for (const Hash256& hash : committed_) {
      if (net_->node().store().has_block(hash)) ++servable;
    }
    return static_cast<double>(servable) / static_cast<double>(committed_.size());
  }

  [[nodiscard]] JoinReport bootstrap_join(sim::Coord /*coord*/,
                                          const sync::SyncConfig& /*cfg*/) override {
    // No simulated network: a pruned joiner's download is the closed-form
    // headers + UTXO snapshot + windowed bodies (instant by construction).
    JoinReport out;
    out.protocol = false;
    out.complete = true;
    out.bytes_downloaded = net_->bootstrap_bytes();
    out.elapsed_us = 0;
    out.bodies_fetched = net_->node().store().block_count();
    return out;
  }

 private:
  std::size_t node_count_;
  std::unique_ptr<baseline::PrunedNetwork> net_;
  std::vector<Hash256> committed_;
};

}  // namespace

std::vector<std::string_view> strategy_names() {
  return {"fullrep", "rapidchain", "ici", "pruned"};
}

std::unique_ptr<Strategy> make_strategy(std::string_view name, const StrategyConfig& cfg) {
  if (name == "ici") {
    IciNetworkConfig ncfg;
    apply_host_fields(ncfg, cfg);
    ncfg.ici.cluster_count = cfg.groups;
    ncfg.ici.replication = cfg.replication;
    ncfg.ici.seed = cfg.placement_seed;
    ncfg.ici.fetch_retry_rounds = cfg.fetch_retry_rounds;
    ncfg.ici.cross_cluster_repair = cfg.cross_cluster_repair;
    return std::make_unique<IciStrategy>("ici", std::make_unique<IciNetwork>(ncfg));
  }
  if (name == "fullrep") {
    baseline::FullRepConfig ncfg;
    apply_host_fields(ncfg, cfg);
    ncfg.validate = cfg.fullrep_validate;
    return std::make_unique<HostedStrategy<baseline::FullRepNetwork>>(
        "fullrep", std::make_unique<baseline::FullRepNetwork>(ncfg));
  }
  if (name == "rapidchain") {
    baseline::RapidChainConfig ncfg;
    apply_host_fields(ncfg, cfg);
    ncfg.committee_count = cfg.groups;
    return std::make_unique<HostedStrategy<baseline::RapidChainNetwork>>(
        "rapidchain", std::make_unique<baseline::RapidChainNetwork>(ncfg));
  }
  if (name == "pruned") return std::make_unique<PrunedStrategy>(cfg);
  throw std::invalid_argument("unknown strategy: " + std::string(name));
}

}  // namespace ici::core
