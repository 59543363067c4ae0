#include "host/host.h"

#include <algorithm>
#include <stdexcept>

#include "metrics/sim_metrics.h"
#include "obs/trace.h"
#include "storage/store_metrics.h"

namespace ici::host {

namespace {

/// Upper bound on how long a join keeps the simulation running. Only
/// reached when the joiner crashes and never restarts; a healthy sync exits
/// the drive loop at its completion callback.
constexpr sim::SimTime kDriveCapUs = 600'000'000;  // 10 min of sim time
/// Drive-loop window. Small enough that the loop notices completion (and a
/// capped run samples fault counters) promptly; exact timing comes from the
/// completion callback, not the window edge.
constexpr sim::SimTime kDriveStepUs = 250'000;

/// Folds a finished join into the registry (sync.* metrics) and emits the
/// bootstrap spans.
void record_join(metrics::Registry& m, const sync::SyncReport& r) {
  m.counter("sync.ranges_committed").inc(r.ranges_committed);
  m.counter("sync.ranges_retried").inc(r.ranges_retried);
  m.counter("sync.bodies_committed").inc(r.bodies_committed);
  if (r.complete) {
    m.counter("sync.joins_completed").inc();
    obs::TraceSink::global().record_sim("bootstrap/join",
                                        static_cast<double>(r.time_to_synced_us));
    obs::TraceSink::global().record_sim(
        "bootstrap/fetch", static_cast<double>(r.time_to_synced_us - r.frontier_us));
  }
  m.distribution("sync.time_to_synced_us").add(static_cast<double>(r.time_to_synced_us));
  for (const sync::PeerBytes& p : r.by_peer)
    m.distribution("sync.bytes_per_peer").add(static_cast<double>(p.bytes));
}

}  // namespace

Host::Host(const HostConfig& cfg) {
  net_ = std::make_unique<sim::Network>(sim_);
  if (cfg.sync_serve_rate_bps > 0.0)
    serve_throttle_ = std::make_unique<sync::ServeThrottle>(cfg.sync_serve_rate_bps);
  store_runtime_ = std::make_unique<StoreRuntime>(cfg.store);
}

Host::~Host() = default;

void Host::reserve_nodes(std::size_t n) {
  net_->reserve_nodes(n);
  fleet_tally_.ensure_size(n);
  stores_.reserve(n);
}

void Host::add_node(sim::INode& node, BlockStore& store, sim::Coord coord) {
  const sim::NodeId id = net_->add_node(&node, coord);
  fleet_tally_.ensure_size(static_cast<std::size_t>(id) + 1);
  install_backend(store, id);
  stores_.push_back(&store);
}

void Host::install_backend(BlockStore& store, sim::NodeId id) {
  std::unique_ptr<StorageBackend> backend = store_runtime_->make_backend(id);
  if (!backend) return;  // mem: the store's built-in backend is already right
  IoEnv env;
  env.now = [this] { return sim_.now(); };
  // Retirement events execute as the owning node.
  env.schedule_at = [this, id](std::uint64_t at, std::function<void()> fn) {
    sim_.schedule_for(id, at, std::move(fn));
  };
  backend->set_io_env(std::move(env));
  store.set_backend(std::move(backend));
}

std::vector<const BlockStore*> Host::stores() const {
  return {stores_.begin(), stores_.end()};
}

void Host::begin_genesis() {
  if (genesis_done_) throw std::logic_error("init_with_genesis called twice");
  genesis_done_ = true;
}

void Host::require_genesis() const {
  if (!genesis_done_) throw std::logic_error("call init_with_genesis first");
}

void Host::mirror_counters() {
  metrics::sync_sim_counters(metrics_, sim_);
  if (faults_) metrics::sync_fault_counters(metrics_, faults_->stats());
  if (store_runtime_->disk()) sync_store_counters(metrics_, stores());
}

void Host::settle() {
  sim_.run();
  mirror_counters();
}

void Host::run_for(sim::SimTime us) {
  sim_.run_until(sim_.now() + us);
  mirror_counters();
}

void Host::start_faults(const sim::FaultPlan& plan) {
  if (faults_) throw std::logic_error("start_faults called twice");
  faults_ = std::make_unique<sim::FaultInjector>(*net_, plan);
  std::vector<sim::NodeId> all(node_count());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<sim::NodeId>(i);
  faults_->start(all, [this](sim::NodeId id, bool online) { status_changed(id, online); });
}

void Host::status_changed(sim::NodeId id, bool online) {
  metrics_.counter(online ? "churn.up" : "churn.down").inc();
  on_status_change(id, online);
  if (status_observer_) status_observer_(id, online);
}

std::vector<sim::NodeId> Host::nearest(sim::Coord from, std::vector<sim::NodeId> pool,
                                       std::size_t limit) const {
  std::sort(pool.begin(), pool.end(), [&](sim::NodeId a, sim::NodeId b) {
    const double da = sim::distance(from, net_->coord(a));
    const double db = sim::distance(from, net_->coord(b));
    if (da != db) return da < db;
    return a < b;
  });
  if (pool.size() > limit) pool.resize(limit);
  return pool;
}

JoinReport Host::bootstrap(sim::Coord coord, const sync::SyncConfig& cfg) {
  return bootstrap_added(add_sync_joiner(coord), cfg);
}

JoinReport Host::bootstrap_added(sim::NodeId joiner, const sync::SyncConfig& cfg) {
  const std::vector<sim::NodeId> candidates = join_candidates(joiner, cfg);
  sync::PeerSession& peer = sync_peer(joiner);
  sync::SyncCheckpoint checkpoint;
  JoinReport report;
  bool done = false;
  std::function<void(const sync::SyncReport&)> on_done = [&](const sync::SyncReport& r) {
    done = true;
    report.sync = r;
  };

  // Crash/resume wiring: a FaultPlan crash on the joiner drops its session
  // (outstanding timers become inert); the restart opens a fresh one over
  // the same checkpoint. Peers flipping state are the session's own
  // problem — per-range timeouts reassign their work.
  set_status_observer([&](sim::NodeId id, bool online) {
    if (id != joiner || done) return;
    if (!online) {
      peer.abandon_sync();
      return;
    }
    if (!checkpoint.complete) {
      checkpoint.resume_count += 1;
      metrics_.counter("sync.resumes").inc();
      peer.start_streaming_sync(cfg, &checkpoint, candidates, on_done);
    }
  });

  const sim::SimTime started = sim_.now();
  peer.start_streaming_sync(cfg, &checkpoint, candidates, on_done);
  while (!done && sim_.now() - started < kDriveCapUs) run_for(kDriveStepUs);
  set_status_observer(nullptr);
  record_join(metrics_, report.sync);

  report.joiner = joiner;
  report.protocol = true;
  report.complete = report.sync.complete;
  report.bodies_fetched = report.sync.bodies_committed;
  report.elapsed_us = report.sync.time_to_synced_us;
  report.bytes_downloaded = net_->traffic(joiner).bytes_received;
  on_joined(report);
  return report;
}

}  // namespace ici::host
