// Host: the scaffolding every simulated storage strategy runs on, so ICI,
// full replication and RapidChain are compared on exactly the same ground.
// A protocol facade (core::IciNetwork, baseline::FullRepNetwork,
// baseline::RapidChainNetwork) derives from Host and keeps only its
// protocol; the host owns everything else:
//
//   * the simulator and the sim::Network;
//   * the fleet's header index, storage tallies, store runtime and the
//     per-node backend install;
//   * fault injection, the online/offline status observer and the
//     serve-side sync throttle;
//   * the genesis-once guard, run_for/settle with the sim.*, faults.* and
//     store.* counter mirror, and stores();
//   * joins: add a joiner, rank candidate peers by distance, drive the
//     streaming bulk-sync to completion (crash/resume included) and report
//     it as one JoinReport.
//
// Destruction order: facade members (the node arena) die before the host's,
// so the tallies, header index and store runtime outlive every node bound to
// them, and the fault injector unhooks before the network it hooks.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "metrics/registry.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "storage/block_store.h"
#include "storage/fleet_tally.h"
#include "storage/header_index.h"
#include "storage/store_runtime.h"
#include "sync/checkpoint.h"
#include "sync/peer.h"
#include "sync/serve.h"

namespace ici::host {

/// Construction knobs every simulated strategy shares; each facade config
/// extends it with its protocol's own fields.
struct HostConfig {
  std::size_t node_count = 64;
  sim::NetworkConfig net;
  /// Geographic regions in the synthetic topology.
  std::size_t regions = 5;
  std::uint64_t seed = 1;
  /// Serve-side bulk-sync rate limit per (server, peer) pair in bytes per
  /// second of sim time; 0 disables throttling (--sync-serve-rate).
  double sync_serve_rate_bps = 0.0;
  /// Body-persistence backend per node (--store / --io-write-us /
  /// --io-read-us). The default mem backend changes nothing.
  StoreConfig store;
};

/// Outcome of joining one fresh node.
struct JoinReport {
  sim::NodeId joiner = 0;
  /// True when the numbers come from the streaming bulk-sync protocol;
  /// false for closed-form accounting (the pruned baseline has no
  /// simulated network, so its download cost is computed, not measured).
  bool protocol = false;
  bool complete = false;
  /// Wire bytes the joiner received, coded reconstruction traffic included.
  std::uint64_t bytes_downloaded = 0;
  sim::SimTime elapsed_us = 0;
  std::size_t bodies_fetched = 0;
  /// Protocol-level detail (per-peer attribution, retries, resume count).
  sync::SyncReport sync;
};

class Host {
 public:
  virtual ~Host();

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] sim::Network& network() { return *net_; }
  [[nodiscard]] const sim::Network& network() const { return *net_; }
  [[nodiscard]] metrics::Registry& metrics() { return metrics_; }
  [[nodiscard]] std::size_t node_count() const { return stores_.size(); }

  /// The fleet-shared header table every node's BlockStore interns into.
  [[nodiscard]] const std::shared_ptr<HeaderIndex>& header_index() const {
    return header_index_;
  }
  /// Hot per-node storage scalars, contiguous by node id (fleet_tally.h).
  [[nodiscard]] FleetTally& fleet_tally() { return fleet_tally_; }
  [[nodiscard]] const FleetTally& fleet_tally() const { return fleet_tally_; }
  /// Serve-side sync throttle, or nullptr when --sync-serve-rate is 0.
  [[nodiscard]] sync::ServeThrottle* serve_throttle() { return serve_throttle_.get(); }

  /// Per-node stores, by node id.
  [[nodiscard]] std::vector<const BlockStore*> stores() const;

  /// Runs the simulator until no events remain, then refreshes the mirrored
  /// sim.*, faults.* and store.* counters in metrics().
  void settle();
  /// Runs the simulator for `us` of simulated time (events may remain) and
  /// refreshes the same counters. Fault runs advance in windows like this.
  void run_for(sim::SimTime us);

  /// Installs a fault injector (crashes, drops, duplicates, partitions) over
  /// every node present now. Crash/restart flips reach the facade's status
  /// hook and then the status observer. Call at most once.
  void start_faults(const sim::FaultPlan& plan);
  [[nodiscard]] const sim::FaultInjector* faults() const { return faults_.get(); }

  /// Observer for online/offline flips from churn or fault injection, fired
  /// after the facade reacted (ICI: directory update and repair). The join
  /// driver uses it to abandon a crashed joiner's session and resume it on
  /// restart. Pass nullptr to uninstall.
  using StatusObserver = std::function<void(sim::NodeId, bool online)>;
  void set_status_observer(StatusObserver observer) { status_observer_ = std::move(observer); }

  /// Adds a fresh node at `coord` where the protocol places joiners (ICI:
  /// the nearest cluster; full replication: linked to its nearest peers;
  /// RapidChain: the committee its id hashes to). Fault experiments add
  /// first so a FaultPlan can name the joiner, then call bootstrap_added.
  [[nodiscard]] virtual sim::NodeId add_sync_joiner(sim::Coord coord) = 0;
  /// Streams the chain into an added joiner with the bulk-sync protocol
  /// (docs/BOOTSTRAP.md): frontier exchange with the facade's candidates,
  /// then windowed multi-peer range pulls. The driver owns the checkpoint,
  /// so a FaultPlan crash of the joiner resumes from the last verified
  /// range when the node restarts.
  [[nodiscard]] JoinReport bootstrap_added(sim::NodeId joiner, const sync::SyncConfig& cfg = {});
  /// add_sync_joiner + bootstrap_added.
  [[nodiscard]] JoinReport bootstrap(sim::Coord coord, const sync::SyncConfig& cfg = {});

 protected:
  explicit Host(const HostConfig& cfg);

  /// Pre-sizes the per-node tables for `n` nodes (avoids regrowth copies).
  void reserve_nodes(std::size_t n);
  /// Registers a node constructed with the next dense id (node_count()):
  /// network slot, storage tally row and, for the disk store, its backend.
  void add_node(sim::INode& node, BlockStore& store, sim::Coord coord);

  /// Genesis-once guard: begin_genesis throws on a second call,
  /// require_genesis before the first.
  void begin_genesis();
  void require_genesis() const;

  /// Online/offline flip from churn or fault injection: counts it
  /// (churn.up / churn.down), lets the facade react, then tells the
  /// status observer.
  void status_changed(sim::NodeId id, bool online);
  virtual void on_status_change(sim::NodeId id, bool online) {
    (void)id;
    (void)online;
  }

  /// The joiner's sync role and the peers its frontier exchange probes, in
  /// preference order.
  virtual sync::PeerSession& sync_peer(sim::NodeId id) = 0;
  [[nodiscard]] virtual std::vector<sim::NodeId> join_candidates(
      sim::NodeId joiner, const sync::SyncConfig& cfg) = 0;
  /// Called with every finished join (RapidChain records its shard span).
  virtual void on_joined(const JoinReport& report) { (void)report; }

  /// `pool` ordered by distance from `from` (ties by id), cut to `limit`.
  [[nodiscard]] std::vector<sim::NodeId> nearest(sim::Coord from,
                                                 std::vector<sim::NodeId> pool,
                                                 std::size_t limit) const;

 private:
  void install_backend(BlockStore& store, sim::NodeId id);
  void mirror_counters();

  sim::Simulator sim_;
  std::unique_ptr<sim::Network> net_;
  std::shared_ptr<HeaderIndex> header_index_ = std::make_shared<HeaderIndex>();
  FleetTally fleet_tally_;
  std::unique_ptr<StoreRuntime> store_runtime_;
  std::vector<BlockStore*> stores_;
  // Declared after net_ so it uninstalls its network hook before the
  // network dies.
  std::unique_ptr<sim::FaultInjector> faults_;
  std::unique_ptr<sync::ServeThrottle> serve_throttle_;
  metrics::Registry metrics_;
  StatusObserver status_observer_;
  bool genesis_done_ = false;
};

}  // namespace ici::host
