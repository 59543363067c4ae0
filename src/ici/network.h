// IciNetwork: builds and owns a whole ICIStrategy deployment — topology,
// clustering, one IciNode per participant, assignment and repair — on the
// host every strategy shares (host/host.h: simulator, network, stores,
// faults, joins), and gives experiments a small driving API:
//
//   IciNetwork net(cfg);
//   net.init_with_genesis(genesis);
//   net.disseminate_and_settle(block);   // message-accurate dissemination
//   net.preload_chain(chain);            // fast path for storage-only runs
//
// Shared state (ClusterDirectory, assignment) models the membership service
// the deployed system would maintain per epoch.
#pragma once

#include <memory>

#include "chain/chain.h"
#include "cluster/assignment.h"
#include "cluster/directory.h"
#include "cluster/repair.h"
#include "common/arena.h"
#include "erasure/rs.h"
#include "host/host.h"
#include "ici/node.h"
#include "sim/churn.h"
#include "storage/storage_meter.h"

namespace ici::core {

struct IciNetworkConfig : host::HostConfig {
  IciConfig ici;
  /// Draw per-node capacities in the synthetic topology (else all 1.0).
  bool heterogeneous_capacity = false;
};

class IciNetwork final : public host::Host {
 public:
  explicit IciNetwork(IciNetworkConfig cfg);
  ~IciNetwork() override;

  /// Installs the genesis block on every node (headers + assigned bodies +
  /// UTXO shards). Must be called exactly once before dissemination.
  void init_with_genesis(const Block& genesis);

  /// Ships `block` from a rotating proposer to every cluster head and runs
  /// the simulation until quiescent. Returns the sim time from proposal to
  /// the moment the last cluster committed (or the settle time on failure).
  sim::SimTime disseminate_and_settle(const Block& block);

  /// Ships `block` without waiting (pipelined dissemination).
  void disseminate(const Block& block);

  /// Statically installs an already-built chain (headers everywhere, bodies
  /// on assigned storers, shards updated) with no message traffic. Storage
  /// experiments use this to reach long chains quickly. Skips the genesis
  /// (init_with_genesis covers it). `build_tx_index` also installs the
  /// txid→block index live networks learn from commit deltas (costs
  /// O(txs·k) hashing, so it is opt-in).
  void preload_chain(const Chain& chain, bool build_tx_index = false);

  /// Starts churn over all nodes; offline/online transitions trigger the
  /// repair protocol (actual copy traffic).
  void start_churn(sim::ChurnConfig cfg);

  /// Starts a background repair daemon: every `interval_us` of sim time a
  /// full repair pass runs over every cluster, re-replicating slices lost to
  /// crashes. Bounded by `until_us` so settle()'s drain terminates.
  void start_repair_daemon(sim::SimTime interval_us, sim::SimTime until_us);

  /// Availability snapshot: fraction of (cluster, committed block) pairs
  /// with at least one online holder.
  [[nodiscard]] double availability() const;

  /// Network-wide availability: fraction of committed blocks servable by
  /// SOME online holder anywhere (what cross-cluster fallback delivers —
  /// the network keeps one copy per cluster).
  [[nodiscard]] double network_availability() const;

  /// Runs a repair pass for a cluster now (also invoked by churn hooks).
  void repair_cluster(std::size_t cluster);

  // -- accessors used by IciNode and the experiment harnesses ------------
  [[nodiscard]] cluster::ClusterDirectory& directory() { return *directory_; }
  [[nodiscard]] const IciConfig& config() const { return cfg_.ici; }
  [[nodiscard]] IciNode& node(cluster::NodeId id) { return nodes_.at(id); }
  [[nodiscard]] const IciNode& node(cluster::NodeId id) const { return nodes_.at(id); }

  /// Online storers responsible for a block within `cluster` (assignment
  /// over the full membership; offline assignees simply cannot serve).
  [[nodiscard]] std::vector<cluster::NodeId> storers_of(const Hash256& hash,
                                                        std::uint64_t height,
                                                        std::size_t cluster,
                                                        bool online_only) const;

  /// UTXO-shard owner of an outpoint within `cluster` (stable: rendezvous
  /// over the full membership).
  [[nodiscard]] cluster::NodeId utxo_owner(const OutPoint& op, std::size_t cluster) const;

  /// Online peers worth asking for a block body, rendezvous-ranked, with
  /// `exclude` (usually the asker) removed. Goes a couple of ranks past the
  /// replication factor so fetches survive holder churn and joins.
  [[nodiscard]] std::vector<cluster::NodeId> fetch_candidates(const Hash256& hash,
                                                              std::uint64_t height,
                                                              std::size_t cluster,
                                                              cluster::NodeId exclude) const;

  /// Record of blocks committed anywhere (hash, height) in commit order —
  /// ground truth for repair and availability scans.
  struct CommittedBlock {
    Hash256 hash;
    std::uint64_t height = 0;
    std::size_t size_bytes = 0;
  };
  [[nodiscard]] const std::vector<CommittedBlock>& committed() const { return committed_; }

  /// Called by heads when their cluster commits. Tracks per-block commit
  /// coverage for dissemination latency measurements.
  void note_commit(const Block& block);

  /// Sim time when all clusters had committed `hash` (0 if not yet).
  [[nodiscard]] sim::SimTime full_commit_time(const Hash256& hash) const;

  /// Fleet storage snapshot including erasure shards (what a node really
  /// persists). Prefer this over StorageMeter when coding may be on.
  [[nodiscard]] StorageSnapshot storage_snapshot() const;

  // -- coded mode ---------------------------------------------------------
  /// True when blocks are stored as Reed-Solomon shards instead of copies.
  [[nodiscard]] bool coded() const { return cfg_.ici.erasure_data > 0; }
  /// The codec (only valid when coded()).
  [[nodiscard]] const erasure::ReedSolomon& codec() const { return *codec_; }
  /// The d+p shard holders of a block within `cluster`, ranked over the
  /// full membership; vector position == shard index.
  [[nodiscard]] std::vector<cluster::NodeId> shard_holders(const Hash256& hash,
                                                           std::uint64_t height,
                                                           std::size_t cluster) const;

  /// Adds a brand-new node to `cluster`; returns its id. The caller is
  /// responsible for running the join protocol.
  cluster::NodeId add_joiner(sim::Coord coord, std::size_t cluster);
  /// add_joiner into the cluster whose members are nearest on average.
  [[nodiscard]] sim::NodeId add_sync_joiner(sim::Coord coord) override;

  /// Marks a node byzantine/faulty for robustness experiments.
  void set_fault(cluster::NodeId id, FaultProfile profile) {
    nodes_.at(id).set_fault(profile);
  }

  // -- epoch reconfiguration ------------------------------------------------
  struct ReconfigReport {
    /// Nodes whose cluster assignment changed.
    std::size_t nodes_moved = 0;
    /// Block copies started to restore intra-cluster integrity.
    std::size_t copies_started = 0;
  };
  /// Re-clusters the network with a fresh epoch seed (same strategy, same
  /// k), then starts the block migrations every new cluster needs to regain
  /// the full ledger. Call only when the simulation is quiescent; run
  /// settle() afterwards and then prune_unassigned() to drop stale copies.
  /// Replication mode only (coded-mode reconfiguration is future work).
  ReconfigReport reconfigure(std::uint64_t epoch_seed);

  /// Drops bodies from nodes that are no longer assigned storers under the
  /// current clustering. Returns bytes freed. Run after migrations settle.
  std::uint64_t prune_unassigned();

 private:
  /// Crash/restart or churn flip: update the directory, then repair.
  void on_status_change(sim::NodeId id, bool online) override;
  void repair_cluster_coded(std::size_t cluster);
  sync::PeerSession& sync_peer(sim::NodeId id) override { return nodes_.at(id); }
  [[nodiscard]] std::vector<sim::NodeId> join_candidates(
      sim::NodeId joiner, const sync::SyncConfig& cfg) override;

  IciNetworkConfig cfg_;
  std::vector<cluster::NodeInfo> infos_;
  std::unique_ptr<cluster::ClusterDirectory> directory_;
  std::unique_ptr<cluster::BlockAssigner> assigner_;
  std::unique_ptr<cluster::BlockAssigner> shard_owner_assigner_;  // unweighted, r=1
  ObjectArena<IciNode> nodes_;
  std::unique_ptr<sim::ChurnModel> churn_;
  std::unique_ptr<cluster::RepairDaemon> repair_daemon_;
  std::unique_ptr<erasure::ReedSolomon> codec_;

  std::vector<CommittedBlock> committed_;
  std::unordered_map<Hash256, std::size_t, Hash256Hasher> committed_index_;
  struct CommitProgress {
    std::size_t clusters_committed = 0;
    sim::SimTime proposed_at = 0;
    sim::SimTime fully_committed_at = 0;
  };
  std::unordered_map<Hash256, CommitProgress, Hash256Hasher> progress_;
  std::uint64_t proposer_cursor_ = 0;
  std::uint64_t trace_clock_token_ = 0;
};

}  // namespace ici::core
