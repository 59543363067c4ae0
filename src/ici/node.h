// IciNode: one participant in the ICIStrategy network.
//
// Every node plays three roles, all message-driven:
//  * member — verifies its slice of each new block (stateless checks +
//    distributed UTXO lookups), votes, applies committed shard deltas, and
//    stores the bodies the intra-cluster assignment gives it;
//  * head (rotating per height) — receives the full block once for its
//    cluster, fans out slices, tallies votes, commits, and hands bodies to
//    the assigned storers;
//  * server — answers block/header/inventory requests from cluster peers,
//    joiners, and repair.
//
// A node's persistent state is its BlockStore (all headers + assigned
// bodies) and its UTXO shard (the slice of the cluster's UTXO set it owns by
// rendezvous over the outpoint).
#pragma once

#include <functional>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "chain/validator.h"
#include "cluster/node_info.h"
#include "ici/config.h"
#include "ici/messages.h"
#include "storage/block_store.h"
#include "storage/shard_store.h"
#include "sync/peer.h"

namespace ici::core {

class IciNetwork;

/// How a block fetch concluded.
enum class FetchOutcome : std::uint8_t {
  kLocal,     // served from this node's own store/shards, zero traffic
  kRemote,    // served by a peer (possibly after failover/retries)
  kTimeout,   // at least one candidate never answered before the deadline
  kNotFound,  // every candidate answered and none could serve the block
};

/// Rich fetch result: the body (null on failure), elapsed sim time, how the
/// fetch concluded, and how hard the fetcher worked for it. Replaces the old
/// (block, elapsed) callback pair so callers can tell timeouts from genuine
/// misses and see the retry/failover effort under faults.
struct FetchResult {
  std::shared_ptr<const Block> block;
  sim::SimTime elapsed_us = 0;
  FetchOutcome outcome = FetchOutcome::kNotFound;
  std::uint32_t attempts = 0;      // candidate requests issued
  std::uint32_t timeouts = 0;      // attempts that expired unanswered
  std::uint32_t retry_rounds = 0;  // extra passes over the candidate list

  [[nodiscard]] bool ok() const { return block != nullptr; }
  explicit operator bool() const { return ok(); }
};

/// Scripted misbehaviour for robustness experiments. A faulty node still
/// follows the wire protocol (so honest peers cannot trivially ignore it)
/// but lies where it hurts.
struct FaultProfile {
  /// Votes REJECT on every valid slice.
  bool vote_reject = false;
  /// Never votes at all (crash-style omission during verification).
  bool drop_slices = false;
  /// Serves tampered bodies/shards to fetchers (detected by Merkle/hash
  /// checks; the fetcher falls back to the next holder).
  bool corrupt_serves = false;

  [[nodiscard]] bool any() const { return vote_reject || drop_slices || corrupt_serves; }
};

// Cache-line aligned: the arena packs nodes back to back, and a fleet walk
// (genesis seeding, dissemination at 10k+ nodes) runs measurably slower
// when successive nodes straddle cache lines at varying offsets.
class alignas(64) IciNode final : public sim::INode, public sync::Peer<IciNode> {
 public:
  IciNode(IciNetwork& ctx, cluster::NodeId id);

  IciNode(const IciNode&) = delete;
  IciNode& operator=(const IciNode&) = delete;

  void on_message(sim::NodeId from, const sim::MessagePtr& msg) override;

  /// Proposer entry point: ships the block to every cluster's current head.
  void propose(const Block& block);

  /// Fetches a block body from its cluster storers with candidate failover
  /// and (when IciConfig::fetch_retry_rounds > 0) retry-with-backoff; cb
  /// fires exactly once with the full FetchResult.
  using FetchCallback = std::function<void(const FetchResult&)>;
  void fetch_block(const Hash256& hash, std::uint64_t height, FetchCallback cb);

  /// Direct copy used by repair: pull `hash` from `source`.
  void pull_from(sim::NodeId source, const Hash256& hash);

  [[nodiscard]] cluster::NodeId id() const { return id_; }
  [[nodiscard]] BlockStore& store() { return store_; }
  [[nodiscard]] const BlockStore& store() const { return store_; }

  using UtxoShard = std::unordered_map<OutPoint, TxOutput, OutPointHasher>;
  [[nodiscard]] const UtxoShard& utxo_shard() const { return shard_; }

  /// txid → (block hash, height) for txs whose first output this node owns.
  struct TxLocation {
    Hash256 block_hash;
    std::uint64_t height = 0;
  };
  using TxIndex = std::unordered_map<Hash256, TxLocation, Hash256Hasher>;
  [[nodiscard]] const TxIndex& tx_index() const { return tx_index_; }

  /// Installs genesis state directly (no messages): header, body if this
  /// node is a genesis storer (or `shard` in coded mode), and the owned
  /// slice of genesis outputs. `owners` is this cluster's genesis owner
  /// table — the UTXO owner of every genesis outpoint in genesis order (tx
  /// order, then output index) — which IciNetwork::init_with_genesis fills
  /// once per cluster, so seeding a member is a table walk, not a
  /// rendezvous pass per outpoint.
  void seed_genesis(const Block& genesis, std::span<const cluster::NodeId> owners,
                    bool is_storer, const erasure::Shard* shard = nullptr);

  [[nodiscard]] ShardStore& shards() { return shard_store_; }
  [[nodiscard]] const ShardStore& shards() const { return shard_store_; }

  /// Coded-mode repair: reconstruct the block from cluster shards and keep
  /// shard `store_index` locally.
  void repair_shard(const Hash256& hash, std::uint64_t height, std::uint32_t store_index);

  /// SPV: obtains a Merkle inclusion proof for `txid` in the block at
  /// (`hash`, `height`). In replication mode the proof is built remotely by
  /// a body holder; in coded mode the block is reconstructed here first.
  using ProofCallback = std::function<void(std::optional<spv::TxInclusionProof>, sim::SimTime)>;
  void fetch_proof(const Hash256& txid, const Hash256& hash, std::uint64_t height,
                   ProofCallback cb);

  /// Locates the block containing `txid` by asking the cluster member that
  /// indexes it (the rendezvous owner of the tx's first output). The index
  /// is maintained for free from commit deltas. cb(found, hash, height).
  using LocateCallback = std::function<void(bool, Hash256, std::uint64_t)>;
  void locate_tx(const Hash256& txid, LocateCallback cb);

  /// Full light-path convenience: locate the tx, then fetch its inclusion
  /// proof — what a wallet that only knows a txid does.
  void locate_and_prove(const Hash256& txid, ProofCallback cb);

  /// Installs a tx-index entry directly (preload fast path; live networks
  /// learn locations from commit deltas).
  void index_tx(const Hash256& txid, const Hash256& block_hash, std::uint64_t height);

  /// Total persistent footprint: headers + bodies + erasure shards + this
  /// node's slice of the cluster UTXO set (kUtxoEntryBytes per entry, as in
  /// PrunedNode::snapshot_bytes).
  [[nodiscard]] std::uint64_t storage_bytes() const {
    return store_.total_bytes() + shard_store_.total_bytes() + shard_.size() * kUtxoEntryBytes;
  }

  void set_fault(FaultProfile profile) { fault_ = profile; }
  [[nodiscard]] const FaultProfile& fault() const { return fault_; }

  /// Drops a stored body (repair migration). Returns bytes freed.
  std::uint64_t prune(const Hash256& hash) { return store_.prune_block(hash); }

 private:
  friend class sync::Peer<IciNode>;

  // -- head role --------------------------------------------------------
  struct PendingVerify {
    std::shared_ptr<const Block> block;
    std::size_t expected = 0;
    std::size_t votes_received = 0;  // every valid vote, however it counted
    std::unordered_set<sim::NodeId> voters;  // dedupes injected duplicates
    std::size_t approvals = 0;
    std::size_t rejections = 0;      // unsubstantiated rejections only
    std::size_t challenges_pending = 0;  // commits wait for open challenges
    bool decided = false;
    sim::SimTime started = 0;
  };
  void handle_full_block(sim::NodeId from, const FullBlockMsg& msg);
  void start_cluster_verification(std::shared_ptr<const Block> block);
  void handle_vote(sim::NodeId from, const VoteMsg& msg);
  void maybe_decide(const Hash256& block_hash);
  void commit_block(const Hash256& block_hash);
  void reject_block(const Hash256& block_hash, const char* counter);

  // Challenge (fraud-proof) verification at the head: re-check one tx.
  struct PendingChallenge {
    Hash256 block_hash;
    Transaction tx;
    std::size_t outstanding_lookups = 0;
    bool lookup_timeout = false;
    std::unordered_map<OutPoint, std::optional<TxOutput>, OutPointHasher> resolved;
    bool done = false;
  };
  void start_challenge(const Hash256& block_hash, const Hash256& txid);
  void finish_challenge(const Hash256& challenge_key);

  // -- member role ------------------------------------------------------
  struct PendingSlice {
    BlockHeader header;
    Hash256 block_hash;
    sim::NodeId head = 0;
    std::vector<Transaction> txs;
    std::size_t outstanding_lookups = 0;
    bool any_lookup_failed = false;
    bool done = false;
    /// First invalid tx found — sent as the rejection's challenge.
    std::optional<Hash256> offender;
    std::unordered_map<OutPoint, std::optional<TxOutput>, OutPointHasher> resolved;
    sim::SimTime received = 0;  // slice arrival, for verify-latency tracing
  };
  void handle_slice(sim::NodeId from, const SliceMsg& msg);
  void finish_slice(const Hash256& block_hash);
  void handle_utxo_lookup(sim::NodeId from, const UtxoLookupMsg& msg);
  void handle_utxo_response(sim::NodeId from, const UtxoResponseMsg& msg);
  void handle_commit(sim::NodeId from, const CommitMsg& msg);

  // -- bulk-sync policy (sync/peer.h): headers by range, then only the
  // bodies (or RS shards) the intra-cluster assignment gives this node.
  [[nodiscard]] IciNetwork& host() const { return ctx_; }
  [[nodiscard]] std::uint64_t frontier_inventory() const;
  [[nodiscard]] sync::PullMode sync_range_mode() const override {
    return sync::PullMode::kHeaders;
  }
  [[nodiscard]] bool sync_coded() const override;
  [[nodiscard]] bool sync_wants_body(const Hash256& hash, std::uint64_t height) override;
  [[nodiscard]] std::vector<sim::NodeId> sync_body_candidates(
      const Hash256& hash, std::uint64_t height) override;
  void sync_fetch_assigned_shard(
      const Hash256& hash, std::uint64_t height,
      std::function<void(std::shared_ptr<const Block>)> done) override;

  // -- server role ------------------------------------------------------
  void handle_block_request(sim::NodeId from, const BlockRequestMsg& msg);
  void handle_block_response(sim::NodeId from, const BlockResponseMsg& msg);
  void handle_inventory_request(sim::NodeId from, const InventoryRequestMsg& msg);

  struct PendingFetch {
    Hash256 hash;
    std::vector<sim::NodeId> candidates;  // fallback order
    std::size_t next_candidate = 0;
    sim::SimTime started = 0;
    sim::SimTime timeout_us = 0;      // per-attempt; grows by the backoff
    std::uint32_t attempts = 0;
    std::uint32_t timeouts = 0;
    std::uint32_t rounds_left = 0;    // retry passes still allowed
    std::uint32_t rounds_used = 0;
    FetchCallback cb;
    bool done = false;
  };
  void try_next_candidate(std::uint64_t request_id);
  void finish_fetch(std::uint64_t request_id, std::shared_ptr<const Block> block);

  // -- coded mode ---------------------------------------------------------
  void handle_block_shard(sim::NodeId from, const BlockShardMsg& msg);
  void handle_shard_request(sim::NodeId from, const ShardRequestMsg& msg);
  void handle_shard_response(sim::NodeId from, const ShardResponseMsg& msg);
  void fetch_block_coded(const Hash256& hash, std::uint64_t height, FetchCallback cb,
                         std::optional<std::uint32_t> store_index);
  void finish_coded_fetch(std::uint64_t request_id);

  struct PendingCodedFetch {
    Hash256 hash;
    std::uint64_t height = 0;
    std::vector<erasure::Shard> collected;
    std::vector<bool> have;  // by shard index
    std::vector<sim::NodeId> candidates;
    std::size_t next_candidate = 0;
    std::size_t outstanding = 0;
    sim::SimTime started = 0;
    sim::SimTime timeout_us = 0;
    std::uint32_t attempts = 0;
    std::uint32_t timeouts = 0;  // requests outstanding at an expired deadline
    std::uint32_t rounds_left = 0;
    std::uint32_t rounds_used = 0;
    std::optional<std::uint32_t> store_index;  // repair: keep this shard
    FetchCallback cb;
    bool done = false;
  };
  /// Issues shard requests until (in-flight + collected) covers d.
  void pump_coded_fetch(std::uint64_t request_id);
  /// Arms the decide-on-what-arrived deadline; a retry round re-arms it with
  /// the backed-off timeout instead of finishing.
  void arm_coded_deadline(std::uint64_t request_id);

  // -- SPV proof serving ----------------------------------------------------
  void handle_proof_request(sim::NodeId from, const ProofRequestMsg& msg);
  void handle_proof_response(sim::NodeId from, const ProofResponseMsg& msg);

  struct PendingProof {
    Hash256 txid;
    Hash256 block_hash;
    std::vector<sim::NodeId> candidates;
    std::size_t next_candidate = 0;
    sim::SimTime started = 0;
    ProofCallback cb;
    bool done = false;
  };
  void try_next_proof_candidate(std::uint64_t request_id);

  void handle_tx_locate_request(sim::NodeId from, const TxLocateRequestMsg& msg);
  void handle_tx_locate_response(sim::NodeId from, const TxLocateResponseMsg& msg);
  struct PendingLocate {
    LocateCallback cb;
    bool done = false;
  };

  IciNetwork& ctx_;
  cluster::NodeId id_;
  KeyPair key_;
  BlockStore store_;
  UtxoShard shard_;
  Validator validator_;
  FaultProfile fault_;

  std::unordered_map<Hash256, PendingVerify, Hash256Hasher> verifying_;
  std::unordered_map<Hash256, PendingSlice, Hash256Hasher> slices_;
  std::unordered_map<Hash256, PendingChallenge, Hash256Hasher> challenges_;
  std::unordered_map<std::uint64_t, PendingFetch> fetches_;
  std::unordered_map<std::uint64_t, PendingCodedFetch> coded_fetches_;
  std::unordered_map<std::uint64_t, PendingProof> proofs_;
  std::unordered_map<std::uint64_t, PendingLocate> locates_;
  TxIndex tx_index_;
  ShardStore shard_store_;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace ici::core
