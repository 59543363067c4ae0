// BulkPullSession — the joiner side of the streaming bootstrap protocol.
//
// One session drives one attempt to sync a node from its checkpoint to the
// cluster frontier:
//
//   frontier  probe candidate peers for tip heights + inventories, pick the
//             target height and up to `max_peers` pull peers;
//   pull      pipeline windowed RangeRequests across the pull peers
//             (per-peer in-flight cap, out-of-order landing into a
//             reassembly buffer);
//   verify    per range, before commit: internal parent linkage (contiguous
//             flavours), height bounds, body hash ∈ served headers +
//             Merkle-root recomputation;
//   commit    strictly in height order — commit advances the externally
//             held SyncCheckpoint, which is the only state that survives a
//             crash;
//   resume    a crashed node's session dies with it; the driver opens a new
//             session over the same checkpoint (frontier re-probes, ranges
//             restart at `next_height`, owed bodies are re-requested).
//
// The session is strategy-agnostic via `Env`, implemented by sync::Peer
// (sync/peer.h), which every node type composes. It draws NO random
// numbers: peer choice, range assignment, retry rotation, and batch
// grouping are all deterministic functions of (config, checkpoint, message
// arrival order),
// so the determinism contract holds — identical seeds replay bit-identically.
//
// Timers are armed through weak_ptr self-references: when the driver drops
// the session (crash) every outstanding deadline becomes inert, so an
// abandoned sync leaves nothing behind but the checkpoint.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "chain/block.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sync/checkpoint.h"
#include "sync/messages.h"

namespace ici::sync {

class BulkPullSession : public std::enable_shared_from_this<BulkPullSession> {
 public:
  /// Everything the session needs from its host node. All hooks must be
  /// deterministic and draw no randomness.
  class Env {
   public:
    virtual ~Env() = default;
    [[nodiscard]] virtual sim::NodeId sync_self() const = 0;
    [[nodiscard]] virtual sim::Simulator& sync_simulator() = 0;
    virtual void sync_send(sim::NodeId to, sim::MessagePtr msg) = 0;
    /// Per-message overhead the network charges (for byte attribution).
    [[nodiscard]] virtual std::size_t sync_message_overhead() const = 0;
    /// True when the flavour stores a contiguous chain (parent linkage is
    /// verified per range). RapidChain committee stores are gapped.
    [[nodiscard]] virtual bool sync_linked_headers() const = 0;
    /// Range payload the flavour wants: kHeaders (ICI, bodies out of band)
    /// or kHeadersAndBodies (full-rep / RapidChain).
    [[nodiscard]] virtual PullMode sync_range_mode() const = 0;
    /// True when assigned payloads are RS shards (fetched+reconstructed by
    /// the node's coded machinery instead of listed-body pulls).
    [[nodiscard]] virtual bool sync_coded() const = 0;
    virtual void sync_commit_header(const BlockHeader& header, const Hash256& hash) = 0;
    /// Is this block (or its shard) assigned to the joiner?
    [[nodiscard]] virtual bool sync_wants_body(const Hash256& hash, std::uint64_t height) = 0;
    virtual void sync_commit_body(const std::shared_ptr<const Block>& block) = 0;
    /// Holders to ask for a listed body, best first (replication only).
    [[nodiscard]] virtual std::vector<sim::NodeId> sync_body_candidates(
        const Hash256& hash, std::uint64_t height) = 0;
    /// Coded flavours: collect ≥d shards, reconstruct, keep the assigned
    /// shard; calls `done` with the block on success, nullptr on failure.
    virtual void sync_fetch_assigned_shard(
        const Hash256& hash, std::uint64_t height,
        std::function<void(std::shared_ptr<const Block>)> done) = 0;
  };

  using DoneFn = std::function<void(const SyncReport&)>;

  /// Opens a session over `checkpoint` (which must outlive it) and starts
  /// the frontier exchange. `candidates` are frontier probe targets in
  /// preference order (typically cluster peers by distance).
  static std::shared_ptr<BulkPullSession> start(Env& env, const SyncConfig& cfg,
                                                SyncCheckpoint* checkpoint,
                                                std::vector<sim::NodeId> candidates,
                                                std::uint64_t session_id, DoneFn on_done);

  /// Host node forwards matching sync messages here.
  void on_sync_message(sim::NodeId from, const SyncMessage& msg);

  [[nodiscard]] std::uint64_t session_id() const { return id_; }
  [[nodiscard]] bool finished() const { return finished_; }

 private:
  BulkPullSession(Env& env, const SyncConfig& cfg, SyncCheckpoint* checkpoint,
                  std::vector<sim::NodeId> candidates, std::uint64_t session_id,
                  DoneFn on_done);

  // -- frontier ----------------------------------------------------------
  void begin_frontier();
  void on_frontier_response(sim::NodeId from, const FrontierResponseMsg& msg);
  void finish_frontier();

  // -- pull / reassembly -------------------------------------------------
  struct RangeState {
    std::uint64_t from = 0;
    std::uint32_t count = 0;
    sim::NodeId peer = 0;
    std::uint32_t attempts = 0;
    std::uint64_t token = 0;  ///< invalidates stale deadline timers
    bool issued = false;
    bool landed = false;
    std::vector<BlockHeader> headers;  // reassembly buffer
    std::vector<std::shared_ptr<const Block>> bodies;
  };
  struct BodyWant {
    Hash256 hash;
    std::uint64_t height = 0;
    std::uint32_t attempts = 0;
  };
  struct BodyPull {
    std::vector<BodyWant> want;
    sim::NodeId peer = 0;
    std::uint64_t token = 0;
    bool done = false;
  };

  void pump();
  void issue_range(std::size_t index, sim::NodeId peer);
  void retry_range(std::size_t index);
  void on_range_response(sim::NodeId from, const RangeResponseMsg& msg);
  void on_range_timeout(std::size_t index, std::uint64_t token);
  [[nodiscard]] bool range_payload_ok(const RangeState& r,
                                      const RangeResponseMsg& msg) const;
  void try_commit();
  void want_body(const Hash256& hash, std::uint64_t height, bool checkpointed);
  void issue_body_pull(std::uint32_t pull_id, sim::NodeId peer,
                       std::vector<BodyWant> want);
  void on_body_response(sim::NodeId from, const RangeResponseMsg& msg);
  void on_body_timeout(std::uint32_t pull_id, std::uint64_t token);
  void requeue_body(BodyWant want);
  void start_shard_fetch(const Hash256& hash, std::uint64_t height);
  void erase_pending(const Hash256& hash);

  void arm(sim::SimTime delay, std::function<void()> fn);
  void tally_bytes(sim::NodeId from, const SyncMessage& msg);
  void check_done();
  void finish(bool ok);

  Env& env_;
  SyncConfig cfg_;
  SyncCheckpoint* cp_;
  std::vector<sim::NodeId> candidates_;
  std::uint64_t id_;
  DoneFn on_done_;
  bool finished_ = false;

  // frontier
  bool frontier_done_ = false;
  std::uint32_t frontier_attempts_ = 0;
  std::size_t frontier_awaiting_ = 0;
  std::uint64_t frontier_token_ = 0;
  sim::SimTime frontier_started_ = 0;
  /// (candidate order, tip) for responders claiming a tip.
  std::vector<std::pair<sim::NodeId, std::uint64_t>> frontier_tips_;
  std::vector<sim::NodeId> pull_peers_;

  // ranges
  std::vector<RangeState> ranges_;
  std::size_t next_unissued_ = 0;
  std::size_t commit_cursor_ = 0;
  sim::SimTime pull_started_ = 0;

  // listed-body phase (replication) / shard phase (coded)
  std::vector<BodyWant> body_queue_;
  std::map<std::uint32_t, BodyPull> body_pulls_;
  std::uint32_t next_pull_id_ = 0;
  std::size_t shards_outstanding_ = 0;

  std::map<sim::NodeId, std::uint32_t> inflight_;
  std::uint64_t token_counter_ = 0;
};

}  // namespace ici::sync
