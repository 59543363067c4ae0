// Full-replication baseline (Bitcoin-style): every node stores every block,
// validates every transaction, and learns about new blocks through
// INV/GETDATA gossip over a random peer graph.
//
// This is the "blockchain is hard to scale" strawman the paper's
// introduction motivates: per-node storage equals the whole ledger, and a
// disseminated block crosses every link roughly once (plus INV chatter).
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "chain/chain.h"
#include "chain/validator.h"
#include "common/arena.h"
#include "host/host.h"
#include "sync/peer.h"

namespace ici::baseline {

struct FullRepConfig : host::HostConfig {
  /// Full stateful validation at every node. Disable for storage-only
  /// experiments at large N (saves the per-node UTXO copies).
  bool validate = true;
};

// -- wire messages ----------------------------------------------------------

struct FullRepMessage : sim::MessageBase {};

struct InvMsg final : FullRepMessage {
  Hash256 hash;
  [[nodiscard]] std::size_t wire_size() const override { return 32; }
  [[nodiscard]] const char* type_name() const override { return "Inv"; }
};

struct GetDataMsg final : FullRepMessage {
  Hash256 hash;
  [[nodiscard]] std::size_t wire_size() const override { return 32; }
  [[nodiscard]] const char* type_name() const override { return "GetData"; }
};

struct GossipBlockMsg final : FullRepMessage {
  std::shared_ptr<const Block> block;
  [[nodiscard]] std::size_t wire_size() const override { return block->serialized_size(); }
  [[nodiscard]] const char* type_name() const override { return "GossipBlock"; }
};

// -- network ------------------------------------------------------------------

class FullRepNetwork;

class FullRepNode final : public sim::INode, public sync::Peer<FullRepNode> {
 public:
  FullRepNode(FullRepNetwork& ctx, sim::NodeId id);

  void on_message(sim::NodeId from, const sim::MessagePtr& msg) override;

  /// Proposer path: adopt the block locally and start gossiping it.
  void inject_block(std::shared_ptr<const Block> block);

  [[nodiscard]] sim::NodeId id() const { return id_; }
  [[nodiscard]] BlockStore& store() { return store_; }
  [[nodiscard]] const BlockStore& store() const { return store_; }
  [[nodiscard]] const UtxoSet& utxo() const { return utxo_; }

  void seed_genesis(std::shared_ptr<const Block> genesis);

 private:
  friend class sync::Peer<FullRepNode>;

  void accept_block(std::shared_ptr<const Block> block, sim::NodeId from);
  void announce(const Hash256& hash, sim::NodeId except);

  // -- bulk-sync policy (sync/peer.h) ------------------------------------
  [[nodiscard]] FullRepNetwork& host() const { return ctx_; }
  [[nodiscard]] std::uint64_t frontier_inventory() const { return store_.block_count(); }
  [[nodiscard]] bool sync_wants_body(const Hash256&, std::uint64_t) override {
    return true;  // full replication wants every body
  }
  [[nodiscard]] std::vector<sim::NodeId> sync_body_candidates(
      const Hash256& hash, std::uint64_t height) override;

  FullRepNetwork& ctx_;
  sim::NodeId id_;
  BlockStore store_;
  UtxoSet utxo_;
  Validator validator_;
  std::unordered_set<Hash256, Hash256Hasher> requested_;
};

class FullRepNetwork final : public host::Host {
 public:
  /// Outbound peers per node (graph is used bidirectionally).
  static constexpr std::size_t kPeerDegree = 8;

  explicit FullRepNetwork(FullRepConfig cfg);
  ~FullRepNetwork() override;

  void init_with_genesis(const Block& genesis);

  /// Gossips `block` from a rotating proposer and runs to quiescence.
  /// Returns the time until the last online node stored the block.
  sim::SimTime disseminate_and_settle(const Block& block);

  /// Statically installs a chain on every node (storage experiments).
  void preload_chain(const Chain& chain);

  /// Adds a fresh node linked to its kPeerDegree nearest nodes — the pull
  /// peers of its bulk-sync join.
  [[nodiscard]] sim::NodeId add_sync_joiner(sim::Coord coord) override;

  [[nodiscard]] const FullRepConfig& config() const { return cfg_; }
  [[nodiscard]] FullRepNode& node(sim::NodeId id) { return nodes_.at(id); }
  [[nodiscard]] const std::vector<sim::NodeId>& peers(sim::NodeId id) const;

  /// Called by nodes when they store a disseminated block.
  void note_stored(const Hash256& hash);

 private:
  sync::PeerSession& sync_peer(sim::NodeId id) override { return nodes_.at(id); }
  [[nodiscard]] std::vector<sim::NodeId> join_candidates(sim::NodeId joiner,
                                                         const sync::SyncConfig&) override {
    return peers_.at(joiner);
  }

  FullRepConfig cfg_;
  ObjectArena<FullRepNode> nodes_;
  std::vector<std::vector<sim::NodeId>> peers_;

  struct Spread {
    sim::SimTime started = 0;
    std::size_t holders = 0;
    sim::SimTime finished = 0;
  };
  std::unordered_map<Hash256, Spread, Hash256Hasher> spreads_;
  std::uint64_t proposer_cursor_ = 0;
};

}  // namespace ici::baseline
