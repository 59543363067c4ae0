// RapidChain-style committee-sharding baseline (Zamani et al., CCS'18),
// modelled at storage/dissemination fidelity — the comparison target of the
// paper's headline claim ("ICIStrategy needs ~25% of the storage RapidChain
// does").
//
// Faithful parts:
//  * nodes are assigned to k committees by hash (uniform at random);
//  * each committee stores only its own shard of the ledger, but every
//    member replicates that shard in full — per-node storage ≈ D/k;
//  * blocks spread inside a committee by IDA-style chunked gossip: the
//    leader sends each member one distinct chunk, members flood chunks
//    until everyone can reconstruct.
//
// Simplified parts (documented in DESIGN.md): consensus (50-round BFT),
// cross-shard transaction routing, and epoch reconfiguration (Cuckoo rule)
// are out of scope — they do not change per-node storage or the per-block
// dissemination byte counts compared here. Sharding is block-granular
// (block → committee by block hash) rather than tx-granular.
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "chain/chain.h"
#include "common/arena.h"
#include "host/host.h"
#include "sync/peer.h"

namespace ici::baseline {

struct RapidChainConfig : host::HostConfig {
  /// Number of committees k. Committee size m ≈ N/k.
  std::size_t committee_count = 4;
};

// -- wire messages ----------------------------------------------------------

/// One IDA chunk of a block (1/m of the body plus chunk metadata).
struct ChunkMsg final : sim::MessageBase {
  Hash256 block_hash;
  std::uint32_t chunk_index = 0;
  std::uint32_t chunk_count = 0;
  std::size_t chunk_bytes = 0;

  [[nodiscard]] std::size_t wire_size() const override { return 32 + 8 + chunk_bytes; }
  [[nodiscard]] const char* type_name() const override { return "Chunk"; }
};

// -- network ------------------------------------------------------------------

class RapidChainNetwork;

class RapidChainNode final : public sim::INode, public sync::Peer<RapidChainNode> {
 public:
  RapidChainNode(RapidChainNetwork& ctx, sim::NodeId id, std::size_t committee);

  void on_message(sim::NodeId from, const sim::MessagePtr& msg) override;

  /// Leader path: store the block and start IDA dissemination.
  void lead_dissemination(std::shared_ptr<const Block> block);

  [[nodiscard]] sim::NodeId id() const { return id_; }
  [[nodiscard]] BlockStore& store() { return store_; }
  [[nodiscard]] const BlockStore& store() const { return store_; }
  [[nodiscard]] std::size_t committee() const { return committee_; }

 private:
  friend class sync::Peer<RapidChainNode>;

  void receive_chunk(const ChunkMsg& msg);

  // -- bulk-sync policy (sync/peer.h): the committee shard, whose heights
  // are sparse (the committee holds only its own blocks), so ranges are
  // pulled gapped, without parent linkage.
  [[nodiscard]] RapidChainNetwork& host() const { return ctx_; }
  [[nodiscard]] std::uint64_t frontier_inventory() const { return store_.block_count(); }
  [[nodiscard]] bool sync_linked_headers() const override { return false; }
  [[nodiscard]] bool sync_wants_body(const Hash256& hash, std::uint64_t height) override;
  [[nodiscard]] std::vector<sim::NodeId> sync_body_candidates(
      const Hash256& hash, std::uint64_t height) override;

  RapidChainNetwork& ctx_;
  sim::NodeId id_;
  std::size_t committee_;

  struct Reassembly {
    std::unordered_set<std::uint32_t> chunks;
    std::uint32_t needed = 0;
    bool complete = false;
  };
  std::unordered_map<Hash256, Reassembly, Hash256Hasher> reassembly_;
  BlockStore store_;
};

class RapidChainNetwork final : public host::Host {
 public:
  /// Ring successors each member relays a fresh chunk to. 1 is the minimum
  /// for completeness; each extra unit adds one redundant copy of the block
  /// per member (IDA gossip's erasure redundancy, simplified).
  static constexpr std::size_t kGossipDegree = 2;

  explicit RapidChainNetwork(RapidChainConfig cfg);
  ~RapidChainNetwork() override;

  void init_with_genesis(const Block& genesis);

  /// Routes `block` to its committee (by block hash) and runs IDA gossip to
  /// quiescence. Returns time until the whole committee holds the block.
  sim::SimTime disseminate_and_settle(const Block& block);

  /// Statically installs a chain: each block on every member of its
  /// committee.
  void preload_chain(const Chain& chain);

  /// Adds a fresh node to the committee its id hashes to; its bulk-sync
  /// join pulls the committee shard from the nearest members.
  [[nodiscard]] sim::NodeId add_sync_joiner(sim::Coord coord) override;

  [[nodiscard]] std::size_t committee_of_block(const Hash256& hash) const;
  [[nodiscard]] const std::vector<sim::NodeId>& committee_members(std::size_t c) const;

  [[nodiscard]] RapidChainNode& node(sim::NodeId id) { return nodes_.at(id); }

  /// Shared registry of in-flight blocks so members can materialize the
  /// body once their chunk set completes (chunk payloads are simulated).
  [[nodiscard]] std::shared_ptr<const Block> pending_block(const Hash256& hash) const;

  /// Called by members when they store a disseminated block.
  void note_stored(const Hash256& hash);

 private:
  sync::PeerSession& sync_peer(sim::NodeId id) override { return nodes_.at(id); }
  [[nodiscard]] std::vector<sim::NodeId> join_candidates(
      sim::NodeId joiner, const sync::SyncConfig& cfg) override;
  void on_joined(const host::JoinReport& report) override;

  RapidChainConfig cfg_;
  ObjectArena<RapidChainNode> nodes_;
  std::vector<std::vector<sim::NodeId>> committees_;

  std::unordered_map<Hash256, std::shared_ptr<const Block>, Hash256Hasher> pending_;
  struct Spread {
    sim::SimTime started = 0;
    std::size_t holders = 0;
    std::size_t committee_size = 0;
    sim::SimTime finished = 0;
  };
  std::unordered_map<Hash256, Spread, Hash256Hasher> spreads_;
  std::uint64_t leader_cursor_ = 0;
};

}  // namespace ici::baseline
