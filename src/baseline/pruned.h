// Pruned full-replication baseline (the "just prune old blocks" answer to
// blockchain storage pressure, à la Bitcoin -prune / Ethereum snapshot
// sync).
//
// Every node keeps (a) all headers, (b) the full UTXO snapshot, and (c) the
// most recent `window` block bodies; older bodies are dropped. Per-node
// storage is bounded, but — unlike ICIStrategy — the *network as a whole*
// loses the ability to serve deep history: availability of a historical
// block is 0 once it leaves every window. That trade-off is exactly what
// experiment E17 tabulates against ICIStrategy's collective retention.
//
// Modelled statically (no dissemination protocol of its own — pruning is a
// storage policy, and its gossip behaviour matches the full-replication
// baseline).
#pragma once

#include <memory>

#include "chain/chain.h"
#include "chain/utxo.h"
#include "storage/block_store.h"

namespace ici::baseline {

struct PrunedConfig {
  std::size_t node_count = 64;
  /// Recent bodies each node retains.
  std::size_t window = 128;
};

/// One pruned node's storage state.
class PrunedNode {
 public:
  explicit PrunedNode(std::size_t window) : window_(window) {}

  /// Appends the next block: stores header + body, applies it to the UTXO
  /// snapshot, prunes bodies older than the window.
  void apply(const std::shared_ptr<const Block>& block);

  [[nodiscard]] const BlockStore& store() const { return store_; }
  [[nodiscard]] const UtxoSet& utxo() const { return utxo_; }

  /// Serialized size of the UTXO snapshot a syncing peer would download.
  [[nodiscard]] std::uint64_t snapshot_bytes() const { return utxo_.size() * kUtxoEntryBytes; }

  /// Total persisted bytes: headers + windowed bodies + UTXO snapshot.
  [[nodiscard]] std::uint64_t storage_bytes() const {
    return store_.total_bytes() + snapshot_bytes();
  }

 private:
  std::size_t window_;
  BlockStore store_;
  UtxoSet utxo_;
  std::vector<Hash256> body_order_;  // oldest-first retained bodies
};

/// Fleet of identical pruned nodes processing the same chain.
class PrunedNetwork {
 public:
  explicit PrunedNetwork(PrunedConfig cfg);

  /// Feeds the whole chain through every node's pruning policy.
  void preload_chain(const Chain& chain);

  /// Appends one block through the pruning policy (incremental ingest; the
  /// strategy facade feeds blocks one at a time).
  void apply(const std::shared_ptr<const Block>& block) { node_.apply(block); }

  [[nodiscard]] std::size_t node_count() const { return cfg_.node_count; }
  [[nodiscard]] const PrunedNode& node() const { return node_; }

  /// All nodes are identical; per-node storage is node().storage_bytes().
  [[nodiscard]] std::uint64_t per_node_bytes() const { return node_.storage_bytes(); }
  [[nodiscard]] std::uint64_t total_bytes() const {
    return per_node_bytes() * cfg_.node_count;
  }

  /// Fraction of the chain's blocks that ANY node can still serve — the
  /// quantity pruning sacrifices (ICIStrategy keeps it at 1.0).
  [[nodiscard]] double historical_availability(const Chain& chain) const;

  /// Bootstrap download for a snapshot-syncing joiner: headers + UTXO
  /// snapshot + window of recent bodies.
  [[nodiscard]] std::uint64_t bootstrap_bytes() const;

 private:
  PrunedConfig cfg_;
  // All nodes behave identically under the same policy; one representative
  // node carries the state (documented memory optimization).
  PrunedNode node_;
};

}  // namespace ici::baseline
