// Intra-cluster block→node assignment (DESIGN.md D2/D3).
//
// Given a block hash and the current members of a cluster, an assigner picks
// the r members responsible for storing that block's body. The choice must
// be computable by *any* node from public information (hash + membership),
// so storers and readers agree without coordination.
//
//  * RendezvousAssigner — highest-random-weight hashing, optionally weighted
//    by node capacity. Minimal disruption on membership change: only blocks
//    whose top-r set contained the departed node move.
//  * RoundRobinAssigner — height mod members; simple, but every membership
//    change reshuffles everything (ablated in exp12).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/node_info.h"

namespace ici::cluster {

class BlockAssigner {
 public:
  virtual ~BlockAssigner() = default;

  /// Picks min(r, members.size()) distinct storers for the block.
  /// `members` must be the cluster's current membership (any order).
  [[nodiscard]] virtual std::vector<NodeId> storers(const Hash256& block_hash,
                                                    std::uint64_t height,
                                                    const std::vector<NodeInfo>& members,
                                                    std::size_t r) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

class RendezvousAssigner final : public BlockAssigner {
 public:
  explicit RendezvousAssigner(bool capacity_weighted = false)
      : capacity_weighted_(capacity_weighted) {}

  [[nodiscard]] std::vector<NodeId> storers(const Hash256& block_hash, std::uint64_t height,
                                            const std::vector<NodeInfo>& members,
                                            std::size_t r) const override;
  [[nodiscard]] std::string name() const override {
    return capacity_weighted_ ? "rendezvous-weighted" : "rendezvous";
  }

  /// The single top storer, storers(block_hash, h, members, 1).front(),
  /// found by one max scan in the same (score desc, id asc) order with no
  /// allocation. The UTXO-owner lookup on every commit delta uses it.
  [[nodiscard]] NodeId top(const Hash256& block_hash, const std::vector<NodeInfo>& members) const;

 private:
  [[nodiscard]] double score(const Hash256& block_hash, const NodeInfo& member) const;

  bool capacity_weighted_;
};

class RoundRobinAssigner final : public BlockAssigner {
 public:
  [[nodiscard]] std::vector<NodeId> storers(const Hash256& block_hash, std::uint64_t height,
                                            const std::vector<NodeInfo>& members,
                                            std::size_t r) const override;
  [[nodiscard]] std::string name() const override { return "round-robin"; }
};

/// Rendezvous weight of (block, node): uniform in (0,1] from a tagged hash.
/// Exposed for tests of distribution properties.
[[nodiscard]] double rendezvous_weight(const Hash256& block_hash, NodeId node);

/// Hash256::tagged(tag, hash || u32_le(value)): the 36-byte placement key
/// layout shared by rendezvous weights and UTXO owner keys, built on the
/// stack (one SHA-256 compression for tags up to 18 bytes).
[[nodiscard]] Hash256 tagged_with_u32(std::string_view tag, const Hash256& hash,
                                      std::uint32_t value);

}  // namespace ici::cluster
