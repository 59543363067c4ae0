// ClusterDirectory: the authoritative view of cluster membership every node
// shares (in a deployment this would be established per epoch by the
// reconfiguration protocol; in the simulation it is a shared object).
//
// Tracks liveness so assignment/repair can work over *online* members, and
// rotates the cluster-head role by block height to spread coordinator load.
//
// Node ids are dense (the facades assign 0..N-1), so the per-node lookups
// (record index, cluster, liveness) are flat vectors indexed by id instead
// of hash maps — at 100k+ nodes this is the difference between three map
// entries per node and a handful of bytes per node. Unknown and removed ids
// still throw, exactly as the map-based version did.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/clusterer.h"

namespace ici::cluster {

class ClusterDirectory {
 public:
  ClusterDirectory(std::vector<NodeInfo> nodes, Clustering clustering);

  [[nodiscard]] std::size_t cluster_count() const { return clusters_.size(); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  /// Cluster index of a node.
  [[nodiscard]] std::size_t cluster_of(NodeId id) const;
  /// All members of a cluster (online or not).
  [[nodiscard]] const std::vector<NodeId>& members(std::size_t cluster) const;
  /// Members currently marked online.
  [[nodiscard]] std::vector<NodeInfo> online_members(std::size_t cluster) const;
  /// Full NodeInfo of every member (online or not), in members() order —
  /// the assignment input. A per-cluster cache kept in step with the
  /// membership by the constructor, add_member and remove_member, so
  /// placement lookups copy nothing.
  [[nodiscard]] const std::vector<NodeInfo>& member_infos(std::size_t cluster) const;
  [[nodiscard]] const NodeInfo& info(NodeId id) const;

  void set_online(NodeId id, bool online);
  [[nodiscard]] bool online(NodeId id) const;

  /// Head for a given height: rotates deterministically through the online
  /// members so every node agrees without messages.
  [[nodiscard]] std::optional<NodeId> head(std::size_t cluster, std::uint64_t height) const;

  /// Adds a node to a cluster at runtime (bootstrap of a joiner).
  void add_member(NodeInfo info, std::size_t cluster);
  /// Permanently removes a node (distinct from transient offline).
  void remove_member(NodeId id);

 private:
  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  /// Index into the per-id vectors, or kAbsent if the id was never seen or
  /// has been removed. Throws nothing; callers decide.
  [[nodiscard]] std::uint32_t slot_of(NodeId id) const {
    return id < index_by_id_.size() ? index_by_id_[id] : kAbsent;
  }
  /// Rebuilds member_infos(cluster) from members(cluster).
  void refresh_infos(std::size_t cluster);

  std::vector<NodeInfo> nodes_;             // append-only record (kept past removal)
  std::vector<std::uint32_t> index_by_id_;  // id -> nodes_ index, kAbsent when removed
  std::vector<std::uint32_t> cluster_by_id_;  // id -> cluster, kAbsent when removed
  std::vector<std::uint8_t> online_by_id_;    // id -> liveness (valid while present)
  std::vector<std::vector<NodeId>> clusters_;
  std::vector<std::vector<NodeInfo>> infos_;  // cluster -> member_infos cache
};

}  // namespace ici::cluster
