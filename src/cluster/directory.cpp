#include "cluster/directory.h"

#include <algorithm>
#include <stdexcept>

namespace ici::cluster {

namespace {

/// Grows an id-indexed vector on demand so sparse ids stay addressable.
template <typename T>
void ensure_id(std::vector<T>& v, NodeId id, T fill) {
  if (id >= v.size()) v.resize(static_cast<std::size_t>(id) + 1, fill);
}

}  // namespace

ClusterDirectory::ClusterDirectory(std::vector<NodeInfo> nodes, Clustering clustering)
    : nodes_(std::move(nodes)), clusters_(std::move(clustering.clusters)) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const NodeId id = nodes_[i].id;
    ensure_id(index_by_id_, id, kAbsent);
    ensure_id(cluster_by_id_, id, kAbsent);
    ensure_id<std::uint8_t>(online_by_id_, id, 0);
    index_by_id_[id] = static_cast<std::uint32_t>(i);
    online_by_id_[id] = 1;
  }
  std::size_t covered = 0;
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    for (NodeId id : clusters_[c]) {
      if (slot_of(id) == kAbsent)
        throw std::invalid_argument("ClusterDirectory: clustering references unknown node");
      if (cluster_by_id_[id] == kAbsent) ++covered;
      cluster_by_id_[id] = static_cast<std::uint32_t>(c);
    }
  }
  if (covered != nodes_.size())
    throw std::invalid_argument("ClusterDirectory: clustering does not cover all nodes");
  infos_.resize(clusters_.size());
  for (std::size_t c = 0; c < clusters_.size(); ++c) refresh_infos(c);
}

void ClusterDirectory::refresh_infos(std::size_t cluster) {
  std::vector<NodeInfo>& out = infos_[cluster];
  out.clear();
  out.reserve(clusters_[cluster].size());
  for (NodeId id : clusters_[cluster]) out.push_back(info(id));
}

std::size_t ClusterDirectory::cluster_of(NodeId id) const {
  if (id >= cluster_by_id_.size() || cluster_by_id_[id] == kAbsent)
    throw std::out_of_range("cluster_of: unknown node");
  return cluster_by_id_[id];
}

const std::vector<NodeId>& ClusterDirectory::members(std::size_t cluster) const {
  if (cluster >= clusters_.size()) throw std::out_of_range("members: bad cluster");
  return clusters_[cluster];
}

std::vector<NodeInfo> ClusterDirectory::online_members(std::size_t cluster) const {
  std::vector<NodeInfo> out;
  for (NodeId id : members(cluster)) {
    if (online(id)) out.push_back(info(id));
  }
  return out;
}

const std::vector<NodeInfo>& ClusterDirectory::member_infos(std::size_t cluster) const {
  if (cluster >= infos_.size()) throw std::out_of_range("member_infos: bad cluster");
  return infos_[cluster];
}

const NodeInfo& ClusterDirectory::info(NodeId id) const {
  const std::uint32_t slot = slot_of(id);
  if (slot == kAbsent) throw std::out_of_range("info: unknown node");
  return nodes_[slot];
}

void ClusterDirectory::set_online(NodeId id, bool on) {
  if (slot_of(id) == kAbsent) throw std::out_of_range("set_online: unknown node");
  online_by_id_[id] = on ? 1 : 0;
}

bool ClusterDirectory::online(NodeId id) const {
  if (slot_of(id) == kAbsent) throw std::out_of_range("online: unknown node");
  return online_by_id_[id] != 0;
}

std::optional<NodeId> ClusterDirectory::head(std::size_t cluster, std::uint64_t height) const {
  const auto& ids = members(cluster);
  std::vector<NodeId> alive;
  alive.reserve(ids.size());
  for (NodeId id : ids) {
    if (online(id)) alive.push_back(id);
  }
  if (alive.empty()) return std::nullopt;
  std::sort(alive.begin(), alive.end());
  return alive[static_cast<std::size_t>(height % alive.size())];
}

void ClusterDirectory::add_member(NodeInfo info, std::size_t cluster) {
  if (cluster >= clusters_.size()) throw std::out_of_range("add_member: bad cluster");
  if (slot_of(info.id) != kAbsent) throw std::invalid_argument("add_member: duplicate id");
  const NodeId id = info.id;
  ensure_id(index_by_id_, id, kAbsent);
  ensure_id(cluster_by_id_, id, kAbsent);
  ensure_id<std::uint8_t>(online_by_id_, id, 0);
  index_by_id_[id] = static_cast<std::uint32_t>(nodes_.size());
  cluster_by_id_[id] = static_cast<std::uint32_t>(cluster);
  online_by_id_[id] = 1;
  clusters_[cluster].push_back(id);
  std::sort(clusters_[cluster].begin(), clusters_[cluster].end());
  nodes_.push_back(info);
  refresh_infos(cluster);
}

void ClusterDirectory::remove_member(NodeId id) {
  if (id >= cluster_by_id_.size() || cluster_by_id_[id] == kAbsent)
    throw std::out_of_range("remove_member: unknown node");
  const std::size_t cluster = cluster_by_id_[id];
  auto& members = clusters_[cluster];
  members.erase(std::remove(members.begin(), members.end(), id), members.end());
  cluster_by_id_[id] = kAbsent;
  online_by_id_[id] = 0;
  // nodes_ keeps the record for history; the id slots are tombstoned so
  // every per-id lookup throws, matching the map-erase semantics.
  index_by_id_[id] = kAbsent;
  refresh_infos(cluster);
}

}  // namespace ici::cluster
