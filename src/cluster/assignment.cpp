#include "cluster/assignment.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace ici::cluster {

Hash256 tagged_with_u32(std::string_view tag, const Hash256& hash, std::uint32_t value) {
  std::array<std::uint8_t, 36> buf;
  std::copy(hash.bytes().begin(), hash.bytes().end(), buf.begin());
  for (int i = 0; i < 4; ++i) buf[32 + i] = static_cast<std::uint8_t>(value >> (8 * i));
  return Hash256::tagged(tag, ByteSpan(buf.data(), buf.size()));
}

double rendezvous_weight(const Hash256& block_hash, NodeId node) {
  const Hash256 h = tagged_with_u32("ici/rendezvous", block_hash, node);
  // Map to (0, 1]: (low64+1) / 2^64.
  return (static_cast<double>(h.low64()) + 1.0) * 0x1.0p-64;
}

double RendezvousAssigner::score(const Hash256& block_hash, const NodeInfo& member) const {
  const double u = rendezvous_weight(block_hash, member.id);
  // Weighted rendezvous (Cache Array Routing Protocol form):
  // score = -capacity / ln(u); higher capacity wins proportionally often.
  return capacity_weighted_ ? -member.capacity / std::log(u) : -1.0 / std::log(u);
}

std::vector<NodeId> RendezvousAssigner::storers(const Hash256& block_hash, std::uint64_t height,
                                                const std::vector<NodeInfo>& members,
                                                std::size_t r) const {
  (void)height;
  if (members.empty()) throw std::invalid_argument("RendezvousAssigner: empty cluster");
  struct Scored {
    double score;
    NodeId id;
  };
  std::vector<Scored> scored;
  scored.reserve(members.size());
  for (const NodeInfo& m : members) scored.push_back({score(block_hash, m), m.id});
  const std::size_t take = std::min(r, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(take),
                    scored.end(), [](const Scored& a, const Scored& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.id < b.id;
                    });
  std::vector<NodeId> out;
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) out.push_back(scored[i].id);
  return out;
}

NodeId RendezvousAssigner::top(const Hash256& block_hash,
                               const std::vector<NodeInfo>& members) const {
  if (members.empty()) throw std::invalid_argument("RendezvousAssigner: empty cluster");
  NodeId best_id = members.front().id;
  double best = score(block_hash, members.front());
  for (std::size_t i = 1; i < members.size(); ++i) {
    const double s = score(block_hash, members[i]);
    if (s > best || (s == best && members[i].id < best_id)) {
      best = s;
      best_id = members[i].id;
    }
  }
  return best_id;
}

std::vector<NodeId> RoundRobinAssigner::storers(const Hash256& block_hash, std::uint64_t height,
                                                const std::vector<NodeInfo>& members,
                                                std::size_t r) const {
  (void)block_hash;
  if (members.empty()) throw std::invalid_argument("RoundRobinAssigner: empty cluster");
  // Stable order by id, start at height mod size, wrap for replicas.
  std::vector<NodeId> sorted;
  sorted.reserve(members.size());
  for (const NodeInfo& m : members) sorted.push_back(m.id);
  std::sort(sorted.begin(), sorted.end());
  const std::size_t take = std::min(r, sorted.size());
  std::vector<NodeId> out;
  out.reserve(take);
  const std::size_t start = static_cast<std::size_t>(height % sorted.size());
  for (std::size_t i = 0; i < take; ++i) out.push_back(sorted[(start + i) % sorted.size()]);
  return out;
}

}  // namespace ici::cluster
