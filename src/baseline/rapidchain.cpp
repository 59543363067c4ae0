#include "baseline/rapidchain.h"

#include <algorithm>
#include <stdexcept>

#include "cluster/node_info.h"
#include "obs/trace.h"

namespace ici::baseline {

namespace {

/// Committee by hash of node id — RapidChain assigns members uniformly at
/// random via its randomness beacon.
std::size_t hashed_committee(sim::NodeId id, std::size_t committees) {
  ByteWriter w(8);
  w.u64(id);
  return static_cast<std::size_t>(
      Hash256::tagged("rc/committee", ByteSpan(w.bytes().data(), w.bytes().size())).low64() %
      committees);
}

}  // namespace

RapidChainNode::RapidChainNode(RapidChainNetwork& ctx, sim::NodeId id, std::size_t committee)
    : ctx_(ctx), id_(id), committee_(committee), store_(ctx.header_index()) {
  store_.bind_tally(&ctx.fleet_tally(), id);
}

void RapidChainNode::on_message(sim::NodeId from, const sim::MessagePtr& msg) {
  if (const auto* s = dynamic_cast<const sync::SyncMessage*>(msg.get())) {
    handle_sync_message(from, *s);
    return;
  }
  if (const auto* chunk = dynamic_cast<const ChunkMsg*>(msg.get())) receive_chunk(*chunk);
}

void RapidChainNode::lead_dissemination(std::shared_ptr<const Block> block) {
  const Hash256 hash = block->hash();
  const std::size_t total = block->serialized_size();
  store_.put(HashedBlock(block, hash));
  ctx_.note_stored(hash);

  const auto& members = ctx_.committee_members(committee_);
  const auto m = static_cast<std::uint32_t>(members.size());
  if (m <= 1) return;

  // IDA: one distinct chunk per member; receivers flood chunks onward.
  auto make_chunk = [&](std::uint32_t index) {
    auto chunk = std::make_shared<ChunkMsg>();
    chunk->block_hash = hash;
    chunk->chunk_index = index;
    chunk->chunk_count = m;
    chunk->chunk_bytes = (total + m - 1) / m;
    return chunk;
  };
  std::uint32_t self_index = 0;
  for (std::uint32_t i = 0; i < m; ++i) {
    if (members[i] == id_) {
      self_index = i;
      continue;
    }
    ctx_.network().send(id_, members[i], make_chunk(i));
  }
  // The leader's own chunk must also enter the relay ring, or nobody can
  // ever reassemble: hand it to the ring successor.
  ctx_.network().send(id_, members[(self_index + 1) % m], make_chunk(self_index));
}

void RapidChainNode::receive_chunk(const ChunkMsg& msg) {
  auto& re = reassembly_[msg.block_hash];
  re.needed = msg.chunk_count;
  if (!re.chunks.insert(msg.chunk_index).second) return;  // duplicate: flood dies out

  // Forward the fresh chunk to this member's ring successors. Ring
  // forwarding guarantees every chunk eventually circulates the whole
  // committee (each fresh arrival is relayed onward; duplicates stop).
  // Forwarding continues even after local reassembly completed — cutting
  // the relay early would strand downstream members.
  const auto& members = ctx_.committee_members(committee_);
  const auto self =
      std::find(members.begin(), members.end(), id_) - members.begin();
  auto fwd = std::make_shared<ChunkMsg>(msg);
  const std::size_t m = members.size();
  for (std::size_t step = 1; step <= std::min(ctx_.gossip_degree(), m - 1); ++step) {
    const sim::NodeId next = members[(static_cast<std::size_t>(self) + step) % m];
    if (next == id_) continue;
    ctx_.network().send(id_, next, fwd);
  }

  if (!re.complete && re.chunks.size() >= re.needed) {
    re.complete = true;
    if (auto block = ctx_.pending_block(msg.block_hash)) {
      store_.put(HashedBlock(std::move(block), msg.block_hash));
      ctx_.note_stored(msg.block_hash);
    }
  }
}

bool RapidChainNode::sync_wants_body(const Hash256& hash, std::uint64_t /*height*/) {
  // A member stores a body iff the block hashes to its committee. Committee
  // peers only serve their own shard, so in practice every served header
  // passes; the check guards against cross-shard leakage.
  return ctx_.committee_of_block(hash) == committee_;
}

std::vector<sim::NodeId> RapidChainNode::sync_body_candidates(const Hash256& hash,
                                                              std::uint64_t /*height*/) {
  std::vector<sim::NodeId> out;
  for (sim::NodeId member : ctx_.committee_members(ctx_.committee_of_block(hash)))
    if (member != id_) out.push_back(member);
  return out;
}

// ---------------------------------------------------------------------------

RapidChainNetwork::RapidChainNetwork(RapidChainConfig cfg) : Host(cfg), cfg_(cfg) {
  if (cfg_.committee_count == 0 || cfg_.committee_count > cfg_.node_count)
    throw std::invalid_argument("RapidChainNetwork: bad committee_count");

  const auto infos =
      cluster::generate_topology(cfg_.node_count, cfg_.regions, cfg_.seed, 100.0, false);
  committees_.assign(cfg_.committee_count, {});
  for (const auto& info : infos)
    committees_[hashed_committee(info.id, cfg_.committee_count)].push_back(info.id);
  // Hash assignment can leave a committee empty at tiny scales; steal from
  // the largest so the model stays well-formed.
  for (auto& committee : committees_) {
    if (!committee.empty()) continue;
    auto& biggest = *std::max_element(
        committees_.begin(), committees_.end(),
        [](const auto& a, const auto& b) { return a.size() < b.size(); });
    committee.push_back(biggest.back());
    biggest.pop_back();
  }
  std::vector<std::size_t> committee_of(infos.size());
  for (std::size_t c = 0; c < committees_.size(); ++c)
    for (sim::NodeId id : committees_[c]) committee_of[id] = c;

  reserve_nodes(infos.size());
  for (const auto& info : infos) {
    const std::size_t c = committee_of[info.id];
    RapidChainNode& node = nodes_.emplace_back(*this, info.id, c);
    add_node(node, node.store(), info.coord);
  }
}

RapidChainNetwork::~RapidChainNetwork() = default;

std::size_t RapidChainNetwork::committee_of_block(const Hash256& hash) const {
  return static_cast<std::size_t>(
      Hash256::tagged("rc/block", hash.span()).low64() % cfg_.committee_count);
}

const std::vector<sim::NodeId>& RapidChainNetwork::committee_members(std::size_t c) const {
  return committees_.at(c);
}

void RapidChainNetwork::init_with_genesis(const Block& genesis) {
  begin_genesis();
  auto shared = std::make_shared<const Block>(genesis);
  const Hash256 hash = shared->hash();
  const std::size_t c = committee_of_block(hash);
  for (sim::NodeId id : committees_[c]) nodes_[id].store().put(HashedBlock(shared, hash));
}

sim::SimTime RapidChainNetwork::disseminate_and_settle(const Block& block) {
  require_genesis();
  auto shared = std::make_shared<const Block>(block);
  const Hash256 hash = shared->hash();
  const std::size_t c = committee_of_block(hash);
  const auto& members = committees_[c];

  pending_[hash] = shared;
  spreads_[hash] = Spread{simulator().now(), 0, members.size(), 0};

  const sim::NodeId leader = members[leader_cursor_++ % members.size()];
  nodes_[leader].lead_dissemination(shared);
  settle();

  pending_.erase(hash);
  const Spread& spread = spreads_.at(hash);
  if (spread.finished == 0) return 0;
  const sim::SimTime latency = spread.finished - spread.started;
  obs::TraceSink::global().record_sim("gossip/ida", static_cast<double>(latency));
  return latency;
}

std::shared_ptr<const Block> RapidChainNetwork::pending_block(const Hash256& hash) const {
  const auto it = pending_.find(hash);
  return it == pending_.end() ? nullptr : it->second;
}

void RapidChainNetwork::note_stored(const Hash256& hash) {
  const auto it = spreads_.find(hash);
  if (it == spreads_.end()) return;
  it->second.holders += 1;
  if (it->second.holders >= it->second.committee_size) it->second.finished = simulator().now();
}

void RapidChainNetwork::preload_chain(const Chain& chain) {
  require_genesis();
  for (std::size_t h = 1; h < chain.blocks().size(); ++h) {
    auto shared = std::make_shared<const Block>(chain.blocks()[h]);
    const Hash256 hash = shared->hash();
    const std::size_t c = committee_of_block(hash);
    for (sim::NodeId id : committees_[c]) nodes_[id].store().put(HashedBlock(shared, hash));
  }
}

sim::NodeId RapidChainNetwork::add_sync_joiner(sim::Coord coord) {
  const auto id = static_cast<sim::NodeId>(node_count());
  const std::size_t c = hashed_committee(id, cfg_.committee_count);
  RapidChainNode& node = nodes_.emplace_back(*this, id, c);
  add_node(node, node.store(), coord);
  committees_[c].push_back(id);
  return id;
}

std::vector<sim::NodeId> RapidChainNetwork::join_candidates(sim::NodeId joiner,
                                                            const sync::SyncConfig& cfg) {
  // Committee members by distance, probing a couple past the pull-peer
  // budget so offline/slow members don't starve the frontier.
  std::vector<sim::NodeId> members;
  for (sim::NodeId member : committees_[nodes_[joiner].committee()])
    if (member != joiner) members.push_back(member);
  return nearest(network().coord(joiner), std::move(members),
                 std::max<std::size_t>(cfg.max_peers * 2, 4));
}

void RapidChainNetwork::on_joined(const host::JoinReport& report) {
  if (report.complete)
    obs::TraceSink::global().record_sim("bootstrap/shard_sync",
                                        static_cast<double>(report.elapsed_us));
}

}  // namespace ici::baseline
