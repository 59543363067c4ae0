#include "baseline/fullrep.h"

#include <algorithm>
#include <stdexcept>

#include "cluster/node_info.h"
#include "common/rng.h"
#include "obs/trace.h"

namespace ici::baseline {

FullRepNode::FullRepNode(FullRepNetwork& ctx, sim::NodeId id)
    : ctx_(ctx), id_(id), store_(ctx.header_index()) {
  store_.bind_tally(&ctx.fleet_tally(), id);
}

void FullRepNode::seed_genesis(std::shared_ptr<const Block> genesis) {
  const Hash256 h = genesis->hash();
  if (ctx_.config().validate) {
    for (const Transaction& tx : genesis->txs()) utxo_.apply_tx(tx, 0);
  }
  store_.put(HashedBlock(std::move(genesis), h));
}

void FullRepNode::on_message(sim::NodeId from, const sim::MessagePtr& msg) {
  if (const auto* s = dynamic_cast<const sync::SyncMessage*>(msg.get())) {
    handle_sync_message(from, *s);
    return;
  }
  if (const auto* inv = dynamic_cast<const InvMsg*>(msg.get())) {
    if (!store_.has_block(inv->hash) && !requested_.contains(inv->hash)) {
      requested_.insert(inv->hash);
      auto req = std::make_shared<GetDataMsg>();
      req->hash = inv->hash;
      ctx_.network().send(id_, from, std::move(req));
    }
    return;
  }
  if (const auto* get = dynamic_cast<const GetDataMsg*>(msg.get())) {
    if (BlockRef ref = store_.block_by_hash(get->hash)) {
      auto resp = std::make_shared<GossipBlockMsg>();
      resp->block = ref.share();
      if (ref.io_delay_us > 0) {
        // Cold read: the response leaves once the body is off the media.
        ctx_.simulator().after(ref.io_delay_us, [this, from, resp = std::move(resp)] {
          ctx_.network().send(id_, from, resp);
        });
        return;
      }
      ctx_.network().send(id_, from, std::move(resp));
    }
    return;
  }
  if (const auto* gb = dynamic_cast<const GossipBlockMsg*>(msg.get())) {
    accept_block(gb->block, from);
  }
}

void FullRepNode::inject_block(std::shared_ptr<const Block> block) {
  accept_block(std::move(block), sim::kNoNode);
}

void FullRepNode::accept_block(std::shared_ptr<const Block> block, sim::NodeId from) {
  const Hash256 hash = block->hash();
  requested_.erase(hash);
  if (store_.has_block(hash)) return;

  if (ctx_.config().validate) {
    // Expected linkage: this model disseminates blocks in height order.
    const std::uint64_t tip = store_.header_count() == 0 ? 0 : store_.block_count() - 1;
    const auto parent = store_.header_at(tip);
    if (!parent) {
      ctx_.metrics().counter("fullrep.orphaned").inc();
      return;
    }
    const ValidationResult r =
        validator_.validate_and_apply(*block, parent->hash(), tip + 1, utxo_);
    if (!r) {
      ctx_.metrics().counter("fullrep.rejected").inc();
      return;
    }
    ctx_.metrics().counter("fullrep.validated").inc();
  }

  store_.put(HashedBlock(block, hash));
  ctx_.note_stored(hash);
  announce(hash, from);
}

void FullRepNode::announce(const Hash256& hash, sim::NodeId except) {
  auto inv = std::make_shared<InvMsg>();
  inv->hash = hash;
  for (sim::NodeId peer : ctx_.peers(id_)) {
    if (peer == except) continue;
    ctx_.network().send(id_, peer, inv);
  }
}

std::vector<sim::NodeId> FullRepNode::sync_body_candidates(const Hash256&,
                                                           std::uint64_t) {
  // Fallback for a body missing from a range response: any gossip peer.
  return ctx_.peers(id_);
}

// ---------------------------------------------------------------------------

FullRepNetwork::FullRepNetwork(FullRepConfig cfg) : Host(cfg), cfg_(cfg) {
  if (cfg_.node_count < 2) throw std::invalid_argument("FullRepNetwork: need >= 2 nodes");

  const auto infos =
      cluster::generate_topology(cfg_.node_count, host::kTopologyRegions, cfg_.seed);
  reserve_nodes(infos.size());
  for (const auto& info : infos) {
    FullRepNode& node = nodes_.emplace_back(*this, info.id);
    add_node(node, node.store(), info.coord);
  }

  // Random connected-ish peer graph: a ring (guarantees connectivity) plus
  // random extra edges up to kPeerDegree.
  Rng rng(cfg_.seed ^ 0xfeedULL);
  peers_.assign(nodes_.size(), {});
  auto link = [&](sim::NodeId a, sim::NodeId b) {
    if (a == b) return;
    auto& pa = peers_[a];
    if (std::find(pa.begin(), pa.end(), b) != pa.end()) return;
    pa.push_back(b);
    peers_[b].push_back(a);
  };
  const auto n = static_cast<sim::NodeId>(nodes_.size());
  for (sim::NodeId i = 0; i < n; ++i) link(i, (i + 1) % n);
  for (sim::NodeId i = 0; i < n; ++i) {
    while (peers_[i].size() < kPeerDegree) {
      link(i, static_cast<sim::NodeId>(rng.index(nodes_.size())));
    }
  }
}

FullRepNetwork::~FullRepNetwork() = default;

const std::vector<sim::NodeId>& FullRepNetwork::peers(sim::NodeId id) const {
  return peers_.at(id);
}

void FullRepNetwork::init_with_genesis(const Block& genesis) {
  begin_genesis();
  auto shared = std::make_shared<const Block>(genesis);
  for (std::size_t i = 0; i < nodes_.size(); ++i) nodes_[i].seed_genesis(shared);
}

sim::SimTime FullRepNetwork::disseminate_and_settle(const Block& block) {
  require_genesis();
  const Hash256 hash = block.hash();
  spreads_[hash] = Spread{simulator().now(), 0, 0};

  const auto proposer = static_cast<sim::NodeId>(proposer_cursor_++ % nodes_.size());
  nodes_[proposer].inject_block(std::make_shared<const Block>(block));
  settle();

  const Spread& spread = spreads_.at(hash);
  if (spread.finished == 0) return 0;  // did not reach everyone
  const sim::SimTime latency = spread.finished - spread.started;
  obs::TraceSink::global().record_sim("gossip/inv", static_cast<double>(latency));
  return latency;
}

void FullRepNetwork::note_stored(const Hash256& hash) {
  const auto it = spreads_.find(hash);
  if (it == spreads_.end()) return;
  it->second.holders += 1;
  if (it->second.holders >= network().online_count()) it->second.finished = simulator().now();
}

void FullRepNetwork::preload_chain(const Chain& chain) {
  require_genesis();
  for (std::size_t h = 1; h < chain.blocks().size(); ++h) {
    auto shared = std::make_shared<const Block>(chain.blocks()[h]);
    const Hash256 hash = shared->hash();
    for (std::size_t i = 0; i < nodes_.size(); ++i)
      nodes_[i].store().put(HashedBlock(shared, hash));
  }
}

sim::NodeId FullRepNetwork::add_sync_joiner(sim::Coord coord) {
  const auto id = static_cast<sim::NodeId>(node_count());
  FullRepNode& node = nodes_.emplace_back(*this, id);
  std::vector<sim::NodeId> existing(id);
  for (sim::NodeId i = 0; i < id; ++i) existing[i] = i;
  add_node(node, node.store(), coord);

  // Link the joiner to its kPeerDegree nearest nodes — the pull peers of the
  // multi-peer bulk sync.
  peers_.push_back(nearest(coord, std::move(existing), kPeerDegree));
  for (sim::NodeId peer : peers_.back()) peers_[peer].push_back(id);
  return id;
}

}  // namespace ici::baseline
