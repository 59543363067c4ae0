#include "ici/network.h"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>

#include "common/thread_pool.h"
#include "obs/trace.h"

namespace ici::core {

using cluster::NodeId;

namespace {

/// Weight the rendezvous assignment by node capacity (D2).
constexpr bool kCapacityWeightedAssignment = true;

std::unique_ptr<cluster::Clusterer> make_clusterer(const std::string& name,
                                                   std::uint64_t seed) {
  if (name == "kmeans") return std::make_unique<cluster::KMeansClusterer>(seed);
  if (name == "random") return std::make_unique<cluster::RandomClusterer>(seed);
  if (name == "grid") return std::make_unique<cluster::GridClusterer>();
  throw std::invalid_argument("unknown clustering strategy: " + name);
}

/// Joiner placement: the cluster whose members are nearest on average, the
/// same latency-aware choice the clustering made for the original
/// population.
std::size_t nearest_cluster(const cluster::ClusterDirectory& dir, sim::Coord coord) {
  std::size_t best_cluster = 0;
  double best_dist = std::numeric_limits<double>::max();
  for (std::size_t c = 0; c < dir.cluster_count(); ++c) {
    double total = 0.0;
    std::size_t count = 0;
    for (NodeId id : dir.members(c)) {
      total += sim::distance(coord, dir.info(id).coord);
      ++count;
    }
    if (count == 0) continue;
    const double mean = total / static_cast<double>(count);
    if (mean < best_dist) {
      best_dist = mean;
      best_cluster = c;
    }
  }
  return best_cluster;
}

}  // namespace

IciNetwork::IciNetwork(IciNetworkConfig cfg) : Host(cfg), cfg_(std::move(cfg)) {
  std::string why;
  if (!cfg_.ici.valid(&why)) throw std::invalid_argument("IciConfig: " + why);
  if (cfg_.node_count < cfg_.ici.cluster_count)
    throw std::invalid_argument("node_count must be >= cluster_count");

  infos_ = cluster::generate_topology(cfg_.node_count, host::kTopologyRegions, cfg_.seed);

  const auto clusterer = make_clusterer(cfg_.ici.clustering, cfg_.ici.seed);
  cluster::Clustering clustering = clusterer->cluster(infos_, cfg_.ici.cluster_count);
  directory_ = std::make_unique<cluster::ClusterDirectory>(infos_, std::move(clustering));

  assigner_ = std::make_unique<cluster::RendezvousAssigner>(kCapacityWeightedAssignment);
  if (cfg_.ici.erasure_data > 0) {
    codec_ = std::make_unique<erasure::ReedSolomon>(cfg_.ici.erasure_data,
                                                    cfg_.ici.erasure_parity);
  }

  reserve_nodes(infos_.size());
  for (const cluster::NodeInfo& info : infos_) {
    IciNode& node = nodes_.emplace_back(*this, info.id);
    add_node(node, node.store(), info.coord);
  }

  // The newest network drives the trace sink's sim clock; the token keeps a
  // dying network from yanking a newer one's clock in multi-network benches.
  trace_clock_token_ =
      obs::TraceSink::global().set_sim_clock([this] { return simulator().now(); });
}

IciNetwork::~IciNetwork() { obs::TraceSink::global().clear_sim_clock(trace_clock_token_); }

std::vector<NodeId> IciNetwork::storers_of(const Hash256& hash, std::uint64_t height,
                                           std::size_t cluster, bool online_only) const {
  // Stable assignment over the full membership; offline assignees are
  // filtered (not replaced) unless nobody is left, in which case assignment
  // falls back to the online members (emergency placement).
  std::vector<NodeId> stable = assigner_->storers(
      hash, height, directory_->member_infos(cluster), cfg_.ici.replication);
  if (!online_only) return stable;

  std::vector<NodeId> online;
  for (NodeId id : stable) {
    if (directory_->online(id)) online.push_back(id);
  }
  if (!online.empty()) return online;

  const std::vector<cluster::NodeInfo> alive = directory_->online_members(cluster);
  if (alive.empty()) return {};
  return assigner_->storers(hash, height, alive, cfg_.ici.replication);
}

std::vector<NodeId> IciNetwork::fetch_candidates(const Hash256& hash, std::uint64_t height,
                                                 std::size_t cluster, NodeId exclude) const {
  const std::vector<NodeId> ranked = assigner_->storers(
      hash, height, directory_->member_infos(cluster), cfg_.ici.replication + 2);
  std::vector<NodeId> out;
  for (NodeId id : ranked) {
    if (id != exclude && directory_->online(id)) out.push_back(id);
  }

  if (cfg_.ici.cross_cluster_fallback) {
    // The network stores one copy per cluster: append the primary storers
    // of every other cluster as last-resort candidates (own cluster first —
    // they are closer under latency-aware clustering).
    for (std::size_t other = 0; other < directory_->cluster_count(); ++other) {
      if (other == cluster) continue;
      for (NodeId id : storers_of(hash, height, other, /*online_only=*/true)) {
        if (id != exclude) out.push_back(id);
      }
    }
  }
  return out;
}

namespace {

Hash256 utxo_owner_key(const OutPoint& op) {
  return cluster::tagged_with_u32("ici/utxo", op.txid, op.index);
}

// Rendezvous hashes per parallel_for chunk of the genesis owner table
// (~1 ms of work).
constexpr std::size_t kGenesisHashesPerChunk = 16'384;

}  // namespace

NodeId IciNetwork::utxo_owner(const OutPoint& op, std::size_t cluster) const {
  return shard_owner_assigner_.top(utxo_owner_key(op), directory_->member_infos(cluster));
}

void IciNetwork::init_with_genesis(const Block& genesis) {
  begin_genesis();
  const Hash256 hash = genesis.hash();

  std::vector<erasure::Shard> genesis_shards;
  if (coded()) {
    const Bytes payload = genesis.serialize();
    genesis_shards = codec_->encode(ByteSpan(payload.data(), payload.size()));
  }

  // Owner keys once per outpoint, in genesis order (tx order, then output
  // index) — the order seed_genesis walks.
  std::vector<Hash256> keys;
  for (const Transaction& tx : genesis.txs()) {
    for (std::uint32_t i = 0; i < tx.outputs().size(); ++i) {
      keys.push_back(utxo_owner_key(OutPoint{tx.txid(), i}));
    }
  }
  const std::size_t outs = keys.size();
  const std::size_t cluster_count = directory_->cluster_count();

  // Owner table, cell c * outs + j = owner of outpoint j in cluster c: one
  // rendezvous pass per (cluster, outpoint), tiled over both so a fleet of
  // a few clusters still spreads over every lane. Each cell is written by
  // exactly one chunk; keys and membership are read-only meanwhile.
  const std::size_t mean_members =
      std::max<std::size_t>(1, directory_->node_count() / cluster_count);
  const std::size_t grain = std::max<std::size_t>(1, kGenesisHashesPerChunk / mean_members);
  std::vector<NodeId> owners(cluster_count * outs);
  ThreadPool::global().parallel_for(0, owners.size(), grain, [&](std::size_t b, std::size_t e) {
    for (std::size_t cell = b; cell < e; ++cell) {
      owners[cell] =
          shard_owner_assigner_.top(keys[cell % outs], directory_->member_infos(cell / outs));
    }
  });

  // Members seed serially, cluster by cluster, from their cluster's row.
  for (std::size_t c = 0; c < cluster_count; ++c) {
    const std::span<const NodeId> table(owners.data() + c * outs, outs);
    if (coded()) {
      const std::vector<NodeId> holders = shard_holders(hash, 0, c);
      std::unordered_map<NodeId, const erasure::Shard*> shard_of;
      for (std::size_t i = 0; i < holders.size(); ++i) {
        shard_of[holders[i]] = &genesis_shards[i];
      }
      for (NodeId id : directory_->members(c)) {
        const auto it = shard_of.find(id);
        nodes_[id].seed_genesis(genesis, table, /*is_storer=*/false,
                                 it == shard_of.end() ? nullptr : it->second);
      }
    } else {
      const std::vector<NodeId> storers = storers_of(hash, 0, c, /*online_only=*/false);
      for (NodeId id : directory_->members(c)) {
        const bool is_storer = std::find(storers.begin(), storers.end(), id) != storers.end();
        nodes_[id].seed_genesis(genesis, table, is_storer);
      }
    }
  }
  committed_.push_back({hash, 0, genesis.serialized_size()});
  committed_index_.emplace(hash, 0);
}

std::vector<NodeId> IciNetwork::shard_holders(const Hash256& hash, std::uint64_t height,
                                              std::size_t cluster) const {
  if (!coded()) throw std::logic_error("shard_holders: coding disabled");
  return assigner_->storers(hash, height, directory_->member_infos(cluster),
                            codec_->total_shards());
}

void IciNetwork::disseminate(const Block& block) {
  require_genesis();
  // Rotate through online proposers.
  NodeId proposer = cluster::kNoNode;
  for (std::size_t tries = 0; tries < nodes_.size(); ++tries) {
    const NodeId candidate = static_cast<NodeId>(proposer_cursor_++ % nodes_.size());
    if (directory_->online(candidate)) {
      proposer = candidate;
      break;
    }
  }
  if (proposer == cluster::kNoNode) throw std::runtime_error("no online proposer available");

  progress_[block.hash()] = CommitProgress{0, simulator().now(), 0};
  nodes_[proposer].propose(block);
}

sim::SimTime IciNetwork::disseminate_and_settle(const Block& block) {
  disseminate(block);
  settle();
  const auto it = progress_.find(block.hash());
  if (it == progress_.end() || it->second.fully_committed_at == 0) return 0;
  const sim::SimTime latency = it->second.fully_committed_at - it->second.proposed_at;
  obs::TraceSink::global().record_sim("disseminate/full_commit", static_cast<double>(latency));
  return latency;
}

void IciNetwork::note_commit(const Block& block) {
  const Hash256 hash = block.hash();
  auto& prog = progress_[hash];
  prog.clusters_committed += 1;
  if (prog.clusters_committed == 1) {
    committed_index_.emplace(hash, committed_.size());
    committed_.push_back({hash, block.header().height, block.serialized_size()});
  }
  if (prog.clusters_committed == directory_->cluster_count()) {
    prog.fully_committed_at = simulator().now();
  }
}

sim::SimTime IciNetwork::full_commit_time(const Hash256& hash) const {
  const auto it = progress_.find(hash);
  if (it == progress_.end()) return 0;
  return it->second.fully_committed_at;
}

void IciNetwork::preload_chain(const Chain& chain, bool build_tx_index) {
  require_genesis();
  const std::size_t k = directory_->cluster_count();

  for (std::size_t h = 1; h < chain.blocks().size(); ++h) {
    const Block& block = chain.blocks()[h];
    const Hash256 hash = block.hash();
    if (coded()) {
      const Bytes payload = block.serialize();
      const auto shards = codec_->encode(ByteSpan(payload.data(), payload.size()));
      for (std::size_t c = 0; c < k; ++c) {
        const std::vector<NodeId> holders = shard_holders(hash, h, c);
        for (std::size_t i = 0; i < holders.size(); ++i) {
          nodes_[holders[i]].shards().put(hash, shards[i]);
        }
      }
    } else {
      // One shared object per block; every storer's accounting still
      // charges the full serialized size.
      auto shared = std::make_shared<const Block>(block);
      for (std::size_t c = 0; c < k; ++c) {
        for (NodeId id : storers_of(hash, h, c, /*online_only=*/false)) {
          nodes_[id].store().put(HashedBlock(shared, hash));
        }
      }
    }
    // One intern in the shared HeaderIndex, then a bitmap mark per node.
    for (std::size_t id = 0; id < nodes_.size(); ++id) {
      nodes_[id].store().put(StoredBlock::header_only(block.header(), hash));
    }
    if (build_tx_index) {
      for (const Transaction& tx : block.txs()) {
        const Hash256& txid = tx.txid();
        for (std::size_t c = 0; c < k; ++c) {
          nodes_[utxo_owner(OutPoint{txid, 0}, c)].index_tx(txid, hash, h);
        }
      }
    }
    committed_index_.emplace(hash, committed_.size());
    committed_.push_back({hash, h, block.serialized_size()});
  }
}

void IciNetwork::start_repair_daemon(sim::SimTime interval_us, sim::SimTime until_us) {
  repair_daemon_ = std::make_unique<cluster::RepairDaemon>(simulator(), interval_us, until_us, [this] {
    for (std::size_t c = 0; c < directory_->cluster_count(); ++c) repair_cluster(c);
  });
  repair_daemon_->start();
}

void IciNetwork::on_status_change(NodeId id, bool online) {
  directory_->set_online(id, online);
  repair_cluster(directory_->cluster_of(id));
}

void IciNetwork::repair_cluster(std::size_t cluster) {
  if (coded()) {
    repair_cluster_coded(cluster);
    return;
  }
  const std::vector<cluster::NodeInfo> alive = directory_->online_members(cluster);
  std::vector<cluster::BlockRef> ledger;
  ledger.reserve(committed_.size());
  for (const CommittedBlock& b : committed_) ledger.push_back({b.hash, b.height});

  const cluster::RepairPlan plan = cluster::plan_repair(
      ledger, alive, *assigner_, cfg_.ici.replication,
      [this](NodeId id, const Hash256& h) { return nodes_[id].store().has_block(h); });

  for (const cluster::RepairAction& action : plan.actions) {
    nodes_[action.target].pull_from(action.source, action.block_hash);
    metrics().counter("repair.copies_started").inc();
  }

  // Blocks every local holder lost: optionally restore them from another
  // cluster's storers (the network keeps one copy per cluster), so a cluster
  // wiped out by crashes regains its full ledger instead of waiting for
  // holders to come back.
  std::size_t unrecoverable = plan.lost.size();
  if (cfg_.ici.cross_cluster_repair && !plan.lost.empty() && !alive.empty()) {
    for (const cluster::BlockRef& ref : plan.lost) {
      NodeId source = cluster::kNoNode;
      for (std::size_t other = 0; other < directory_->cluster_count() && source == cluster::kNoNode;
           ++other) {
        if (other == cluster) continue;
        for (NodeId id : storers_of(ref.hash, ref.height, other, /*online_only=*/true)) {
          if (nodes_[id].store().has_block(ref.hash)) {
            source = id;
            break;
          }
        }
      }
      if (source == cluster::kNoNode) continue;  // lost network-wide
      const std::vector<NodeId> want =
          assigner_->storers(ref.hash, ref.height, alive, cfg_.ici.replication);
      if (want.empty()) continue;
      nodes_[want.front()].pull_from(source, ref.hash);
      metrics().counter("repair.cross_cluster_copies").inc();
      --unrecoverable;
    }
  }
  metrics().counter("repair.unavailable_blocks").inc(unrecoverable);
}

void IciNetwork::repair_cluster_coded(std::size_t cluster) {
  // For every block whose assigned holders include offline members, hand
  // the missing shard indices to the next alive ranked members, which
  // reconstruct from the surviving shards. Blocks with fewer than d online
  // shards are unrecoverable inside the cluster until holders return.
  const std::size_t d = codec_->data_shards();
  std::vector<cluster::NodeInfo> alive_members = directory_->online_members(cluster);

  for (const CommittedBlock& b : committed_) {
    const std::vector<NodeId> holders = shard_holders(b.hash, b.height, cluster);
    // Which shard indices are currently held by an online member anywhere?
    std::size_t online_shards = 0;
    std::vector<std::uint32_t> missing;
    for (std::uint32_t i = 0; i < holders.size(); ++i) {
      bool held_online = false;
      for (const cluster::NodeInfo& m : alive_members) {
        if (nodes_[m.id].shards().has(b.hash, i) && directory_->online(m.id)) {
          held_online = true;
          break;
        }
      }
      if (held_online) {
        ++online_shards;
      } else {
        missing.push_back(i);
      }
    }
    if (missing.empty()) continue;
    if (online_shards < d) {
      metrics().counter("repair.unavailable_blocks").inc();
      continue;
    }
    // Replacements: alive members beyond the holder list, rendezvous order.
    const std::vector<NodeId> ranked =
        assigner_->storers(b.hash, b.height, alive_members, alive_members.size());
    std::size_t cursor = 0;
    for (std::uint32_t index : missing) {
      NodeId replacement = cluster::kNoNode;
      while (cursor < ranked.size()) {
        const NodeId candidate = ranked[cursor++];
        if (!nodes_[candidate].shards().has_any(b.hash)) {
          replacement = candidate;
          break;
        }
      }
      if (replacement == cluster::kNoNode) break;  // cluster too small/busy
      nodes_[replacement].repair_shard(b.hash, b.height, index);
      metrics().counter("repair.shards_started").inc();
    }
  }
}

double IciNetwork::availability() const {
  if (committed_.empty()) return 1.0;
  std::size_t available = 0;
  std::size_t total = 0;
  for (std::size_t c = 0; c < directory_->cluster_count(); ++c) {
    const auto& members = directory_->members(c);
    for (const CommittedBlock& b : committed_) {
      ++total;
      if (coded()) {
        // Coded: the cluster can serve the block iff ≥ d distinct shard
        // indices live on online members.
        std::vector<bool> seen(codec_->total_shards(), false);
        std::size_t distinct = 0;
        for (NodeId id : members) {
          if (!directory_->online(id)) continue;
          for (std::uint32_t index : nodes_[id].shards().indices(b.hash)) {
            if (index < seen.size() && !seen[index]) {
              seen[index] = true;
              ++distinct;
            }
          }
        }
        if (distinct >= codec_->data_shards()) ++available;
      } else {
        for (NodeId id : members) {
          if (directory_->online(id) && nodes_[id].store().has_block(b.hash)) {
            ++available;
            break;
          }
        }
      }
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(available) / static_cast<double>(total);
}

double IciNetwork::network_availability() const {
  if (committed_.empty()) return 1.0;
  std::size_t available = 0;
  for (const CommittedBlock& b : committed_) {
    bool servable = false;
    if (coded()) {
      // Decodable iff ≥ d distinct shard indices are online across the
      // whole network (shard encodings are identical in every cluster).
      std::vector<bool> seen(codec_->total_shards(), false);
      std::size_t distinct = 0;
      for (std::size_t id = 0; id < nodes_.size() && !servable; ++id) {
        if (!directory_->online(static_cast<NodeId>(id))) continue;
        for (std::uint32_t index : nodes_[id].shards().indices(b.hash)) {
          if (index < seen.size() && !seen[index]) {
            seen[index] = true;
            if (++distinct >= codec_->data_shards()) {
              servable = true;
              break;
            }
          }
        }
      }
    } else {
      for (std::size_t id = 0; id < nodes_.size(); ++id) {
        if (directory_->online(static_cast<NodeId>(id)) &&
            nodes_[id].store().has_block(b.hash)) {
          servable = true;
          break;
        }
      }
    }
    if (servable) ++available;
  }
  return static_cast<double>(available) / static_cast<double>(committed_.size());
}

StorageSnapshot IciNetwork::storage_snapshot() const {
  // Pure SoA scan: one pass over the contiguous tally rows, no node-object
  // pointer chasing. Matches IciNode::storage_bytes() per construction.
  StorageSnapshot snap;
  RunningStat stat;
  for (const NodeStorageTally& t : fleet_tally().slots()) {
    const std::uint64_t bytes = t.body_bytes +
                                static_cast<std::uint64_t>(t.header_count) *
                                    BlockHeader::kWireSize +
                                t.shard_bytes + t.utxo_entries * kUtxoEntryBytes;
    stat.add(static_cast<double>(bytes));
    snap.total_bytes += bytes;
  }
  snap.mean_bytes = stat.mean();
  snap.max_bytes = stat.max();
  snap.min_bytes = stat.min();
  snap.cv = stat.cv();
  snap.node_count = nodes_.size();
  return snap;
}

IciNetwork::ReconfigReport IciNetwork::reconfigure(std::uint64_t epoch_seed) {
  if (coded()) throw std::logic_error("reconfigure: coded-mode migration not supported");

  ReconfigReport report;

  // New epoch clustering over the current population.
  const auto clusterer = make_clusterer(cfg_.ici.clustering, epoch_seed);
  cluster::Clustering clustering = clusterer->cluster(infos_, cfg_.ici.cluster_count);

  // Label-invariant movement count: cluster indices are arbitrary labels, so
  // greedily match each new cluster to the old cluster it overlaps most and
  // count the members outside the matched overlap.
  {
    const std::size_t k = directory_->cluster_count();
    std::vector<std::vector<std::size_t>> overlap(clustering.clusters.size(),
                                                  std::vector<std::size_t>(k, 0));
    for (std::size_t nc = 0; nc < clustering.clusters.size(); ++nc) {
      for (NodeId id : clustering.clusters[nc]) {
        ++overlap[nc][directory_->cluster_of(id)];
      }
    }
    std::vector<bool> old_used(k, false);
    std::size_t matched = 0;
    for (std::size_t round = 0; round < clustering.clusters.size(); ++round) {
      std::size_t best_new = 0, best_old = 0, best = 0;
      bool found = false;
      for (std::size_t nc = 0; nc < overlap.size(); ++nc) {
        if (overlap[nc].empty()) continue;
        for (std::size_t oc = 0; oc < k; ++oc) {
          if (old_used[oc]) continue;
          if (overlap[nc][oc] >= best) {
            best = overlap[nc][oc];
            best_new = nc;
            best_old = oc;
            found = true;
          }
        }
      }
      if (!found) break;
      matched += best;
      old_used[best_old] = true;
      overlap[best_new].clear();
    }
    report.nodes_moved = infos_.size() - matched;
  }

  // Preserve liveness across the directory swap.
  std::vector<std::pair<NodeId, bool>> liveness;
  for (const cluster::NodeInfo& info : infos_) {
    liveness.emplace_back(info.id, directory_->online(info.id));
  }
  auto fresh = std::make_unique<cluster::ClusterDirectory>(infos_, std::move(clustering));
  for (const auto& [id, online] : liveness) fresh->set_online(id, online);
  directory_ = std::move(fresh);

  // Every new cluster must regain the full ledger: pull each block a new
  // assignee lacks from its nearest current holder (possibly cross-cluster
  // — the old placement is the data source for the epoch handover).
  for (const CommittedBlock& b : committed_) {
    // Holders anywhere in the network right now.
    std::vector<NodeId> holders;
    for (std::size_t id = 0; id < nodes_.size(); ++id) {
      if (nodes_[id].store().has_block(b.hash)) holders.push_back(static_cast<NodeId>(id));
    }
    if (holders.empty()) continue;  // unrecoverable; counted by availability
    for (std::size_t c = 0; c < directory_->cluster_count(); ++c) {
      for (NodeId target : storers_of(b.hash, b.height, c, /*online_only=*/false)) {
        if (nodes_[target].store().has_block(b.hash)) continue;
        NodeId source = holders.front();
        double best = std::numeric_limits<double>::max();
        for (NodeId h : holders) {
          if (!directory_->online(h)) continue;
          const double d = network().propagation_us(target, h);
          if (d < best) {
            best = d;
            source = h;
          }
        }
        nodes_[target].pull_from(source, b.hash);
        ++report.copies_started;
        metrics().counter("reconfig.copies_started").inc();
      }
    }
  }
  return report;
}

std::uint64_t IciNetwork::prune_unassigned() {
  std::uint64_t freed = 0;
  for (const CommittedBlock& b : committed_) {
    for (std::size_t c = 0; c < directory_->cluster_count(); ++c) {
      const std::vector<NodeId> want = storers_of(b.hash, b.height, c, /*online_only=*/false);
      // Only prune when the assigned set actually holds the block, so a
      // premature prune can never create a coverage hole.
      const bool covered = std::all_of(want.begin(), want.end(), [&](NodeId id) {
        return nodes_[id].store().has_block(b.hash);
      });
      if (!covered) continue;
      for (NodeId id : directory_->members(c)) {
        if (std::find(want.begin(), want.end(), id) != want.end()) continue;
        freed += nodes_[id].prune(b.hash);
      }
    }
  }
  if (freed > 0) metrics().counter("reconfig.prunes").inc();
  return freed;
}

NodeId IciNetwork::add_joiner(sim::Coord coord, std::size_t cluster) {
  cluster::NodeInfo info;
  info.id = static_cast<NodeId>(nodes_.size());
  info.coord = coord;
  info.capacity = 1.0;
  infos_.push_back(info);
  directory_->add_member(info, cluster);
  IciNode& node = nodes_.emplace_back(*this, info.id);
  add_node(node, node.store(), coord);
  return info.id;
}

sim::NodeId IciNetwork::add_sync_joiner(sim::Coord coord) {
  return add_joiner(coord, nearest_cluster(*directory_, coord));
}

std::vector<sim::NodeId> IciNetwork::join_candidates(sim::NodeId joiner,
                                                     const sync::SyncConfig& cfg) {
  // Cluster peers by distance, probing a couple past the pull-peer budget
  // so offline/slow peers don't starve the frontier.
  std::vector<sim::NodeId> members;
  for (NodeId id : directory_->members(directory_->cluster_of(joiner)))
    if (id != joiner) members.push_back(id);
  return nearest(network().coord(joiner), std::move(members),
                 std::max<std::size_t>(cfg.max_peers * 2, 4));
}

}  // namespace ici::core
