#include "ici/node.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/thread_pool.h"
#include "ici/network.h"
#include "obs/trace.h"

namespace ici::core {

using cluster::NodeId;

namespace {

/// Digest a member commits to in its vote: the txids it verified.
Hash256 slice_digest_of(const std::vector<Transaction>& txs) {
  ByteWriter w(txs.size() * 32);
  for (const Transaction& tx : txs) w.raw(tx.txid().span());
  return Hash256::tagged("ici/slice", ByteSpan(w.bytes().data(), w.bytes().size()));
}

Bytes vote_payload(const Hash256& block_hash, bool approve, const Hash256& slice_digest,
                   const std::optional<Hash256>& challenge) {
  ByteWriter w(102);
  w.raw(block_hash.span());
  w.u8(approve ? 1 : 0);
  w.raw(slice_digest.span());
  w.u8(challenge ? 1 : 0);
  if (challenge) w.raw(challenge->span());
  return w.take();
}

// Transactions per parallel_for chunk in slice verification. A tx check is
// a handful of SHA-256 invocations (signature re-derivation dominates), so
// small chunks would drown in dispatch; 8 keeps chunk cost in the tens of
// microseconds while still splitting paper-sized slices across workers.
constexpr std::size_t kSliceVerifyGrain = 8;

/// Fraction of online members whose approval commits a block (D4).
constexpr double kVoteQuorum = 2.0 / 3.0;

/// Head gives up waiting for votes after this much simulated time and
/// commits/aborts on what it has.
constexpr sim::SimTime kVerifyTimeoutUs = 30'000'000;

/// A member gives up on outstanding UTXO-shard lookups after this long and
/// votes with what it knows (missing lookups count as unknown, which the
/// member treats as approve-with-caveat; see IciNode::finish_slice).
constexpr sim::SimTime kLookupTimeoutUs = 5'000'000;

/// A fetching node tries the next candidate storer after this long.
constexpr sim::SimTime kFetchTimeoutUs = 10'000'000;

/// Per-attempt timeout multiplier applied on each retry round
/// (IciConfig::fetch_retry_rounds).
constexpr double kFetchRetryBackoff = 2.0;

}  // namespace

IciNode::IciNode(IciNetwork& ctx, NodeId id)
    : ctx_(ctx), id_(id), key_(KeyPair::from_seed(0x1c1'0000ULL + id)),
      store_(ctx.header_index()) {
  // Hot storage scalars live in the fleet's contiguous tally row for this
  // id; the stores write through it (fleet_tally.h).
  store_.bind_tally(&ctx.fleet_tally(), id);
  shard_store_.bind_tally(&ctx.fleet_tally(), id);
}

void IciNode::seed_genesis(const Block& genesis, std::span<const NodeId> owners,
                           bool is_storer, const erasure::Shard* shard) {
  std::size_t outputs = 0;
  for (const Transaction& tx : genesis.txs()) outputs += tx.outputs().size();
  if (owners.size() != outputs)
    throw std::invalid_argument("seed_genesis: owner table does not match genesis outputs");
  const Hash256 h = genesis.hash();
  if (is_storer) {
    store_.put(HashedBlock(genesis, h));
  } else {
    store_.put(StoredBlock::header_only(genesis.header(), h));
  }
  if (shard != nullptr) shard_store_.put(h, *shard);
  auto& tally = ctx_.fleet_tally().slot(id_);
  std::size_t j = 0;
  for (const Transaction& tx : genesis.txs()) {
    const Hash256& id = tx.txid();
    for (std::uint32_t i = 0; i < tx.outputs().size(); ++i, ++j) {
      if (owners[j] != id_) continue;
      const OutPoint op{id, i};
      if (shard_.emplace(op, tx.outputs()[i]).second) ++tally.utxo_entries;
      if (i == 0) tx_index_[id] = {h, 0};
    }
  }
}

void IciNode::index_tx(const Hash256& txid, const Hash256& block_hash, std::uint64_t height) {
  tx_index_[txid] = {block_hash, height};
}

void IciNode::on_message(sim::NodeId from, const sim::MessagePtr& msg) {
  if (const auto* s = dynamic_cast<const sync::SyncMessage*>(msg.get())) {
    handle_sync_message(from, *s);
    return;
  }
  const auto* m = dynamic_cast<const IciMessage*>(msg.get());
  if (m == nullptr) return;  // foreign message type; not ours
  switch (m->kind()) {
    case MsgKind::kFullBlock:
      handle_full_block(from, static_cast<const FullBlockMsg&>(*m));
      break;
    case MsgKind::kSlice:
      handle_slice(from, static_cast<const SliceMsg&>(*m));
      break;
    case MsgKind::kUtxoLookup:
      handle_utxo_lookup(from, static_cast<const UtxoLookupMsg&>(*m));
      break;
    case MsgKind::kUtxoResponse:
      handle_utxo_response(from, static_cast<const UtxoResponseMsg&>(*m));
      break;
    case MsgKind::kVote:
      handle_vote(from, static_cast<const VoteMsg&>(*m));
      break;
    case MsgKind::kCommit:
      handle_commit(from, static_cast<const CommitMsg&>(*m));
      break;
    case MsgKind::kBlockRequest:
      handle_block_request(from, static_cast<const BlockRequestMsg&>(*m));
      break;
    case MsgKind::kBlockResponse:
      handle_block_response(from, static_cast<const BlockResponseMsg&>(*m));
      break;
    case MsgKind::kInventoryRequest:
      handle_inventory_request(from, static_cast<const InventoryRequestMsg&>(*m));
      break;
    case MsgKind::kInventoryResponse:
      // Only repair drivers consume these today; a node ignores strays.
      break;
    case MsgKind::kBlockShard:
      handle_block_shard(from, static_cast<const BlockShardMsg&>(*m));
      break;
    case MsgKind::kShardRequest:
      handle_shard_request(from, static_cast<const ShardRequestMsg&>(*m));
      break;
    case MsgKind::kShardResponse:
      handle_shard_response(from, static_cast<const ShardResponseMsg&>(*m));
      break;
    case MsgKind::kProofRequest:
      handle_proof_request(from, static_cast<const ProofRequestMsg&>(*m));
      break;
    case MsgKind::kProofResponse:
      handle_proof_response(from, static_cast<const ProofResponseMsg&>(*m));
      break;
    case MsgKind::kTxLocateRequest:
      handle_tx_locate_request(from, static_cast<const TxLocateRequestMsg&>(*m));
      break;
    case MsgKind::kTxLocateResponse:
      handle_tx_locate_response(from, static_cast<const TxLocateResponseMsg&>(*m));
      break;
  }
}

// ---------------------------------------------------------------------------
// Proposer
// ---------------------------------------------------------------------------

void IciNode::propose(const Block& block) {
  auto msg =
      std::make_shared<FullBlockMsg>(std::make_shared<const Block>(block), /*verify=*/true);
  const std::uint64_t height = block.header().height;
  for (std::size_t c = 0; c < ctx_.directory().cluster_count(); ++c) {
    const auto head = ctx_.directory().head(c, height);
    if (!head) {
      ctx_.metrics().counter("propose.headless_cluster").inc();
      continue;
    }
    ctx_.network().send(id_, *head, msg);
  }
}

// ---------------------------------------------------------------------------
// Head role
// ---------------------------------------------------------------------------

void IciNode::handle_full_block(sim::NodeId from, const FullBlockMsg& msg) {
  (void)from;
  if (msg.for_verification) {
    start_cluster_verification(msg.block);
  } else {
    // Storage hand-off from a committing head.
    store_.put(HashedBlock(msg.block));
    ctx_.metrics().counter("storage.bodies_received").inc();
  }
}

void IciNode::start_cluster_verification(std::shared_ptr<const Block> block) {
  const Hash256 hash = block->hash();
  if (verifying_.contains(hash) || store_.has_block(hash)) return;

  // Structural checks the head performs on the whole block: Merkle
  // consistency and no duplicate outpoints across transactions (cross-slice
  // conflicts individual members cannot see).
  {
    const obs::Span span("verify/head_checks");
    if (!block->merkle_ok()) {
      ctx_.metrics().counter("verify.head_rejected").inc();
      return;
    }
    std::unordered_set<OutPoint, OutPointHasher> spent;
    for (const Transaction& tx : block->txs()) {
      for (const TxInput& in : tx.inputs()) {
        if (!spent.insert(in.prevout).second) {
          ctx_.metrics().counter("verify.head_rejected").inc();
          return;
        }
      }
    }
  }

  const std::size_t my_cluster = ctx_.directory().cluster_of(id_);
  const std::vector<cluster::NodeInfo> members = ctx_.directory().online_members(my_cluster);
  if (members.empty()) return;

  PendingVerify pv;
  pv.block = block;
  pv.expected = members.size();
  pv.started = ctx_.simulator().now();
  verifying_.emplace(hash, std::move(pv));

  // Contiguous slices, sizes differing by at most one.
  const std::size_t n = block->txs().size();
  const std::size_t m = members.size();
  std::size_t begin = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t len = n / m + (i < n % m ? 1 : 0);
    auto slice = std::make_shared<SliceMsg>();
    slice->header = block->header();
    slice->block_hash = hash;
    slice->first_index = static_cast<std::uint32_t>(begin);
    slice->total_txs = static_cast<std::uint32_t>(n);
    slice->txs.assign(block->txs().begin() + static_cast<std::ptrdiff_t>(begin),
                      block->txs().begin() + static_cast<std::ptrdiff_t>(begin + len));
    begin += len;
    ctx_.network().send(id_, members[i].id, std::move(slice));
  }
  ctx_.metrics().counter("verify.rounds_started").inc();

  ctx_.simulator().after(kVerifyTimeoutUs, [this, hash] {
    const auto it = verifying_.find(hash);
    if (it == verifying_.end() || it->second.decided) return;
    PendingVerify& pv = it->second;
    // Timeout: stop waiting for silent members; the quorum is judged over
    // the votes that actually arrived (disproven challenges still count as
    // received votes, so byzantine challengers cannot shrink the
    // denominator). An unresolved challenge at the hard deadline is
    // treated as unproven fraud: too risky to commit, abort.
    const auto need = static_cast<std::size_t>(std::ceil(
        kVoteQuorum * static_cast<double>(std::max<std::size_t>(pv.votes_received, 1))));
    if (pv.expected > pv.votes_received) {
      ctx_.metrics().counter("verify.votes_missing").inc(pv.expected - pv.votes_received);
    }
    if (pv.challenges_pending == 0 && pv.approvals > 0 && pv.approvals >= need) {
      commit_block(hash);
    } else {
      pv.decided = true;
      ctx_.metrics().counter("verify.aborted").inc();
      verifying_.erase(it);
    }
  });
}

void IciNode::handle_vote(sim::NodeId from, const VoteMsg& msg) {
  const auto it = verifying_.find(msg.block_hash);
  if (it == verifying_.end()) {
    ctx_.metrics().counter("verify.late_votes").inc();
    return;
  }
  const Bytes payload =
      vote_payload(msg.block_hash, msg.approve, msg.slice_digest, msg.challenged_txid);
  if (!verify(msg.voter, payload, msg.sig)) {
    ctx_.metrics().counter("verify.bad_vote_sig").inc();
    return;
  }
  // One vote per member: injected duplicate deliveries (sim/faults.h) must
  // not inflate the tally. Fault-free runs never see a second copy, so this
  // guard leaves their metrics untouched.
  if (!it->second.voters.insert(from).second) {
    ctx_.metrics().counter("verify.duplicate_votes").inc();
    return;
  }
  ++it->second.votes_received;
  if (msg.approve) {
    ++it->second.approvals;
  } else if (msg.challenged_txid) {
    // A substantiated rejection: re-verify the named transaction ourselves.
    // The decision is held open until the challenge resolves; confirmed
    // fraud vetoes the block, a disproven challenge is discarded so
    // byzantine rejections gain no veto power.
    start_challenge(msg.block_hash, *msg.challenged_txid);
  } else {
    ++it->second.rejections;
  }
  maybe_decide(msg.block_hash);
}

void IciNode::maybe_decide(const Hash256& block_hash) {
  const auto it = verifying_.find(block_hash);
  if (it == verifying_.end() || it->second.decided) return;
  PendingVerify& pv = it->second;
  if (pv.challenges_pending > 0) return;  // fraud check in flight
  const auto need =
      static_cast<std::size_t>(std::ceil(kVoteQuorum * static_cast<double>(pv.expected)));
  // Commit only once every online member has spoken (or, via the timeout
  // path, stopped being waited for): a still-outstanding vote may carry a
  // fraud challenge, and honest detection is typically the slowest vote
  // because it waits on its UTXO lookups.
  if (pv.approvals >= need && pv.votes_received >= pv.expected) {
    commit_block(block_hash);
  } else if (pv.rejections > pv.expected - need) {
    reject_block(block_hash, "verify.rejected");
  }
}

void IciNode::reject_block(const Hash256& block_hash, const char* counter) {
  const auto it = verifying_.find(block_hash);
  if (it == verifying_.end() || it->second.decided) return;
  it->second.decided = true;
  ctx_.metrics().counter(counter).inc();
  verifying_.erase(it);
}

void IciNode::start_challenge(const Hash256& block_hash, const Hash256& txid) {
  const auto pv_it = verifying_.find(block_hash);
  if (pv_it == verifying_.end() || pv_it->second.decided) return;

  ByteWriter key_bytes(64);
  key_bytes.raw(block_hash.span());
  key_bytes.raw(txid.span());
  const Hash256 key = Hash256::tagged(
      "ici/challenge", ByteSpan(key_bytes.bytes().data(), key_bytes.bytes().size()));
  if (challenges_.contains(key)) return;  // duplicate challenge, already checking

  // The challenged tx must exist in the block at all.
  const Transaction* tx = nullptr;
  for (const Transaction& candidate : pv_it->second.block->txs()) {
    if (candidate.txid() == txid) {
      tx = &candidate;
      break;
    }
  }
  if (tx == nullptr) {
    ctx_.metrics().counter("fraud.bogus").inc();  // challenge about a foreign tx
    return;
  }

  // Immediate verdicts that need no lookups.
  if (!validator_.check_tx_stateless(*tx)) {
    ctx_.metrics().counter("fraud.confirmed").inc();
    reject_block(block_hash, "verify.fraud_rejected");
    return;
  }
  if (tx->is_coinbase()) {
    ctx_.metrics().counter("fraud.bogus").inc();
    return;
  }

  PendingChallenge pc;
  pc.block_hash = block_hash;
  pc.tx = *tx;
  std::unordered_map<NodeId, std::vector<OutPoint>> lookups;
  const std::size_t my_cluster = ctx_.directory().cluster_of(id_);
  for (const TxInput& in : pc.tx.inputs()) {
    const NodeId owner = ctx_.utxo_owner(in.prevout, my_cluster);
    if (owner == id_) {
      const auto found = shard_.find(in.prevout);
      pc.resolved[in.prevout] =
          found == shard_.end() ? std::nullopt : std::make_optional(found->second);
    } else {
      lookups[owner].push_back(in.prevout);
      pc.resolved[in.prevout] = std::nullopt;
      ++pc.outstanding_lookups;
    }
  }
  pv_it->second.challenges_pending += 1;
  challenges_.emplace(key, std::move(pc));

  for (auto& [owner, ops] : lookups) {
    auto lk = std::make_shared<UtxoLookupMsg>();
    lk->block_hash = key;  // challenge context, echoed by the owner
    lk->outpoints = std::move(ops);
    ctx_.network().send(id_, owner, std::move(lk));
  }

  const auto it = challenges_.find(key);
  if (it->second.outstanding_lookups == 0) {
    finish_challenge(key);
  } else {
    ctx_.simulator().after(kLookupTimeoutUs, [this, key] {
      const auto pending = challenges_.find(key);
      if (pending == challenges_.end() || pending->second.done) return;
      pending->second.lookup_timeout = true;
      finish_challenge(key);
    });
  }
}

void IciNode::finish_challenge(const Hash256& challenge_key) {
  const auto it = challenges_.find(challenge_key);
  if (it == challenges_.end() || it->second.done) return;
  PendingChallenge& pc = it->second;
  pc.done = true;

  bool fraudulent = false;
  Amount in_value = 0;
  bool all_known = true;
  for (const TxInput& in : pc.tx.inputs()) {
    const auto& entry = pc.resolved.at(in.prevout);
    if (!entry) {
      // Unknown with all owners heard = the input really does not exist.
      if (!pc.lookup_timeout) fraudulent = true;
      all_known = false;
      continue;
    }
    if (entry->recipient != in.pub) fraudulent = true;
    in_value += entry->value;
  }
  if (all_known && pc.tx.total_output() > in_value) fraudulent = true;

  const Hash256 block_hash = pc.block_hash;
  challenges_.erase(it);

  const auto pv_it = verifying_.find(block_hash);
  if (pv_it == verifying_.end() || pv_it->second.decided) return;
  if (pv_it->second.challenges_pending > 0) pv_it->second.challenges_pending -= 1;

  if (fraudulent) {
    ctx_.metrics().counter("fraud.confirmed").inc();
    reject_block(block_hash, "verify.fraud_rejected");
  } else {
    ctx_.metrics().counter("fraud.bogus").inc();
    maybe_decide(block_hash);
  }
}

void IciNode::commit_block(const Hash256& block_hash) {
  const auto it = verifying_.find(block_hash);
  if (it == verifying_.end() || it->second.decided) return;
  PendingVerify& pv = it->second;
  pv.decided = true;

  const Block& block = *pv.block;
  const std::size_t my_cluster = ctx_.directory().cluster_of(id_);
  const std::uint64_t height = block.header().height;

  if (ctx_.coded()) {
    // Coded mode: Reed-Solomon the body across d+p distinct members.
    const Bytes payload = block.serialize();
    const auto shards = ctx_.codec().encode(ByteSpan(payload.data(), payload.size()));
    const std::vector<NodeId> holders = ctx_.shard_holders(block_hash, height, my_cluster);
    for (std::size_t i = 0; i < holders.size(); ++i) {
      if (!ctx_.directory().online(holders[i])) continue;  // repaired later
      if (holders[i] == id_) {
        shard_store_.put(block_hash, shards[i]);
        continue;
      }
      auto msg = std::make_shared<BlockShardMsg>();
      msg->block_hash = block_hash;
      msg->height = height;
      msg->shard = shards[i];
      ctx_.network().send(id_, holders[i], std::move(msg));
    }
  } else {
    // Hand the body to the assigned storers.
    const std::vector<NodeId> storers =
        ctx_.storers_of(block_hash, height, my_cluster, /*online_only=*/true);
    auto body = std::make_shared<FullBlockMsg>(pv.block, /*verify=*/false);
    for (NodeId s : storers) {
      if (s == id_) {
        store_.put(HashedBlock(pv.block, block_hash));
      } else {
        ctx_.network().send(id_, s, body);
      }
    }
  }

  // Per-member UTXO-shard deltas.
  std::unordered_map<NodeId, std::shared_ptr<CommitMsg>> deltas;
  auto delta_for = [&](NodeId owner) -> CommitMsg& {
    auto& slot = deltas[owner];
    if (!slot) {
      slot = std::make_shared<CommitMsg>();
      slot->header = block.header();
      slot->block_hash = block_hash;
    }
    return *slot;
  };
  for (const Transaction& tx : block.txs()) {
    for (const TxInput& in : tx.inputs()) {
      delta_for(ctx_.utxo_owner(in.prevout, my_cluster)).spent.push_back(in.prevout);
    }
    const Hash256& txid = tx.txid();
    for (std::uint32_t i = 0; i < tx.outputs().size(); ++i) {
      const OutPoint op{txid, i};
      delta_for(ctx_.utxo_owner(op, my_cluster)).created.emplace_back(op, tx.outputs()[i]);
    }
  }
  // Every online member gets a commit notice (empty delta if not an owner).
  for (const cluster::NodeInfo& member : ctx_.directory().online_members(my_cluster)) {
    auto found = deltas.find(member.id);
    std::shared_ptr<CommitMsg> msg;
    if (found != deltas.end()) {
      msg = found->second;
    } else {
      msg = std::make_shared<CommitMsg>();
      msg->header = block.header();
      msg->block_hash = block_hash;
    }
    ctx_.network().send(id_, member.id, std::move(msg));
  }

  ctx_.metrics().counter("commit.count").inc();
  const sim::SimTime verify_elapsed = ctx_.simulator().now() - pv.started;
  ctx_.metrics().distribution("commit.cluster_latency_us")
      .add(static_cast<double>(verify_elapsed));
  obs::TraceSink::global().record_sim("verify/commit", static_cast<double>(verify_elapsed));
  ctx_.note_commit(block);
  verifying_.erase(it);
}

// ---------------------------------------------------------------------------
// Member role
// ---------------------------------------------------------------------------

void IciNode::handle_slice(sim::NodeId from, const SliceMsg& msg) {
  if (fault_.drop_slices) {
    ctx_.metrics().counter("fault.slices_dropped").inc();
    return;
  }
  if (slices_.contains(msg.block_hash)) return;

  PendingSlice ps;
  ps.header = msg.header;
  ps.block_hash = msg.block_hash;
  ps.head = from;
  ps.txs = msg.txs;
  ps.received = ctx_.simulator().now();

  const std::size_t my_cluster = ctx_.directory().cluster_of(id_);

  // Gather the UTXO lookups this slice needs (validity checks, including
  // the stateless ones, run per-tx in finish_slice so the first offender
  // can be named in a challenge).
  std::unordered_map<NodeId, std::vector<OutPoint>> lookups;
  for (const Transaction& tx : ps.txs) {
    if (tx.is_coinbase()) continue;
    for (const TxInput& in : tx.inputs()) {
      const NodeId owner = ctx_.utxo_owner(in.prevout, my_cluster);
      if (owner == id_) {
        const auto found = shard_.find(in.prevout);
        ps.resolved[in.prevout] =
            found == shard_.end() ? std::nullopt : std::make_optional(found->second);
      } else {
        lookups[owner].push_back(in.prevout);
        ps.resolved[in.prevout] = std::nullopt;  // placeholder until response
        ++ps.outstanding_lookups;
      }
    }
  }

  const Hash256 hash = msg.block_hash;
  slices_.emplace(hash, std::move(ps));

  for (auto& [owner, ops] : lookups) {
    auto lk = std::make_shared<UtxoLookupMsg>();
    lk->block_hash = hash;
    lk->outpoints = std::move(ops);
    ctx_.network().send(id_, owner, std::move(lk));
    ctx_.metrics().counter("lookup.requests").inc();
  }

  const auto it = slices_.find(hash);
  if (it->second.outstanding_lookups == 0) {
    finish_slice(hash);
  } else {
    ctx_.simulator().after(kLookupTimeoutUs, [this, hash] {
      const auto pending = slices_.find(hash);
      if (pending == slices_.end() || pending->second.done) return;
      pending->second.any_lookup_failed = true;
      ctx_.metrics().counter("lookup.timeouts").inc();
      finish_slice(hash);
    });
  }
}

void IciNode::handle_utxo_lookup(sim::NodeId from, const UtxoLookupMsg& msg) {
  auto resp = std::make_shared<UtxoResponseMsg>();
  resp->block_hash = msg.block_hash;
  resp->entries.reserve(msg.outpoints.size());
  for (const OutPoint& op : msg.outpoints) {
    UtxoResponseEntry entry;
    entry.outpoint = op;
    const auto found = shard_.find(op);
    if (found != shard_.end()) {
      entry.exists = true;
      entry.output = found->second;
    }
    resp->entries.push_back(entry);
  }
  ctx_.network().send(id_, from, std::move(resp));
}

void IciNode::handle_utxo_response(sim::NodeId from, const UtxoResponseMsg& msg) {
  (void)from;
  // The context key distinguishes slice verification from head-side
  // challenge checks (the owner just echoes it).
  if (const auto it = slices_.find(msg.block_hash); it != slices_.end() && !it->second.done) {
    PendingSlice& ps = it->second;
    for (const UtxoResponseEntry& entry : msg.entries) {
      const auto slot = ps.resolved.find(entry.outpoint);
      if (slot == ps.resolved.end()) continue;
      if (entry.exists) slot->second = entry.output;
      if (ps.outstanding_lookups > 0) --ps.outstanding_lookups;
    }
    if (ps.outstanding_lookups == 0) finish_slice(msg.block_hash);
    return;
  }
  if (const auto it = challenges_.find(msg.block_hash);
      it != challenges_.end() && !it->second.done) {
    PendingChallenge& pc = it->second;
    for (const UtxoResponseEntry& entry : msg.entries) {
      const auto slot = pc.resolved.find(entry.outpoint);
      if (slot == pc.resolved.end()) continue;
      if (entry.exists) slot->second = entry.output;
      if (pc.outstanding_lookups > 0) --pc.outstanding_lookups;
    }
    if (pc.outstanding_lookups == 0) finish_challenge(msg.block_hash);
  }
}

void IciNode::finish_slice(const Hash256& block_hash) {
  const auto it = slices_.find(block_hash);
  if (it == slices_.end() || it->second.done) return;
  PendingSlice& ps = it->second;
  ps.done = true;

  // CPU cost of the tx checks is the wall span; the sim-time sample below
  // additionally covers the distributed lookup round-trips.
  const obs::Span span("verify/slice");
  obs::TraceSink::global().record_sim(
      "verify/slice", static_cast<double>(ctx_.simulator().now() - ps.received));

  // Per-tx checks are independent: they read only the tx itself and the
  // already-resolved UTXO entries, so they fan out across the pool. Each
  // verdict lands in its own slot and the merge below walks them in slice
  // order — the named offender (and therefore every message that follows)
  // is identical for any thread count.
  const std::vector<Transaction>& txs = ps.txs;
  std::vector<std::uint8_t> tx_ok(txs.size(), 1);
  ThreadPool::global().parallel_for(
      0, txs.size(), kSliceVerifyGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const Transaction& tx = txs[i];
          bool ok = static_cast<bool>(validator_.check_tx_stateless(tx));
          if (ok && !tx.is_coinbase()) {
            Amount in_value = 0;
            bool known = true;
            for (const TxInput& in : tx.inputs()) {
              const auto& entry = ps.resolved.at(in.prevout);
              if (!entry) {
                // Missing: either a genuine double-spend/unknown outpoint
                // or an owner that never answered. With timed-out lookups
                // we vote approve-with-caveat (liveness bias, see
                // IciConfig); with all owners heard, missing means invalid.
                if (!ps.any_lookup_failed) ok = false;
                known = false;
                continue;
              }
              if (entry->recipient != in.pub) ok = false;
              in_value += entry->value;
            }
            if (known && tx.total_output() > in_value) ok = false;
          }
          tx_ok[i] = ok ? 1 : 0;
        }
      });

  bool approve = true;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    if (tx_ok[i] == 0) {
      approve = false;
      ps.offender = txs[i].txid();  // the challenge the head will re-verify
      break;
    }
  }

  if (fault_.vote_reject) {
    // Byzantine rejection: flip the vote and (maximally annoying) fabricate
    // a challenge against a valid transaction — the head will disprove it.
    approve = false;
    if (!ps.offender && !ps.txs.empty()) ps.offender = ps.txs.front().txid();
    ctx_.metrics().counter("fault.votes_flipped").inc();
  }

  const Hash256 digest = slice_digest_of(ps.txs);
  auto vote = std::make_shared<VoteMsg>();
  vote->block_hash = block_hash;
  vote->approve = approve;
  vote->slice_digest = digest;
  if (!approve) vote->challenged_txid = ps.offender;
  vote->voter = key_.pub;
  const Bytes payload = vote_payload(block_hash, approve, digest, vote->challenged_txid);
  vote->sig = sign(key_, payload);
  ctx_.network().send(id_, ps.head, std::move(vote));
  ctx_.metrics().counter(approve ? "verify.slice_approved" : "verify.slice_rejected").inc();
  slices_.erase(it);
}

void IciNode::handle_commit(sim::NodeId from, const CommitMsg& msg) {
  (void)from;
  store_.put(StoredBlock::header_only(msg.header, msg.block_hash));
  auto& tally = ctx_.fleet_tally().slot(id_);
  for (const OutPoint& op : msg.spent) tally.utxo_entries -= shard_.erase(op);
  for (const auto& [op, out] : msg.created) {
    if (shard_.insert_or_assign(op, out).second) ++tally.utxo_entries;
    // Free tx index: the owner of a tx's first output learns where the tx
    // landed from the delta it receives anyway.
    if (op.index == 0) tx_index_[op.txid] = {msg.block_hash, msg.header.height};
  }
  ctx_.metrics().counter("commit.notices").inc();
}

// ---------------------------------------------------------------------------
// Server role + fetch machinery
// ---------------------------------------------------------------------------

void IciNode::handle_block_request(sim::NodeId from, const BlockRequestMsg& msg) {
  auto resp = std::make_shared<BlockResponseMsg>();
  resp->block_hash = msg.block_hash;
  resp->request_id = msg.request_id;
  const BlockRef ref = store_.block_by_hash(msg.block_hash);
  resp->block = ref.share();
  if (resp->block && fault_.corrupt_serves) {
    // Serve a tampered body: same header, one transaction replaced. The
    // fetcher's Merkle check rejects it and falls back to the next holder.
    std::vector<Transaction> txs = resp->block->txs();
    if (!txs.empty()) {
      txs.back() = Transaction::coinbase(key_.pub, 1, 0xbad);
    }
    resp->block = std::make_shared<const Block>(Block(resp->block->header(), std::move(txs)));
    ctx_.metrics().counter("fault.corrupt_serves").inc();
  }
  if (ref.io_delay_us > 0) {
    // Cold read: the response departs once the media delivers the bytes.
    ctx_.simulator().after(ref.io_delay_us, [this, from, resp = std::move(resp)] {
      ctx_.network().send(id_, from, resp);
    });
    return;
  }
  ctx_.network().send(id_, from, std::move(resp));
}

void IciNode::handle_block_response(sim::NodeId from, const BlockResponseMsg& msg) {
  (void)from;
  const auto it = fetches_.find(msg.request_id);
  if (it == fetches_.end() || it->second.done) return;
  PendingFetch& pf = it->second;

  if (msg.block && msg.block->hash() == pf.hash && msg.block->merkle_ok()) {
    finish_fetch(msg.request_id, msg.block);
    return;
  }
  // Miss or corrupt: fall through to the next candidate.
  try_next_candidate(msg.request_id);
}

/// Single exit point for a replication-mode fetch: builds the FetchResult,
/// updates the retrieval counters, and fires the callback exactly once.
void IciNode::finish_fetch(std::uint64_t request_id, std::shared_ptr<const Block> block) {
  const auto it = fetches_.find(request_id);
  if (it == fetches_.end() || it->second.done) return;
  PendingFetch& pf = it->second;
  pf.done = true;

  FetchResult result;
  result.block = std::move(block);
  result.elapsed_us = ctx_.simulator().now() - pf.started;
  result.attempts = pf.attempts;
  result.timeouts = pf.timeouts;
  result.retry_rounds = pf.rounds_used;
  if (result.block) {
    result.outcome = FetchOutcome::kRemote;
    ctx_.metrics().distribution("retrieval.latency_us").add(
        static_cast<double>(result.elapsed_us));
    obs::TraceSink::global().record_sim("retrieval/fetch",
                                        static_cast<double>(result.elapsed_us));
  } else {
    // A fetch where every candidate answered "don't have it" is a genuine
    // not-found; any unanswered attempt makes the verdict a timeout (the
    // block may exist behind the silence).
    result.outcome = pf.timeouts > 0 ? FetchOutcome::kTimeout : FetchOutcome::kNotFound;
    ctx_.metrics().counter("retrieval.misses").inc();
    ctx_.metrics()
        .counter(pf.timeouts > 0 ? "retrieval.timeouts" : "retrieval.not_found")
        .inc();
  }
  if (pf.cb) pf.cb(result);
  fetches_.erase(it);
}

void IciNode::fetch_block(const Hash256& hash, std::uint64_t height, FetchCallback cb) {
  // Local hit: no traffic; latency is the backend's cold-read cost (zero
  // for the in-memory backend, so mem runs stay event-identical).
  if (BlockRef ref = store_.block_by_hash(hash)) {
    ctx_.metrics().counter("retrieval.local_hits").inc();
    if (cb) {
      FetchResult result;
      result.block = ref.share();
      result.outcome = FetchOutcome::kLocal;
      result.elapsed_us = ref.io_delay_us;
      if (ref.io_delay_us > 0) {
        ctx_.simulator().after(ref.io_delay_us,
                               [cb = std::move(cb), result = std::move(result)] {
                                 cb(result);
                               });
      } else {
        cb(result);
      }
    }
    return;
  }
  if (ctx_.coded()) {
    fetch_block_coded(hash, height, std::move(cb), std::nullopt);
    return;
  }

  const std::size_t my_cluster = ctx_.directory().cluster_of(id_);
  std::vector<NodeId> candidates = ctx_.fetch_candidates(hash, height, my_cluster, id_);
  // Nearest storer first.
  std::stable_sort(candidates.begin(), candidates.end(), [&](NodeId a, NodeId b) {
    return ctx_.network().propagation_us(id_, a) < ctx_.network().propagation_us(id_, b);
  });

  const std::uint64_t rid = next_request_id_++;
  PendingFetch pf;
  pf.hash = hash;
  pf.candidates = std::move(candidates);
  pf.started = ctx_.simulator().now();
  pf.timeout_us = kFetchTimeoutUs;
  pf.rounds_left = static_cast<std::uint32_t>(ctx_.config().fetch_retry_rounds);
  pf.cb = std::move(cb);
  fetches_.emplace(rid, std::move(pf));
  try_next_candidate(rid);
}

void IciNode::pull_from(sim::NodeId source, const Hash256& hash) {
  const std::uint64_t rid = next_request_id_++;
  PendingFetch pf;
  pf.hash = hash;
  pf.candidates = {source};
  pf.started = ctx_.simulator().now();
  pf.timeout_us = kFetchTimeoutUs;
  pf.rounds_left = static_cast<std::uint32_t>(ctx_.config().fetch_retry_rounds);
  pf.cb = [this](const FetchResult& r) {
    if (r.block) {
      ctx_.metrics().counter("repair.copies_completed").inc();
      ctx_.metrics().counter("repair.bytes_copied").inc(r.block->serialized_size());
      store_.put(HashedBlock(r.block));
    } else {
      ctx_.metrics().counter("repair.copies_failed").inc();
    }
  };
  fetches_.emplace(rid, std::move(pf));
  try_next_candidate(rid);
}

void IciNode::try_next_candidate(std::uint64_t request_id) {
  const auto it = fetches_.find(request_id);
  if (it == fetches_.end() || it->second.done) return;
  PendingFetch& pf = it->second;

  if (pf.next_candidate >= pf.candidates.size()) {
    if (pf.rounds_left > 0 && !pf.candidates.empty()) {
      // Retry-with-backoff: another full pass over the candidate list with a
      // longer per-attempt timeout. Candidates that merely dropped our
      // request or response (message faults) get a second chance.
      --pf.rounds_left;
      ++pf.rounds_used;
      pf.next_candidate = 0;
      pf.timeout_us = static_cast<sim::SimTime>(
          static_cast<double>(pf.timeout_us) * kFetchRetryBackoff);
      ctx_.metrics().counter("retrieval.retry_rounds").inc();
    } else {
      finish_fetch(request_id, nullptr);
      return;
    }
  }

  const NodeId target = pf.candidates[pf.next_candidate++];
  ++pf.attempts;
  const std::size_t attempt = pf.next_candidate;
  const std::uint32_t round = pf.rounds_used;
  auto req = std::make_shared<BlockRequestMsg>();
  req->block_hash = pf.hash;
  req->request_id = request_id;
  ctx_.network().send(id_, target, std::move(req));

  ctx_.simulator().after(pf.timeout_us, [this, request_id, attempt, round] {
    const auto pending = fetches_.find(request_id);
    if (pending == fetches_.end() || pending->second.done) return;
    // Only advance if this attempt is still the live one (a miss response
    // may already have moved the fetch along, or a retry round restarted
    // the candidate list).
    if (pending->second.next_candidate != attempt || pending->second.rounds_used != round)
      return;
    ++pending->second.timeouts;
    ctx_.metrics().counter("retrieval.attempt_timeouts").inc();
    try_next_candidate(request_id);
  });
}

// ---------------------------------------------------------------------------
// Coded mode
// ---------------------------------------------------------------------------

void IciNode::handle_block_shard(sim::NodeId from, const BlockShardMsg& msg) {
  (void)from;
  shard_store_.put(msg.block_hash, msg.shard);
  ctx_.metrics().counter("storage.shards_received").inc();
}

void IciNode::handle_shard_request(sim::NodeId from, const ShardRequestMsg& msg) {
  auto resp = std::make_shared<ShardResponseMsg>();
  resp->block_hash = msg.block_hash;
  resp->request_id = msg.request_id;
  // Serve whichever index this node holds (at most one per block in normal
  // operation; repair replacements also hold exactly one).
  const auto indices = shard_store_.indices(msg.block_hash);
  if (!indices.empty()) resp->shard = *shard_store_.get(msg.block_hash, indices.front());
  if (resp->shard && fault_.corrupt_serves && !resp->shard->bytes.empty()) {
    resp->shard->bytes[0] ^= 0xff;  // detected post-decode by the hash check
    ctx_.metrics().counter("fault.corrupt_serves").inc();
  }
  ctx_.network().send(id_, from, std::move(resp));
}

void IciNode::fetch_block_coded(const Hash256& hash, std::uint64_t height, FetchCallback cb,
                                std::optional<std::uint32_t> store_index) {
  const std::size_t my_cluster = ctx_.directory().cluster_of(id_);
  const std::vector<NodeId> holders = ctx_.shard_holders(hash, height, my_cluster);

  const std::uint64_t rid = next_request_id_++;
  PendingCodedFetch pf;
  pf.hash = hash;
  pf.height = height;
  pf.have.assign(ctx_.codec().total_shards(), false);
  pf.started = ctx_.simulator().now();
  pf.timeout_us = kFetchTimeoutUs;
  pf.rounds_left = static_cast<std::uint32_t>(ctx_.config().fetch_retry_rounds);
  pf.store_index = store_index;
  pf.cb = std::move(cb);

  // Seed with any shard this node already holds.
  for (std::uint32_t index : shard_store_.indices(hash)) {
    if (!pf.have[index]) {
      pf.have[index] = true;
      pf.collected.push_back(*shard_store_.get(hash, index));
    }
  }

  // Candidates: online assigned holders, nearest first (they may also be
  // repair replacements holding reconstructed shards).
  for (NodeId holder : holders) {
    if (holder == id_ || !ctx_.directory().online(holder)) continue;
    pf.candidates.push_back(holder);
  }
  std::stable_sort(pf.candidates.begin(), pf.candidates.end(), [&](NodeId a, NodeId b) {
    return ctx_.network().propagation_us(id_, a) < ctx_.network().propagation_us(id_, b);
  });
  if (ctx_.config().cross_cluster_fallback) {
    // Every cluster encodes the same payload with the same code, so a
    // sibling cluster's holders serve identical shards — append them as
    // last-resort candidates.
    for (std::size_t other = 0; other < ctx_.directory().cluster_count(); ++other) {
      if (other == my_cluster) continue;
      for (NodeId holder : ctx_.shard_holders(hash, height, other)) {
        if (holder != id_ && ctx_.directory().online(holder)) pf.candidates.push_back(holder);
      }
    }
  }

  coded_fetches_.emplace(rid, std::move(pf));
  pump_coded_fetch(rid);
  arm_coded_deadline(rid);
}

void IciNode::arm_coded_deadline(std::uint64_t request_id) {
  const auto it = coded_fetches_.find(request_id);
  if (it == coded_fetches_.end() || it->second.done) return;
  const std::uint32_t round = it->second.rounds_used;
  ctx_.simulator().after(it->second.timeout_us, [this, request_id, round] {
    const auto pending = coded_fetches_.find(request_id);
    if (pending == coded_fetches_.end() || pending->second.done) return;
    PendingCodedFetch& pf = pending->second;
    if (pf.rounds_used != round) return;  // a newer round re-armed already
    if (pf.collected.size() < ctx_.codec().data_shards() && pf.rounds_left > 0 &&
        !pf.candidates.empty()) {
      // Retry-with-backoff: every in-flight request at the deadline counts
      // as timed out; re-walk the candidate list (collected shards are
      // kept, so only the shortfall is re-requested).
      --pf.rounds_left;
      ++pf.rounds_used;
      pf.timeouts += static_cast<std::uint32_t>(pf.outstanding);
      pf.outstanding = 0;
      pf.next_candidate = 0;
      pf.timeout_us = static_cast<sim::SimTime>(
          static_cast<double>(pf.timeout_us) * kFetchRetryBackoff);
      ctx_.metrics().counter("retrieval.retry_rounds").inc();
      pump_coded_fetch(request_id);
      arm_coded_deadline(request_id);
      return;
    }
    pf.timeouts += static_cast<std::uint32_t>(pf.outstanding);
    finish_coded_fetch(request_id);  // decide on whatever arrived
  });
}

void IciNode::pump_coded_fetch(std::uint64_t request_id) {
  const auto it = coded_fetches_.find(request_id);
  if (it == coded_fetches_.end() || it->second.done) return;
  PendingCodedFetch& pf = it->second;
  const std::size_t need = ctx_.codec().data_shards();

  if (pf.collected.size() >= need) {
    finish_coded_fetch(request_id);
    return;
  }
  // Ask exactly as many holders as still needed — over-asking would waste
  // bandwidth (each response carries a shard of ~block/d bytes).
  while (pf.collected.size() + pf.outstanding < need &&
         pf.next_candidate < pf.candidates.size()) {
    auto req = std::make_shared<ShardRequestMsg>();
    req->block_hash = pf.hash;
    req->request_id = request_id;
    ctx_.network().send(id_, pf.candidates[pf.next_candidate++], std::move(req));
    ++pf.outstanding;
    ++pf.attempts;
  }
  if (pf.outstanding == 0) finish_coded_fetch(request_id);  // exhausted
}

void IciNode::handle_shard_response(sim::NodeId from, const ShardResponseMsg& msg) {
  (void)from;
  const auto it = coded_fetches_.find(msg.request_id);
  if (it == coded_fetches_.end() || it->second.done) return;
  PendingCodedFetch& pf = it->second;
  if (pf.outstanding > 0) --pf.outstanding;
  if (msg.shard && msg.shard->index < pf.have.size() && !pf.have[msg.shard->index]) {
    pf.have[msg.shard->index] = true;
    pf.collected.push_back(*msg.shard);
  }
  // Either finishes (enough shards / exhausted) or tops up the in-flight
  // requests after a miss or duplicate index.
  pump_coded_fetch(msg.request_id);
}

void IciNode::finish_coded_fetch(std::uint64_t request_id) {
  const auto it = coded_fetches_.find(request_id);
  if (it == coded_fetches_.end() || it->second.done) return;
  PendingCodedFetch& pf = it->second;
  pf.done = true;

  std::shared_ptr<const Block> result;
  if (pf.collected.size() >= ctx_.codec().data_shards()) {
    const auto payload = ctx_.codec().reconstruct(pf.collected);
    if (payload) {
      try {
        Block block = Block::deserialize(ByteSpan(payload->data(), payload->size()));
        if (block.hash() == pf.hash && block.merkle_ok()) {
          result = std::make_shared<const Block>(std::move(block));
        }
      } catch (const DecodeError&) {
        // corrupt reconstruction — treated as a miss below
      }
    }
  }

  const sim::SimTime elapsed = ctx_.simulator().now() - pf.started;
  if (result) {
    ctx_.metrics().distribution("retrieval.latency_us").add(static_cast<double>(elapsed));
    obs::TraceSink::global().record_sim("retrieval/coded_fetch", static_cast<double>(elapsed));
    if (pf.store_index) {
      // Repair: re-encode and keep only the assigned shard.
      const Bytes payload = result->serialize();
      const auto shards = ctx_.codec().encode(ByteSpan(payload.data(), payload.size()));
      if (*pf.store_index < shards.size()) {
        shard_store_.put(pf.hash, shards[*pf.store_index]);
        ctx_.metrics().counter("repair.shards_completed").inc();
      }
    }
  } else {
    ctx_.metrics().counter("retrieval.misses").inc();
    ctx_.metrics()
        .counter(pf.timeouts > 0 || pf.outstanding > 0 ? "retrieval.timeouts"
                                                       : "retrieval.not_found")
        .inc();
    if (pf.store_index) ctx_.metrics().counter("repair.shards_failed").inc();
  }

  FetchResult fetched;
  fetched.elapsed_us = elapsed;
  fetched.attempts = pf.attempts;
  fetched.timeouts = pf.timeouts;
  fetched.retry_rounds = pf.rounds_used;
  if (result) {
    fetched.block = std::move(result);
    // Zero requests means the node reconstructed from its own shards.
    fetched.outcome = pf.attempts == 0 ? FetchOutcome::kLocal : FetchOutcome::kRemote;
  } else {
    fetched.outcome = pf.timeouts > 0 || pf.outstanding > 0 ? FetchOutcome::kTimeout
                                                            : FetchOutcome::kNotFound;
  }
  if (pf.cb) pf.cb(fetched);
  coded_fetches_.erase(it);
}

void IciNode::repair_shard(const Hash256& hash, std::uint64_t height,
                           std::uint32_t store_index) {
  fetch_block_coded(hash, height, nullptr, store_index);
}

// ---------------------------------------------------------------------------
// SPV proof serving
// ---------------------------------------------------------------------------

void IciNode::handle_proof_request(sim::NodeId from, const ProofRequestMsg& msg) {
  auto resp = std::make_shared<ProofResponseMsg>();
  resp->request_id = msg.request_id;
  const BlockRef ref = store_.block_by_hash(msg.block_hash);
  if (ref) {
    resp->proof = spv::build_proof(*ref, msg.txid);
  }
  if (ref.io_delay_us > 0) {
    ctx_.simulator().after(ref.io_delay_us, [this, from, resp = std::move(resp)] {
      ctx_.network().send(id_, from, resp);
    });
    return;
  }
  ctx_.network().send(id_, from, std::move(resp));
}

void IciNode::fetch_proof(const Hash256& txid, const Hash256& hash, std::uint64_t height,
                          ProofCallback cb) {
  // Local body: build directly (a cold read defers the answer by its IO
  // cost, which the reported elapsed time then carries).
  if (BlockRef ref = store_.block_by_hash(hash)) {
    if (cb) {
      if (ref.io_delay_us > 0) {
        ctx_.simulator().after(
            ref.io_delay_us,
            [cb = std::move(cb), body = ref.share(), txid, d = ref.io_delay_us] {
              cb(spv::build_proof(*body, txid), d);
            });
      } else {
        cb(spv::build_proof(*ref, txid), 0);
      }
    }
    return;
  }
  if (ctx_.coded()) {
    // Reconstruct the body, then build the proof locally.
    const sim::SimTime started = ctx_.simulator().now();
    fetch_block_coded(
        hash, height,
        [this, txid, cb = std::move(cb), started](const FetchResult& r) {
          if (!cb) return;
          if (!r.block) {
            cb(std::nullopt, ctx_.simulator().now() - started);
            return;
          }
          cb(spv::build_proof(*r.block, txid), ctx_.simulator().now() - started);
        },
        std::nullopt);
    return;
  }

  const std::size_t my_cluster = ctx_.directory().cluster_of(id_);
  PendingProof pp;
  pp.txid = txid;
  pp.block_hash = hash;
  pp.candidates = ctx_.fetch_candidates(hash, height, my_cluster, id_);
  pp.started = ctx_.simulator().now();
  pp.cb = std::move(cb);
  const std::uint64_t rid = next_request_id_++;
  proofs_.emplace(rid, std::move(pp));
  try_next_proof_candidate(rid);
}

void IciNode::try_next_proof_candidate(std::uint64_t request_id) {
  const auto it = proofs_.find(request_id);
  if (it == proofs_.end() || it->second.done) return;
  PendingProof& pp = it->second;

  if (pp.next_candidate >= pp.candidates.size()) {
    pp.done = true;
    ctx_.metrics().counter("spv.misses").inc();
    if (pp.cb) pp.cb(std::nullopt, ctx_.simulator().now() - pp.started);
    proofs_.erase(it);
    return;
  }
  const NodeId target = pp.candidates[pp.next_candidate++];
  const std::size_t attempt = pp.next_candidate;
  auto req = std::make_shared<ProofRequestMsg>();
  req->txid = pp.txid;
  req->block_hash = pp.block_hash;
  req->request_id = request_id;
  ctx_.network().send(id_, target, std::move(req));

  ctx_.simulator().after(kFetchTimeoutUs, [this, request_id, attempt] {
    const auto pending = proofs_.find(request_id);
    if (pending == proofs_.end() || pending->second.done) return;
    if (pending->second.next_candidate != attempt) return;
    try_next_proof_candidate(request_id);
  });
}

void IciNode::handle_proof_response(sim::NodeId from, const ProofResponseMsg& msg) {
  (void)from;
  const auto it = proofs_.find(msg.request_id);
  if (it == proofs_.end() || it->second.done) return;
  PendingProof& pp = it->second;

  // Verify against our own header before accepting — a lying server cannot
  // forge a path to the committed Merkle root.
  if (msg.proof && msg.proof->txid == pp.txid && msg.proof->block_hash == pp.block_hash) {
    const auto header = store_.header_by_hash(pp.block_hash);
    if (header && spv::verify_proof(*msg.proof, *header)) {
      pp.done = true;
      const sim::SimTime elapsed = ctx_.simulator().now() - pp.started;
      ctx_.metrics().distribution("spv.latency_us").add(static_cast<double>(elapsed));
      if (pp.cb) pp.cb(msg.proof, elapsed);
      proofs_.erase(it);
      return;
    }
    ctx_.metrics().counter("spv.bad_proofs").inc();
  }
  try_next_proof_candidate(msg.request_id);
}

void IciNode::handle_tx_locate_request(sim::NodeId from, const TxLocateRequestMsg& msg) {
  auto resp = std::make_shared<TxLocateResponseMsg>();
  resp->request_id = msg.request_id;
  const auto it = tx_index_.find(msg.txid);
  if (it != tx_index_.end()) {
    resp->found = true;
    resp->block_hash = it->second.block_hash;
    resp->height = it->second.height;
  }
  ctx_.network().send(id_, from, std::move(resp));
}

void IciNode::locate_tx(const Hash256& txid, LocateCallback cb) {
  const std::size_t my_cluster = ctx_.directory().cluster_of(id_);
  const NodeId owner = ctx_.utxo_owner(OutPoint{txid, 0}, my_cluster);

  if (owner == id_) {
    const auto it = tx_index_.find(txid);
    if (it != tx_index_.end()) {
      if (cb) cb(true, it->second.block_hash, it->second.height);
    } else {
      if (cb) cb(false, Hash256{}, 0);
    }
    return;
  }

  const std::uint64_t rid = next_request_id_++;
  locates_.emplace(rid, PendingLocate{std::move(cb), false});
  auto req = std::make_shared<TxLocateRequestMsg>();
  req->txid = txid;
  req->request_id = rid;
  ctx_.network().send(id_, owner, std::move(req));

  ctx_.simulator().after(kFetchTimeoutUs, [this, rid] {
    const auto it = locates_.find(rid);
    if (it == locates_.end() || it->second.done) return;
    // Owner unreachable: report as not found (the caller can retry later).
    auto cb = std::move(it->second.cb);
    locates_.erase(it);
    ctx_.metrics().counter("locate.timeouts").inc();
    if (cb) cb(false, Hash256{}, 0);
  });
}

void IciNode::handle_tx_locate_response(sim::NodeId from, const TxLocateResponseMsg& msg) {
  (void)from;
  const auto it = locates_.find(msg.request_id);
  if (it == locates_.end() || it->second.done) return;
  auto cb = std::move(it->second.cb);
  locates_.erase(it);
  ctx_.metrics().counter(msg.found ? "locate.hits" : "locate.misses").inc();
  if (cb) cb(msg.found, msg.block_hash, msg.height);
}

void IciNode::locate_and_prove(const Hash256& txid, ProofCallback cb) {
  const sim::SimTime started = ctx_.simulator().now();
  locate_tx(txid, [this, txid, cb = std::move(cb), started](bool found, Hash256 hash,
                                                            std::uint64_t height) {
    if (!found) {
      if (cb) cb(std::nullopt, ctx_.simulator().now() - started);
      return;
    }
    fetch_proof(txid, hash, height,
                [this, cb, started](std::optional<spv::TxInclusionProof> proof, sim::SimTime) {
                  if (cb) cb(std::move(proof), ctx_.simulator().now() - started);
                });
  });
}

void IciNode::handle_inventory_request(sim::NodeId from, const InventoryRequestMsg& msg) {
  auto resp = std::make_shared<InventoryResponseMsg>();
  for (const Hash256& h : msg.hashes) {
    if (store_.has_block(h)) resp->held.push_back(h);
  }
  ctx_.network().send(id_, from, std::move(resp));
}

// ---------------------------------------------------------------------------
// Streaming bulk-sync bootstrap (docs/BOOTSTRAP.md)
// ---------------------------------------------------------------------------

bool IciNode::sync_coded() const { return ctx_.coded(); }

std::uint64_t IciNode::frontier_inventory() const {
  return ctx_.coded() ? shard_store_.shard_count() : store_.block_count();
}

bool IciNode::sync_wants_body(const Hash256& hash, std::uint64_t height) {
  const std::size_t my_cluster = ctx_.directory().cluster_of(id_);
  if (ctx_.coded()) {
    const std::vector<NodeId> holders = ctx_.shard_holders(hash, height, my_cluster);
    return std::find(holders.begin(), holders.end(), id_) != holders.end();
  }
  // Assignment over the full membership (which now includes this node) —
  // the joiner pulls exactly the bodies the rendezvous gives it.
  const std::vector<NodeId> storers =
      ctx_.storers_of(hash, height, my_cluster, /*online_only=*/false);
  return std::find(storers.begin(), storers.end(), id_) != storers.end();
}

std::vector<sim::NodeId> IciNode::sync_body_candidates(const Hash256& hash,
                                                       std::uint64_t height) {
  const std::size_t my_cluster = ctx_.directory().cluster_of(id_);
  const std::vector<NodeId> ranked =
      ctx_.fetch_candidates(hash, height, my_cluster, id_);
  return {ranked.begin(), ranked.end()};
}

void IciNode::sync_fetch_assigned_shard(
    const Hash256& hash, std::uint64_t height,
    std::function<void(std::shared_ptr<const Block>)> done) {
  const std::size_t my_cluster = ctx_.directory().cluster_of(id_);
  const std::vector<NodeId> holders = ctx_.shard_holders(hash, height, my_cluster);
  std::optional<std::uint32_t> index;
  for (std::uint32_t i = 0; i < holders.size(); ++i) {
    if (holders[i] == id_) {
      index = i;
      break;
    }
  }
  // Collect >=d shards from the cluster, reconstruct, keep our shard.
  fetch_block_coded(
      hash, height,
      [done = std::move(done)](const FetchResult& r) {
        if (done) done(r.block);
      },
      index);
}

}  // namespace ici::core
