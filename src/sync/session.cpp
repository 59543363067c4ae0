#include "sync/session.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"

namespace ici::sync {

namespace {

/// Frontier round deadline before a retry.
constexpr sim::SimTime kFrontierTimeoutUs = 300'000;
/// Per-range deadline before the range is reassigned to another peer.
constexpr sim::SimTime kRangeTimeoutUs = 2'000'000;
/// Retries per range / per body / per frontier round before the session
/// gives up.
constexpr std::uint32_t kMaxRetries = 8;

}  // namespace

std::shared_ptr<BulkPullSession> BulkPullSession::start(
    Env& env, const SyncConfig& cfg, SyncCheckpoint* checkpoint,
    std::vector<sim::NodeId> candidates, std::uint64_t session_id, DoneFn on_done) {
  auto session = std::shared_ptr<BulkPullSession>(new BulkPullSession(
      env, cfg, checkpoint, std::move(candidates), session_id, std::move(on_done)));
  if (!checkpoint->timing_started) {
    checkpoint->started_at_us = env.sync_simulator().now();
    checkpoint->timing_started = true;
  }
  session->begin_frontier();
  return session;
}

BulkPullSession::BulkPullSession(Env& env, const SyncConfig& cfg,
                                 SyncCheckpoint* checkpoint,
                                 std::vector<sim::NodeId> candidates,
                                 std::uint64_t session_id, DoneFn on_done)
    : env_(env),
      cfg_(cfg),
      cp_(checkpoint),
      candidates_(std::move(candidates)),
      id_(session_id),
      on_done_(std::move(on_done)) {
  if (cfg_.range_blocks == 0) cfg_.range_blocks = 1;
  if (cfg_.per_peer_window == 0) cfg_.per_peer_window = 1;
  if (cfg_.max_peers == 0) cfg_.max_peers = 1;
}

void BulkPullSession::arm(sim::SimTime delay, std::function<void()> fn) {
  std::weak_ptr<BulkPullSession> weak = weak_from_this();
  env_.sync_simulator().after(delay, [weak, fn = std::move(fn)]() {
    // A crashed joiner's session was dropped by the driver: the weak_ptr
    // no longer locks and the deadline is inert.
    if (auto self = weak.lock(); self && !self->finished_) fn();
  });
}

void BulkPullSession::tally_bytes(sim::NodeId from, const SyncMessage& msg) {
  const std::uint64_t wire = msg.wire_size() + env_.sync_message_overhead();
  cp_->bytes_downloaded += wire;
  auto& tally = cp_->peer_tally(from);
  tally.bytes += wire;
  tally.responses += 1;
}

// ---------------------------------------------------------------------------
// Frontier exchange
// ---------------------------------------------------------------------------

void BulkPullSession::begin_frontier() {
  frontier_started_ = env_.sync_simulator().now();
  frontier_tips_.clear();
  frontier_awaiting_ = candidates_.size();
  if (frontier_awaiting_ == 0) {
    finish(false);
    return;
  }
  for (sim::NodeId peer : candidates_) {
    auto req = std::make_shared<FrontierRequestMsg>();
    req->session_id = id_;
    req->from_height = cp_->next_height;
    env_.sync_send(peer, std::move(req));
  }
  const std::uint64_t token = ++token_counter_;
  frontier_token_ = token;
  arm(kFrontierTimeoutUs, [this, token] {
    if (frontier_done_ || frontier_token_ != token) return;
    finish_frontier();
  });
}

void BulkPullSession::on_frontier_response(sim::NodeId from,
                                           const FrontierResponseMsg& msg) {
  if (frontier_done_) return;
  if (msg.has_tip) frontier_tips_.emplace_back(from, msg.tip_height);
  if (frontier_awaiting_ > 0) --frontier_awaiting_;
  if (frontier_awaiting_ == 0) finish_frontier();
}

void BulkPullSession::finish_frontier() {
  if (frontier_done_ || finished_) return;
  if (frontier_tips_.empty()) {
    // Nobody answered in time — retry the whole round or give up.
    if (++frontier_attempts_ > kMaxRetries) {
      finish(false);
      return;
    }
    begin_frontier();
    return;
  }
  frontier_done_ = true;
  const sim::SimTime now = env_.sync_simulator().now();
  cp_->frontier_us += now - frontier_started_;
  obs::TraceSink::global().record_sim("sync/frontier",
                                      static_cast<double>(now - frontier_started_));

  std::uint64_t target = cp_->have_target ? cp_->target_height : 0;
  for (const auto& [peer, tip] : frontier_tips_) target = std::max(target, tip);
  cp_->target_height = target;
  cp_->have_target = true;

  // Pull peers: responders at the target tip, in candidate (distance)
  // order; if the tip is contested, fall back to every responder.
  pull_peers_.clear();
  for (const auto& [peer, tip] : frontier_tips_)
    if (tip == target && pull_peers_.size() < cfg_.max_peers)
      pull_peers_.push_back(peer);
  if (pull_peers_.empty())
    for (const auto& [peer, tip] : frontier_tips_)
      if (pull_peers_.size() < cfg_.max_peers) pull_peers_.push_back(peer);

  // Range grid over the unverified suffix [next_height, target].
  ranges_.clear();
  next_unissued_ = 0;
  commit_cursor_ = 0;
  for (std::uint64_t from = cp_->next_height; from <= target;
       from += cfg_.range_blocks) {
    RangeState r;
    r.from = from;
    r.count = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(cfg_.range_blocks, target - from + 1));
    ranges_.push_back(std::move(r));
  }

  // A resume re-requests the bodies its committed ranges still owe.
  body_queue_.clear();
  std::vector<PendingBody> owed = cp_->pending_bodies;
  for (const auto& pb : owed) {
    if (env_.sync_coded())
      start_shard_fetch(pb.hash, pb.height);
    else
      body_queue_.push_back(BodyWant{pb.hash, pb.height, 0});
  }

  pull_started_ = now;
  pump();
  check_done();
}

// ---------------------------------------------------------------------------
// Pull scheduling
// ---------------------------------------------------------------------------

void BulkPullSession::pump() {
  if (finished_ || !frontier_done_) return;

  // Header ranges: prefer the round-robin peer, else the first peer with
  // window capacity — deterministic in (range index, peer order).
  while (next_unissued_ < ranges_.size()) {
    const std::size_t idx = next_unissued_;
    sim::NodeId chosen = 0;
    bool found = false;
    const std::size_t n = pull_peers_.size();
    for (std::size_t probe = 0; probe < n; ++probe) {
      sim::NodeId peer = pull_peers_[(idx + probe) % n];
      if (inflight_[peer] < cfg_.per_peer_window) {
        chosen = peer;
        found = true;
        break;
      }
    }
    if (!found) break;
    issue_range(idx, chosen);
    ++next_unissued_;
  }

  // Listed-body batches: group the queue by responsible holder (rotating
  // through each block's candidate list on retries), one request per
  // holder with capacity, batch capped at range_blocks.
  if (!body_queue_.empty()) {
    std::map<sim::NodeId, std::vector<BodyWant>> groups;
    std::vector<BodyWant> keep;
    for (auto& want : body_queue_) {
      auto holders = env_.sync_body_candidates(want.hash, want.height);
      if (holders.empty()) {
        // Nobody can serve it right now — retry later rounds, then fail.
        if (want.attempts >= kMaxRetries) {
          cp_->bodies_failed += 1;
          erase_pending(want.hash);
        } else {
          want.attempts += 1;
          keep.push_back(want);
        }
        continue;
      }
      sim::NodeId holder = holders[want.attempts % holders.size()];
      groups[holder].push_back(want);
    }
    body_queue_ = std::move(keep);
    for (auto& [peer, wants] : groups) {
      std::size_t taken = 0;
      while (taken < wants.size() && inflight_[peer] < cfg_.per_peer_window) {
        const std::size_t batch =
            std::min<std::size_t>(cfg_.range_blocks, wants.size() - taken);
        std::vector<BodyWant> slice(wants.begin() + taken,
                                    wants.begin() + taken + batch);
        taken += batch;
        issue_body_pull(next_pull_id_++, peer, std::move(slice));
      }
      // Whatever didn't fit a window goes back to the queue untouched.
      for (std::size_t i = taken; i < wants.size(); ++i)
        body_queue_.push_back(wants[i]);
    }
  }
}

void BulkPullSession::issue_range(std::size_t index, sim::NodeId peer) {
  RangeState& r = ranges_[index];
  r.peer = peer;
  r.issued = true;
  r.token = ++token_counter_;
  inflight_[peer] += 1;

  auto req = std::make_shared<RangeRequestMsg>();
  req->session_id = id_;
  req->range_index = static_cast<std::uint32_t>(index);
  req->mode = env_.sync_range_mode();
  req->from_height = r.from;
  req->count = r.count;
  env_.sync_send(peer, std::move(req));

  const std::uint64_t token = r.token;
  arm(kRangeTimeoutUs, [this, index, token] { on_range_timeout(index, token); });
}

void BulkPullSession::on_range_timeout(std::size_t index, std::uint64_t token) {
  RangeState& r = ranges_[index];
  if (r.landed || r.token != token) return;
  retry_range(index);
}

void BulkPullSession::retry_range(std::size_t index) {
  RangeState& r = ranges_[index];
  auto it = inflight_.find(r.peer);
  if (it != inflight_.end() && it->second > 0) it->second -= 1;
  cp_->ranges_retried += 1;
  r.attempts += 1;
  if (r.attempts > kMaxRetries) {
    finish(false);
    return;
  }
  // Reassign to the next pull peer in rotation; retries bypass the window
  // so a stalled range can't deadlock behind its own peer's backlog.
  // issue_range stamps a fresh token, so any outstanding deadline timer
  // for the previous attempt becomes a no-op.
  sim::NodeId peer = pull_peers_[(index + r.attempts) % pull_peers_.size()];
  issue_range(index, peer);
}

bool BulkPullSession::range_payload_ok(const RangeState& r,
                                       const RangeResponseMsg& msg) const {
  if (msg.from_height != r.from || msg.count != r.count) return false;
  const std::uint64_t lo = r.from;
  const std::uint64_t hi = r.from + r.count;  // exclusive
  if (env_.sync_linked_headers()) {
    // Contiguous flavours must return the full dense run, parent-linked.
    if (msg.headers.size() != r.count) return false;
    for (std::size_t i = 0; i < msg.headers.size(); ++i) {
      if (msg.headers[i].height != lo + i) return false;
      if (i > 0 && msg.headers[i].parent != msg.headers[i - 1].hash()) return false;
    }
  } else {
    // Gapped stores (RapidChain committees): heights in bounds, ascending.
    std::uint64_t prev = 0;
    bool first = true;
    for (const auto& h : msg.headers) {
      if (h.height < lo || h.height >= hi) return false;
      if (!first && h.height <= prev) return false;
      prev = h.height;
      first = false;
    }
  }
  return true;
}

void BulkPullSession::on_range_response(sim::NodeId /*from*/,
                                        const RangeResponseMsg& msg) {
  if (msg.range_index >= ranges_.size()) return;
  RangeState& r = ranges_[msg.range_index];
  if (!r.issued || r.landed) return;  // stale duplicate
  if (!range_payload_ok(r, msg)) {
    // Treat a malformed payload like a timeout: release the slot and
    // reassign the range to another peer.
    retry_range(msg.range_index);
    return;
  }
  r.landed = true;
  r.headers = msg.headers;
  r.bodies = msg.bodies;
  auto it = inflight_.find(r.peer);
  if (it != inflight_.end() && it->second > 0) it->second -= 1;
  try_commit();
  pump();
  check_done();
}

// ---------------------------------------------------------------------------
// Verify + commit
// ---------------------------------------------------------------------------

void BulkPullSession::try_commit() {
  while (commit_cursor_ < ranges_.size() && ranges_[commit_cursor_].landed) {
    RangeState& r = ranges_[commit_cursor_];

    // Anchor the first header of the range against the verified prefix.
    if (env_.sync_linked_headers() && cp_->next_height > 0 &&
        !r.headers.empty() && r.headers.front().parent != cp_->tail_hash) {
      // The peer served a fork off our verified prefix — refetch elsewhere.
      r.landed = false;
      r.headers.clear();
      r.bodies.clear();
      retry_range(commit_cursor_);
      return;
    }

    // Index the bodies that rode along (kHeadersAndBodies) by hash.
    std::vector<std::pair<Hash256, const std::shared_ptr<const Block>*>> by_hash;
    by_hash.reserve(r.bodies.size());
    for (const auto& b : r.bodies) by_hash.emplace_back(b->hash(), &b);

    for (const auto& header : r.headers) {
      const Hash256 hash = header.hash();
      env_.sync_commit_header(header, hash);
      cp_->header_payload_bytes += BlockHeader::kWireSize;
      cp_->headers_committed += 1;
      if (env_.sync_linked_headers()) cp_->tail_hash = hash;

      if (!env_.sync_wants_body(hash, header.height)) continue;
      bool committed = false;
      for (const auto& [bh, bptr] : by_hash) {
        if (bh != hash) continue;
        const auto& block = *bptr;
        if (block->merkle_ok()) {
          env_.sync_commit_body(block);
          cp_->body_payload_bytes += block->serialized_size();
          cp_->bodies_committed += 1;
          committed = true;
        }
        break;
      }
      if (!committed) {
        // Owed: either the flavour pulls bodies out of band (ICI), the
        // shard machinery reconstructs it (coded), or the riding body was
        // missing/corrupt and the listed-body path retries it.
        want_body(hash, header.height, /*checkpointed=*/true);
      }
    }

    cp_->next_height = r.from + r.count;
    cp_->ranges_committed += 1;
    r.headers.clear();
    r.headers.shrink_to_fit();
    r.bodies.clear();
    r.bodies.shrink_to_fit();
    ++commit_cursor_;
  }
}

void BulkPullSession::want_body(const Hash256& hash, std::uint64_t height,
                                bool checkpointed) {
  if (checkpointed) cp_->pending_bodies.push_back(PendingBody{hash, height});
  if (env_.sync_coded())
    start_shard_fetch(hash, height);
  else
    body_queue_.push_back(BodyWant{hash, height, 0});
}

// ---------------------------------------------------------------------------
// Listed-body pulls (replication flavours)
// ---------------------------------------------------------------------------

void BulkPullSession::issue_body_pull(std::uint32_t pull_id, sim::NodeId peer,
                                      std::vector<BodyWant> want) {
  auto req = std::make_shared<RangeRequestMsg>();
  req->session_id = id_;
  req->range_index = pull_id;
  req->mode = PullMode::kListedBodies;
  req->count = static_cast<std::uint32_t>(want.size());
  req->want.reserve(want.size());
  for (const auto& w : want) req->want.push_back(w.hash);

  BodyPull pull;
  pull.want = std::move(want);
  pull.peer = peer;
  pull.token = ++token_counter_;
  inflight_[peer] += 1;
  const std::uint64_t token = pull.token;
  body_pulls_.emplace(pull_id, std::move(pull));

  env_.sync_send(peer, std::move(req));
  arm(kRangeTimeoutUs, [this, pull_id, token] { on_body_timeout(pull_id, token); });
}

void BulkPullSession::on_body_response(sim::NodeId /*from*/,
                                       const RangeResponseMsg& msg) {
  auto it = body_pulls_.find(msg.range_index);
  if (it == body_pulls_.end() || it->second.done) return;
  BodyPull& pull = it->second;
  pull.done = true;
  auto inflight = inflight_.find(pull.peer);
  if (inflight != inflight_.end() && inflight->second > 0) inflight->second -= 1;

  for (auto& want : pull.want) {
    bool committed = false;
    for (const auto& block : msg.bodies) {
      if (block->hash() != want.hash) continue;
      if (block->merkle_ok()) {
        env_.sync_commit_body(block);
        cp_->body_payload_bytes += block->serialized_size();
        cp_->bodies_committed += 1;
        erase_pending(want.hash);
        committed = true;
      }
      break;
    }
    if (!committed) requeue_body(want);
  }
  body_pulls_.erase(it);
  pump();
  check_done();
}

void BulkPullSession::on_body_timeout(std::uint32_t pull_id, std::uint64_t token) {
  auto it = body_pulls_.find(pull_id);
  if (it == body_pulls_.end() || it->second.done || it->second.token != token) return;
  BodyPull& pull = it->second;
  pull.done = true;
  auto inflight = inflight_.find(pull.peer);
  if (inflight != inflight_.end() && inflight->second > 0) inflight->second -= 1;
  cp_->ranges_retried += 1;
  for (auto& want : pull.want) requeue_body(want);
  body_pulls_.erase(it);
  pump();
  check_done();
}

void BulkPullSession::requeue_body(BodyWant want) {
  want.attempts += 1;
  if (want.attempts > kMaxRetries) {
    cp_->bodies_failed += 1;
    erase_pending(want.hash);
    return;
  }
  body_queue_.push_back(want);
}

// ---------------------------------------------------------------------------
// Coded shard fetches (delegated to the node's RS machinery)
// ---------------------------------------------------------------------------

void BulkPullSession::start_shard_fetch(const Hash256& hash, std::uint64_t height) {
  shards_outstanding_ += 1;
  std::weak_ptr<BulkPullSession> weak = weak_from_this();
  env_.sync_fetch_assigned_shard(
      hash, height, [weak, hash](std::shared_ptr<const Block> block) {
        auto self = weak.lock();
        if (!self || self->finished_) return;
        self->shards_outstanding_ -= 1;
        if (block) {
          self->cp_->body_payload_bytes += block->serialized_size();
          self->cp_->bodies_committed += 1;
          self->erase_pending(hash);
        } else {
          self->cp_->bodies_failed += 1;
          self->erase_pending(hash);
        }
        self->check_done();
      });
}

void BulkPullSession::erase_pending(const Hash256& hash) {
  auto& pending = cp_->pending_bodies;
  for (auto it = pending.begin(); it != pending.end(); ++it) {
    if (it->hash == hash) {
      pending.erase(it);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch + completion
// ---------------------------------------------------------------------------

void BulkPullSession::on_sync_message(sim::NodeId from, const SyncMessage& msg) {
  if (finished_ || msg.session_id != id_) return;
  switch (msg.sync_kind()) {
    case SyncMsgKind::kFrontierResponse:
      tally_bytes(from, msg);
      on_frontier_response(from, static_cast<const FrontierResponseMsg&>(msg));
      break;
    case SyncMsgKind::kRangeResponse: {
      tally_bytes(from, msg);
      const auto& resp = static_cast<const RangeResponseMsg&>(msg);
      if (resp.mode == PullMode::kListedBodies)
        on_body_response(from, resp);
      else
        on_range_response(from, resp);
      break;
    }
    case SyncMsgKind::kFrontierRequest:
    case SyncMsgKind::kRangeRequest:
      break;  // server-side kinds; nodes handle these outside the session
  }
}

void BulkPullSession::check_done() {
  if (finished_ || !frontier_done_) return;
  if (commit_cursor_ < ranges_.size()) return;
  if (!body_queue_.empty() || !body_pulls_.empty() || shards_outstanding_ > 0) return;
  finish(cp_->bodies_failed == 0);
}

void BulkPullSession::finish(bool ok) {
  if (finished_) return;
  finished_ = true;
  const sim::SimTime now = env_.sync_simulator().now();
  if (frontier_done_)
    obs::TraceSink::global().record_sim("sync/pull",
                                        static_cast<double>(now - pull_started_));
  cp_->complete = ok;

  SyncReport report;
  report.complete = ok;
  report.target_height = cp_->target_height;
  report.time_to_synced_us = now - cp_->started_at_us;
  report.frontier_us = cp_->frontier_us;
  report.bytes_downloaded = cp_->bytes_downloaded;
  report.header_payload_bytes = cp_->header_payload_bytes;
  report.body_payload_bytes = cp_->body_payload_bytes;
  report.headers_committed = cp_->headers_committed;
  report.bodies_committed = cp_->bodies_committed;
  report.bodies_failed = cp_->bodies_failed;
  report.ranges_committed = cp_->ranges_committed;
  report.ranges_retried = cp_->ranges_retried;
  report.resume_count = cp_->resume_count;
  report.peers_used = static_cast<std::uint32_t>(pull_peers_.size());
  report.by_peer = cp_->by_peer;
  std::sort(report.by_peer.begin(), report.by_peer.end(),
            [](const PeerBytes& a, const PeerBytes& b) { return a.peer < b.peer; });
  if (on_done_) on_done_(report);
}

}  // namespace ici::sync
