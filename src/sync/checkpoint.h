// Crash-safe sync state. A `SyncCheckpoint` lives OUTSIDE the joining node
// (with the join driver, host::Host::bootstrap_added), so when
// a FaultPlan crash window destroys the node's in-memory `BulkPullSession`,
// the verified prefix survives. On restart the driver opens a fresh session
// from the checkpoint and the joiner resumes at `next_height` instead of
// height 0. Only *verified* progress is checkpointed: fields advance at
// range-commit points, never on raw message arrival.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/hash.h"
#include "sim/network.h"

namespace ici::sync {

/// Tuning knobs of a bulk-pull session. Defaults match exp22; icisim
/// exposes them as `--sync-*` flags.
struct SyncConfig {
  /// Blocks per RangeRequest (and cap on a listed-body batch).
  std::uint32_t range_blocks = 16;
  /// Outstanding requests allowed per peer at any instant.
  std::uint32_t per_peer_window = 2;
  /// Pull peers used in parallel (frontier may probe more candidates).
  std::uint32_t max_peers = 4;
};

/// A body (or assigned shard) whose header range already committed but
/// whose payload has not landed yet. Persisted so a resume re-requests
/// exactly these instead of re-pulling the whole range.
struct PendingBody {
  Hash256 hash;
  std::uint64_t height = 0;
};

/// Download attribution for one source peer (wire bytes as charged by the
/// simulator: payload + per-message overhead).
struct PeerBytes {
  sim::NodeId peer = 0;
  std::uint64_t bytes = 0;
  std::uint32_t responses = 0;
};

struct SyncCheckpoint {
  // ---- verified prefix -------------------------------------------------
  /// First height not yet verified+committed; ranges resume here.
  std::uint64_t next_height = 0;
  /// Hash of the last committed header — the linkage anchor a resumed
  /// session verifies its first range against.
  Hash256 tail_hash{};
  /// Sync target learned from the frontier exchange (monotone across
  /// resumes; re-probed on every restart).
  std::uint64_t target_height = 0;
  bool have_target = false;
  /// Committed-range bodies/shards still owed to the store.
  std::vector<PendingBody> pending_bodies;
  bool complete = false;

  // ---- cumulative tallies (survive resumes, feed SyncReport) -----------
  std::uint64_t bytes_downloaded = 0;  ///< wire bytes incl. overhead
  std::uint64_t header_payload_bytes = 0;
  std::uint64_t body_payload_bytes = 0;
  std::uint64_t headers_committed = 0;
  std::uint64_t bodies_committed = 0;
  std::uint32_t bodies_failed = 0;
  std::uint32_t ranges_committed = 0;
  std::uint32_t ranges_retried = 0;
  std::uint32_t resume_count = 0;
  std::vector<PeerBytes> by_peer;

  // ---- timing ----------------------------------------------------------
  sim::SimTime started_at_us = 0;
  bool timing_started = false;
  sim::SimTime frontier_us = 0;  ///< accumulated frontier-phase sim time

  PeerBytes& peer_tally(sim::NodeId peer) {
    for (auto& p : by_peer)
      if (p.peer == peer) return p;
    by_peer.push_back(PeerBytes{peer, 0, 0});
    return by_peer.back();
  }
};

/// Final outcome of a join, built from the checkpoint when the session
/// finishes (or fails). `protocol` is false for the pruned baseline, whose
/// join cost stays closed-form (it has no sim network to speak over).
struct SyncReport {
  bool complete = false;
  bool protocol = true;
  std::uint64_t target_height = 0;
  sim::SimTime time_to_synced_us = 0;
  sim::SimTime frontier_us = 0;
  std::uint64_t bytes_downloaded = 0;
  std::uint64_t header_payload_bytes = 0;
  std::uint64_t body_payload_bytes = 0;
  std::uint64_t headers_committed = 0;
  std::uint64_t bodies_committed = 0;
  std::uint32_t bodies_failed = 0;
  std::uint32_t ranges_committed = 0;
  std::uint32_t ranges_retried = 0;
  std::uint32_t resume_count = 0;
  std::uint32_t peers_used = 0;
  std::vector<PeerBytes> by_peer;
};

}  // namespace ici::sync
