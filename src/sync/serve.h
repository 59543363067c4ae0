// Server side of the streaming bootstrap protocol — shared by every node
// flavour. A serving peer answers from its BlockStore: frontier summaries
// from the tip/occupancy, ranges from the height index, listed bodies from
// the body map. Stateless: each request produces exactly one response (or
// none if addressed wrong), so serving never perturbs the server's own
// protocol machine.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "storage/block_store.h"
#include "sync/messages.h"

namespace ici::sync {

/// Per-peer token bucket on the serve side of bulk sync. Each
/// (server, peer) pair gets a serialization clock: a response of B bytes
/// occupies the server's uplink to that peer for B / rate seconds of sim
/// time, and a response arriving while the clock is ahead of `now` is
/// deferred by the remainder. Stateless protocol on top is untouched — a
/// throttled server sends the same responses, just later — so a throttled
/// join resumes bit-identical (tests/test_sync.cpp).
class ServeThrottle {
 public:
  explicit ServeThrottle(double rate_bps) : rate_bps_(rate_bps) {}

  [[nodiscard]] double rate_bps() const { return rate_bps_; }

  /// Sim-time delay (µs) to apply before sending `bytes` from `server` to
  /// `peer` at sim time `now`; advances the pair's busy-until clock. The
  /// delay covers the response's own serialization (B / rate) plus any
  /// backlog already on the clock, so with a rate configured every served
  /// response is delayed at least its transfer cost.
  [[nodiscard]] std::uint64_t delay_for(std::uint32_t server, std::uint32_t peer,
                                        std::uint64_t bytes, std::uint64_t now);

 private:
  double rate_bps_;
  // (server << 32 | peer) -> sim time (µs) the pair's uplink is busy until.
  std::unordered_map<std::uint64_t, std::uint64_t> busy_until_;
};

/// Builds the frontier answer for `req`. `inventory` is the count of
/// bodies (replication) or shards (coded) the peer can serve;
/// `serves_shards` marks coded peers. Takes a read-only store view — the
/// serve side never writes.
[[nodiscard]] sim::MessagePtr serve_frontier(BlockReader store,
                                             const FrontierRequestMsg& req,
                                             std::uint64_t inventory,
                                             bool serves_shards);

/// A built range response plus the simulated IO cost of assembling it:
/// the completion delay of the batch's cold reads (each fetch's delay is
/// relative to now and already includes queueing behind the earlier reads
/// on the node's serialized read head, so the batch completes at the max;
/// always 0 with the in-memory backend). The caller defers the send by
/// `io_delay_us` so disk-backed serving pays for its reads in sim time.
struct ServedRange {
  sim::MessagePtr msg;
  std::uint64_t io_delay_us = 0;
};

/// Builds the range answer for `req`.
///  - kHeaders / kHeadersAndBodies: headers for every height in
///    [from, from+count) the store holds; in kHeadersAndBodies mode, every
///    held body in the range rides along.
///  - kListedBodies: exactly the wanted bodies the store holds.
[[nodiscard]] ServedRange serve_range(BlockReader store, const RangeRequestMsg& req);

}  // namespace ici::sync
