#include "sync/serve.h"

#include <algorithm>

namespace ici::sync {

std::uint64_t ServeThrottle::delay_for(std::uint32_t server, std::uint32_t peer,
                                       std::uint64_t bytes, std::uint64_t now) {
  if (rate_bps_ <= 0.0) return 0;
  const double cost_us = static_cast<double>(bytes) / rate_bps_ * 1e6;
  const std::uint64_t key = (std::uint64_t{server} << 32) | peer;
  std::uint64_t& busy = busy_until_[key];
  const std::uint64_t start = std::max(busy, now);
  busy = start + static_cast<std::uint64_t>(cost_us);
  // The response leaves once its own serialization completes: even an idle
  // bucket delays by the transfer cost, and back-to-back responses queue
  // behind each other.
  return busy - now;
}

sim::MessagePtr serve_frontier(BlockReader store,
                               const FrontierRequestMsg& req,
                               std::uint64_t inventory, bool serves_shards) {
  auto resp = std::make_shared<FrontierResponseMsg>();
  resp->session_id = req.session_id;
  if (auto tip = store.tip_height()) {
    resp->has_tip = true;
    resp->tip_height = *tip;
  }
  resp->inventory = inventory;
  resp->serves_shards = serves_shards;
  return resp;
}

ServedRange serve_range(BlockReader store, const RangeRequestMsg& req) {
  auto resp = std::make_shared<RangeResponseMsg>();
  resp->session_id = req.session_id;
  resp->range_index = req.range_index;
  resp->mode = req.mode;
  resp->from_height = req.from_height;
  resp->count = req.count;
  std::uint64_t io_delay = 0;

  // Each fetch's io_delay_us is completion-relative: the backend's
  // serialized read clock already queues this read behind every earlier
  // read issued at the same sim instant, so the delay of the *last* cold
  // read is when all of them are off the media. Aggregate with max —
  // summing would charge the queueing twice (quadratic in batch size).
  if (req.mode == PullMode::kListedBodies) {
    resp->bodies.reserve(req.want.size());
    for (const auto& hash : req.want) {
      if (BlockRef ref = store.block_by_hash(hash)) {
        io_delay = std::max(io_delay, ref.io_delay_us);
        resp->bodies.push_back(ref.share());
      }
    }
    return {std::move(resp), io_delay};
  }

  resp->headers.reserve(req.count);
  for (std::uint64_t h = req.from_height; h < req.from_height + req.count; ++h) {
    auto header = store.header_at(h);
    if (!header) continue;
    resp->headers.push_back(*header);
    if (req.mode == PullMode::kHeadersAndBodies) {
      if (BlockRef ref = store.block_by_hash(header->hash())) {
        io_delay = std::max(io_delay, ref.io_delay_us);
        resp->bodies.push_back(ref.share());
      }
    }
  }
  return {std::move(resp), io_delay};
}

}  // namespace ici::sync
