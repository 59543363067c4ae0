#include "sync/peer.h"

namespace ici::sync {

void PeerSession::start_streaming_sync(const SyncConfig& cfg, SyncCheckpoint* checkpoint,
                                       std::vector<sim::NodeId> candidates,
                                       std::function<void(const SyncReport&)> on_done) {
  const std::uint64_t session_id =
      (static_cast<std::uint64_t>(sync_self()) << 20) + (++epoch_);
  session_ = BulkPullSession::start(*this, cfg, checkpoint, std::move(candidates), session_id,
                                    std::move(on_done));
}

}  // namespace ici::sync
