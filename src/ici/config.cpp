#include "ici/config.h"

namespace ici::core {

bool IciConfig::valid(std::string* why) const {
  auto fail = [&](const char* msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (cluster_count == 0) return fail("cluster_count must be > 0");
  if (replication == 0) return fail("replication must be > 0");
  if (clustering != "kmeans" && clustering != "random" && clustering != "grid")
    return fail("clustering must be kmeans|random|grid");
  if (erasure_data + erasure_parity > 255)
    return fail("erasure_data + erasure_parity must be <= 255");
  return true;
}

}  // namespace ici::core
