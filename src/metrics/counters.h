// Named counters and histograms for protocol-level metrics (events the
// network layer cannot see: verification outcomes, repair actions, retrieval
// hits/misses, end-to-end latencies).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/stats.h"

namespace ici::metrics {

/// Monotonic counter. Increments are relaxed atomics so worker-pool tasks
/// can bump shared counters without locks; the summed value is order-free
/// and therefore deterministic for a deterministic event set.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) : value_(other.value()) {}
  Counter& operator=(const Counter& other) {
    value_.store(other.value(), std::memory_order_relaxed);
    return *this;
  }

  void inc(std::uint64_t by = 1) { value_.fetch_add(by, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Latency/size distribution; thin alias with a domain name.
using Distribution = ici::Histogram;

/// Compact export of a distribution for machine-readable reports: the four
/// fields every bench artifact carries per label (count/total/p50/p99).
struct DistributionSummary {
  std::uint64_t count = 0;
  double total = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

[[nodiscard]] DistributionSummary summarize(const Distribution& dist);

}  // namespace ici::metrics
