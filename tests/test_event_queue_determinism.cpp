// Event-order determinism suite for the calendar-queue overhaul: golden
// FIFO order at equal timestamps, interleaved after/at, calendar-boundary
// cases (bucket edges, far-heap spills, window re-anchoring), and a
// randomized differential test replaying the same million-event schedule
// through the production EventQueue and the pre-overhaul reference queue
// (sim/reference_queue.h), asserting identical execution order; plus the
// same differential for the Simulator itself on nested harness cascades.
// The simulator's determinism contract — execution is total-ordered by
// (time, schedule-sequence) — is what keeps every BENCH_*.json artifact
// bit-reproducible, so this suite is the contract's enforcement point.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/reference_queue.h"
#include "sim/simulator.h"

namespace ici::sim {
namespace {

constexpr SimTime kW = EventQueue::kBucketWidthUs;
constexpr std::uint64_t kB = EventQueue::kBucketCount;

TEST(EventQueueDeterminism, EqualTimestampsRunInScheduleOrderAcrossBuckets) {
  EventQueue q;
  std::vector<int> order;
  // Interleave two timestamps in opposite bucket order so heap internals
  // would scramble a non-(at, seq) ordering.
  for (int i = 0; i < 16; ++i) {
    q.schedule_at(5 * kW + 3, [&order, i] { order.push_back(100 + i); });
    q.schedule_at(2 * kW + 7, [&order, i] { order.push_back(i); });
  }
  std::vector<int> expect;
  for (int i = 0; i < 16; ++i) expect.push_back(i);
  for (int i = 0; i < 16; ++i) expect.push_back(100 + i);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, expect);
}

TEST(EventQueueDeterminism, InterleavedAfterAndAtPreserveTotalOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.after(10, [&] {
    order.push_back(1);
    sim.at(30, [&] { order.push_back(4); });    // same time as the after() below
    sim.after(20, [&] { order.push_back(5); }); // scheduled later -> runs after
    sim.at(5, [&] { order.push_back(2); });     // past deadline -> clamps to now
    sim.after(0, [&] { order.push_back(3); });  // now, but after the clamped at()
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.late_events(), 1u);
}

TEST(EventQueueDeterminism, BucketBoundaryTimesStaySorted) {
  EventQueue q;
  std::vector<SimTime> times;
  const SimTime probes[] = {kW - 1, kW, kW + 1, 2 * kW - 1, 2 * kW, 0, 1};
  for (SimTime t : probes) q.schedule_at(t, [&times, t] { times.push_back(t); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(times, (std::vector<SimTime>{0, 1, kW - 1, kW, kW + 1, 2 * kW - 1, 2 * kW}));
}

TEST(EventQueueDeterminism, FarFutureEventsSpillToHeapAndStillSort) {
  EventQueue q;
  std::vector<int> order;
  const SimTime horizon = kB * kW;
  // First schedule anchors the (empty) window near t=0; the rest lie past
  // the horizon and must take the far-heap fallback.
  q.schedule_at(1, [&] { order.push_back(1); });
  q.schedule_at(3 * horizon, [&] { order.push_back(3); });  // far
  q.schedule_at(horizon + 5, [&] { order.push_back(2); });  // far
  q.schedule_at(3 * horizon, [&] { order.push_back(4); });  // far, same time as #3
  EXPECT_EQ(q.stats().far_events, 3u);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueDeterminism, ReanchorsAfterDrainingCompletely) {
  EventQueue q;
  std::vector<SimTime> times;
  q.schedule_at(7, [&] { times.push_back(7); });
  while (!q.empty()) q.run_next();
  // Queue empty; next schedule far from the previous window must re-anchor.
  const SimTime far_ahead = 1000 * kB * kW + 13;
  q.schedule_at(far_ahead, [&times, far_ahead] { times.push_back(far_ahead); });
  q.schedule_at(far_ahead + 1, [&times, far_ahead] { times.push_back(far_ahead + 1); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(times, (std::vector<SimTime>{7, far_ahead, far_ahead + 1}));
}

// The load-bearing test: replay one randomized schedule — bursty arrivals,
// equal-time clusters, timeouts near the horizon, multi-minute timers past
// it, and events chained from inside events like real protocol code — in
// the production queue and the reference binary heap, and require the exact
// same execution order over 1M+ events.
TEST(EventQueueDeterminism, DifferentialMillionEventsMatchReferenceHeap) {
  constexpr std::uint64_t kSeedEvents = 200'000;  // chained events triple this
  constexpr std::uint64_t kSpawnLimit = 1'200'000;

  struct Run {
    std::vector<std::uint64_t> order;
    std::uint64_t spawned = 0;
  };

  // Drives either queue type through the identical schedule: same RNG seed,
  // same draw sequence, same chaining rule.
  const auto drive = [&](auto& q) {
    Run run;
    Rng rng(20260806);
    SimTime now = 0;
    std::uint64_t next_id = 0;

    const auto delay_draw = [&rng]() -> SimTime {
      const double pick = rng.uniform01();
      if (pick < 0.55) return 2000 + static_cast<SimTime>(rng.exponential(4000.0));  // deliveries
      if (pick < 0.75) return rng.uniform(3);  // same-time cascades
      if (pick < 0.95) return 1'000'000 + rng.uniform(3'000'000);  // timeouts
      return 60'000'000 + rng.uniform(600'000'000);  // churn-scale timers
    };

    // Each executed event may schedule 0-2 more relative to its own time,
    // exactly like protocol handlers do.
    std::function<void(std::uint64_t)> on_fire;  // shared by both queue types
    const auto schedule = [&](SimTime at) {
      const std::uint64_t id = next_id++;
      q.schedule_at(at, [&on_fire, id] { on_fire(id); });
      ++run.spawned;
    };
    on_fire = [&](std::uint64_t id) {
      run.order.push_back(id);
      if (run.spawned >= kSpawnLimit) return;
      const std::uint64_t children = rng.uniform(3);  // 0..2, mean 1
      for (std::uint64_t c = 0; c < children; ++c) schedule(now + delay_draw());
    };

    for (std::uint64_t i = 0; i < kSeedEvents; ++i) schedule(delay_draw());
    while (!q.empty()) now = q.run_next();
    return run;
  };

  EventQueue fast;
  ReferenceEventQueue ref;
  const Run a = drive(fast);
  const Run b = drive(ref);

  ASSERT_GT(a.order.size(), 1'000'000u) << "schedule too small to be meaningful";
  ASSERT_EQ(a.order.size(), b.order.size());
  ASSERT_EQ(a.order, b.order) << "execution order diverged from the reference heap";
  EXPECT_GT(fast.stats().far_events, 0u) << "schedule never exercised the far-heap fallback";
  EXPECT_EQ(fast.stats().executed, a.order.size());
}

// --- Simulator vs oracle: harness cascades --------------------------------
//
// Harness-context keys are drawn from one monotonic counter, so the
// (at, key) order the Simulator executes must equal the reference queue's
// (at, insertion-seq) order — event by event, for the same randomized
// cascade with events scheduled from inside events.

class SimCascade {
 public:
  SimCascade(Simulator* s, std::uint64_t seed) : sim_(s), rng_(seed) {}

  void spawn(SimTime at, int depth) {
    const std::uint64_t id = next_id_++;
    sim_->at(at, [this, id, depth] { execute(id, depth); });
  }

  void execute(std::uint64_t id, int depth) {
    order_.push_back(id);
    if (depth == 0) return;
    const std::uint64_t kids = rng_.uniform(3);
    for (std::uint64_t i = 0; i < kids; ++i) {
      // Mix of strictly-later and same-time children: same-time events must
      // run in scheduling order (the key counter is the tie-break).
      spawn(sim_->now() + rng_.uniform(40), depth - 1);
    }
  }

  [[nodiscard]] const std::vector<std::uint64_t>& order() const { return order_; }

 private:
  Simulator* sim_;
  Rng rng_;
  std::uint64_t next_id_ = 0;
  std::vector<std::uint64_t> order_;
};

class RefCascade {
 public:
  explicit RefCascade(std::uint64_t seed) : rng_(seed) {}

  void spawn(SimTime at, int depth) {
    const std::uint64_t id = next_id_++;
    q_.schedule_at(at, [this, at, id, depth] { execute(at, id, depth); });
  }

  void execute(SimTime now, std::uint64_t id, int depth) {
    order_.push_back(id);
    if (depth == 0) return;
    const std::uint64_t kids = rng_.uniform(3);
    for (std::uint64_t i = 0; i < kids; ++i) spawn(now + rng_.uniform(40), depth - 1);
  }

  void run() {
    while (!q_.empty()) q_.run_next();
  }

  [[nodiscard]] const std::vector<std::uint64_t>& order() const { return order_; }

 private:
  ReferenceEventQueue q_;
  Rng rng_;
  std::uint64_t next_id_ = 0;
  std::vector<std::uint64_t> order_;
};

std::vector<std::uint64_t> sim_cascade_order(std::uint64_t seed) {
  Simulator s;
  SimCascade cascade(&s, seed);
  Rng seeds(seed ^ 0xD1CEu);
  for (int i = 0; i < 200; ++i) cascade.spawn(seeds.uniform(500), /*depth=*/3);
  s.run();
  return cascade.order();
}

std::vector<std::uint64_t> ref_cascade_order(std::uint64_t seed) {
  RefCascade cascade(seed);
  Rng seeds(seed ^ 0xD1CEu);
  for (int i = 0; i < 200; ++i) cascade.spawn(seeds.uniform(500), /*depth=*/3);
  cascade.run();
  return cascade.order();
}

TEST(EventQueueDeterminism, HarnessCascadeMatchesReferenceQueueOracle) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto expected = ref_cascade_order(seed);
    ASSERT_GT(expected.size(), 200u) << "cascade degenerated at seed " << seed;
    EXPECT_EQ(sim_cascade_order(seed), expected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ici::sim
