#include <gtest/gtest.h>

#include "sim/faults.h"
#include "sim/network.h"
#include "sim/simulator.h"

#include <unordered_set>

namespace ici::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesRunInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule_at(7, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, NextTimeOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.next_time(), std::logic_error);
  EXPECT_THROW((void)q.run_next(), std::logic_error);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  SimTime seen = 0;
  sim.after(100, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, NestedSchedulingWorks) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.after(10, [&] {
    times.push_back(sim.now());
    sim.after(10, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 20}));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.after(10, [&] { ++fired; });
  sim.after(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, MaxEventsLimit) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) sim.after(i + 1, [&] { ++fired; });
  sim.run(3);
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, AtClampsToNowAndCountsLateEvents) {
  Simulator sim;
  EXPECT_EQ(sim.late_events(), 0u);
  sim.after(100, [&] {
    // Scheduling in the past runs "now", not before — and is counted, so
    // experiments can detect protocol logic scheduling into the past.
    sim.at(5, [&] { EXPECT_GE(sim.now(), 100u); });
    sim.at(100, [&] {});  // exactly-now is not late
  });
  sim.run();
  EXPECT_EQ(sim.late_events(), 1u);
}

TEST(Simulator, QueueStatsTrackExecutionAndPeak) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.after(i, [] {});
  EXPECT_EQ(sim.queue_stats().scheduled, 10u);
  EXPECT_EQ(sim.queue_stats().peak_pending, 10u);
  sim.run();
  EXPECT_EQ(sim.queue_stats().executed, 10u);
  EXPECT_EQ(sim.queue_stats().heap_fallback_events, 0u);
}

// -- network ---------------------------------------------------------------

class Recorder : public INode {
 public:
  void on_message(NodeId from, const MessagePtr& msg) override {
    received.push_back({from, msg});
  }
  std::vector<std::pair<NodeId, MessagePtr>> received;
};

struct TestMsg final : MessageBase {
  std::size_t size;
  explicit TestMsg(std::size_t s) : size(s) {}
  [[nodiscard]] std::size_t wire_size() const override { return size; }
  [[nodiscard]] const char* type_name() const override { return "Test"; }
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net(sim, make_config()) {
    a = net.add_node(&ra, {0, 0});
    b = net.add_node(&rb, {3, 4});  // distance 5
  }

  static NetworkConfig make_config() {
    NetworkConfig cfg;
    cfg.base_propagation_us = 1000;
    cfg.us_per_distance_unit = 100;
    cfg.jitter_stddev_us = 0;  // deterministic latency for assertions
    cfg.default_uplink_bps = 1e6;
    cfg.per_message_overhead = 0;
    return cfg;
  }

  Simulator sim;
  Network net;
  Recorder ra, rb;
  NodeId a = 0, b = 0;
};

TEST_F(NetworkTest, DeliversWithPropagationAndTransferDelay) {
  net.send(a, b, std::make_shared<TestMsg>(1'000'000));  // 1 s transfer at 1 MB/s
  sim.run();
  ASSERT_EQ(rb.received.size(), 1u);
  // transfer 1e6 us + propagation 1000 + 5*100 = 1'001'500 us.
  EXPECT_EQ(sim.now(), 1'001'500u);
}

TEST_F(NetworkTest, UplinkSerializesBackToBackSends) {
  Recorder rc;
  const NodeId c = net.add_node(&rc, {3, 4});
  net.send(a, b, std::make_shared<TestMsg>(1'000'000));
  net.send(a, c, std::make_shared<TestMsg>(1'000'000));
  sim.run();
  ASSERT_EQ(rb.received.size(), 1u);
  ASSERT_EQ(rc.received.size(), 1u);
  // Second message waits for the first transfer: 2e6 + prop.
  EXPECT_EQ(sim.now(), 2'001'500u);
}

TEST_F(NetworkTest, TrafficAccounting) {
  net.send(a, b, std::make_shared<TestMsg>(500));
  sim.run();
  EXPECT_EQ(net.traffic(a).msgs_sent, 1u);
  EXPECT_EQ(net.traffic(a).bytes_sent, 500u);
  EXPECT_EQ(net.traffic(b).msgs_received, 1u);
  EXPECT_EQ(net.traffic(b).bytes_received, 500u);
  const NodeTraffic total = net.total_traffic();
  EXPECT_EQ(total.bytes_sent, 500u);
  EXPECT_EQ(total.bytes_received, 500u);
}

TEST_F(NetworkTest, PerMessageOverheadCharged) {
  NetworkConfig cfg = make_config();
  cfg.per_message_overhead = 64;
  Simulator s2;
  Network n2(s2, cfg);
  Recorder r1, r2;
  const NodeId x = n2.add_node(&r1, {0, 0});
  const NodeId y = n2.add_node(&r2, {1, 0});
  n2.send(x, y, std::make_shared<TestMsg>(100));
  s2.run();
  EXPECT_EQ(n2.traffic(x).bytes_sent, 164u);
}

TEST_F(NetworkTest, OfflineReceiverDropsMessage) {
  net.set_online(b, false);
  net.send(a, b, std::make_shared<TestMsg>(10));
  sim.run();
  EXPECT_TRUE(rb.received.empty());
  // Sender was still charged (it cannot know).
  EXPECT_EQ(net.traffic(a).bytes_sent, 10u);
  EXPECT_EQ(net.traffic(b).bytes_received, 0u);
}

TEST_F(NetworkTest, OfflineSenderSendsNothing) {
  net.set_online(a, false);
  net.send(a, b, std::make_shared<TestMsg>(10));
  sim.run();
  EXPECT_TRUE(rb.received.empty());
  EXPECT_EQ(net.traffic(a).bytes_sent, 0u);
}

TEST_F(NetworkTest, SelfSendDeliversLocally) {
  net.send(a, a, std::make_shared<TestMsg>(10));
  sim.run();
  ASSERT_EQ(ra.received.size(), 1u);
  EXPECT_EQ(ra.received[0].first, a);
  EXPECT_LE(sim.now(), 2u);  // no network delay
}

TEST_F(NetworkTest, MulticastSkipsSelf) {
  Recorder rc;
  const NodeId c = net.add_node(&rc, {1, 1});
  net.multicast(a, {a, b, c}, std::make_shared<TestMsg>(10));
  sim.run();
  EXPECT_TRUE(ra.received.empty());
  EXPECT_EQ(rb.received.size(), 1u);
  EXPECT_EQ(rc.received.size(), 1u);
}

TEST_F(NetworkTest, PropagationSymmetric) {
  EXPECT_DOUBLE_EQ(net.propagation_us(a, b), net.propagation_us(b, a));
  EXPECT_DOUBLE_EQ(net.propagation_us(a, b), 1000 + 5 * 100);
}

TEST_F(NetworkTest, ResetTrafficClears) {
  net.send(a, b, std::make_shared<TestMsg>(10));
  sim.run();
  net.reset_traffic();
  EXPECT_EQ(net.total_traffic().bytes_sent, 0u);
}

TEST_F(NetworkTest, UnknownNodeThrows) {
  EXPECT_THROW(net.send(a, 999, std::make_shared<TestMsg>(1)), std::out_of_range);
  EXPECT_THROW((void)net.traffic(999), std::out_of_range);
}

TEST_F(NetworkTest, MulticastMatchesSendLoopExactly) {
  // The fan-out path hoists wire-size/transfer math and shares the message
  // pointer, but must charge the same bytes and draw the same per-recipient
  // jitter stream as repeated send() calls. Two identically-seeded networks,
  // one driven each way, must therefore finish at the identical sim time.
  NetworkConfig cfg = make_config();
  cfg.jitter_stddev_us = 750;  // jitter ON so the RNG draw order matters

  Simulator s1, s2;
  Network n1(s1, cfg), n2(s2, cfg);
  Recorder r1, r2;
  std::vector<NodeId> peers1, peers2;
  const NodeId src1 = n1.add_node(&r1, {0, 0});
  const NodeId src2 = n2.add_node(&r2, {0, 0});
  for (int i = 0; i < 6; ++i) {
    const Coord c{static_cast<double>(i), 2.0};
    peers1.push_back(n1.add_node(&r1, c));
    peers2.push_back(n2.add_node(&r2, c));
  }

  auto msg = std::make_shared<TestMsg>(50'000);
  n1.multicast(src1, peers1, msg);
  for (NodeId t : peers2) n2.send(src2, t, msg);
  s1.run();
  s2.run();

  EXPECT_EQ(r1.received.size(), 6u);
  EXPECT_EQ(s1.now(), s2.now());
  EXPECT_EQ(n1.total_traffic().bytes_sent, n2.total_traffic().bytes_sent);
  EXPECT_EQ(n1.traffic(src1).msgs_sent, n2.traffic(src2).msgs_sent);
}

TEST(Distance, Euclidean) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

// -- crash sessions (the churn model) --------------------------------------

TEST(CrashSessions, TogglesSelectedNodes) {
  Simulator sim;
  NetworkConfig ncfg;
  Network net(sim, ncfg);
  Recorder r;
  std::vector<NodeId> ids;
  for (int i = 0; i < 50; ++i) ids.push_back(net.add_node(&r, {0, 0}));

  FaultPlan plan;
  plan.crash_fraction = 0.5;
  plan.mean_uptime_us = 1000;
  plan.mean_downtime_us = 1000;
  plan.seed = 3;
  FaultInjector faults(net, plan);

  std::unordered_set<NodeId> changed;
  int downs = 0, ups = 0;
  faults.start(ids, [&](NodeId id, bool online) {
    changed.insert(id);
    (online ? ups : downs)++;
  });
  EXPECT_GT(faults.crash_set().size(), 10u);
  EXPECT_LT(faults.crash_set().size(), 40u);

  sim.run_until(20'000);
  EXPECT_GT(downs, 0);
  EXPECT_GT(ups, 0);
  // Only nodes in the crash set ever change.
  for (NodeId id : changed) {
    EXPECT_NE(std::find(faults.crash_set().begin(), faults.crash_set().end(), id),
              faults.crash_set().end());
  }
}

TEST(CrashSessions, ZeroFractionCrashesNobody) {
  Simulator sim;
  Network net(sim, {});
  Recorder r;
  std::vector<NodeId> ids = {net.add_node(&r, {0, 0})};
  FaultPlan plan;
  plan.crash_fraction = 0.0;
  FaultInjector faults(net, plan);
  faults.start(ids, nullptr);
  EXPECT_TRUE(faults.crash_set().empty());
}

}  // namespace
}  // namespace ici::sim
