// Zero-allocation contract for the simulator core (mirror of the PR 3
// encode_message allocation test): on the steady-state network path,
// scheduling and dispatching an event must not touch the heap. The event's
// capture lives in InplaceEvent's inline buffer and the calendar queue
// recycles bucket capacity, so after warm-up the only per-message heap
// traffic left in a send→deliver round trip is zero. A counting global
// operator new (binary-wide; it just counts, then defers to malloc) pins
// that down instead of trusting the design comment.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "sim/event.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

// The replaced new/delete pair is kept out of line so the compiler matches
// every delete against this new at call sites instead of tracing the
// malloc/free inside them across inlining.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Every delete form funnels into the one that pairs with the new above.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace ici::sim {
namespace {

struct TestMsg final : MessageBase {
  std::size_t size;
  explicit TestMsg(std::size_t s) : size(s) {}
  [[nodiscard]] std::size_t wire_size() const override { return size; }
  [[nodiscard]] const char* type_name() const override { return "Test"; }
};

class Sink : public INode {
 public:
  void on_message(NodeId, const MessagePtr&) override { ++delivered; }
  std::size_t delivered = 0;
};

TEST(SimAlloc, SteadyStateSendScheduleDispatchIsAllocationFree) {
  Simulator sim;
  NetworkConfig cfg;
  cfg.jitter_stddev_us = 500;  // keep the per-recipient RNG draw on the path
  Network net(sim, cfg);
  Sink sink;
  std::vector<NodeId> peers;
  const NodeId src = net.add_node(&sink, {0, 0});
  for (int i = 0; i < 8; ++i)
    peers.push_back(net.add_node(&sink, {static_cast<double>(i), 1.0}));
  const MessagePtr msg = std::make_shared<TestMsg>(4096);

  // Warm-up: the same fan-out + settle cycle repeated until the calendar
  // ring has fully rotated at least once (each round advances sim time by
  // ~19 ms ≈ 2-3 buckets; the ring is kBucketCount × kBucketWidthUs ≈ 4.2 s
  // wide), so every slot the measured round can land in already carries
  // recycled vector capacity.
  constexpr int kWarmRounds = 320;
  for (int round = 0; round < kWarmRounds; ++round) {
    net.multicast(src, peers, msg);
    sim.run();
  }

  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  net.multicast(src, peers, msg);          // 8 scheduled delivery events
  net.send(src, peers[0], msg);            // lvalue single-send path
  net.send(src, peers[1], MessagePtr(msg));  // rvalue single-send path
  sim.run();                               // dispatch all 10
  const std::size_t during = g_alloc_count.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(during, 0u) << "steady-state schedule/dispatch must not allocate";
  EXPECT_EQ(sink.delivered, static_cast<std::size_t>(kWarmRounds) * 8u + 10u);
  EXPECT_EQ(sim.queue_stats().heap_fallback_events, 0u)
      << "a delivery closure outgrew InplaceEvent's inline buffer";
}

// The guard that makes the network result meaningful: a capture larger than
// the inline budget must still work, but is counted as a heap fallback.
TEST(SimAlloc, OversizedCapturesFallBackToHeapAndAreCounted) {
  Simulator sim;
  struct Big {
    char payload[InplaceEvent::kInlineCapacity + 8] = {};
  };
  Big big;
  bool fired = false;
  sim.after(1, [big, &fired] {
    (void)big;
    fired = true;
  });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.queue_stats().heap_fallback_events, 1u);
}

TEST(SimAlloc, InlineEventFitsDeliveryClosureShape) {
  // Compile-time guarantee that the delivery closure shape stays inline:
  // this + from + to + wire + shared_ptr is the largest hot-path capture.
  struct DeliveryShape {
    void* self;
    NodeId from, to;
    std::size_t wire;
    MessagePtr msg;
  };
  static_assert(sizeof(DeliveryShape) <= InplaceEvent::kInlineCapacity,
                "network delivery closure no longer fits the inline event buffer");
}

}  // namespace
}  // namespace ici::sim
