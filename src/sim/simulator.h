// Simulator: the clock + event queue facade protocols schedule against.
//
// One calendar queue; events run one at a time in (at, key) order on the
// calling thread (docs/SIMULATOR.md).
//
// Determinism tie-break: every event carries a u64 key packing
// (source node id << 32 | per-source counter); harness context uses source
// id 0xFFFFFFFF, which sorts last. Keys are drawn from the *scheduling*
// context in its execution order, so equal-time events from different
// sources run in source-id order and a source's own events in the order it
// scheduled them.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace ici::sim {

class Simulator {
 public:
  /// Source/owner id for harness (non-node) scheduling contexts.
  static constexpr std::uint32_t kNoOwner = EventQueue::kNoOwner;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current sim time: the executing event's timestamp when called from
  /// inside an event, the time the last run ended at otherwise.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules relative to now, owned by the *scheduling* node. Accepts any
  /// void() callable; captures up to InplaceEvent::kInlineCapacity bytes
  /// stay allocation-free.
  template <typename F>
  void after(SimTime delay, F&& action) {
    schedule_owned(exec_node_, now() + delay, std::forward<F>(action));
  }

  /// Schedules at an absolute time, owned by the scheduling node.
  /// Deadlines already in the past clamp to now — and are counted
  /// (late_events), because protocol logic scheduling into the past is
  /// almost always a bug the clamp would otherwise hide.
  template <typename F>
  void at(SimTime when, F&& action) {
    schedule_owned(exec_node_, clamp_when(when), std::forward<F>(action));
  }

  /// Schedules an event that executes *as* `node`: events it schedules in
  /// turn draw their keys from `node`'s counter. All message deliveries
  /// route through this (sim/network.cpp).
  template <typename F>
  void schedule_for(std::uint32_t node, SimTime when, F&& action) {
    schedule_owned(node, clamp_when(when), std::forward<F>(action));
  }

  /// Runs events until the queue drains or `max_events` fire. Returns the
  /// number of events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs events with time ≤ deadline; the clock ends at
  /// max(now, deadline) even if the queue drained early.
  std::size_t run_until(SimTime deadline);

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Count of at()/schedule_for() calls whose deadline was clamped to now.
  /// Deterministic; the network facades export it as the `sim.late_events`
  /// counter and the deterministic-network test asserts it stays zero.
  [[nodiscard]] std::uint64_t late_events() const { return late_events_; }

  /// Structural queue instrumentation (scheduled/executed/peak/far/heap
  /// fallbacks), all deterministic for a deterministic schedule.
  [[nodiscard]] const EventQueue::Stats& queue_stats() const { return queue_.stats(); }

 private:
  static constexpr SimTime kNoDeadline = std::numeric_limits<SimTime>::max();

  [[nodiscard]] SimTime clamp_when(SimTime when) {
    if (when < now_) {
      ++late_events_;
      when = now_;
    }
    return when;
  }

  /// Next tie-break key for the scheduling context `src`: its per-source
  /// counter in the low 32 bits, `src` in the high bits.
  [[nodiscard]] std::uint64_t draw_key(std::uint32_t src) {
    if (src == kNoOwner)
      return (std::uint64_t{kNoOwner} << 32) | (harness_seq_++ & 0xFFFFFFFFu);
    if (src >= src_seq_.size()) src_seq_.resize(src + 1, 0);
    return (std::uint64_t{src} << 32) | (src_seq_[src]++ & 0xFFFFFFFFu);
  }

  template <typename F>
  void schedule_owned(std::uint32_t owner, SimTime when, F&& action) {
    queue_.schedule_keyed(when, draw_key(exec_node_), owner, std::forward<F>(action));
  }

  /// Runs events with time ≤ deadline, at most `max_events` of them.
  std::size_t run_through(SimTime deadline, std::size_t max_events);

  SimTime now_ = 0;
  std::uint32_t exec_node_ = kNoOwner;  // owner of the executing event
  std::uint64_t late_events_ = 0;
  EventQueue queue_;
  std::vector<std::uint64_t> src_seq_;  // per-source key counters
  std::uint64_t harness_seq_ = 0;
};

}  // namespace ici::sim
