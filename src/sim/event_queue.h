// Discrete-event core: a simulated microsecond clock and a stable-ordered
// event queue. Everything time-dependent in the project (message delivery,
// block production, churn) runs on this.
//
// The queue is a deterministic calendar/ladder structure (docs/SIMULATOR.md):
//
//   near_   the *active* bucket, sorted descending by (at, seq) so the
//           earliest event sits at the back — the only part of the queue
//           that is ever ordered; popping is O(1).
//   wheel_  ring of kBucketCount unsorted buckets, each kBucketWidthUs of
//           sim time wide, covering the window starting at the active
//           bucket. Scheduling into the window is an O(1) vector append.
//   far_    min-heap fallback for events beyond the window horizon
//           (counted in Stats::far_events); drained into the wheel as the
//           window advances.
//
// The execution order is EXACTLY total order by (at, seq) — identical to
// the old single binary heap — because the active bucket is sorted by
// (at, seq) before anything pops from it, and window bookkeeping guarantees
// nothing outside near_ can precede its back (differential-tested against
// the reference heap queue in tests/test_event_queue_determinism.cpp).
// Events at equal times therefore run in insertion order, which keeps whole
// simulations deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event.h"

namespace ici::sim {

/// Simulated time in microseconds since simulation start.
using SimTime = std::uint64_t;

constexpr SimTime operator""_us(unsigned long long v) { return static_cast<SimTime>(v); }
constexpr SimTime operator""_ms(unsigned long long v) { return static_cast<SimTime>(v) * 1000; }
constexpr SimTime operator""_s(unsigned long long v) {
  return static_cast<SimTime>(v) * 1'000'000;
}

class EventQueue {
 public:
  using Event = InplaceEvent;

  /// Owner id for entries scheduled outside any node context (harness code,
  /// global timers). Sorts after every real node at equal (at, key) prefix
  /// because keys embed the owner in their high bits.
  static constexpr std::uint32_t kNoOwner = 0xFFFFFFFFu;

  /// Calendar geometry. ~1 ms buckets × 4096 slots ≈ 4.2 s of sim time in
  /// the O(1) window. Buckets are deliberately *narrower* than a typical
  /// message delivery (transfer + propagation, a few ms) so chained sends
  /// land in unsorted ring slots ahead of the active bucket — an O(1)
  /// append — instead of being push_heap'd into it; protocol timeouts sit
  /// near the horizon, and only multi-minute timers (churn, block cadence
  /// at the tail) take the far-heap fallback. See docs/SIMULATOR.md for
  /// the sizing rationale.
  static constexpr SimTime kBucketWidthUs = 1024;
  static constexpr std::size_t kBucketCount = 4096;  // power of two

  /// Per-slot capacity reserved up front (~16 entries ≈ 1.5 KiB/slot,
  /// <1 MiB/queue). Buckets that grow past it keep the larger capacity —
  /// prepare() recycles bucket storage by swapping, never shrinking — so
  /// steady-state scheduling stays allocation-free even when a round lands
  /// in a ring slot that never held an event before
  /// (tests/test_sim_alloc.cpp pins this down).
  static constexpr std::size_t kInitialSlotCapacity = 16;

  EventQueue() : wheel_(kBucketCount), occupied_(kBucketCount / 64, 0) {
    for (auto& slot : wheel_) slot.reserve(kInitialSlotCapacity);
    near_.reserve(kInitialSlotCapacity);  // swapped into the ring on first prepare()
  }

  /// Schedules `ev` at absolute time `at`. Events at equal times run in
  /// insertion order (the sequence number breaks ties). Never mix with
  /// schedule_keyed() on the same queue instance — the
  /// auto-assigned sequence numbers and caller-provided keys share one tie
  /// break space.
  void schedule_at(SimTime at, Event ev) {
    const std::uint32_t idx = pool_acquire();
    *pool_at(idx) = std::move(ev);
    schedule_entry(at, next_seq_++, kNoOwner, idx);
  }

  /// Callable overload: constructs the closure directly in its pool slot,
  /// skipping the relocate a temporary Event would cost.
  template <typename F, typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Event>>>
  void schedule_at(SimTime at, F&& action) {
    const std::uint32_t idx = pool_acquire();
    pool_at(idx)->emplace(std::forward<F>(action));
    schedule_entry(at, next_seq_++, kNoOwner, idx);
  }

  /// Keyed variant used by the Simulator: the caller supplies the tie-break
  /// key (unique per (at, key) — Simulator packs (source node, per-source
  /// counter) into it) and the owning node, which run_next()/peek_next()
  /// hand back so the engine can establish the execution context before
  /// invoking the closure.
  template <typename F>
  void schedule_keyed(SimTime at, std::uint64_t key, std::uint32_t owner, F&& action) {
    const std::uint32_t idx = pool_acquire();
    pool_at(idx)->emplace(std::forward<F>(action));
    schedule_entry(at, key, owner, idx);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Earliest pending time. Lazily advances the calendar window (a mutating
  /// but order-neutral operation, hence non-const). Throws when empty.
  [[nodiscard]] SimTime next_time();

  /// Pops and runs the earliest event; returns its time.
  SimTime run_next();

  /// (at, key, owner) of the earliest pending event without popping it.
  /// Same window-advancing behaviour as next_time(). Throws when empty.
  struct NextRef {
    SimTime at;
    std::uint64_t key;
    std::uint32_t owner;
  };
  [[nodiscard]] NextRef peek_next();

  /// Structural instrumentation for the sim/core observability surface.
  /// Everything here is deterministic for a deterministic schedule sequence
  /// (no wall clock), so values may appear in bench artifacts.
  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t peak_pending = 0;
    /// Events past the calendar horizon that took the far-heap fallback.
    std::uint64_t far_events = 0;
    /// Events whose capture spilled the InplaceEvent inline buffer.
    std::uint64_t heap_fallback_events = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// Queue entry: trivially copyable on purpose. The event itself lives in
  /// the chunked pool (stable addresses, constructed once, invoked and
  /// destroyed in place); heap sifts and vector growth shuffle only these
  /// 24-byte PODs via memmove instead of running an indirect relocate call
  /// per 80-byte InplaceEvent — the dominant cost in the profile before
  /// this split.
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t pool_idx;
    std::uint32_t owner;  // executing node (kNoOwner for harness/global) — fills former padding
  };
  static_assert(std::is_trivially_copyable_v<Entry>);
  /// Ordering predicate: "a runs later than b" — an exact total order
  /// ((at, seq) pairs are unique). Sorting near_ with it puts the earliest
  /// event at the back; far_ uses it as a std::*_heap comparator (max-heap
  /// on "later" = min-heap on firing order).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Ensures near_/overflow_ hold the globally-earliest pending event
  /// (advances the window / drains far_ as needed). Precondition: size_ > 0.
  void prepare();
  /// True when the next event to run is overflow_.front() (else near_.back()).
  [[nodiscard]] bool pop_from_overflow() const;
  /// Pops far_ entries that fit the current window into their wheel slots.
  void drain_far();
  void push_wheel(Entry e);
  [[nodiscard]] std::uint64_t next_occupied_after(std::uint64_t bucket) const;

  /// Event pool: fixed-size chunks (never reallocated, so event addresses
  /// are stable) plus a free list of slot indices. Slots recycle, so the
  /// steady state allocates nothing.
  static constexpr std::size_t kChunkSize = 1024;  // events per chunk, power of two
  /// Pops a free pool slot (growing the pool by a chunk when none remain).
  [[nodiscard]] std::uint32_t pool_acquire();
  /// Files the already-populated slot `pool_idx` under (at, seq, owner).
  void schedule_entry(SimTime at, std::uint64_t seq, std::uint32_t owner,
                      std::uint32_t pool_idx);
  [[nodiscard]] Event* pool_at(std::uint32_t idx) {
    return &chunks_[idx / kChunkSize][idx % kChunkSize];
  }

  [[nodiscard]] static std::uint64_t bucket_of(SimTime at) { return at / kBucketWidthUs; }
  [[nodiscard]] SimTime window_end_us() const {
    return (cur_bucket_ + kBucketCount) * kBucketWidthUs;
  }

  std::vector<Entry> near_;      // active bucket, sorted desc (earliest at back)
  std::vector<Entry> overflow_;  // min-heap: late arrivals into buckets <= cur_bucket_
  std::vector<std::vector<Entry>> wheel_;  // ring slots, unsorted
  std::vector<std::uint64_t> occupied_;    // bitmap over ring slots
  std::vector<Entry> far_;                 // min-heap by (at, seq), beyond window
  std::vector<std::unique_ptr<Event[]>> chunks_;  // stable event storage
  std::vector<std::uint32_t> free_;               // recyclable pool slots
  std::uint64_t cur_bucket_ = 0;           // absolute index of the active bucket
  std::size_t wheel_count_ = 0;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  Stats stats_;
};

}  // namespace ici::sim
