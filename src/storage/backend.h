// StorageBackend: the pluggable body-persistence layer behind BlockStore.
//
// A BlockStore owns exactly one backend. The default MemBackend keeps the
// seed behaviour (one shared_ptr per body, zero IO, zero latency); the
// DiskBackend persists bodies in append-only segment files behind an async
// write queue whose IO completions are *simulated-time* events, so the
// deterministic-metrics contract survives real byte movement
// (docs/STORAGE.md).
//
// Backends are sim-independent on purpose: time is plain uint64 microseconds
// and scheduling goes through the IoEnv callbacks a facade wires to its
// simulator. A backend with no IoEnv installed retires writes synchronously
// and charges flat read latency — standalone stores (unit tests, tools)
// never need a simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

#include "chain/block.h"

namespace ici {

/// Construction knobs for a store backend, embedded in every facade config
/// and in core::StrategyConfig. Defaults select the in-memory backend, so an
/// unconfigured field changes nothing.
struct StoreConfig {
  /// "mem" (default, in-memory shared_ptr bodies) or "disk" (log-structured
  /// segment files, docs/STORAGE.md).
  std::string backend = "mem";
  /// Root directory for disk backends ("" = a fresh temp directory owned by
  /// the run and removed on teardown). Each node gets a subdirectory.
  std::string dir;
  /// Target size of one append-only segment file before it is sealed.
  std::uint64_t segment_bytes = 4u << 20;
  /// Simulated service time of one block append / one cold read. The write
  /// and read clocks serialize per node, so queueing delay emerges.
  std::uint64_t io_write_us = 100;
  std::uint64_t io_read_us = 150;
  /// Compact a node's log when dead bytes exceed this fraction of the log.
  double compact_threshold = 0.5;
};

/// Per-backend event tallies, summed over a fleet into the `store.*`
/// metrics. Plain (non-atomic) fields: a backend is only touched from its
/// owning node's events, and the export sums over nodes, so totals are
/// order-free and deterministic.
struct StoreCounters {
  std::uint64_t puts = 0;             ///< bodies accepted (first copy)
  std::uint64_t dup_puts = 0;         ///< idempotent re-puts rejected
  std::uint64_t staged_puts = 0;      ///< puts that went through the write queue
  std::uint64_t wq_enqueued = 0;      ///< write-queue admissions
  std::uint64_t wq_retired = 0;       ///< write-queue completions (incl. cancels)
  std::uint64_t wq_depth = 0;         ///< writes currently staged
  std::uint64_t wq_depth_peak = 0;    ///< high-water mark of wq_depth
  std::uint64_t warm_reads = 0;       ///< served from memory / the write queue
  std::uint64_t cold_reads = 0;       ///< served from a segment file
  std::uint64_t cold_read_bytes = 0;  ///< payload bytes read cold
  std::uint64_t segments = 0;         ///< live segment files
  std::uint64_t segment_bytes = 0;    ///< bytes across live segment files
  std::uint64_t appended_bytes = 0;   ///< cumulative bytes appended
  std::uint64_t tombstones = 0;       ///< erase records appended
  std::uint64_t compactions = 0;      ///< log rewrites triggered by dead space
  std::uint64_t reclaimed_bytes = 0;  ///< bytes dropped by compactions
  std::uint64_t manifest_writes = 0;  ///< crash-safe manifest rewrites
  std::uint64_t recovered_blocks = 0;     ///< index entries rebuilt on reopen
  std::uint64_t truncated_tail_bytes = 0; ///< partial-record bytes skipped on reopen

  StoreCounters& operator+=(const StoreCounters& o) {
    puts += o.puts;
    dup_puts += o.dup_puts;
    staged_puts += o.staged_puts;
    wq_enqueued += o.wq_enqueued;
    wq_retired += o.wq_retired;
    wq_depth += o.wq_depth;
    wq_depth_peak += o.wq_depth_peak;
    warm_reads += o.warm_reads;
    cold_reads += o.cold_reads;
    cold_read_bytes += o.cold_read_bytes;
    segments += o.segments;
    segment_bytes += o.segment_bytes;
    appended_bytes += o.appended_bytes;
    tombstones += o.tombstones;
    compactions += o.compactions;
    reclaimed_bytes += o.reclaimed_bytes;
    manifest_writes += o.manifest_writes;
    recovered_blocks += o.recovered_blocks;
    truncated_tail_bytes += o.truncated_tail_bytes;
    return *this;
  }
};

/// How a backend sees simulated time. A facade wires `now` to its simulator
/// clock and `schedule_at` to sim::Simulator::schedule_for(owner, ...), so
/// IO-retirement events execute as the owning node. Both callbacks empty =
/// synchronous mode.
struct IoEnv {
  std::function<std::uint64_t()> now;
  std::function<void(std::uint64_t at, std::function<void()> fn)> schedule_at;

  [[nodiscard]] bool simulated() const { return static_cast<bool>(schedule_at); }
};

/// Body persistence behind one node's BlockStore. Headers, tips, and byte
/// tallies stay in BlockStore; the backend owns only hash -> body.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Admits a body (idempotent). Returns true when this is the first copy —
  /// the caller records serialized_size() against its byte tally exactly
  /// when the backend accepts.
  virtual bool put(const Hash256& hash, std::shared_ptr<const Block> block) = 0;

  /// True when the body is available (staged writes count: a reader behind
  /// the write queue must not miss its own recent put).
  [[nodiscard]] virtual bool contains(const Hash256& hash) const = 0;

  /// Looks a body up. `cold` / `delay_us` (either may be null) report
  /// whether the read came from persistent media and the simulated IO delay
  /// the caller should charge before acting on the bytes. Mutable read
  /// clocks make this const: serve paths hold read-only stores.
  [[nodiscard]] virtual std::shared_ptr<const Block> fetch(
      const Hash256& hash, bool* cold, std::uint64_t* delay_us) const = 0;

  /// Drops a body; returns the serialized bytes freed (0 if absent).
  /// Staged writes are cancelled before ever reaching media.
  virtual std::uint64_t erase(const Hash256& hash) = 0;

  [[nodiscard]] virtual std::size_t count() const = 0;

  virtual void for_each_hash(const std::function<void(const Hash256&)>& fn) const = 0;

  /// Retires any staged writes synchronously and persists recovery state
  /// (manifest). Harness-context only — never from inside an event handler.
  virtual void flush() {}

  [[nodiscard]] virtual const StoreCounters& counters() const = 0;

  virtual void set_io_env(IoEnv env) { (void)env; }
};

}  // namespace ici
