// TxAcceptor — the admission front end between simulated clients and the
// mempool (docs/INGEST.md).
//
// Clients submit signed transactions at simulated timestamps. The acceptor
// holds them in a bounded submission queue (overflow = deterministic
// backpressure rejects with a retry-after hint), then drains the queue on a
// fixed batch cadence: each tick takes up to `batch_budget` submissions,
// deduplicates them by txid against a recent-seen window, pre-screens
// fee/validity — signatures plus UTXO existence/ownership — chunk-ordered on
// the global worker pool (results are bit-identical at any --threads), and
// admits survivors to the fee-prioritized mempool in submission order.
//
// Everything is plain harness code driven by explicit submit()/advance()
// calls carrying simulated time: no simulator events and no RNG.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_set>

#include "chain/mempool.h"
#include "chain/transaction.h"
#include "chain/utxo.h"
#include "chain/validator.h"
#include "common/stats.h"

namespace ici::ingest {

struct AcceptorConfig {
  /// Bounded submission queue; a full queue rejects with backpressure.
  std::size_t queue_capacity = 16'384;
  /// Max submissions admitted per batch tick.
  std::size_t batch_budget = 512;
  /// Batch cadence in simulated µs.
  std::uint64_t batch_interval_us = 50'000;
  /// Recently-seen txids remembered for dedup.
  std::size_t dedup_window = 65'536;
  /// Minimum derived fee (inputs − outputs) to pass prescreen.
  Amount min_fee = 0;
  /// Verify input signatures during prescreen.
  bool check_signatures = true;
  /// parallel_for grain for the prescreen pass (chunk shape is part of the
  /// determinism contract only through result order, which is index-based).
  std::size_t prescreen_grain = 64;
};

/// Monotonic pipeline tallies — the source of the ingest.* counters.
struct AcceptorCounters {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t deduped = 0;
  std::uint64_t rejected_backpressure = 0;
  std::uint64_t prescreen_failed = 0;
  std::uint64_t batches = 0;      ///< non-empty batch ticks
  std::uint64_t batched_txs = 0;  ///< submissions drained into batches
};

/// Why the pipeline dropped a submission (reported via the drop hook so the
/// traffic source can refund locked outputs — except duplicates, whose
/// inputs are still owned by the live original).
enum class DropReason {
  kBackpressure,     ///< submission queue full
  kDuplicate,        ///< txid in the recent-seen window
  kPrescreen,        ///< failed fee/signature/UTXO prescreen
  kMempoolRejected,  ///< pool refused it (conflict, dup, or full)
  kEvicted,          ///< displaced from the pool by a better fee
};

class TxAcceptor {
 public:
  using AcceptFn =
      std::function<void(const Transaction&, Amount fee, std::uint64_t submitted_at_us)>;
  using DropFn = std::function<void(const Transaction&, DropReason)>;

  /// `pool` and `utxo` must outlive the acceptor. The UTXO view is read
  /// concurrently by prescreen chunks; the caller must not mutate it while
  /// submit()/advance() is running (the ingest driver applies blocks only
  /// between batches).
  TxAcceptor(AcceptorConfig cfg, Mempool* pool, const UtxoSet* utxo);

  void set_on_accept(AcceptFn fn) { on_accept_ = std::move(fn); }
  void set_on_drop(DropFn fn) { on_drop_ = std::move(fn); }

  enum class Submit { kQueued, kRejected };

  /// Client submission at simulated time `at_us`. Runs any batch ticks due
  /// first (submissions arrive in nondecreasing time order), then enqueues
  /// or rejects with backpressure.
  Submit submit(Transaction tx, std::uint64_t at_us);

  /// Runs every batch tick with deadline ≤ to_us.
  void advance(std::uint64_t to_us);

  [[nodiscard]] const AcceptorCounters& counters() const { return counters_; }
  /// Suggested client wait (µs until the next batch tick) per backpressure
  /// reject — the deterministic retry-after accounting.
  [[nodiscard]] const Histogram& retry_after_us() const { return retry_after_us_; }
  [[nodiscard]] std::size_t queue_size() const { return queue_.size(); }
  /// Mean batch fill as a percentage of batch_budget (0 when no batch ran).
  [[nodiscard]] std::uint64_t batch_occupancy_pct() const;

 private:
  struct Queued {
    std::uint64_t at_us = 0;
    Transaction tx;
  };

  void run_batch();
  /// True if freshly inserted, false if already in the window.
  bool remember(const Hash256& txid);
  void drop(const Transaction& tx, DropReason reason);

  AcceptorConfig cfg_;
  Mempool* pool_;
  const UtxoSet* utxo_;
  Validator validator_;
  AcceptFn on_accept_;
  DropFn on_drop_;

  std::deque<Queued> queue_;
  std::unordered_set<Hash256, Hash256Hasher> seen_;
  std::deque<Hash256> seen_order_;
  std::uint64_t next_tick_us_ = 0;
  AcceptorCounters counters_;
  Histogram retry_after_us_;
};

}  // namespace ici::ingest
