#include "ingest/acceptor.h"

#include <utility>
#include <vector>

#include "common/thread_pool.h"

namespace ici::ingest {

namespace {

/// parallel_for grain for the prescreen pass (chunk shape is part of the
/// determinism contract only through result order, which is index-based).
constexpr std::size_t kPrescreenGrain = 64;

}  // namespace

TxAcceptor::TxAcceptor(AcceptorConfig cfg, Mempool* pool, const UtxoSet* utxo)
    : cfg_(cfg),
      pool_(pool),
      utxo_(utxo),
      validator_(ValidatorConfig{.check_signatures = cfg.check_signatures}),
      next_tick_us_(cfg.batch_interval_us) {
  if (cfg_.queue_capacity == 0) cfg_.queue_capacity = 1;
  if (cfg_.batch_budget == 0) cfg_.batch_budget = 1;
  if (cfg_.batch_interval_us == 0) cfg_.batch_interval_us = 1;
}

TxAcceptor::Submit TxAcceptor::submit(Transaction tx, std::uint64_t at_us) {
  advance(at_us);
  ++counters_.submitted;
  if (queue_.size() >= cfg_.queue_capacity) {
    ++counters_.rejected_backpressure;
    // Retry-after hint: the earliest tick that can free queue budget.
    retry_after_us_.add(static_cast<double>(next_tick_us_ > at_us ? next_tick_us_ - at_us
                                                                  : cfg_.batch_interval_us));
    drop(tx, DropReason::kBackpressure);
    return Submit::kRejected;
  }
  queue_.push_back(Queued{at_us, std::move(tx)});
  return Submit::kQueued;
}

void TxAcceptor::advance(std::uint64_t to_us) {
  while (next_tick_us_ <= to_us) {
    run_batch();
    next_tick_us_ += cfg_.batch_interval_us;
  }
}

bool TxAcceptor::remember(const Hash256& txid) {
  if (!seen_.insert(txid).second) return false;
  seen_order_.push_back(txid);
  while (seen_order_.size() > cfg_.dedup_window) {
    seen_.erase(seen_order_.front());
    seen_order_.pop_front();
  }
  return true;
}

void TxAcceptor::drop(const Transaction& tx, DropReason reason) {
  if (on_drop_) on_drop_(tx, reason);
}

void TxAcceptor::run_batch() {
  if (queue_.empty()) return;  // idle ticks don't count as batches

  std::vector<Queued> batch;
  batch.reserve(std::min(cfg_.batch_budget, queue_.size()));
  while (!queue_.empty() && batch.size() < cfg_.batch_budget) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  ++counters_.batches;
  counters_.batched_txs += batch.size();

  // Dedup sequentially first: within-batch duplicates must resolve in
  // submission order no matter how prescreen chunks are scheduled.
  std::vector<Queued> fresh;
  fresh.reserve(batch.size());
  for (Queued& q : batch) {
    if (!remember(q.tx.txid())) {
      ++counters_.deduped;
      drop(q.tx, DropReason::kDuplicate);
      continue;
    }
    fresh.push_back(std::move(q));
  }
  if (fresh.empty()) return;

  // Prescreen chunk-ordered on the worker pool: each index writes only its
  // own slot and reads the (frozen) UTXO view, so the result vector is
  // bit-identical at any thread count.
  struct Screen {
    bool ok = false;
    Amount fee = 0;
  };
  std::vector<Screen> screens(fresh.size());
  ThreadPool::global().parallel_for(
      0, fresh.size(), kPrescreenGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const Transaction& tx = fresh[i].tx;
          if (!validator_.check_tx_stateless(tx)) continue;
          Amount in_value = 0;
          bool inputs_ok = !tx.inputs().empty();
          for (const TxInput& in : tx.inputs()) {
            const auto entry = utxo_->find(in.prevout);
            if (!entry || entry->output.recipient != in.pub) {
              inputs_ok = false;
              break;
            }
            in_value += entry->output.value;
          }
          if (!inputs_ok || tx.total_output() > in_value) continue;
          const Amount fee = in_value - tx.total_output();
          if (fee < cfg_.min_fee) continue;
          screens[i] = Screen{true, fee};
        }
      });

  // Admission in submission order (the mempool's tie-break seq is the
  // admission sequence, so this order is part of the determinism contract).
  std::vector<Transaction> evicted;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    if (!screens[i].ok) {
      ++counters_.prescreen_failed;
      drop(fresh[i].tx, DropReason::kPrescreen);
      continue;
    }
    evicted.clear();
    if (pool_->add(fresh[i].tx, screens[i].fee, &evicted)) {
      ++counters_.accepted;
      if (on_accept_) on_accept_(fresh[i].tx, screens[i].fee, fresh[i].at_us);
    } else {
      drop(fresh[i].tx, DropReason::kMempoolRejected);
    }
    for (const Transaction& out : evicted) drop(out, DropReason::kEvicted);
  }
}

std::uint64_t TxAcceptor::batch_occupancy_pct() const {
  if (counters_.batches == 0) return 0;
  return counters_.batched_txs * 100 / (counters_.batches * cfg_.batch_budget);
}

}  // namespace ici::ingest
