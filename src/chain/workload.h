// Synthetic transaction workload and chain generation.
//
// WorkloadGenerator owns a set of simulated wallets, tracks their spendable
// outputs, and emits *valid, signed* transactions (random payer → random
// payee, occasional fan-out). ChainGenerator drives it to build a valid
// chain of any length — the ledger every experiment distributes.
//
// TrafficGenerator scales the same idea to ingest workloads (docs/INGEST.md):
// hundreds of thousands of simulated users submitting fee-bearing
// transactions over simulated time, with realistic skew — Zipf-popular hot
// accounts, bursty windows, a diurnal phase — all drawn from one explicitly
// seeded Rng so a run replays bit-identically at any --threads.
#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "chain/chain.h"
#include "chain/mempool.h"
#include "common/rng.h"

namespace ici {

struct WorkloadConfig {
  std::size_t wallet_count = 64;
  /// Outputs minted per wallet in genesis.
  std::size_t genesis_outputs_per_wallet = 4;
  Amount genesis_value_each = 1'000'000;
  /// Probability a generated tx has two outputs (payment + change).
  double change_output_prob = 0.8;
  /// Outputs confirmed in block h become spendable only at h + maturity.
  /// 0 = immediately spendable. Depth ≥ 1 lets dissemination pipelines
  /// validate block h+1 against state that block h cannot have changed.
  std::size_t maturity = 0;
  std::uint64_t seed = 42;
};

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(WorkloadConfig cfg = {});

  /// The genesis block funding all wallets. Call once, feed to Chain.
  [[nodiscard]] Block make_genesis();

  /// Emits one valid signed transaction spending a random tracked output.
  /// Returns std::nullopt if no spendable outputs remain (never happens when
  /// confirm() is called for each produced block).
  [[nodiscard]] std::optional<Transaction> next_tx();

  /// Emits up to n transactions.
  [[nodiscard]] std::vector<Transaction> batch(std::size_t n);

  /// Informs the generator that a block confirmed: newly created outputs
  /// become spendable after cfg.maturity further confirmations.
  void confirm(const Block& block);

  [[nodiscard]] const std::vector<KeyPair>& wallets() const { return wallets_; }

 private:
  struct Spendable {
    OutPoint op;
    Amount value;
    std::size_t wallet;  // index into wallets_
  };

  WorkloadConfig cfg_;
  Rng rng_;
  std::vector<KeyPair> wallets_;
  std::vector<Spendable> spendable_;
  /// Outputs waiting out their maturity window; front matures first.
  std::deque<std::vector<Spendable>> maturing_;
  std::uint64_t tx_nonce_ = 1;
  bool genesis_made_ = false;
};

// -- client traffic -----------------------------------------------------------

struct TrafficConfig {
  /// Simulated submitting users. Account 0 is the most popular.
  std::size_t user_count = 10'000;
  /// Mean offered load in transactions per second of *simulated* time.
  double tx_rate_tps = 1'000.0;
  /// Zipf exponent for account popularity (payer and payee draws).
  /// 0 = uniform.
  double zipf_s = 1.1;
  /// The hottest accounts are funded like exchanges: extra genesis outputs
  /// so the head of the Zipf can actually sustain its share of the load.
  std::size_t hot_account_count = 16;
  std::size_t hot_account_outputs = 16;
  /// Genesis outputs per ordinary account.
  std::size_t outputs_per_user = 1;
  Amount genesis_value_each = 1'000'000;
  /// Per-tx fee drawn uniformly from [fee_min, fee_max] (0,0 = free txs),
  /// clamped below the spent value.
  Amount fee_min = 1;
  Amount fee_max = 64;
  /// Probability a tx carries a change output back to the payer.
  double change_output_prob = 0.5;
  /// Arrival modulation window: each window draws its burst state once and
  /// applies the diurnal factor at its start time.
  std::uint64_t window_us = 100'000;
  /// Per-window burst lottery: with probability burst_prob the window's
  /// rate is multiplied by burst_factor.
  double burst_prob = 0.05;
  double burst_factor = 4.0;
  /// Diurnal modulation: rate × (1 + amplitude · sin(2π·t/period)).
  double diurnal_amplitude = 0.3;
  std::uint64_t diurnal_period_us = 60'000'000;
  std::uint64_t seed = 42;
};

/// One client submission: a signed tx, its declared fee, and when (in
/// simulated µs) the client handed it to the acceptor.
struct TrafficArrival {
  std::uint64_t at_us = 0;
  Amount fee = 0;
  Transaction tx;
};

/// Skewed many-user traffic source. Pure harness code: arrivals are
/// *computed* for a time range (no simulator events), so the caller decides
/// how they interleave with the network simulation. Spent outputs are locked
/// until the pipeline reports their fate: confirm() credits a block's
/// outputs, release() refunds a dropped tx's inputs — without one of the
/// two, sustained overload would drain the spendable pool.
class TrafficGenerator {
 public:
  explicit TrafficGenerator(TrafficConfig cfg = {});

  /// The genesis block funding all users (hot accounts get
  /// hot_account_outputs each). Call once, feed to Chain + strategy init.
  [[nodiscard]] Block make_genesis();

  /// All arrivals in windows fully covered by (cursor, to_us]; advances the
  /// internal cursor. Arrivals are sorted by at_us (ties keep draw order).
  [[nodiscard]] std::vector<TrafficArrival> arrivals_until(std::uint64_t to_us);

  /// Credits a confirmed block's outputs to their owners and forgets its
  /// inputs. Call for every block the driver commits (incl. genesis).
  void confirm(const Block& block);

  /// Refunds the inputs of a tx the pipeline dropped (backpressure, dedup,
  /// prescreen, eviction): they become spendable again.
  void release(const Transaction& tx);

  [[nodiscard]] std::size_t user_count() const { return cfg_.user_count; }
  /// Txs emitted so far (arrivals actually produced).
  [[nodiscard]] std::uint64_t generated() const { return generated_; }
  /// Arrival slots skipped because no account had a spendable output.
  [[nodiscard]] std::uint64_t skipped_no_funds() const { return skipped_no_funds_; }

 private:
  struct Spendable {
    OutPoint op;
    Amount value = 0;
  };
  struct Pending {
    std::uint32_t user = 0;
    Amount value = 0;
  };
  struct PubHasher {
    std::size_t operator()(const PublicKey& pub) const {
      std::uint64_t x = 0;
      for (int i = 0; i < 8; ++i) x = (x << 8) | pub[static_cast<std::size_t>(i)];
      return static_cast<std::size_t>(x * 0x9E3779B97F4A7C15ULL);
    }
  };

  /// Zipf-weighted account index (inverse-CDF over the popularity table).
  [[nodiscard]] std::size_t pick_account();
  /// A funded payer: Zipf draws with a deterministic linear-scan fallback.
  [[nodiscard]] bool pick_payer(std::size_t* out);
  [[nodiscard]] TrafficArrival make_arrival(std::uint64_t at_us);

  TrafficConfig cfg_;
  Rng rng_;
  std::vector<KeyPair> users_;
  std::unordered_map<PublicKey, std::uint32_t, PubHasher> by_pub_;
  /// Per-user spendable outputs (LIFO within a user).
  std::vector<std::vector<Spendable>> spendable_;
  /// Outputs locked by in-flight txs, keyed by spent outpoint.
  std::unordered_map<OutPoint, Pending, OutPointHasher> pending_;
  /// Cumulative Zipf weights; empty when zipf_s == 0 (uniform).
  std::vector<double> zipf_cdf_;
  std::uint64_t cursor_us_ = 0;
  std::uint64_t tx_nonce_ = 1;
  std::uint64_t generated_ = 0;
  std::uint64_t skipped_no_funds_ = 0;
  std::size_t fallback_cursor_ = 0;
  bool genesis_made_ = false;
};

struct ChainGenConfig {
  std::size_t blocks = 100;
  std::size_t txs_per_block = 100;  // excludes the coinbase
  std::uint64_t block_interval_us = 10'000'000;
  WorkloadConfig workload;
};

/// Builds a fully valid chain: every block passes Validator::validate_and_apply.
class ChainGenerator {
 public:
  explicit ChainGenerator(ChainGenConfig cfg = {});

  /// Generates the whole chain (genesis + cfg.blocks blocks).
  [[nodiscard]] Chain generate();

  /// Generates one more block extending `chain` (usable incrementally after
  /// generate() or on a fresh chain built from make_genesis()).
  [[nodiscard]] Block next_block(const Chain& chain);

  [[nodiscard]] WorkloadGenerator& workload() { return workload_; }

 private:
  ChainGenConfig cfg_;
  WorkloadGenerator workload_;
  KeyPair miner_;
};

}  // namespace ici
