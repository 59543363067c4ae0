#include "chain/workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ici {

namespace {

/// Value of every genesis output (wallets and traffic users alike).
constexpr Amount kGenesisValueEach = 1'000'000;
/// Probability a WorkloadGenerator tx has two outputs (payment + change).
constexpr double kWalletChangeOutputProb = 0.8;

/// Per-tx traffic fee drawn uniformly from [kFeeMin, kFeeMax], clamped below
/// the spent value.
constexpr Amount kFeeMin = 1;
constexpr Amount kFeeMax = 64;
/// Probability a traffic tx carries a change output back to the payer.
constexpr double kTrafficChangeOutputProb = 0.5;
/// Arrival modulation window: each window draws its burst state once and
/// applies the diurnal factor at its start time.
constexpr std::uint64_t kWindowUs = 100'000;
/// Rate multiplier of a window that wins the burst lottery.
constexpr double kBurstFactor = 4.0;
/// Diurnal modulation: rate × (1 + amplitude · sin(2π·t/period)).
constexpr double kDiurnalAmplitude = 0.3;
constexpr std::uint64_t kDiurnalPeriodUs = 60'000'000;

}  // namespace

WorkloadGenerator::WorkloadGenerator(WorkloadConfig cfg) : cfg_(cfg), rng_(cfg.seed) {
  if (cfg_.wallet_count == 0) throw std::invalid_argument("wallet_count must be > 0");
  wallets_.reserve(cfg_.wallet_count);
  for (std::size_t i = 0; i < cfg_.wallet_count; ++i) {
    wallets_.push_back(KeyPair::from_seed(cfg_.seed * 1'000'003 + i));
  }
}

Block WorkloadGenerator::make_genesis() {
  if (genesis_made_) throw std::logic_error("make_genesis called twice");
  genesis_made_ = true;
  std::vector<TxOutput> outs;
  outs.reserve(cfg_.wallet_count * cfg_.genesis_outputs_per_wallet);
  for (std::size_t w = 0; w < cfg_.wallet_count; ++w) {
    for (std::size_t j = 0; j < cfg_.genesis_outputs_per_wallet; ++j) {
      outs.push_back(TxOutput{kGenesisValueEach, wallets_[w].pub});
    }
  }
  // Spendable bookkeeping happens in confirm(): the caller feeds the genesis
  // block back through confirm() exactly like any other block.
  Transaction mint({}, std::move(outs), /*nonce=*/0);
  return Block::assemble(Hash256{}, 0, 0, {std::move(mint)});
}

std::optional<Transaction> WorkloadGenerator::next_tx() {
  if (spendable_.empty()) return std::nullopt;
  const std::size_t pick = rng_.index(spendable_.size());
  const Spendable sp = spendable_[pick];
  spendable_[pick] = spendable_.back();
  spendable_.pop_back();

  const std::size_t payee = rng_.index(wallets_.size());
  std::vector<TxOutput> outs;
  if (sp.value >= 2 && rng_.chance(kWalletChangeOutputProb)) {
    const Amount pay = rng_.range(1, sp.value - 1);
    outs.push_back(TxOutput{pay, wallets_[payee].pub});
    outs.push_back(TxOutput{sp.value - pay, wallets_[sp.wallet].pub});
  } else {
    outs.push_back(TxOutput{sp.value, wallets_[payee].pub});
  }

  Transaction tx({TxInput{sp.op, {}, {}}}, std::move(outs), tx_nonce_++);
  tx.sign_all_inputs(wallets_[sp.wallet]);
  return tx;
}

std::vector<Transaction> WorkloadGenerator::batch(std::size_t n) {
  std::vector<Transaction> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto tx = next_tx();
    if (!tx) break;
    out.push_back(std::move(*tx));
  }
  return out;
}

void WorkloadGenerator::confirm(const Block& block) {
  std::vector<Spendable> fresh;
  for (const Transaction& tx : block.txs()) {
    const Hash256& id = tx.txid();
    for (std::uint32_t i = 0; i < tx.outputs().size(); ++i) {
      const TxOutput& out = tx.outputs()[i];
      // Track outputs paying one of our wallets.
      for (std::size_t w = 0; w < wallets_.size(); ++w) {
        if (wallets_[w].pub == out.recipient) {
          fresh.push_back({OutPoint{id, i}, out.value, w});
          break;
        }
      }
    }
  }
  maturing_.push_back(std::move(fresh));
  while (maturing_.size() > cfg_.maturity) {
    auto& matured = maturing_.front();
    spendable_.insert(spendable_.end(), matured.begin(), matured.end());
    maturing_.pop_front();
  }
}

// -- TrafficGenerator ---------------------------------------------------------

TrafficGenerator::TrafficGenerator(TrafficConfig cfg) : cfg_(cfg), rng_(cfg.seed) {
  if (cfg_.user_count == 0) throw std::invalid_argument("user_count must be > 0");
  cfg_.hot_account_count = std::min(cfg_.hot_account_count, cfg_.user_count);
  users_.reserve(cfg_.user_count);
  by_pub_.reserve(cfg_.user_count);
  spendable_.resize(cfg_.user_count);
  for (std::size_t i = 0; i < cfg_.user_count; ++i) {
    users_.push_back(KeyPair::from_seed(cfg_.seed * 6'700'417 + i));
    by_pub_.emplace(users_.back().pub, static_cast<std::uint32_t>(i));
  }
  if (cfg_.zipf_s > 0) {
    zipf_cdf_.resize(cfg_.user_count);
    double total = 0;
    for (std::size_t i = 0; i < cfg_.user_count; ++i) {
      total += std::pow(static_cast<double>(i + 1), -cfg_.zipf_s);
      zipf_cdf_[i] = total;
    }
    for (double& c : zipf_cdf_) c /= total;
    zipf_cdf_.back() = 1.0;
  }
}

Block TrafficGenerator::make_genesis() {
  if (genesis_made_) throw std::logic_error("make_genesis called twice");
  genesis_made_ = true;
  std::vector<TxOutput> outs;
  outs.reserve(cfg_.user_count * cfg_.outputs_per_user +
               cfg_.hot_account_count * cfg_.hot_account_outputs);
  for (std::size_t u = 0; u < cfg_.user_count; ++u) {
    const std::size_t n =
        u < cfg_.hot_account_count ? cfg_.hot_account_outputs : cfg_.outputs_per_user;
    for (std::size_t j = 0; j < n; ++j) {
      outs.push_back(TxOutput{kGenesisValueEach, users_[u].pub});
    }
  }
  Transaction mint({}, std::move(outs), /*nonce=*/0);
  return Block::assemble(Hash256{}, 0, 0, {std::move(mint)});
}

std::size_t TrafficGenerator::pick_account() {
  if (zipf_cdf_.empty()) return rng_.index(cfg_.user_count);
  const double u = rng_.uniform01();
  const auto it = std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  const auto idx = static_cast<std::size_t>(it - zipf_cdf_.begin());
  return std::min(idx, cfg_.user_count - 1);
}

bool TrafficGenerator::pick_payer(std::size_t* out) {
  // A popular account may be temporarily broke (all outputs in flight);
  // redraw a few times before falling back to a deterministic scan, so the
  // skew survives without ever stalling the offered load.
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::size_t u = pick_account();
    if (!spendable_[u].empty()) {
      *out = u;
      return true;
    }
  }
  for (std::size_t step = 0; step < cfg_.user_count; ++step) {
    const std::size_t u = (fallback_cursor_ + step) % cfg_.user_count;
    if (!spendable_[u].empty()) {
      fallback_cursor_ = (u + 1) % cfg_.user_count;
      *out = u;
      return true;
    }
  }
  return false;
}

TrafficArrival TrafficGenerator::make_arrival(std::uint64_t at_us) {
  std::size_t payer = 0;
  if (!pick_payer(&payer)) {
    ++skipped_no_funds_;
    return {};
  }
  const Spendable sp = spendable_[payer].back();
  spendable_[payer].pop_back();
  pending_.emplace(sp.op, Pending{static_cast<std::uint32_t>(payer), sp.value});

  Amount fee = rng_.range(kFeeMin, kFeeMax);
  fee = std::min(fee, sp.value - 1);  // outputs must stay non-empty and non-zero
  const Amount remaining = sp.value - fee;
  const std::size_t payee = pick_account();

  std::vector<TxOutput> outs;
  if (remaining >= 2 && rng_.chance(kTrafficChangeOutputProb)) {
    const Amount pay = rng_.range(1, remaining - 1);
    outs.push_back(TxOutput{pay, users_[payee].pub});
    outs.push_back(TxOutput{remaining - pay, users_[payer].pub});
  } else {
    outs.push_back(TxOutput{remaining, users_[payee].pub});
  }

  TrafficArrival arrival;
  arrival.at_us = at_us;
  arrival.fee = fee;
  arrival.tx = Transaction({TxInput{sp.op, {}, {}}}, std::move(outs), tx_nonce_++);
  arrival.tx.sign_all_inputs(users_[payer]);
  ++generated_;
  return arrival;
}

std::vector<TrafficArrival> TrafficGenerator::arrivals_until(std::uint64_t to_us) {
  std::vector<TrafficArrival> out;
  while (cursor_us_ + kWindowUs <= to_us) {
    const std::uint64_t start = cursor_us_;
    cursor_us_ += kWindowUs;

    const double phase = 2.0 * 3.14159265358979323846 *
                         (static_cast<double>(start % kDiurnalPeriodUs) /
                          static_cast<double>(kDiurnalPeriodUs));
    double mult = std::max(0.0, 1.0 + kDiurnalAmplitude * std::sin(phase));
    // One burst lottery per window, drawn unconditionally so the stream of
    // RNG draws (and hence everything downstream) is config-stable.
    const bool burst = rng_.chance(cfg_.burst_prob);
    if (burst) mult *= kBurstFactor;

    const double expected =
        cfg_.tx_rate_tps * (static_cast<double>(kWindowUs) / 1e6) * mult;
    std::uint64_t count = static_cast<std::uint64_t>(expected);
    if (rng_.chance(expected - static_cast<double>(count))) ++count;

    std::vector<std::uint64_t> offsets;
    offsets.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) offsets.push_back(rng_.range(1, kWindowUs));
    std::sort(offsets.begin(), offsets.end());
    for (const std::uint64_t off : offsets) {
      TrafficArrival arrival = make_arrival(start + off);
      if (arrival.at_us != 0) out.push_back(std::move(arrival));
    }
  }
  return out;
}

void TrafficGenerator::confirm(const Block& block) {
  for (const Transaction& tx : block.txs()) {
    for (const TxInput& in : tx.inputs()) pending_.erase(in.prevout);
    const Hash256& id = tx.txid();
    for (std::uint32_t i = 0; i < tx.outputs().size(); ++i) {
      const TxOutput& out = tx.outputs()[i];
      const auto it = by_pub_.find(out.recipient);
      if (it == by_pub_.end()) continue;  // e.g. the coinbase miner
      spendable_[it->second].push_back({OutPoint{id, i}, out.value});
    }
  }
}

void TrafficGenerator::release(const Transaction& tx) {
  for (const TxInput& in : tx.inputs()) {
    const auto it = pending_.find(in.prevout);
    if (it == pending_.end()) continue;
    spendable_[it->second.user].push_back({in.prevout, it->second.value});
    pending_.erase(it);
  }
}

ChainGenerator::ChainGenerator(ChainGenConfig cfg)
    : cfg_(cfg), workload_(cfg.workload), miner_(KeyPair::from_seed(cfg.workload.seed ^ 0xace)) {}

Block ChainGenerator::next_block(const Chain& chain) {
  const std::uint64_t height = chain.height() + 1;
  std::vector<Transaction> txs;
  txs.reserve(cfg_.txs_per_block + 1);
  txs.push_back(Transaction::coinbase(miner_.pub, kBlockReward, height));
  for (Transaction& tx : workload_.batch(cfg_.txs_per_block)) txs.push_back(std::move(tx));
  Block block = Block::assemble(chain.tip().hash(), height, height * cfg_.block_interval_us,
                                std::move(txs));
  workload_.confirm(block);
  return block;
}

Chain ChainGenerator::generate() {
  Block genesis = workload_.make_genesis();
  workload_.confirm(genesis);
  Chain chain(std::move(genesis));
  for (std::size_t i = 0; i < cfg_.blocks; ++i) chain.append(next_block(chain));
  return chain;
}

}  // namespace ici
