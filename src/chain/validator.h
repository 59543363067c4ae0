// Stateless and stateful validation rules.
//
// Collaborative verification (ICIStrategy §D4 in DESIGN.md) needs the
// transaction-level checks factored out so a cluster member can validate
// just its slice of a block; validate_block composes them for whole-block
// validators (the full-replication baseline).
#pragma once

#include <string>

#include "chain/block.h"
#include "chain/utxo.h"

namespace ici {

/// Outcome of a validation step. `ok()` or a human-readable reason.
struct ValidationResult {
  bool valid = true;
  std::string reason;

  [[nodiscard]] static ValidationResult ok() { return {true, ""}; }
  [[nodiscard]] static ValidationResult fail(std::string why) { return {false, std::move(why)}; }
  explicit operator bool() const { return valid; }
};

/// Value minted by each coinbase.
inline constexpr Amount kBlockReward = 50'0000'0000ULL;

struct ValidatorConfig {
  std::size_t max_block_txs = 10'000;
  bool check_signatures = true;
};

class Validator {
 public:
  explicit Validator(ValidatorConfig cfg = {}) : cfg_(cfg) {}

  /// Structure-only checks (no UTXO state): signature validity, non-empty
  /// outputs, no duplicate inputs within the tx.
  [[nodiscard]] ValidationResult check_tx_stateless(const Transaction& tx) const;

  /// Stateful check against a UTXO view: inputs exist, values balance,
  /// spender keys match the spent outputs. Does not mutate `utxo`.
  [[nodiscard]] ValidationResult check_tx_stateful(const Transaction& tx,
                                                   const UtxoSet& utxo) const;

  /// Header linkage: parent hash/height continuity.
  [[nodiscard]] ValidationResult check_header(const BlockHeader& header,
                                              const Hash256& expected_parent,
                                              std::uint64_t expected_height) const;

  /// Full block validation: header linkage, Merkle root, exactly one leading
  /// coinbase, every tx valid against `utxo` *with intra-block spends
  /// visible*. On success, applies the block to `utxo`.
  [[nodiscard]] ValidationResult validate_and_apply(const Block& block,
                                                    const Hash256& expected_parent,
                                                    std::uint64_t expected_height,
                                                    UtxoSet& utxo) const;

  [[nodiscard]] const ValidatorConfig& config() const { return cfg_; }

 private:
  ValidatorConfig cfg_;
};

}  // namespace ici
