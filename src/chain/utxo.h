// Unspent transaction output set. Validators hold a UtxoSet view; applying a
// block consumes its inputs and creates its outputs atomically.
#pragma once

#include <optional>
#include <unordered_map>

#include "chain/transaction.h"

namespace ici {

struct UtxoEntry {
  TxOutput output;
  std::uint64_t created_height = 0;
  bool is_coinbase = false;
};

/// Bytes one UTXO entry costs in the storage accounting: outpoint (32-byte
/// txid + 4-byte index), 8-byte amount and 32-byte owner.
inline constexpr std::uint64_t kUtxoEntryBytes = 36 + 8 + 32;

class UtxoSet {
 public:
  [[nodiscard]] std::optional<UtxoEntry> find(const OutPoint& op) const;
  [[nodiscard]] bool contains(const OutPoint& op) const { return map_.contains(op); }
  [[nodiscard]] std::size_t size() const { return map_.size(); }

  void add(const OutPoint& op, UtxoEntry entry);
  /// Returns false when the outpoint was not present (double spend).
  bool spend(const OutPoint& op);

  /// Applies a validated transaction: spends all inputs, creates all outputs.
  /// Precondition (checked): every input exists.
  void apply_tx(const Transaction& tx, std::uint64_t height);

  /// Sum of all unspent values — conservation-of-value checks in tests.
  [[nodiscard]] Amount total_value() const;

 private:
  std::unordered_map<OutPoint, UtxoEntry, OutPointHasher> map_;
};

}  // namespace ici
