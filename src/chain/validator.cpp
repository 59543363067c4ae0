#include "chain/validator.h"

#include <unordered_set>

namespace ici {

ValidationResult Validator::check_tx_stateless(const Transaction& tx) const {
  if (tx.outputs().empty()) return ValidationResult::fail("tx has no outputs");
  if (tx.inputs().size() + tx.outputs().size() > cfg_.max_block_txs * 2)
    return ValidationResult::fail("tx too large");
  for (const TxOutput& out : tx.outputs()) {
    if (out.value == 0) return ValidationResult::fail("zero-value output");
  }

  std::unordered_set<OutPoint, OutPointHasher> seen;
  for (const TxInput& in : tx.inputs()) {
    if (!seen.insert(in.prevout).second)
      return ValidationResult::fail("duplicate input within tx");
  }

  if (cfg_.check_signatures && !tx.is_coinbase()) {
    const Bytes payload = tx.signing_payload();
    for (const TxInput& in : tx.inputs()) {
      if (!verify(in.pub, payload, in.sig)) return ValidationResult::fail("bad signature");
    }
  }
  return ValidationResult::ok();
}

ValidationResult Validator::check_tx_stateful(const Transaction& tx, const UtxoSet& utxo) const {
  if (tx.is_coinbase()) {
    if (tx.total_output() > kBlockReward)
      return ValidationResult::fail("coinbase exceeds block reward");
    return ValidationResult::ok();
  }
  Amount in_value = 0;
  for (const TxInput& in : tx.inputs()) {
    const auto entry = utxo.find(in.prevout);
    if (!entry) return ValidationResult::fail("input not in UTXO set");
    if (entry->output.recipient != in.pub)
      return ValidationResult::fail("spender key does not own the output");
    in_value += entry->output.value;
  }
  if (tx.total_output() > in_value)
    return ValidationResult::fail("outputs exceed inputs");
  return ValidationResult::ok();
}

ValidationResult Validator::check_header(const BlockHeader& header,
                                         const Hash256& expected_parent,
                                         std::uint64_t expected_height) const {
  if (header.parent != expected_parent) return ValidationResult::fail("parent hash mismatch");
  if (header.height != expected_height) return ValidationResult::fail("height mismatch");
  return ValidationResult::ok();
}

ValidationResult Validator::validate_and_apply(const Block& block,
                                               const Hash256& expected_parent,
                                               std::uint64_t expected_height,
                                               UtxoSet& utxo) const {
  if (auto r = check_header(block.header(), expected_parent, expected_height); !r) return r;
  if (block.txs().empty()) return ValidationResult::fail("empty block (no coinbase)");
  if (block.txs().size() > cfg_.max_block_txs) return ValidationResult::fail("too many txs");
  if (!block.merkle_ok()) return ValidationResult::fail("merkle root mismatch");
  if (!block.txs().front().is_coinbase())
    return ValidationResult::fail("first tx must be coinbase");

  // Validate + apply sequentially on a scratch copy so failure leaves the
  // caller's UTXO untouched.
  UtxoSet scratch = utxo;
  for (std::size_t i = 0; i < block.txs().size(); ++i) {
    const Transaction& tx = block.txs()[i];
    if (i > 0 && tx.is_coinbase()) return ValidationResult::fail("coinbase not first");
    if (auto r = check_tx_stateless(tx); !r) return r;
    if (auto r = check_tx_stateful(tx, scratch); !r) return r;
    scratch.apply_tx(tx, block.header().height);
  }
  utxo = std::move(scratch);
  return ValidationResult::ok();
}

}  // namespace ici
