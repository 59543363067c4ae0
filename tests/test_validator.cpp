#include "chain/validator.h"

#include <gtest/gtest.h>

namespace ici {
namespace {

// Fixture: a funded UTXO set with one 1000-unit output owned by `alice`.
class ValidatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Transaction seed({}, {TxOutput{1000, alice.pub}}, 1);
    seed_id = seed.txid();
    utxo.apply_tx(seed, 0);
  }

  Transaction spend(Amount pay, Amount change, const KeyPair& signer) {
    std::vector<TxOutput> outs;
    if (pay > 0) outs.push_back(TxOutput{pay, bob.pub});
    if (change > 0) outs.push_back(TxOutput{change, alice.pub});
    Transaction tx({TxInput{OutPoint{seed_id, 0}, {}, {}}}, std::move(outs), 7);
    tx.sign_all_inputs(signer);
    return tx;
  }

  KeyPair alice = KeyPair::from_seed(1);
  KeyPair bob = KeyPair::from_seed(2);
  Hash256 seed_id;
  UtxoSet utxo;
  Validator validator;
};

TEST_F(ValidatorTest, ValidTransactionPasses) {
  const Transaction tx = spend(600, 400, alice);
  EXPECT_TRUE(validator.check_tx_stateless(tx));
  EXPECT_TRUE(validator.check_tx_stateful(tx, utxo));
}

TEST_F(ValidatorTest, NoOutputsFailsStateless) {
  Transaction tx({TxInput{OutPoint{seed_id, 0}, {}, {}}}, {}, 1);
  tx.sign_all_inputs(alice);
  EXPECT_FALSE(validator.check_tx_stateless(tx));
}

TEST_F(ValidatorTest, ZeroValueOutputFailsStateless) {
  Transaction tx({TxInput{OutPoint{seed_id, 0}, {}, {}}}, {TxOutput{0, bob.pub}}, 1);
  tx.sign_all_inputs(alice);
  const auto r = validator.check_tx_stateless(tx);
  EXPECT_FALSE(r);
  EXPECT_NE(r.reason.find("zero"), std::string::npos);
}

TEST_F(ValidatorTest, DuplicateInputFailsStateless) {
  Transaction tx({TxInput{OutPoint{seed_id, 0}, {}, {}}, TxInput{OutPoint{seed_id, 0}, {}, {}}},
                 {TxOutput{10, bob.pub}}, 1);
  tx.sign_all_inputs(alice);
  EXPECT_FALSE(validator.check_tx_stateless(tx));
}

TEST_F(ValidatorTest, BadSignatureFailsStateless) {
  const Transaction tx = spend(600, 400, bob);  // bob signs alice's output
  // Stateless check verifies the signature against the embedded pubkey —
  // bob's signature is internally consistent, so stateless passes...
  EXPECT_TRUE(validator.check_tx_stateless(tx));
  // ...but stateful catches that bob does not own the spent output.
  const auto r = validator.check_tx_stateful(tx, utxo);
  EXPECT_FALSE(r);
  EXPECT_NE(r.reason.find("own"), std::string::npos);
}

TEST_F(ValidatorTest, CorruptedSignatureFailsStateless) {
  Transaction tx = spend(600, 400, alice);
  // Re-build with a mangled signature.
  auto inputs = tx.inputs();
  inputs[0].sig[0] ^= 0xff;
  Transaction mangled(inputs, tx.outputs(), tx.nonce());
  EXPECT_FALSE(validator.check_tx_stateless(mangled));
}

TEST_F(ValidatorTest, MissingInputFailsStateful) {
  Transaction tx({TxInput{OutPoint{Hash256::of({}), 5}, {}, {}}}, {TxOutput{1, bob.pub}}, 1);
  tx.sign_all_inputs(alice);
  EXPECT_FALSE(validator.check_tx_stateful(tx, utxo));
}

TEST_F(ValidatorTest, OverspendFailsStateful) {
  const Transaction tx = spend(900, 200, alice);  // 1100 > 1000
  EXPECT_FALSE(validator.check_tx_stateful(tx, utxo));
}

TEST_F(ValidatorTest, ExactSpendPasses) {
  const Transaction tx = spend(1000, 0, alice);
  EXPECT_TRUE(validator.check_tx_stateful(tx, utxo));
}

TEST_F(ValidatorTest, CoinbaseWithinRewardPasses) {
  const auto cb = Transaction::coinbase(bob.pub, kBlockReward, 1);
  EXPECT_TRUE(validator.check_tx_stateful(cb, utxo));
}

TEST_F(ValidatorTest, CoinbaseOverRewardFails) {
  const auto cb = Transaction::coinbase(bob.pub, kBlockReward + 1, 1);
  EXPECT_FALSE(validator.check_tx_stateful(cb, utxo));
}

TEST_F(ValidatorTest, HeaderLinkageChecks) {
  BlockHeader h;
  h.parent = Hash256::of({});
  h.height = 5;
  EXPECT_TRUE(validator.check_header(h, Hash256::of({}), 5));
  EXPECT_FALSE(validator.check_header(h, Hash256{}, 5));
  EXPECT_FALSE(validator.check_header(h, Hash256::of({}), 6));
}

// ---- whole-block validation ----

class BlockValidationTest : public ValidatorTest {
 protected:
  Block make_block(std::vector<Transaction> txs, const Hash256& parent,
                   std::uint64_t height = 1) {
    return Block::assemble(parent, height, 1000, std::move(txs));
  }

  Hash256 parent = Hash256::of({});
};

TEST_F(BlockValidationTest, ValidBlockAppliesToUtxo) {
  const Block b = make_block(
      {Transaction::coinbase(bob.pub, 50, 1), spend(600, 400, alice)}, parent);
  EXPECT_TRUE(validator.validate_and_apply(b, parent, 1, utxo));
  EXPECT_FALSE(utxo.contains(OutPoint{seed_id, 0}));
  EXPECT_EQ(utxo.size(), 3u);  // coinbase + pay + change
}

TEST_F(BlockValidationTest, EmptyBlockFails) {
  const Block b = make_block({}, parent);
  EXPECT_FALSE(validator.validate_and_apply(b, parent, 1, utxo));
}

TEST_F(BlockValidationTest, MissingCoinbaseFails) {
  const Block b = make_block({spend(600, 400, alice)}, parent);
  const auto r = validator.validate_and_apply(b, parent, 1, utxo);
  EXPECT_FALSE(r);
  EXPECT_NE(r.reason.find("coinbase"), std::string::npos);
}

TEST_F(BlockValidationTest, CoinbaseNotFirstFails) {
  const Block b = make_block(
      {Transaction::coinbase(bob.pub, 50, 1), spend(600, 400, alice),
       Transaction::coinbase(bob.pub, 50, 2)},
      parent);
  EXPECT_FALSE(validator.validate_and_apply(b, parent, 1, utxo));
}

TEST_F(BlockValidationTest, WrongParentFails) {
  const Block b = make_block({Transaction::coinbase(bob.pub, 50, 1)}, parent);
  EXPECT_FALSE(validator.validate_and_apply(b, Hash256{}, 1, utxo));
}

TEST_F(BlockValidationTest, MerkleMismatchFails) {
  const Block good = make_block(
      {Transaction::coinbase(bob.pub, 50, 1), spend(600, 400, alice)}, parent);
  // Same header, different body.
  const Block bad(good.header(), {Transaction::coinbase(bob.pub, 50, 1)});
  EXPECT_FALSE(validator.validate_and_apply(bad, parent, 1, utxo));
}

TEST_F(BlockValidationTest, IntraBlockChainedSpendPasses) {
  // tx2 spends an output created by tx1 inside the same block.
  Transaction tx1 = spend(1000, 0, alice);  // pays bob 1000
  Transaction tx2({TxInput{OutPoint{tx1.txid(), 0}, {}, {}}}, {TxOutput{1000, alice.pub}}, 8);
  tx2.sign_all_inputs(bob);
  const Block b =
      make_block({Transaction::coinbase(bob.pub, 50, 1), tx1, tx2}, parent);
  EXPECT_TRUE(validator.validate_and_apply(b, parent, 1, utxo));
}

TEST_F(BlockValidationTest, IntraBlockDoubleSpendFails) {
  const Block b = make_block(
      {Transaction::coinbase(bob.pub, 50, 1), spend(600, 400, alice), spend(500, 500, alice)},
      parent);
  EXPECT_FALSE(validator.validate_and_apply(b, parent, 1, utxo));
}

TEST_F(BlockValidationTest, FailedValidationLeavesUtxoUntouched) {
  const Amount before = utxo.total_value();
  const std::size_t size_before = utxo.size();
  const Block b = make_block(
      {Transaction::coinbase(bob.pub, 50, 1), spend(600, 400, alice), spend(500, 500, alice)},
      parent);
  EXPECT_FALSE(validator.validate_and_apply(b, parent, 1, utxo));
  EXPECT_EQ(utxo.total_value(), before);
  EXPECT_EQ(utxo.size(), size_before);
}

TEST_F(BlockValidationTest, TooManyTxsFails) {
  ValidatorConfig cfg;
  cfg.max_block_txs = 2;
  Validator small(cfg);
  const Block b = make_block(
      {Transaction::coinbase(bob.pub, 50, 1), spend(600, 400, alice),
       Transaction::coinbase(bob.pub, 1, 99)},
      parent);
  EXPECT_FALSE(small.validate_and_apply(b, parent, 1, utxo));
}

TEST_F(BlockValidationTest, SignatureCheckingCanBeDisabled) {
  ValidatorConfig cfg;
  cfg.check_signatures = false;
  Validator lax(cfg);
  Transaction tx = spend(600, 400, alice);
  auto inputs = tx.inputs();
  inputs[0].sig[5] ^= 0x10;
  Transaction mangled(inputs, tx.outputs(), tx.nonce());
  EXPECT_TRUE(lax.check_tx_stateless(mangled));
}

}  // namespace
}  // namespace ici
