// IngestDriver — runs the full client-to-commit pipeline against any
// core::Strategy (docs/INGEST.md):
//
//   TrafficGenerator → TxAcceptor → Mempool → block template → strategy
//   dissemination → confirmation accounting
//
// The driver owns the proposer role and a logical clock: every block
// interval it feeds the arrivals that occurred since the last proposal
// through the acceptor, fills a block template from the fee-prioritized
// mempool (skipping any txid already confirmed in an ancestor — the pool
// cannot know chain history), validates and applies it to the driver's
// UTXO view, and hands it to Strategy::ingest. Proposals serialize on full
// commit, so when dissemination latency exceeds the interval the schedule
// slips — exactly the saturation behaviour exp23 measures.
//
// Determinism: the driver adds no RNG and no simulator events of its own;
// arrivals are computed (TrafficGenerator), prescreen is chunk-ordered
// (TxAcceptor), and dissemination is the strategy's own bit-identical
// simulation — so every DriverReport field is identical at any --threads.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "chain/chain.h"
#include "chain/mempool.h"
#include "chain/workload.h"
#include "common/stats.h"
#include "ingest/acceptor.h"
#include "strategy/strategy.h"

namespace ici::ingest {

struct DriverConfig {
  /// Proposal cadence in simulated µs.
  std::uint64_t block_interval_us = 500'000;
  std::size_t blocks = 20;
  /// Max non-coinbase txs per block template.
  std::size_t max_block_txs = 4'000;
  Mempool::Config mempool;
  AcceptorConfig acceptor;
  /// Record the txid of every accepted tx in admission order (the
  /// determinism suites compare it across --threads).
  bool capture_accepted_order = false;
  std::uint64_t miner_seed = 0xace;
  /// Invoked right after Strategy::init — e.g. to install a fault plan
  /// (message faults only; crash schedules never quiesce a settle-driven
  /// run) before the first proposal.
  std::function<void(core::Strategy&)> after_init;
  /// Test seam, invoked before each template fill with the proposal height,
  /// the live pool, and the chain so far. The regression suite uses it to
  /// re-admit an already-confirmed tx directly — the acceptor's stateful
  /// prescreen blocks that upstream, so only a direct pool write can prove
  /// the template's ancestor-confirmation guard.
  std::function<void(std::uint64_t height, Mempool&, const Chain&)> before_template;
};

/// Everything one pipeline run produced. All fields are deterministic.
struct DriverReport {
  AcceptorCounters ingest;
  Mempool::Stats mempool;
  std::uint64_t batch_occupancy_pct = 0;
  std::uint64_t blocks_proposed = 0;
  std::uint64_t txs_confirmed = 0;
  /// Template slots refused because the txid was already confirmed in an
  /// ancestor block (docs/INGEST.md, duplicate-confirmation guard).
  std::uint64_t template_skipped_confirmed = 0;
  std::uint64_t generated = 0;
  std::uint64_t skipped_no_funds = 0;
  /// Driver logical clock when the run finished (µs): the last block's
  /// full-commit time.
  std::uint64_t final_time_us = 0;
  /// Confirmed txs per second of simulated time.
  double sustained_tps = 0;
  /// Generated arrivals per second of simulated time.
  double offered_tps = 0;
  /// Client submit → tx inside a disseminated-and-verified block (µs).
  Histogram submit_to_commit_us;
  /// Backpressure retry-after hints (µs).
  Histogram retry_after_us;
  /// Filled when DriverConfig::capture_accepted_order.
  std::vector<Hash256> accepted_order;
};

class IngestDriver {
 public:
  IngestDriver(DriverConfig cfg, TrafficConfig traffic)
      : cfg_(cfg), traffic_(traffic) {}

  /// Runs the pipeline end to end. The strategy must be freshly constructed
  /// (the driver generates genesis and calls init itself). Also mirrors the
  /// final ingest.*/mempool.* tallies into the strategy's metrics registry,
  /// when it has one, so sim-driven artifacts carry them.
  DriverReport run(core::Strategy& strategy);

 private:
  DriverConfig cfg_;
  TrafficConfig traffic_;
};

/// Overwrites the ingest.*/mempool.* counters in `registry` with the
/// report's tallies (reset+inc, idempotent — the sim_metrics sync pattern).
void sync_ingest_counters(const DriverReport& report, metrics::Registry& registry);

}  // namespace ici::ingest
