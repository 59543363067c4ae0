// The determinism contract (docs/THREADING.md): the worker-pool size changes
// wall clock only. Every parallel hot path — RS encode/reconstruct, batch
// Merkle hashing, collaborative slice verification inside a full network
// run — must produce byte-identical results at 1, 2, and 8 lanes. The
// full-run fingerprints cover ICI and both baselines (full replication and
// RapidChain), with and without a message-fault plan installed (the
// test_threads_determinism_faults CTest variant sets ICI_FAULT_PLAN).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "baseline/fullrep.h"
#include "baseline/rapidchain.h"
#include "chain/workload.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "crypto/merkle.h"
#include "erasure/rs.h"
#include "ici/network.h"
#include "sim/faults.h"
#include "storage/storage_meter.h"

namespace ici {
namespace {

constexpr std::size_t kLaneCounts[] = {1, 2, 8};

class ThreadsDeterminism : public ::testing::Test {
 protected:
  // Tests mutate the process-wide pool; always hand back a 1-lane pool so
  // suites that run after this one see the serial default.
  void TearDown() override { ThreadPool::set_global_threads(1); }
};

TEST_F(ThreadsDeterminism, ReedSolomonEncodeBytes) {
  Rng rng(7);
  // Large enough that rows split into several chunks (per-shard cost well
  // above kMinRowBytesPerChunk / total_shards).
  const Bytes payload = rng.bytes(1 << 20);
  const erasure::ReedSolomon rs(8, 4);

  std::vector<std::vector<erasure::Shard>> runs;
  for (const std::size_t lanes : kLaneCounts) {
    ThreadPool::set_global_threads(lanes);
    runs.push_back(rs.encode(ByteSpan(payload.data(), payload.size())));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    ASSERT_EQ(runs[i].size(), runs[0].size());
    for (std::size_t s = 0; s < runs[0].size(); ++s) {
      EXPECT_EQ(runs[i][s].index, runs[0][s].index);
      EXPECT_EQ(runs[i][s].bytes, runs[0][s].bytes)
          << "shard " << s << " differs at " << kLaneCounts[i] << " lanes";
    }
  }
}

TEST_F(ThreadsDeterminism, ReedSolomonReconstructBytes) {
  Rng rng(8);
  const Bytes payload = rng.bytes(1 << 20);
  const erasure::ReedSolomon rs(8, 4);
  auto shards = rs.encode(ByteSpan(payload.data(), payload.size()));
  // Drop four shards (worst case for RS(8,4)): parity must carry the load.
  shards.erase(shards.begin(), shards.begin() + 3);
  shards.erase(shards.begin() + 2);

  std::vector<Bytes> runs;
  for (const std::size_t lanes : kLaneCounts) {
    ThreadPool::set_global_threads(lanes);
    const auto decoded = rs.reconstruct(shards);
    ASSERT_TRUE(decoded.has_value()) << "reconstruct failed at " << lanes << " lanes";
    runs.push_back(*decoded);
  }
  EXPECT_EQ(runs[0], payload);
  for (std::size_t i = 1; i < runs.size(); ++i) EXPECT_EQ(runs[i], runs[0]);
}

TEST_F(ThreadsDeterminism, MerkleRootAboveParallelThreshold) {
  // 4096 leaves: the first few levels exceed the 256-parent threshold and
  // fan out; deeper levels fall back to the serial loop. The root must not
  // care.
  std::vector<Hash256> leaves;
  leaves.reserve(4096);
  for (std::size_t i = 0; i < 4096; ++i) {
    ByteWriter w;
    w.u64(i);
    leaves.push_back(Hash256::of(ByteSpan(w.bytes().data(), w.bytes().size())));
  }

  std::vector<Hash256> roots;
  for (const std::size_t lanes : kLaneCounts) {
    ThreadPool::set_global_threads(lanes);
    roots.push_back(MerkleTree::compute_root(leaves));
  }
  for (std::size_t i = 1; i < roots.size(); ++i) EXPECT_EQ(roots[i], roots[0]);
}

/// Everything observable from one full dissemination run that could drift
/// if slice verification stopped being deterministic.
struct RunFingerprint {
  std::vector<sim::SimTime> commit_latency;
  double storage_mean = 0;
  double storage_max = 0;
  std::uint64_t traffic_bytes = 0;
  std::uint64_t traffic_msgs = 0;
  std::map<std::string, std::uint64_t> counters;

  bool operator==(const RunFingerprint&) const = default;
};

/// The contract must also hold under fault injection: the
/// test_threads_determinism_faults CTest variant sets ICI_FAULT_PLAN to a
/// message-fault plan (drop/dup/delay only — random crash schedules never
/// quiesce, so a settle-based run cannot carry them). Unset leaves the
/// legacy path with zero extra RNG draws.
template <typename Net>
void install_env_fault_plan(Net& net) {
  if (const char* spec = std::getenv("ICI_FAULT_PLAN");
      spec != nullptr && *spec != '\0') {
    sim::FaultPlan plan;
    std::string error;
    if (!sim::FaultPlan::parse(spec, &plan, &error)) {
      ADD_FAILURE() << "bad ICI_FAULT_PLAN: " << error;
    } else if (plan.enabled()) {
      net.start_faults(plan);
    }
  }
}

/// Disseminates `blocks` generated blocks through `net` and fingerprints
/// the run (storage is filled in by the caller where the facade has it).
template <typename Net>
RunFingerprint disseminate(Net& net, std::size_t txs_per_block, int blocks) {
  ChainGenConfig ccfg;
  ccfg.txs_per_block = txs_per_block;
  ccfg.workload.wallet_count = 16;
  ChainGenerator gen(ccfg);

  Block genesis = gen.workload().make_genesis();
  gen.workload().confirm(genesis);
  Chain chain(genesis);
  net.init_with_genesis(genesis);
  install_env_fault_plan(net);

  RunFingerprint fp;
  for (int i = 0; i < blocks; ++i) {
    chain.append(gen.next_block(chain));
    fp.commit_latency.push_back(net.disseminate_and_settle(chain.tip()));
  }
  const auto traffic = net.network().total_traffic();
  fp.traffic_bytes = traffic.bytes_sent;
  fp.traffic_msgs = traffic.msgs_sent;
  for (const auto& [name, counter] : net.metrics().counters()) {
    fp.counters[name] = counter.value();
  }
  return fp;
}

RunFingerprint run_network() {
  core::IciNetworkConfig ncfg;
  ncfg.node_count = 24;
  ncfg.ici.cluster_count = 3;
  core::IciNetwork net(ncfg);
  RunFingerprint fp = disseminate(net, 24, 5);
  const auto snap = net.storage_snapshot();
  fp.storage_mean = snap.mean_bytes;
  fp.storage_max = snap.max_bytes;
  return fp;
}

RunFingerprint run_fullrep() {
  baseline::FullRepConfig ncfg;
  ncfg.node_count = 16;
  baseline::FullRepNetwork net(ncfg);
  return disseminate(net, 16, 3);
}

RunFingerprint run_rapidchain() {
  baseline::RapidChainConfig ncfg;
  ncfg.node_count = 24;
  ncfg.committee_count = 4;
  baseline::RapidChainNetwork net(ncfg);
  return disseminate(net, 16, 3);
}

/// Runs `run` at every pool width and expects one fingerprint.
std::vector<RunFingerprint> expect_identical_across_threads(RunFingerprint (*run)()) {
  std::vector<RunFingerprint> runs;
  for (const std::size_t lanes : kLaneCounts) {
    ThreadPool::set_global_threads(lanes);
    runs.push_back(run());
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].commit_latency, runs[0].commit_latency) << kLaneCounts[i] << " threads";
    EXPECT_EQ(runs[i].storage_mean, runs[0].storage_mean);
    EXPECT_EQ(runs[i].storage_max, runs[0].storage_max);
    EXPECT_EQ(runs[i].traffic_bytes, runs[0].traffic_bytes);
    EXPECT_EQ(runs[i].traffic_msgs, runs[0].traffic_msgs);
    EXPECT_EQ(runs[i].counters, runs[0].counters) << kLaneCounts[i] << " threads";
  }
  // Nothing ever scheduled into the past (the Simulator::at clamp never
  // fires).
  EXPECT_TRUE(runs[0].counters.count("sim.late_events"));
  EXPECT_EQ(runs[0].counters["sim.late_events"], 0u);
  EXPECT_GT(runs[0].counters["sim.events_executed"], 0u);
  return runs;
}

TEST_F(ThreadsDeterminism, FullNetworkRunIsBitIdentical) {
  const std::vector<RunFingerprint> runs = expect_identical_across_threads(run_network);
  // No closure on a full ICI run outgrew the inline event buffer.
  ASSERT_TRUE(runs[0].counters.count("sim.event_heap_fallbacks"));
  EXPECT_EQ(runs[0].counters.at("sim.event_heap_fallbacks"), 0u);
}

TEST_F(ThreadsDeterminism, FullRepRunIsBitIdentical) {
  expect_identical_across_threads(run_fullrep);
}

TEST_F(ThreadsDeterminism, RapidChainRunIsBitIdentical) {
  expect_identical_across_threads(run_rapidchain);
}

}  // namespace
}  // namespace ici
