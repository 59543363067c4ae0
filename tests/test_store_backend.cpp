// StorageBackend contract tests (docs/STORAGE.md): the log-structured
// DiskBackend round-trips bodies through segment files, serves staged writes
// warm, recovers its index from a torn-tail log, and compacts dead space —
// and the backend choice never perturbs the deterministic-sim contract:
// `--store mem` adds zero events (bit-identical to the default), `--store
// disk` is bit-identical across worker-pool sizes.
#include "storage/disk_backend.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "chain/workload.h"
#include "common/thread_pool.h"
#include "ici/network.h"
#include "storage/block_store.h"
#include "storage/store_metrics.h"
#include "storage/store_runtime.h"
#include "sync/serve.h"

namespace ici {
namespace {

namespace fs = std::filesystem;

Chain small_chain(std::size_t blocks = 6) {
  ChainGenConfig cfg;
  cfg.blocks = blocks;
  cfg.txs_per_block = 4;
  return ChainGenerator(cfg).generate();
}

/// Fresh per-test log directory under the system temp root.
class DiskBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ici-store-test-" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(DiskBackendTest, RoundTripThroughSegments) {
  const Chain chain = small_chain();
  StoreConfig cfg;
  cfg.backend = "disk";
  DiskBackend backend(cfg, dir_);

  for (std::size_t h = 1; h < chain.size(); ++h) {
    const Block& b = chain.at_height(h);
    EXPECT_TRUE(backend.put(b.hash(), std::make_shared<const Block>(b)));
  }
  EXPECT_EQ(backend.count(), chain.size() - 1);

  // Synchronous mode (no IoEnv): bodies are on disk already, reads are cold
  // preads that must deserialize to the exact same wire bytes.
  for (std::size_t h = 1; h < chain.size(); ++h) {
    const Block& want = chain.at_height(h);
    bool cold = false;
    std::uint64_t delay = 0;
    const auto got = backend.fetch(want.hash(), &cold, &delay);
    ASSERT_NE(got, nullptr) << "height " << h;
    EXPECT_TRUE(cold);
    EXPECT_EQ(delay, cfg.io_read_us);
    EXPECT_EQ(got->serialize(), want.serialize());
  }
  EXPECT_EQ(backend.counters().cold_reads, chain.size() - 1);
  EXPECT_GT(backend.counters().appended_bytes, 0u);

  // Idempotent re-put; erase frees the serialized size exactly once.
  const Block& b1 = chain.at_height(1);
  EXPECT_FALSE(backend.put(b1.hash(), std::make_shared<const Block>(b1)));
  EXPECT_EQ(backend.erase(b1.hash()), b1.serialized_size());
  EXPECT_FALSE(backend.contains(b1.hash()));
  EXPECT_EQ(backend.erase(b1.hash()), 0u);
  EXPECT_EQ(backend.counters().tombstones, 1u);
}

TEST_F(DiskBackendTest, StagedWritesReadWarmUntilRetired) {
  const Chain chain = small_chain();
  StoreConfig cfg;
  cfg.backend = "disk";
  DiskBackend backend(cfg, dir_);

  // Hand-cranked IoEnv: a manual clock plus an event list we retire ourselves,
  // standing in for the facade's simulator lane.
  std::uint64_t now = 0;
  std::vector<std::pair<std::uint64_t, std::function<void()>>> events;
  IoEnv env;
  env.now = [&now] { return now; };
  env.schedule_at = [&events](std::uint64_t at, std::function<void()> fn) {
    events.emplace_back(at, std::move(fn));
  };
  backend.set_io_env(std::move(env));

  const Block& b = chain.at_height(1);
  EXPECT_TRUE(backend.put(b.hash(), std::make_shared<const Block>(b)));
  EXPECT_EQ(backend.counters().staged_puts, 1u);
  EXPECT_EQ(backend.counters().wq_depth, 1u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].first, cfg.io_write_us);

  // A reader behind the write queue sees its own put, warm and free.
  bool cold = true;
  std::uint64_t delay = 99;
  ASSERT_NE(backend.fetch(b.hash(), &cold, &delay), nullptr);
  EXPECT_FALSE(cold);
  EXPECT_EQ(delay, 0u);
  EXPECT_EQ(backend.counters().warm_reads, 1u);
  EXPECT_EQ(backend.counters().cold_reads, 0u);

  // Retire the append: the body moves to a segment, later reads go cold.
  now = events[0].first;
  events[0].second();
  EXPECT_EQ(backend.counters().wq_retired, 1u);
  EXPECT_EQ(backend.counters().wq_depth, 0u);
  ASSERT_NE(backend.fetch(b.hash(), &cold, &delay), nullptr);
  EXPECT_TRUE(cold);
  EXPECT_GT(delay, 0u);
}

TEST_F(DiskBackendTest, ErasingStagedWriteCancelsTheAppend) {
  const Chain chain = small_chain();
  StoreConfig cfg;
  cfg.backend = "disk";
  DiskBackend backend(cfg, dir_);

  std::uint64_t now = 0;
  std::vector<std::pair<std::uint64_t, std::function<void()>>> events;
  IoEnv env;
  env.now = [&now] { return now; };
  env.schedule_at = [&events](std::uint64_t at, std::function<void()> fn) {
    events.emplace_back(at, std::move(fn));
  };
  backend.set_io_env(std::move(env));

  const Block& b = chain.at_height(1);
  backend.put(b.hash(), std::make_shared<const Block>(b));
  EXPECT_EQ(backend.erase(b.hash()), b.serialized_size());
  for (auto& [at, fn] : events) fn();  // stale retirement must be a no-op
  EXPECT_FALSE(backend.contains(b.hash()));
  EXPECT_EQ(backend.counters().appended_bytes, 0u);
  EXPECT_EQ(backend.counters().tombstones, 0u);  // never reached media

  // Cancelling the queue tail reclaims its device slot: the next write
  // retires one service time from now, not queued behind an append that
  // never happened.
  events.clear();
  const Block& b2 = chain.at_height(2);
  backend.put(b2.hash(), std::make_shared<const Block>(b2));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].first, now + cfg.io_write_us);
}

TEST_F(DiskBackendTest, RecoversIndexAndSkipsTornTail) {
  const Chain chain = small_chain(8);
  StoreConfig cfg;
  cfg.backend = "disk";
  std::vector<Hash256> hashes;
  {
    DiskBackend backend(cfg, dir_);
    for (std::size_t h = 1; h < chain.size(); ++h) {
      const Block& b = chain.at_height(h);
      backend.put(b.hash(), std::make_shared<const Block>(b));
      hashes.push_back(b.hash());
    }
    backend.flush();
  }

  // Tear the log: chop into the last record's payload, simulating a crash
  // mid-append after the manifest was last written.
  fs::path last_seg;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) == 0 && (last_seg.empty() || name > last_seg.filename())) {
      last_seg = entry.path();
    }
  }
  ASSERT_FALSE(last_seg.empty());
  const std::uint64_t size = fs::file_size(last_seg);
  ASSERT_GT(size, 10u);
  fs::resize_file(last_seg, size - 10);

  DiskBackend reopened(cfg, dir_);
  // Everything except the torn record is back, and the tail was counted.
  EXPECT_EQ(reopened.count(), hashes.size() - 1);
  EXPECT_EQ(reopened.counters().recovered_blocks, hashes.size() - 1);
  EXPECT_GT(reopened.counters().truncated_tail_bytes, 0u);
  for (std::size_t i = 0; i + 1 < hashes.size(); ++i) {
    EXPECT_TRUE(reopened.contains(hashes[i])) << "height " << i + 1;
    const auto got = reopened.fetch(hashes[i], nullptr, nullptr);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->serialize(), chain.at_height(i + 1).serialize());
  }
  EXPECT_FALSE(reopened.contains(hashes.back()));
  // Recovery is idempotent: a re-put of the torn block lands normally.
  const Block& torn = chain.at_height(chain.size() - 1);
  DiskBackend again(cfg, dir_);
  EXPECT_TRUE(again.put(torn.hash(), std::make_shared<const Block>(torn)));
  EXPECT_EQ(again.count(), hashes.size());
}

TEST_F(DiskBackendTest, RecoveryIgnoresForeignSegmentNames) {
  const Chain chain = small_chain();
  StoreConfig cfg;
  cfg.backend = "disk";
  std::uint64_t bytes_written = 0;
  {
    DiskBackend backend(cfg, dir_);
    for (std::size_t h = 1; h < chain.size(); ++h) {
      const Block& b = chain.at_height(h);
      backend.put(b.hash(), std::make_shared<const Block>(b));
    }
    bytes_written = backend.counters().segment_bytes;
    backend.flush();
  }

  // Stray files a loose "seg-" prefix match would trip over: a non-numeric
  // suffix used to throw out of std::stoul and abort the open, and a copy
  // like "seg-000000.bak" parsed to the real segment's id, scanning it
  // twice and inflating the byte counters.
  fs::copy_file(dir_ / "seg-000000", dir_ / "seg-000000.bak");
  for (const char* name : {"seg-old", "seg-0000000", "seg-12345"}) {
    std::FILE* f = std::fopen((dir_ / name).string().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a segment", f);
    std::fclose(f);
  }

  DiskBackend reopened(cfg, dir_);
  EXPECT_EQ(reopened.count(), chain.size() - 1);
  EXPECT_EQ(reopened.counters().recovered_blocks, chain.size() - 1);
  EXPECT_EQ(reopened.counters().segment_bytes, bytes_written);
  for (std::size_t h = 1; h < chain.size(); ++h) {
    EXPECT_TRUE(reopened.contains(chain.at_height(h).hash())) << "height " << h;
  }
}

// Regression: a batch of cold reads issued at one sim instant completes at
// the *last* read's delay — each fetch's io_delay_us is completion-relative
// and already includes queueing behind the batch's earlier reads — so
// serve_range must aggregate with max. Summing double-counted the queueing
// (k(k+1)/2 * io_read_us for k bodies instead of k * io_read_us).
TEST_F(DiskBackendTest, ServeRangeChargesBatchCompletionNotSum) {
  const Chain chain = small_chain();
  StoreConfig cfg;
  cfg.backend = "disk";
  auto backend = std::make_unique<DiskBackend>(cfg, dir_);

  std::uint64_t now = 0;
  std::vector<std::function<void()>> events;
  IoEnv env;
  env.now = [&now] { return now; };
  env.schedule_at = [&events](std::uint64_t, std::function<void()> fn) {
    events.push_back(std::move(fn));
  };
  backend->set_io_env(std::move(env));

  BlockStore store;
  store.set_backend(std::move(backend));
  sync::RangeRequestMsg req;
  req.mode = sync::PullMode::kListedBodies;
  for (std::size_t h = 1; h < chain.size(); ++h) {
    const Block& b = chain.at_height(h);
    store.put(HashedBlock(std::make_shared<const Block>(b), b.hash()));
    req.want.push_back(b.hash());
  }
  for (auto& fn : events) fn();  // retire every staged append: reads go cold

  const sync::ServedRange served = sync::serve_range(store, req);
  const auto* resp = dynamic_cast<const sync::RangeResponseMsg*>(served.msg.get());
  ASSERT_NE(resp, nullptr);
  ASSERT_EQ(resp->bodies.size(), chain.size() - 1);
  EXPECT_EQ(served.io_delay_us, (chain.size() - 1) * cfg.io_read_us);
}

TEST_F(DiskBackendTest, CompactionReclaimsDeadSpace) {
  const Chain chain = small_chain(10);
  StoreConfig cfg;
  cfg.backend = "disk";
  cfg.segment_bytes = 1024;  // force several small segments
  DiskBackend backend(cfg, dir_);

  for (std::size_t h = 1; h < chain.size(); ++h) {
    const Block& b = chain.at_height(h);
    backend.put(b.hash(), std::make_shared<const Block>(b));
  }
  const std::uint64_t before = backend.counters().segment_bytes;
  ASSERT_GT(backend.counters().segments, 1u);

  // Kill most of the log; the dead fraction crosses compact_threshold.
  for (std::size_t h = 1; h + 2 < chain.size(); ++h) {
    EXPECT_GT(backend.erase(chain.at_height(h).hash()), 0u);
  }
  EXPECT_GE(backend.counters().compactions, 1u);
  EXPECT_GT(backend.counters().reclaimed_bytes, 0u);
  EXPECT_LT(backend.counters().segment_bytes, before);

  // Survivors stay readable through the rewritten log.
  for (std::size_t h = chain.size() - 2; h < chain.size(); ++h) {
    const Block& want = chain.at_height(h);
    const auto got = backend.fetch(want.hash(), nullptr, nullptr);
    ASSERT_NE(got, nullptr) << "height " << h;
    EXPECT_EQ(got->serialize(), want.serialize());
  }
  // And the compacted log reopens to exactly the survivor set.
  backend.flush();
  DiskBackend reopened(cfg, dir_);
  EXPECT_EQ(reopened.count(), 2u);
}

// Regression: reusing a caller-supplied root must not let DiskBackend
// recovery resurrect a previous run's segments (stale blocks would flip
// dup_puts/warm-read behaviour and break run-to-run reproducibility). The
// root itself survives teardown; only the per-node logs start fresh.
TEST_F(DiskBackendTest, StoreRuntimeClearsReusedSuppliedDir) {
  const Chain chain = small_chain();
  StoreConfig cfg;
  cfg.backend = "disk";
  cfg.dir = dir_.string();
  {
    const StoreRuntime runtime(cfg);
    const auto backend = runtime.make_backend(0);
    ASSERT_NE(backend, nullptr);
    const Block& b = chain.at_height(1);
    backend->put(b.hash(), std::make_shared<const Block>(b));
    backend->flush();
  }
  ASSERT_TRUE(fs::exists(dir_ / "node-0"));  // supplied dir survives teardown

  const StoreRuntime reused(cfg);
  const auto backend = reused.make_backend(0);
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->count(), 0u);
  EXPECT_EQ(backend->counters().recovered_blocks, 0u);
  EXPECT_FALSE(backend->contains(chain.at_height(1).hash()));
}

// --- determinism contract ---------------------------------------------------

struct RunFingerprint {
  std::vector<sim::SimTime> commit_latency;
  std::uint64_t traffic_bytes = 0;
  std::uint64_t traffic_msgs = 0;
  std::map<std::string, std::uint64_t> counters;

  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint run_ici(const StoreConfig& store) {
  ChainGenConfig ccfg;
  ccfg.txs_per_block = 24;
  ccfg.workload.wallet_count = 16;
  ChainGenerator gen(ccfg);

  core::IciNetworkConfig ncfg;
  ncfg.node_count = 24;
  ncfg.ici.cluster_count = 3;
  ncfg.store = store;
  core::IciNetwork net(ncfg);

  Block genesis = gen.workload().make_genesis();
  gen.workload().confirm(genesis);
  Chain chain(genesis);
  net.init_with_genesis(genesis);

  RunFingerprint fp;
  for (int i = 0; i < 5; ++i) {
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

TEST(StoreDeterminism, MemBackendAddsZeroEvents) {
  // Selecting mem explicitly — with IO knobs set, which mem must ignore —
  // is bit-identical to the unconfigured default.
  StoreConfig mem;
  mem.backend = "mem";
  mem.io_write_us = 500;
  mem.io_read_us = 700;
  EXPECT_EQ(run_ici(StoreConfig{}), run_ici(mem));
}

TEST(StoreDeterminism, DiskIdenticalAcrossThreads) {
  StoreConfig disk;
  disk.backend = "disk";
  const RunFingerprint base = run_ici(disk);

  // The write queue is live (IO events were scheduled and all retired by
  // settle) — yet commit latency matches the mem run exactly: staging
  // decouples verification from the append, and dissemination-time reads
  // hit the write queue warm. Persistence costs show up on cold paths
  // (bootstrap, historical retrieval — exp24), not in the commit pipeline.
  ASSERT_TRUE(base.counters.count("store.staged_puts"));
  EXPECT_GT(base.counters.at("store.staged_puts"), 0u);
  EXPECT_EQ(base.counters.at("store.wq_retired"), base.counters.at("store.wq_enqueued"));
  EXPECT_EQ(base.commit_latency, run_ici(StoreConfig{}).commit_latency);

  // And the IO-event schedule never depends on the pool size.
  for (const std::size_t threads : {2, 4}) {
    ThreadPool::set_global_threads(threads);
    EXPECT_EQ(base, run_ici(disk)) << threads << " threads";
  }
  ThreadPool::set_global_threads(1);
}

TEST(StoreDeterminism, DiskBackedStoreKeepsByteAccounting) {
  // The paper's storage tables must not move with the backend: same chain,
  // same assignment, same per-node byte tallies whether bodies live in
  // memory or in segment files.
  StoreConfig disk;
  disk.backend = "disk";
  const Chain chain = small_chain(6);

  auto storage_of = [&chain](const StoreConfig& store) {
    core::IciNetworkConfig ncfg;
    ncfg.node_count = 12;
    ncfg.ici.cluster_count = 2;
    ncfg.store = store;
    core::IciNetwork net(ncfg);
    net.init_with_genesis(chain.at_height(0));
    net.preload_chain(chain);
    const auto snap = net.storage_snapshot();
    return std::pair<double, double>(snap.mean_bytes, snap.max_bytes);
  };
  EXPECT_EQ(storage_of(StoreConfig{}), storage_of(disk));
}

}  // namespace
}  // namespace ici
