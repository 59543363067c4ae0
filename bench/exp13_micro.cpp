// E13 [R] — Substrate micro-benchmarks (google-benchmark).
//
// Throughput of the primitives every experiment leans on: SHA-256, Merkle
// trees, transaction validation, block serialization, message codec,
// k-means clustering, and rendezvous assignment. A custom main (instead of
// benchmark_main) adds the repo-wide --smoke/--help contract and writes
// each benchmark's timing into BENCH_exp13_micro.json alongside the
// console table; other google-benchmark flags pass through unchanged.
#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <string_view>
#include <vector>

#include "chain/validator.h"
#include "chain/workload.h"
#include "cluster/assignment.h"
#include "cluster/kmeans.h"
#include "common/cpudispatch.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "erasure/gf256.h"
#include "erasure/rs.h"
#include "ici/codec.h"
#include "obs/bench_report.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace {

using namespace ici;

void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(ByteSpan(data.data(), data.size())));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

std::vector<Hash256> leaves(std::size_t n) {
  std::vector<Hash256> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ByteWriter w;
    w.u64(i);
    out.push_back(Hash256::of(ByteSpan(w.bytes().data(), w.bytes().size())));
  }
  return out;
}

void BM_MerkleRoot(benchmark::State& state) {
  const auto ls = leaves(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(MerkleTree::compute_root(ls));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_MerkleRoot)->Arg(100)->Arg(1000)->Arg(10000);

void BM_MerkleProveVerify(benchmark::State& state) {
  const auto ls = leaves(1024);
  const MerkleTree tree(ls);
  const Hash256 root = tree.root();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto proof = tree.prove(i % ls.size());
    benchmark::DoNotOptimize(MerkleTree::verify(ls[i % ls.size()], i % ls.size(), proof, root));
    ++i;
  }
}
BENCHMARK(BM_MerkleProveVerify);

void BM_TxStatelessValidation(benchmark::State& state) {
  WorkloadGenerator gen;
  Block genesis = gen.make_genesis();
  gen.confirm(genesis);
  const auto txs = gen.batch(256);
  Validator v;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.check_tx_stateless(txs[i % txs.size()]));
    ++i;
  }
}
BENCHMARK(BM_TxStatelessValidation);

void BM_BlockSerializeRoundTrip(benchmark::State& state) {
  ChainGenConfig cfg;
  cfg.blocks = 1;
  cfg.txs_per_block = static_cast<std::size_t>(state.range(0));
  const Chain chain = ChainGenerator(cfg).generate();
  const Block& block = chain.at_height(1);
  for (auto _ : state) {
    const Bytes enc = block.serialize();
    benchmark::DoNotOptimize(Block::deserialize(ByteSpan(enc.data(), enc.size())));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.serialized_size()));
}
BENCHMARK(BM_BlockSerializeRoundTrip)->Arg(10)->Arg(100)->Arg(1000);

void BM_MessageCodecRoundTrip(benchmark::State& state) {
  ChainGenConfig cfg;
  cfg.blocks = 1;
  cfg.txs_per_block = static_cast<std::size_t>(state.range(0));
  const Chain chain = ChainGenerator(cfg).generate();
  const Block& block = chain.at_height(1);
  core::SliceMsg msg;
  msg.header = block.header();
  msg.block_hash = block.hash();
  msg.first_index = 0;
  msg.total_txs = static_cast<std::uint32_t>(block.txs().size());
  msg.txs = block.txs();
  for (auto _ : state) {
    const Bytes enc = core::encode_message(msg);
    benchmark::DoNotOptimize(core::decode_message(ByteSpan(enc.data(), enc.size())));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(msg.wire_size() + 1));
}
BENCHMARK(BM_MessageCodecRoundTrip)->Arg(10)->Arg(100);

void BM_KMeans(benchmark::State& state) {
  Rng rng(2);
  std::vector<sim::Coord> pts;
  for (int i = 0; i < state.range(0); ++i) {
    pts.push_back({rng.uniform01() * 100, rng.uniform01() * 100});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::kmeans(pts, 10, {.max_iterations = 50, .seed = 1}));
  }
}
BENCHMARK(BM_KMeans)->Arg(100)->Arg(1000)->Arg(4000);

void BM_RendezvousAssignment(benchmark::State& state) {
  const auto nodes = cluster::generate_topology(static_cast<std::size_t>(state.range(0)), 3, 1);
  cluster::RendezvousAssigner assigner;
  std::uint64_t i = 0;
  for (auto _ : state) {
    ByteWriter w;
    w.u64(i++);
    const Hash256 h = Hash256::of(ByteSpan(w.bytes().data(), w.bytes().size()));
    benchmark::DoNotOptimize(assigner.storers(h, i, nodes, 3));
  }
}
BENCHMARK(BM_RendezvousAssignment)->Arg(16)->Arg(64)->Arg(256);

// GF(256) row kernels in isolation — the byte loops every RS encode and
// reconstruct spends its time in. These are what the SSSE3/AVX2 dispatch
// accelerates (docs/CPU_BACKENDS.md); comparing --cpu scalar vs native here
// gives the kernel speedup without RS framing overhead in the way.
void BM_GfMulAddRow(benchmark::State& state) {
  Rng rng(5);
  const Bytes src = rng.bytes(static_cast<std::size_t>(state.range(0)));
  Bytes dst = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    erasure::GF256::mul_add_row(dst.data(), src.data(), src.size(), 0x57);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_GfMulAddRow)->Arg(4096)->Arg(65536)->Arg(1048576);

void BM_GfMulRowInto(benchmark::State& state) {
  Rng rng(6);
  const Bytes src = rng.bytes(static_cast<std::size_t>(state.range(0)));
  Bytes dst(src.size(), 0);
  for (auto _ : state) {
    erasure::GF256::mul_row_into(dst.data(), src.data(), src.size(), 0x8e);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_GfMulRowInto)->Arg(4096)->Arg(65536)->Arg(1048576);

void BM_ReedSolomonEncode(benchmark::State& state) {
  Rng rng(3);
  const Bytes payload = rng.bytes(static_cast<std::size_t>(state.range(0)));
  const erasure::ReedSolomon rs(8, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.encode(ByteSpan(payload.data(), payload.size())));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ReedSolomonEncode)->Arg(4096)->Arg(65536)->Arg(1048576);

void BM_ReedSolomonReconstructWithErasures(benchmark::State& state) {
  Rng rng(4);
  const Bytes payload = rng.bytes(static_cast<std::size_t>(state.range(0)));
  const erasure::ReedSolomon rs(8, 2);
  auto shards = rs.encode(ByteSpan(payload.data(), payload.size()));
  // Worst case: both parity shards needed (two data shards lost).
  shards.erase(shards.begin());
  shards.erase(shards.begin() + 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.reconstruct(shards));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ReedSolomonReconstructWithErasures)->Arg(4096)->Arg(65536)->Arg(1048576);

// Multicast fan-out through the event engine: a driver node repeatedly
// multicasts a fixed message to 32 recipients, recipients are sinks.
struct FanoutMsg final : sim::MessageBase {
  [[nodiscard]] std::size_t wire_size() const override { return 256; }
  [[nodiscard]] const char* type_name() const override { return "fanout"; }
};

class FanoutSink final : public sim::INode {
 public:
  void on_message(sim::NodeId, const sim::MessagePtr&) override {}
};

class FanoutDriver final : public sim::INode {
 public:
  FanoutDriver(sim::Network& net, std::vector<sim::NodeId> targets, std::size_t rounds)
      : net_(&net), targets_(std::move(targets)), rounds_(rounds) {}
  void on_message(sim::NodeId, const sim::MessagePtr& msg) override {
    if (rounds_ == 0) return;
    --rounds_;
    net_->multicast(0, targets_, msg);
    if (rounds_ > 0) net_->send(0, 0, msg);  // chain the next round
  }

 private:
  sim::Network* net_;
  std::vector<sim::NodeId> targets_;
  std::size_t rounds_;
};

void BM_MulticastFanout(benchmark::State& state) {
  constexpr std::size_t kNodes = 64;
  constexpr std::size_t kFanout = 32;
  constexpr std::size_t kRounds = 64;
  for (auto _ : state) {
    sim::Simulator simulator;
    sim::Network net(simulator, sim::NetworkConfig{});
    std::vector<FanoutSink> sinks(kNodes - 1);
    std::vector<sim::NodeId> targets;  // ids are dense: driver 0, sinks 1..63
    for (sim::NodeId id = 1; id <= kFanout; ++id) targets.push_back(id);
    FanoutDriver driver(net, targets, kRounds);
    const sim::NodeId driver_id = net.add_node(&driver, {0, 0});
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      net.add_node(&sinks[i], {static_cast<double>(i % 8), 0});
    }
    net.send(driver_id, driver_id, std::make_shared<FanoutMsg>());
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kRounds * kFanout);
}
BENCHMARK(BM_MulticastFanout);

void BM_ChainGeneration(benchmark::State& state) {
  for (auto _ : state) {
    ChainGenConfig cfg;
    cfg.blocks = 10;
    cfg.txs_per_block = static_cast<std::size_t>(state.range(0));
    benchmark::DoNotOptimize(ChainGenerator(cfg).generate());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10 * state.range(0));
}
BENCHMARK(BM_ChainGeneration)->Arg(10)->Arg(100);

// Console output stays exactly google-benchmark's; this shim additionally
// keeps every per-iteration run so main() can serialize them as JSON rows.
class CollectingReporter final : public benchmark::ConsoleReporter {
 public:
  std::vector<Run> runs;

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) runs.push_back(run);
    ConsoleReporter::ReportRuns(report);
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::uint64_t threads = 0;  // 0 = hardware concurrency; --smoke pins 2
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::strtoull(std::string(arg.substr(10)).c_str(), nullptr, 10);
    } else if ((arg == "--cpu" && i + 1 < argc) || arg.rfind("--cpu=", 0) == 0) {
      const std::string_view value = arg == "--cpu" ? std::string_view(argv[++i]) : arg.substr(6);
      if (!ici::cpu::set_backend_name(value)) {
        std::cerr << "exp13_micro: invalid --cpu value '" << value
                  << "' (expected scalar|native)\n";
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "exp13_micro: substrate micro-benchmarks (google-benchmark)\n\n"
                   "  --smoke      run each benchmark briefly (--benchmark_min_time=0.01)\n"
                   "  --threads N  worker-pool lanes for the parallel hot paths\n"
                   "               (default: hardware concurrency; --smoke pins 2)\n"
                   "  --cpu MODE   SIMD dispatch tier: scalar | native (default native;\n"
                   "               also settable via ICI_CPU — see docs/CPU_BACKENDS.md)\n"
                   "  --help       this message\n\n"
                   "Any --benchmark_* flag is forwarded to google-benchmark.\n"
                   "Writes BENCH_exp13_micro.json to the working directory\n"
                   "(or $ICI_BENCH_DIR if set).\n";
      return 0;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (threads == 0 && smoke) threads = 2;
  ici::ThreadPool::set_global_threads(threads);
  static char min_time_flag[] = "--benchmark_min_time=0.01";
  if (smoke) args.push_back(min_time_flag);

  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) return 2;

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  obs::BenchReport report("exp13_micro", /*seed=*/42);
  report.set_smoke(smoke);
  report.set_config("benchmark_min_time_s", smoke ? 0.01 : 0.5);
  report.set_config("threads", ThreadPool::global().thread_count());
  // Primitive microbenches build no block store; record the default backend
  // so the artifact satisfies the uniform ici-bench-v1 config schema.
  report.set_config("store_backend", "mem");
  // Requested tier plus the effective per-primitive kernels (the selection
  // intersected with what this CPU actually supports).
  report.set_config("cpu_backend", std::string(ici::cpu::backend_name()));
  report.set_config("sha256_backend", std::string(ici::cpu::sha256_backend_name()));
  report.set_config("gf256_backend", std::string(ici::cpu::gf256_backend_name()));
  for (const auto& run : reporter.runs) {
    if (run.run_type != benchmark::BenchmarkReporter::Run::RT_Iteration) continue;
    if (run.error_occurred) continue;
    auto& row = report.add_row(run.benchmark_name());
    row.set("iterations", run.iterations);
    if (run.iterations > 0) {
      row.set("real_ns_per_iter",
              run.real_accumulated_time / static_cast<double>(run.iterations) * 1e9);
      row.set("cpu_ns_per_iter",
              run.cpu_accumulated_time / static_cast<double>(run.iterations) * 1e9);
    }
    for (const auto& [name, counter] : run.counters) {
      row.set(name, counter.value);
    }
  }
  report.capture_spans();
  try {
    const std::string path = report.write();
    std::cout << "\nwrote " << path << "\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
