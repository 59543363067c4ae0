// E19 [perf] — Simulator-core throughput: calendar queue + inplace events.
//
// Two parts. (1) A pure sim-core microbench: the identical randomized
// schedule — bursty deliveries, same-time cascades, timeouts, churn-scale
// timers, events chained from inside events — driven through the production
// EventQueue (calendar buckets + InplaceEvent) and through the pre-overhaul
// ReferenceEventQueue (std::priority_queue + std::function), reporting
// events/sec for each and the speedup. (2) An end-to-end ICIStrategy scale
// sweep at N ∈ {1000, 2500, 5000, 10000} nodes: full message-accurate block
// dissemination, reporting the sim core's deterministic counters
// (events executed, peak pending, far-heap spills) next to wall clock.
// Sim metrics are bit-reproducible; only wall_* and events_per_sec move
// between runs.
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "sim/event_queue.h"
#include "sim/reference_queue.h"

using namespace ici;
using namespace ici::bench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct MicroResult {
  std::uint64_t executed = 0;
  double wall_s = 0;
  [[nodiscard]] double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(executed) / wall_s : 0.0;
  }
};

/// The capture every scheduled event carries: the shape of the network's
/// delivery closure (this + from + to + wire size + message pointer,
/// ~40 bytes). This is what makes the comparison honest — real captures
/// spill std::function's small-buffer optimization (16 bytes in libstdc++)
/// and cost the reference queue one heap round trip per event, while
/// InplaceEvent keeps them in its 64-byte inline buffer.
struct DeliveryPayload {
  void* self;
  std::uint32_t from, to;
  std::uint64_t wire;
  const void* msg;
  std::uint64_t tag;
};

/// Delay mix the networks actually schedule: sub-ms deliveries (55%),
/// equal-time cascades (20%), second-scale timeouts (20%), minute-scale
/// churn timers (5%). Precomputed into a table so the timed loop pays one
/// uniform draw per delay instead of branches + a log() — driver overhead
/// is shared by both queues and would otherwise dilute the measured ratio.
constexpr std::size_t kDelayTableSize = 1 << 16;

std::vector<sim::SimTime> make_delay_table() {
  Rng rng(7);
  std::vector<sim::SimTime> delays(kDelayTableSize);
  for (auto& d : delays) {
    const double pick = rng.uniform01();
    if (pick < 0.55) {
      d = 2000 + static_cast<sim::SimTime>(rng.exponential(4000.0));
    } else if (pick < 0.75) {
      d = rng.uniform(3);
    } else if (pick < 0.95) {
      d = 1'000'000 + rng.uniform(3'000'000);
    } else {
      d = 60'000'000 + rng.uniform(600'000'000);
    }
  }
  return delays;
}

/// Drives one queue through the protocol-shaped schedule: every executed
/// event may chain 0-2 more relative to its own firing time. Both queue
/// types get the same RNG seed and draw sequence, so they run the exact
/// same schedule.
template <typename Queue>
MicroResult drive_micro(Queue& q, std::uint64_t seed_events, std::uint64_t spawn_limit,
                        const std::vector<sim::SimTime>& delays) {
  struct Driver {
    Queue& q;
    const std::vector<sim::SimTime>& delays;
    std::uint64_t spawn_limit;
    Rng rng{20260806};
    sim::SimTime now = 0;
    std::uint64_t spawned = 0;
    std::uint64_t checksum = 0;

    sim::SimTime delay_draw() { return delays[rng.uniform(kDelayTableSize)]; }
    void schedule(sim::SimTime at) {
      const DeliveryPayload payload{this, static_cast<std::uint32_t>(spawned & 0xffff),
                                    static_cast<std::uint32_t>((spawned >> 16) & 0xffff),
                                    4096 + (spawned & 255), nullptr, spawned};
      q.schedule_at(at, [this, payload] { fire(payload); });
      ++spawned;
    }
    void fire(const DeliveryPayload& p) {
      checksum += p.tag + p.wire;
      if (spawned >= spawn_limit) return;
      const std::uint64_t children = rng.uniform(3);
      for (std::uint64_t c = 0; c < children; ++c) schedule(now + delay_draw());
    }
  };

  Driver drv{q, delays, spawn_limit};
  for (std::uint64_t i = 0; i < seed_events; ++i) drv.schedule(drv.delay_draw());

  MicroResult res;
  const auto start = Clock::now();
  while (!q.empty()) {
    drv.now = q.run_next();
    ++res.executed;
  }
  res.wall_s = seconds_since(start);
  if (drv.checksum == 0) std::exit(3);  // keeps the payload observable to the optimizer
  return res;
}

std::uint64_t counter_or_zero(const metrics::Registry& reg, const std::string& name) {
  const auto& counters = reg.counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second.value();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, "exp19_simcore");
  constexpr std::uint64_t kSeed = 42;
  constexpr std::size_t kClusterSize = 20;  // ICI: m fixed, k = N/m (exp02 shape)
  constexpr std::size_t kTxsPerBlock = 8;   // small bodies: measure the core, not codecs
  const std::size_t kBlocks = opts.smoke ? 2 : 3;
  const std::uint64_t kMicroSeeds = opts.smoke ? 5'000 : 200'000;
  const std::uint64_t kMicroLimit = opts.smoke ? 30'000 : 1'200'000;
  const std::vector<std::size_t> sizes = opts.smoke
                                             ? std::vector<std::size_t>{40, 80}
                                             : std::vector<std::size_t>{1000, 2500, 5000, 10000};

  obs::BenchReport report("exp19_simcore", kSeed);
  report.set_smoke(opts.smoke);
  report.set_config("nodes", sizes.back());  // headline scale of the sweep
  report.set_config("ici_cluster_size", kClusterSize);
  report.set_config("txs_per_block", kTxsPerBlock);
  report.set_config("blocks", kBlocks);
  report.set_config("micro_seed_events", kMicroSeeds);

  print_experiment_header("E19", "simulator-core throughput (calendar queue + inplace events)");

  // --- Part 1: pure sim-core microbench vs the pre-overhaul queue ----------
  const std::vector<sim::SimTime> delays = make_delay_table();
  MicroResult fast_res;
  MicroResult ref_res;
  sim::EventQueue::Stats fast_stats;
  {
    obs::Span span("sim/core");
    sim::EventQueue fast;
    fast_res = drive_micro(fast, kMicroSeeds, kMicroLimit, delays);
    fast_stats = fast.stats();
  }
  {
    sim::ReferenceEventQueue ref;
    ref_res = drive_micro(ref, kMicroSeeds, kMicroLimit, delays);
  }
  const double speedup =
      ref_res.events_per_sec() > 0 ? fast_res.events_per_sec() / ref_res.events_per_sec() : 0.0;

  Table micro({"core", "events", "events/sec", "peak pending", "far spills", "inline misses"});
  micro.row({"calendar+inplace", std::to_string(fast_res.executed),
             std::to_string(static_cast<std::uint64_t>(fast_res.events_per_sec())),
             std::to_string(fast_stats.peak_pending), std::to_string(fast_stats.far_events),
             std::to_string(fast_stats.heap_fallback_events)});
  micro.row({"heap+std::function", std::to_string(ref_res.executed),
             std::to_string(static_cast<std::uint64_t>(ref_res.events_per_sec())), "-", "-", "-"});
  micro.print(std::cout);
  std::cout << "microbench speedup: " << speedup << "x\n\n";

  report.add_row("micro:calendar")
      .set("events_per_sec", fast_res.events_per_sec())
      .set("events", fast_res.executed)
      .set("peak_pending", fast_stats.peak_pending)
      .set("far_events", fast_stats.far_events)
      .set("heap_fallback_events", fast_stats.heap_fallback_events)
      .set("speedup_vs_reference", speedup);
  report.add_row("micro:reference_heap")
      .set("events_per_sec", ref_res.events_per_sec())
      .set("events", ref_res.executed);

  // --- Part 2: end-to-end ICIStrategy dissemination scale sweep ------------
  Table table({"N", "clusters", "events", "events/sec", "peak pending", "commit ms", "wall ms"});
  for (const std::size_t n : sizes) {
    const std::size_t clusters = n / kClusterSize;
    LiveIciRig rig(n, clusters, kTxsPerBlock, /*replication=*/1, kSeed);

    sim::SimTime commit_total = 0;
    const auto start = Clock::now();
    double wall_s = 0;
    {
      obs::Span span("sim/core");
      for (std::size_t b = 0; b < kBlocks; ++b) commit_total += rig.step();
      wall_s = seconds_since(start);
    }

    const auto& reg = rig.net->metrics();
    const std::uint64_t events = counter_or_zero(reg, "sim.events_executed");
    const std::uint64_t peak = counter_or_zero(reg, "sim.peak_pending");
    const std::uint64_t far = counter_or_zero(reg, "sim.far_events");
    const std::uint64_t spills = counter_or_zero(reg, "sim.event_heap_fallbacks");
    const std::uint64_t late = counter_or_zero(reg, "sim.late_events");
    const double eps = wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0;
    const double commit_ms =
        static_cast<double>(commit_total) / 1000.0 / static_cast<double>(kBlocks);

    table.row({std::to_string(n), std::to_string(clusters), std::to_string(events),
               std::to_string(static_cast<std::uint64_t>(eps)), std::to_string(peak),
               std::to_string(commit_ms), std::to_string(wall_s * 1000.0)});

    report.add_row("N=" + std::to_string(n))
        .set("nodes", n)
        .set("clusters", clusters)
        .set("blocks", kBlocks)
        .set("sim_events", events)
        .set("events_per_sec", eps)
        .set("peak_pending", peak)
        .set("far_events", far)
        .set("heap_fallback_events", spills)
        .set("late_events", late)
        .set("mean_commit_ms", commit_ms)
        .set("wall_ms", wall_s * 1000.0);
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: events/sec roughly flat in N (O(1) amortized schedule/pop, "
               "no per-event heap traffic); peak pending grows with the fan-out, and inline "
               "misses stay 0 on the network path.\n";
  finish_report(report, opts, sizes.back());
  return 0;
}
