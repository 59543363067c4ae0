// Header-only glue mirroring the simulator-core counters into a protocol
// metrics registry. sim/ stays metrics-free by design; the network host
// every facade derives from (host::Host) calls this after every settle and
// run_for so bench artifacts carry the event-core instrumentation. All
// mirrored values are deterministic (no wall clock), so they are safe in
// the bit-identical sim-metrics contract.
#pragma once

#include "metrics/registry.h"
#include "sim/faults.h"
#include "sim/simulator.h"

namespace ici::metrics {

/// Overwrites the "sim.*" counters in `reg` with the simulator's current
/// totals (cumulative since construction, so calling after each settle
/// keeps them monotone and idempotent).
inline void sync_sim_counters(Registry& reg, const sim::Simulator& sim) {
  const auto set = [&reg](const char* name, std::uint64_t v) {
    Counter& c = reg.counter(name);
    c.reset();
    c.inc(v);
  };
  const sim::EventQueue::Stats& qs = sim.queue_stats();
  set("sim.late_events", sim.late_events());
  set("sim.events_executed", qs.executed);
  set("sim.peak_pending", qs.peak_pending);
  set("sim.far_events", qs.far_events);
  set("sim.event_heap_fallbacks", qs.heap_fallback_events);
}

/// Overwrites the "faults.*" counters in `reg` with the injector's tallies
/// (same idempotent overwrite semantics as sync_sim_counters). Facades call
/// this from settle() when a FaultInjector is installed, so BENCH artifacts
/// report exactly what the plan did to the run.
inline void sync_fault_counters(Registry& reg, const sim::FaultStats& stats) {
  const auto set = [&reg](const char* name, std::uint64_t v) {
    Counter& c = reg.counter(name);
    c.reset();
    c.inc(v);
  };
  set("faults.msgs_dropped", stats.msgs_dropped);
  set("faults.msgs_duplicated", stats.msgs_duplicated);
  set("faults.msgs_delayed", stats.msgs_delayed);
  set("faults.partition_drops", stats.partition_drops);
  set("faults.crashes", stats.crashes);
  set("faults.restarts", stats.restarts);
}

}  // namespace ici::metrics
