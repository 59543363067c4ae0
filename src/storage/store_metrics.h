// Header-only glue mirroring fleet-summed StoreCounters into a protocol
// metrics registry as `store.*` — same overwrite-idempotent pattern as
// metrics/sim_metrics.h. storage/ itself stays metrics-free; the network
// host (which already links ici_metrics) calls this from settle/run_for so
// bench artifacts carry the backend instrumentation. All values are
// order-free sums over per-node counters, so they sit inside the
// bit-identical sim-metrics contract.
#pragma once

#include <vector>

#include "metrics/registry.h"
#include "storage/block_store.h"

namespace ici {

[[nodiscard]] inline StoreCounters sum_store_counters(
    const std::vector<const BlockStore*>& stores) {
  StoreCounters total;
  for (const BlockStore* s : stores) total += s->backend().counters();
  return total;
}

inline void sync_store_counters(metrics::Registry& reg,
                                const std::vector<const BlockStore*>& stores) {
  const StoreCounters t = sum_store_counters(stores);
  const auto set = [&reg](const char* name, std::uint64_t v) {
    metrics::Counter& c = reg.counter(name);
    c.reset();
    c.inc(v);
  };
  set("store.puts", t.puts);
  set("store.dup_puts", t.dup_puts);
  set("store.staged_puts", t.staged_puts);
  set("store.wq_enqueued", t.wq_enqueued);
  set("store.wq_retired", t.wq_retired);
  set("store.wq_depth", t.wq_depth);
  set("store.wq_depth_peak", t.wq_depth_peak);
  set("store.warm_reads", t.warm_reads);
  set("store.cold_reads", t.cold_reads);
  set("store.cold_read_bytes", t.cold_read_bytes);
  set("store.segments", t.segments);
  set("store.segment_bytes", t.segment_bytes);
  set("store.appended_bytes", t.appended_bytes);
  set("store.tombstones", t.tombstones);
  set("store.compactions", t.compactions);
  set("store.reclaimed_bytes", t.reclaimed_bytes);
  set("store.manifest_writes", t.manifest_writes);
  set("store.recovered_blocks", t.recovered_blocks);
  set("store.truncated_tail_bytes", t.truncated_tail_bytes);
}

}  // namespace ici
