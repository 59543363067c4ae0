#!/usr/bin/env python3
"""Validate BENCH_*.json files against the ici-bench-v1 schema.

Stdlib only — meant to run from CTest (the bench_json_schema test) or by
hand after regenerating benchmark output:

    $ python3 tools/check_bench_json.py build/bench_json
    $ python3 tools/check_bench_json.py --require-spans verify/slice,encode/rs FILE...

Arguments may be individual .json files or directories (scanned for
BENCH_*.json, non-recursive). --require-spans takes a comma-separated list
of span labels that must appear, with a non-empty aggregate, in the UNION
of all validated files (no single experiment exercises every phase).

Exit status: 0 = all files valid, 1 = validation failure, 2 = usage error.
"""

import argparse
import json
import os
import sys

SCHEMA = "ici-bench-v1"
SUMMARY_KEYS = {"count", "total", "p50", "p99"}


class ValidationError(Exception):
    pass


def fail(path, message):
    raise ValidationError(f"{path}: {message}")


def check_summary(path, where, obj):
    """A DistributionSummary: {count, total, p50, p99}, all numbers."""
    if not isinstance(obj, dict):
        fail(path, f"{where}: expected object, got {type(obj).__name__}")
    if set(obj.keys()) != SUMMARY_KEYS:
        fail(path, f"{where}: keys {sorted(obj.keys())} != {sorted(SUMMARY_KEYS)}")
    for key, value in obj.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            fail(path, f"{where}.{key}: expected number, got {type(value).__name__}")
    if not isinstance(obj["count"], int) or obj["count"] < 0:
        fail(path, f"{where}.count: expected non-negative integer")


def check_file(path):
    """Validate one report; returns the set of span labels with samples."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            fail(path, f"invalid JSON: {exc}")

    if not isinstance(doc, dict):
        fail(path, "top level must be an object")

    for key, expected in (
        ("schema", str),
        ("name", str),
        ("seed", int),
        ("smoke", bool),
        ("config", dict),
        ("rows", list),
        ("counters", dict),
        ("distributions", dict),
        ("spans", list),
    ):
        if key not in doc:
            fail(path, f"missing required key '{key}'")
        if not isinstance(doc[key], expected):
            fail(path, f"'{key}': expected {expected.__name__}, "
                       f"got {type(doc[key]).__name__}")

    if doc["schema"] != SCHEMA:
        fail(path, f"schema '{doc['schema']}' != '{SCHEMA}'")
    if not doc["name"]:
        fail(path, "'name' must be non-empty")
    # Every artifact must record the worker-pool size it ran with (PR 2);
    # wall-clock numbers are meaningless without it.
    threads = doc["config"].get("threads")
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
        fail(path, "config.threads: expected integer >= 1 "
                   f"(got {threads!r})")
    # ... and the SIMD dispatch tier (PR 3): scalar vs native only moves
    # wall clock, but comparing timing artifacts requires knowing which ran.
    cpu_backend = doc["config"].get("cpu_backend")
    if cpu_backend not in ("scalar", "native"):
        fail(path, "config.cpu_backend: expected 'scalar' or 'native' "
                   f"(got {cpu_backend!r})")
    # ... and the storage backend (PR 10): mem and disk runs are
    # metric-identical by design, so the artifact has to say which one
    # produced it.
    store_backend = doc["config"].get("store_backend")
    if store_backend not in ("mem", "disk"):
        fail(path, "config.store_backend: expected 'mem' or 'disk' "
                   f"(got {store_backend!r})")
    expected_file = f"BENCH_{doc['name']}.json"
    if os.path.basename(path) != expected_file:
        fail(path, f"filename should be {expected_file} for name '{doc['name']}'")

    for i, row in enumerate(doc["rows"]):
        where = f"rows[{i}]"
        if not isinstance(row, dict):
            fail(path, f"{where}: expected object")
        if not isinstance(row.get("label"), str) or not row["label"]:
            fail(path, f"{where}: missing non-empty 'label'")
        if not isinstance(row.get("values"), dict):
            fail(path, f"{where}: missing 'values' object")
        for key, value in row["values"].items():
            if not isinstance(value, (bool, int, float, str)) and value is not None:
                fail(path, f"{where}.values['{key}']: scalar expected, "
                           f"got {type(value).__name__}")

    # exp19 (sim-core throughput) carries a scale sweep: the artifact must
    # say what headline node count it ran (config.nodes) and every row —
    # microbench and sweep alike — must report a positive events_per_sec,
    # or the scaling claim in EXPERIMENTS.md has nothing backing it.
    if doc["name"] == "exp19_simcore":
        nodes = doc["config"].get("nodes")
        if not isinstance(nodes, int) or isinstance(nodes, bool) or nodes < 1:
            fail(path, f"config.nodes: expected integer >= 1 (got {nodes!r})")
        for i, row in enumerate(doc["rows"]):
            eps = row["values"].get("events_per_sec")
            if not isinstance(eps, (int, float)) or isinstance(eps, bool) or eps <= 0:
                fail(path, f"rows[{i}].values['events_per_sec']: expected "
                           f"positive number (got {eps!r})")

    # exp20 (fault injection) rows are one (churn, drop, strategy) cell each:
    # the artifact must say how many nodes the sweep ran (config.nodes), and
    # every row must name its strategy and carry in-range fault rates and
    # availability fractions, or the availability-under-churn claim in
    # EXPERIMENTS.md has nothing backing it.
    if doc["name"] == "exp20_faults":
        nodes = doc["config"].get("nodes")
        if not isinstance(nodes, int) or isinstance(nodes, bool) or nodes < 1:
            fail(path, f"config.nodes: expected integer >= 1 (got {nodes!r})")
        for i, row in enumerate(doc["rows"]):
            values = row["values"]
            strategy = values.get("strategy")
            if not isinstance(strategy, str) or not strategy:
                fail(path, f"rows[{i}].values['strategy']: expected non-empty "
                           f"string (got {strategy!r})")
            for key in ("churn", "drop", "avail_mean", "avail_min"):
                v = values.get(key)
                if (not isinstance(v, (int, float)) or isinstance(v, bool)
                        or not 0.0 <= v <= 1.0):
                    fail(path, f"rows[{i}].values['{key}']: expected number "
                               f"in [0, 1] (got {v!r})")

    # exp21 (flattened-node-state scale sweep) re-verifies the headline ratio
    # at 10k-100k nodes: the artifact must say what headline scale it ran
    # (config.nodes) and each tier row must carry a positive measured ratio
    # and an in-range availability, or the "still ~25% at 100k" claim in
    # EXPERIMENTS.md has nothing backing it.
    if doc["name"] == "exp21_scale":
        nodes = doc["config"].get("nodes")
        if not isinstance(nodes, int) or isinstance(nodes, bool) or nodes < 1:
            fail(path, f"config.nodes: expected integer >= 1 (got {nodes!r})")
        for i, row in enumerate(doc["rows"]):
            values = row["values"]
            n = values.get("nodes")
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                fail(path, f"rows[{i}].values['nodes']: expected integer >= 1 "
                           f"(got {n!r})")
            ratio = values.get("measured_ici_vs_rc_pct")
            if (not isinstance(ratio, (int, float)) or isinstance(ratio, bool)
                    or ratio <= 0):
                fail(path, f"rows[{i}].values['measured_ici_vs_rc_pct']: expected "
                           f"positive number (got {ratio!r})")
            avail = values.get("availability")
            if (not isinstance(avail, (int, float)) or isinstance(avail, bool)
                    or not 0.0 <= avail <= 1.0):
                fail(path, f"rows[{i}].values['availability']: expected number "
                           f"in [0, 1] (got {avail!r})")

    # exp05 (bootstrap cost) went protocol-based with the streaming bulk
    # sync (docs/BOOTSTRAP.md): every row must be a measured, completed join
    # carrying the protocol detail, or the "greatly saves bootstrapping"
    # claim is back to closed-form arithmetic.
    if doc["name"] == "exp05_bootstrap":
        for i, row in enumerate(doc["rows"]):
            values = row["values"]
            if values.get("protocol") is not True:
                fail(path, f"rows[{i}].values['protocol']: expected True "
                           f"(got {values.get('protocol')!r})")
            if values.get("complete") is not True:
                fail(path, f"rows[{i}].values['complete']: expected True "
                           f"(got {values.get('complete')!r})")
            for key in ("bytes_downloaded", "peers_used", "ranges_committed"):
                v = values.get(key)
                if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                    fail(path, f"rows[{i}].values['{key}']: expected integer "
                               f">= 1 (got {v!r})")

    # exp22 (bulk-sync under fault plans): rows are one (height, plan) cell.
    # Every join must complete; crash-plan rows must have resumed at least
    # once AND landed in the same verified state as the clean run, or the
    # checkpoint/resume guarantee has nothing backing it. Full runs must
    # sweep >= 3 chain heights and >= 2 fault plans.
    if doc["name"] == "exp22_sync":
        nodes = doc["config"].get("nodes")
        if not isinstance(nodes, int) or isinstance(nodes, bool) or nodes < 1:
            fail(path, f"config.nodes: expected integer >= 1 (got {nodes!r})")
        heights, plans = set(), set()
        for i, row in enumerate(doc["rows"]):
            values = row["values"]
            plan = values.get("plan")
            if not isinstance(plan, str) or not plan:
                fail(path, f"rows[{i}].values['plan']: expected non-empty "
                           f"string (got {plan!r})")
            plans.add(plan)
            heights.add(values.get("blocks"))
            if values.get("complete") is not True:
                fail(path, f"rows[{i}].values['complete']: expected True "
                           f"(got {values.get('complete')!r})")
            for key in ("time_to_synced_us", "bytes_downloaded", "peers_used",
                        "ranges_committed"):
                v = values.get(key)
                if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                    fail(path, f"rows[{i}].values['{key}']: expected integer "
                               f">= 1 (got {v!r})")
            for key in ("ranges_retried", "resumes", "header_payload_bytes",
                        "body_payload_bytes", "peer_bytes_max", "peer_bytes_min"):
                v = values.get(key)
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    fail(path, f"rows[{i}].values['{key}']: expected integer "
                               f">= 0 (got {v!r})")
            if plan == "crash":
                if not isinstance(values.get("resumes"), int) or values["resumes"] < 1:
                    fail(path, f"rows[{i}]: crash-plan row must have resumes >= 1 "
                               f"(got {values.get('resumes')!r})")
                if values.get("resumed_matches_clean") is not True:
                    fail(path, f"rows[{i}]: crash-resumed state must match the "
                               "clean run (resumed_matches_clean)")
        if not doc["smoke"]:
            if len(heights) < 3:
                fail(path, f"full runs must sweep >= 3 chain heights "
                           f"(got {sorted(heights)})")
            if len(plans) < 2:
                fail(path, f"full runs must sweep >= 2 fault plans "
                           f"(got {sorted(plans)})")
        for name in ("sync.joins_completed", "sync.ranges_committed",
                     "sync.bodies_committed"):
            v = doc["counters"].get(name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                fail(path, f"counters['{name}']: expected integer >= 1 "
                           f"(got {v!r})")
        for name in ("sync.time_to_synced_us", "sync.bytes_per_peer"):
            if name not in doc["distributions"]:
                fail(path, f"distributions: missing '{name}'")

    # exp23 (transaction ingestion): the artifact must say what offered load,
    # mempool bound, and user population it ran (config.tx_rate /
    # config.mempool_cap / config.users / config.nodes), every per-rate row
    # must name its strategy and carry the throughput/latency measurements,
    # and the aggregated ingest.* counter block must be present — or the
    # sustained-tx/s-at-saturation claim in EXPERIMENTS.md has nothing
    # backing it.
    if doc["name"] == "exp23_ingest":
        tx_rate = doc["config"].get("tx_rate")
        if (not isinstance(tx_rate, (int, float)) or isinstance(tx_rate, bool)
                or tx_rate <= 0):
            fail(path, f"config.tx_rate: expected positive number (got {tx_rate!r})")
        for key in ("mempool_cap", "users", "nodes"):
            v = doc["config"].get(key)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                fail(path, f"config.{key}: expected integer >= 1 (got {v!r})")
        for i, row in enumerate(doc["rows"]):
            if not row["label"].startswith("rate="):
                continue
            values = row["values"]
            strategy = values.get("strategy")
            if not isinstance(strategy, str) or not strategy:
                fail(path, f"rows[{i}].values['strategy']: expected non-empty "
                           f"string (got {strategy!r})")
            for key in ("offered_tps", "sustained_tps"):
                v = values.get(key)
                if (not isinstance(v, (int, float)) or isinstance(v, bool)
                        or v <= 0):
                    fail(path, f"rows[{i}].values['{key}']: expected positive "
                               f"number (got {v!r})")
            for key in ("submit_commit_p50_us", "submit_commit_p99_us"):
                v = values.get(key)
                if (not isinstance(v, (int, float)) or isinstance(v, bool)
                        or v < 0):
                    fail(path, f"rows[{i}].values['{key}']: expected "
                               f"non-negative number (got {v!r})")
        INGEST_COUNTERS = ("ingest.submitted", "ingest.accepted",
                           "ingest.deduped", "ingest.rejected_backpressure",
                           "ingest.prescreen_failed", "ingest.batches",
                           "ingest.batch_occupancy_pct", "mempool.evictions",
                           "mempool.size_peak")
        for name in INGEST_COUNTERS:
            if name not in doc["counters"]:
                fail(path, f"counters: missing '{name}'")
        for name in ("ingest.submitted", "ingest.accepted", "ingest.batches"):
            if doc["counters"][name] < 1:
                fail(path, f"counters['{name}']: expected >= 1 "
                           f"(got {doc['counters'][name]!r})")

    # The store.* counter block (PR 10, docs/STORAGE.md). exp24 measures the
    # disk backend directly, so its artifact must always carry the block with
    # live write-queue and cold-read evidence; any OTHER artifact produced by
    # a --store disk run must carry it too, or there is no evidence the
    # persistent backend actually ran.
    STORE_COUNTERS = ("store.puts", "store.dup_puts", "store.staged_puts",
                      "store.wq_enqueued", "store.wq_retired", "store.wq_depth",
                      "store.wq_depth_peak", "store.warm_reads",
                      "store.cold_reads", "store.cold_read_bytes",
                      "store.segments", "store.segment_bytes",
                      "store.appended_bytes", "store.tombstones",
                      "store.compactions", "store.reclaimed_bytes",
                      "store.manifest_writes", "store.recovered_blocks",
                      "store.truncated_tail_bytes")
    if doc["name"] == "exp24_coldstart" or store_backend == "disk":
        for name in STORE_COUNTERS:
            if name not in doc["counters"]:
                fail(path, f"counters: missing '{name}'")
        for name in ("store.puts", "store.staged_puts", "store.appended_bytes"):
            if doc["counters"][name] < 1:
                fail(path, f"counters['{name}']: expected >= 1 "
                           f"(got {doc['counters'][name]!r})")
        if doc["counters"]["store.wq_retired"] != doc["counters"]["store.wq_enqueued"]:
            fail(path, "counters: store.wq_retired != store.wq_enqueued "
                       "(writes left in flight at capture)")

    # exp24 (cold-start cost) compares the same deployment over both
    # backends: one completed-bootstrap row per backend, each with the
    # cold/warm split that backs the persistence-cost claim.
    if doc["name"] == "exp24_coldstart":
        backends = {}
        for i, row in enumerate(doc["rows"]):
            values = row["values"]
            backend = values.get("backend")
            if backend not in ("mem", "disk"):
                fail(path, f"rows[{i}].values['backend']: expected 'mem' or "
                           f"'disk' (got {backend!r})")
            backends[backend] = values
            if values.get("bootstrap_complete") is not True:
                fail(path, f"rows[{i}]: bootstrap must complete "
                           f"(bootstrap_complete)")
            for key in ("bootstrap_us", "bytes_downloaded", "bodies_fetched"):
                v = values.get(key)
                if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                    fail(path, f"rows[{i}].values['{key}']: expected integer "
                               f">= 1 (got {v!r})")
            for key in ("cold_reads", "warm_reads", "retrieval_p50_us",
                        "retrieval_p99_us"):
                v = values.get(key)
                if (not isinstance(v, (int, float)) or isinstance(v, bool)
                        or v < 0):
                    fail(path, f"rows[{i}].values['{key}']: expected "
                               f"non-negative number (got {v!r})")
        for backend in ("mem", "disk"):
            if backend not in backends:
                fail(path, f"rows: missing backend '{backend}'")
        if backends["disk"].get("cold_reads", 0) < 1:
            fail(path, "rows: the disk run never read cold "
                       "(cold_reads >= 1 expected)")
        if backends["mem"].get("cold_reads", 0) != 0:
            fail(path, "rows: the mem run reported cold reads")

    for name, value in doc["counters"].items():
        if not isinstance(value, int) or isinstance(value, bool):
            fail(path, f"counters['{name}']: expected integer")

    # Sim-driven artifacts carry the run's memory footprint (PR 6). The
    # counters are environment measurements, so only their presence and
    # positivity are checked — and the scale sweeps (exp19/exp21) must have
    # them, or the bytes-per-node trajectory has nothing backing it.
    for name in ("sim.bytes_per_node", "sim.rss_bytes", "sim.peak_rss_bytes"):
        if name in doc["counters"] and doc["counters"][name] <= 0:
            fail(path, f"counters['{name}']: expected positive integer "
                       f"(got {doc['counters'][name]!r})")
    if doc["name"] in ("exp19_simcore", "exp21_scale"):
        if "sim.bytes_per_node" not in doc["counters"]:
            fail(path, "counters: scale sweeps must report sim.bytes_per_node")

    for name, summary in doc["distributions"].items():
        check_summary(path, f"distributions['{name}']", summary)

    labels = set()
    seen = set()
    for i, span in enumerate(doc["spans"]):
        where = f"spans[{i}]"
        if not isinstance(span, dict):
            fail(path, f"{where}: expected object")
        label = span.get("label")
        if not isinstance(label, str) or not label:
            fail(path, f"{where}: missing non-empty 'label'")
        if label in seen:
            fail(path, f"{where}: duplicate span label '{label}'")
        seen.add(label)
        if "wall_us" not in span or "sim_us" not in span:
            fail(path, f"{where}: needs both 'wall_us' and 'sim_us' (object or null)")
        populated = False
        for key in ("wall_us", "sim_us"):
            if span[key] is None:
                continue
            check_summary(path, f"{where}.{key}", span[key])
            # A serialized aggregate with zero samples means the emitter wrote
            # a dead summary instead of null — reject it outright.
            if span[key]["count"] == 0:
                fail(path, f"{where}.{key}: span '{label}' aggregate has count 0 "
                           "(emit null instead of an empty summary)")
            populated = True
        if not populated:
            fail(path, f"{where}: span '{label}' has no samples in wall_us or sim_us")
        labels.add(label)
    return labels


def collect_files(arguments):
    files = []
    for arg in arguments:
        if os.path.isdir(arg):
            entries = sorted(
                os.path.join(arg, e) for e in os.listdir(arg)
                if e.startswith("BENCH_") and e.endswith(".json"))
            if not entries:
                print(f"error: no BENCH_*.json files in directory {arg}", file=sys.stderr)
                sys.exit(2)
            files.extend(entries)
        elif os.path.isfile(arg):
            files.append(arg)
        else:
            print(f"error: no such file or directory: {arg}", file=sys.stderr)
            sys.exit(2)
    return files


def main():
    parser = argparse.ArgumentParser(
        description="Validate BENCH_*.json files against the ici-bench-v1 schema.")
    parser.add_argument("paths", nargs="+", metavar="FILE_OR_DIR",
                        help="BENCH_*.json files or directories containing them")
    parser.add_argument("--require-spans", default="",
                        help="comma-separated span labels that must appear, "
                             "populated, in the union of all files")
    args = parser.parse_args()

    files = collect_files(args.paths)
    all_labels = set()
    failed = False
    for path in files:
        try:
            all_labels |= check_file(path)
            print(f"ok: {path}")
        except ValidationError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            failed = True

    required = {s.strip() for s in args.require_spans.split(",") if s.strip()}
    missing = required - all_labels
    if missing:
        print(f"FAIL: required span labels absent from every file: "
              f"{', '.join(sorted(missing))}", file=sys.stderr)
        failed = True

    if failed:
        sys.exit(1)
    print(f"validated {len(files)} file(s), {len(all_labels)} distinct span label(s)")


if __name__ == "__main__":
    main()
