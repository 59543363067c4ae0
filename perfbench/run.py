#!/usr/bin/env python3
"""Repo benchmark: builds the program from source, runs one workload, checks
its outputs and prints every metric.

    python3 perfbench/run.py --workload scale-10k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 2          # every workload

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Everything above it is a human-readable report. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
GOLDEN = os.path.join(HERE, "fingerprints.json")
WORKLOADS = ["scale-10k", "ingest-hot", "join-disk"]
DRIVER_TIMEOUT_S = 170

# Workload-specific end-to-end metrics the report prints after the
# BENCHMARK.json ones (which every workload reports).
REPORT_EXTRAS = {
    "scale-10k": [
        "events_per_s", "block_host_ms_p50", "block_host_ms_tail", "confirmed_tx_per_s",
        "sim_commit_ms_p50", "sim_commit_ms_p99", "bytes_sent_per_block", "fail_frac",
    ],
    "ingest-hot": [
        "events_per_s", "block_host_ms_p50", "block_host_ms_tail", "confirmed_tx_per_s",
        "sim_commit_ms_p50", "sim_commit_ms_p99", "sim_sustained_tps", "bytes_sent_per_block",
        "fail_frac",
    ],
    "join-disk": [
        "events_per_s", "op_host_ms_tail", "join_host_ms_p50", "ici_rc_storage_ratio",
        "join_bytes", "fail_frac",
    ],
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; returns False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the sources perfbench_driver is built from (works without git)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".h", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none", None
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no", "--", "src", "perfbench"],
                               capture_output=True, text=True, check=True).stdout.strip()
        return rev, bool(dirty)
    except (OSError, subprocess.CalledProcessError):
        return "none", None


def host_stamp(driver_stamp):
    rev, dirty = git_revision()
    stamp = {"nproc": os.cpu_count(), "cpu_model": cpu_model(), "git_revision": rev,
             "git_dirty": dirty, "source_digest": source_digest()}
    stamp.update(driver_stamp)
    return stamp


def run_driver(workload, seed, seconds, trace):
    run_dir = os.path.join(BUILD_DIR, "run-%d" % os.getpid())
    trace_out = os.path.join(BUILD_DIR, "trace-%s-seed%d.json" % (workload, seed))
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--store-dir", run_dir, "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (workload, DRIVER_TIMEOUT_S))
        return None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0:
        log("perfbench: driver exited with %d" % proc.returncode)
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    result = json.loads(lines[-1])
    if trace:
        result["trace_file"] = os.path.relpath(trace_out, ROOT)
    return result


def load_json(path, default):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return default


def check_fingerprint(result, stamp, record):
    """Compares the run's fingerprint with the committed per-seed record and
    with earlier runs of the same sources in this checkout. Returns a list
    of mismatch descriptions."""
    workload, seed, fp = result["workload"], str(result["seed"]), result["fingerprint"]
    problems = []
    golden = load_json(GOLDEN, {})
    if record:
        golden.setdefault(workload, {})[seed] = fp
        with open(GOLDEN, "w") as f:
            json.dump(golden, f, indent=1, sort_keys=True)
            f.write("\n")
    expected = golden.get(workload, {}).get(seed)
    if expected is not None and expected != fp:
        diff = sorted(k for k in set(expected) | set(fp) if expected.get(k) != fp.get(k))
        problems.append("fingerprint differs from perfbench/fingerprints.json in " +
                        ", ".join(diff))
    cache_path = os.path.join(BUILD_DIR, "fingerprints-seen.json")
    cache = load_json(cache_path, {})
    key = "%s/%s/%s" % (stamp["source_digest"], workload, seed)
    if key in cache and cache[key] != fp:
        problems.append("fingerprint differs from an earlier run of the same sources")
    cache[key] = fp
    with open(cache_path, "w") as f:
        json.dump(cache, f)
    return problems


def sanity_problems(result):
    """Checks on modelled outputs that hold for every seed."""
    m = {k: v["value"] for k, v in result["metrics"].items()}
    problems = []
    if result["workload"] == "join-disk":
        # RapidChain committees of N/5 versus ICI clusters of 20: the
        # paper's ratio is about 25%, headers lift it a little.
        if not 0.2 <= m["ici_rc_storage_ratio"] <= 0.35:
            problems.append("ICI/RapidChain storage ratio %.3f outside [0.2, 0.35]"
                            % m["ici_rc_storage_ratio"])
    else:
        if m["sim_commit_ms_p50"] <= 0 or m["bytes_sent_per_block"] <= 0:
            problems.append("blocks committed without latency or traffic")
    return problems


def bench_spec():
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"), None)
    if spec is None:
        raise SystemExit("perfbench: BENCHMARK.json not found at the repo root")
    return spec


def fmt(v):
    if v == 0 or (1e-3 <= abs(v) < 1e7):
        return "%.6g" % v
    return "%.4e" % v


def report(result, stamp, spec, trace):
    w = result["workload"]
    m = result["metrics"]
    print("== %s  seed=%s  iterations=%d  attempted=%d  failed=%d" %
          (w, result["seed"], result["iterations"], result["attempted"], result["failed"]))
    print("   stamp: " + json.dumps(stamp, sort_keys=True))
    print("   fingerprint: " + json.dumps(result["fingerprint"], sort_keys=True))
    for f in result["failures"]:
        print("   FAILED: " + f)
    if trace:
        names = [x["name"] for x in spec["per_layer"]]
        print("   trace file: %s" % result.get("trace_file"))
    else:
        names = [x["name"] for x in spec["end_to_end"]] + REPORT_EXTRAS[w]
        print("   op samples: %d, tail percentile: p%.1f" %
              (m["op_samples"]["value"], m["op_host_ms_tail_pct"]["value"]))
    for name in names:
        print("   %-30s %14s %s" % (name, fmt(m[name]["value"]), m[name]["unit"]))


def run_one(workload, seed, seconds, trace, record, out_dir, spec):
    result = run_driver(workload, seed, seconds, trace)
    if result is None:
        return None
    stamp = host_stamp(result.pop("stamp"))
    metrics = result["metrics"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    problems = check_fingerprint(result, stamp, record) + sanity_problems(result)
    for x in wanted:
        v = metrics[x["name"]]["value"]  # perfbench_driver writes null for NaN/inf
        if v is None or not math.isfinite(v) or (not trace and v <= 0):
            problems.append("metric %s is %s" % (x["name"], v))
    result["failures"] += problems
    attempted = result["attempted"] + 1  # the fingerprint comparison
    failed = result["failed"] + len(problems)
    metrics["fail_frac"]["value"] = failed / attempted
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {x["name"]: {"value": metrics[x["name"]]["value"], "unit": x["unit"]}
                    for x in wanted},
    }
    result["attempted"], result["failed"] = attempted, failed
    report(result, stamp, spec, trace)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "%s-seed%d-trace%d.json" % (workload, seed, trace))
        with open(path, "w") as f:
            json.dump({"workload": workload, "seed": seed, "trace": trace, "stamp": stamp,
                       "fingerprint": result["fingerprint"], "metrics": metrics,
                       "iteration_wall_s": result["iteration_wall_s"], "result": line},
                      f, indent=1, sort_keys=True)
    return line


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measurement time per workload (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="directory to store the full result of each run (for compare.py)")
    ap.add_argument("--record", action="store_true",
                    help="store this run's fingerprint in perfbench/fingerprints.json")
    args = ap.parse_args()

    spec = bench_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    start = time.monotonic()
    if not build():
        log("perfbench: build failed")
        return 1
    log("perfbench: build ready in %.1f s" % (time.monotonic() - start))

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    lines = {}
    for w in workloads:
        line = run_one(w, args.seed, seconds, args.trace, args.record, args.out, spec)
        if line is None:
            return 1
        lines[w] = line
    if len(lines) == 1:
        print(json.dumps(lines[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(x["correct"] for x in lines.values()),
            "attempted": sum(x["attempted"] for x in lines.values()),
            "failed": sum(x["failed"] for x in lines.values()),
            "workloads": lines,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
