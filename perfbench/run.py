"""The riordankit benchmark.

    python3 perfbench/run.py --workload {hankel,riordan,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source tree.  The run serves a fixed number of
rounds of the seeded workload, S seconds' worth on the code this benchmark
was written against (workloads.rounds_for).  With ``--trace 0`` it checks
every result and prints the end-to-end metrics.  With ``--trace 1`` it
serves the rounds twice, untraced and then traced, checks that both give
the same outputs, and prints the per-layer metrics; the difference between
the two passes is reported as the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A full record (environment stamp, property
shares, tracing overhead) goes to .perfbench/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
# A request slower than this counts as failed (cli requests are killed).
LIMIT_S = {"hankel": 60.0, "riordan": 60.0, "cli": 120.0}
SETUP_SPAWNS = 9
ENTRY = {"hankel": "riordankit", "riordan": "riordankit", "cli": "riordankit.cli"}
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The end-to-end metrics in the JSON line, the ones BENCHMARK.json bounds:
# aggregates over every request of a run.  The latency medians and the tail
# each rest on the few requests next to them and moved by 15-40 % between
# runs of identical work on a shared 2-vCPU host, more than a bound can
# allow, so they are printed and recorded but not bounded.  failed_ratio
# is 0 on a good run; the JSON carries it as failed / attempted.
GATED = ("throughput_rps", "cpu_ms_per_req", "peak_rss_mb", "setup_s")
UNITS = {"setup_s": "s", "throughput_rps": "req/s", "latency_p50_ms": "ms",
         "latency_tail_ms": "ms", "latency_small_p50_ms": "ms",
         "latency_large_p50_ms": "ms", "cpu_ms_per_req": "ms", "peak_rss_mb": "MB",
         "failed_ratio": "1"}


def environment(seed: int, workload: str) -> dict:
    src = ROOT / "src" / "riordankit"
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "commit": commit,
            "source_sha256": h.hexdigest(), "nproc": os.cpu_count(), "cpu_model": cpu,
            "seed": seed, "request_time_limit_s": LIMIT_S[workload],
            "clients": 1, "loop": "closed"}


def measure_setup(workload: str) -> list:
    """Fresh interpreter until the workload's entry point is imported."""
    code = f"import sys, {ENTRY[workload]}; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    times = []
    for i in range(SETUP_SPAWNS + 1):  # the first fills the bytecode cache
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              env=env, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=60)
        if line != b"ready\n" or proc.returncode:
            raise RuntimeError(f"cannot import {ENTRY[workload]} from {ROOT / 'src'}")
        if i:
            times.append(elapsed)
    return times


def run_pass(workload, stream, tag, traced) -> dict:
    """Serve the stream in a fresh serving process; returns its result."""
    job_path = OUT / f"{tag}.job"
    result_path = OUT / f"{tag}.result"
    spans_dir = OUT / f"{tag}.spans"
    shutil.rmtree(spans_dir, ignore_errors=True)
    if traced:
        spans_dir.mkdir(parents=True)
    job = {"workload": workload, "trace": traced, "root": str(ROOT), "limit_s": LIMIT_S[workload], "spans_dir": str(spans_dir)}
    with open(job_path, "wb") as f:
        pickle.dump(job, f)
        for reqs in stream:
            pickle.dump(reqs, f)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, str(HERE / "serve.py"), str(job_path), str(result_path)],
                   env=env, cwd=ROOT, check=True, timeout=170)
    with open(result_path, "rb") as f:
        result = pickle.load(f)
    job_path.unlink()
    result_path.unlink()
    if traced:
        result["span_files"] = sorted(spans_dir.glob("*.jsonl"))
    return result


def tail(latencies):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(latencies)
    p = next(p for p in PERCENTILES if n * (1 - p / 100) >= 10 or p == PERCENTILES[-1])
    rank = max(1, math.ceil(p / 100 * n))
    return sorted(latencies)[rank - 1], p, n - rank


def judge(workload, stream, result, digests):
    """Check every served request; returns (failures, end-to-end metrics,
    run facts: tail percentile, request count, property shares)."""
    by_id = {req["id"]: req for reqs in stream for req in reqs}
    failures = []
    for rec in result["records"]:
        req = by_id[rec["id"]]
        reason = oracle.check(workloads.expectation(workload, req, digests), rec["obs"])
        if reason is None and rec["latency"] > LIMIT_S[workload]:
            reason = f"over the {LIMIT_S[workload]} s limit"
        if reason:
            failures.append({"id": rec["id"], "request": describe(req), "reason": reason})
    recs = result["records"]
    n = len(recs)
    lat_ms = [r["latency"] * 1000 for r in recs]
    by_class = {}
    for r in recs:
        by_class.setdefault(by_id[r["id"]]["cls"], []).append(r["latency"] * 1000)
    tail_ms, tail_p, beyond = tail(lat_ms)
    metrics = {
        "throughput_rps": n / result["timed_s"],
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail_ms,
        "latency_small_p50_ms": statistics.median(by_class.get("small", [0.0])),
        "latency_large_p50_ms": statistics.median(by_class.get("large", [0.0])),
        "cpu_ms_per_req": sum(r["cpu"] for r in recs) * 1000 / n,
        "peak_rss_mb": result["peak_rss_mb"],
        "failed_ratio": len(failures) / n,
    }
    info = {"latency_tail_percentile": tail_p, "latency_tail_samples_beyond": beyond,
            "requests": n, "rounds": len(stream)}
    for cls in sorted(by_class):
        info[f"share.size_class.{cls}"] = len(by_class[cls]) / n
    for prop in workloads.PROPERTIES[workload]:
        info[f"share.{prop}"] = sum(prop in by_id[r["id"]]["props"] for r in recs) / n
    return failures, metrics, info


def describe(req) -> str:
    if "argv" in req:
        return " ".join(req["argv"])
    fields = ("kind", "array", "family", "source", "r", "size")
    return " ".join(f"{f}={req[f]}" for f in fields if f in req)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "riordankit" / "__init__.py").is_file():
        print(f"error: no riordankit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(HERE / "expected" / f"{args.workload}.json") as f:
        digests = json.load(f)
    OUT.mkdir(exist_ok=True)
    stream = workloads.build(args.workload, args.seed,
                             workloads.rounds_for(args.workload, args.seconds))
    setup = measure_setup(args.workload)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed, args.workload),
              "setup_runs_s": setup}

    if args.trace == 0:
        result = run_pass(args.workload, stream, tag, False)
        failures, e2e, info = judge(args.workload, stream, result, digests)
        e2e["setup_s"] = statistics.median(setup)
        metrics = {k: {"value": e2e[k], "unit": UNITS[k]} for k in GATED}
        record.update(end_to_end=e2e, run=info)
    else:
        base = run_pass(args.workload, stream, tag + "-plain", False)
        traced = run_pass(args.workload, stream, tag, True)
        failures, e2e, info = judge(args.workload, stream, traced, digests)
        base_failures, base_e2e, _ = judge(args.workload, stream, base, digests)
        failures += base_failures
        plain_obs = {r["id"]: r["obs"] for r in base["records"]}
        for rec in traced["records"]:
            if plain_obs.get(rec["id"]) != rec["obs"]:
                failures.append({"id": rec["id"], "reason": "traced output differs"})
        if len(base["records"]) != len(traced["records"]):
            failures.append({"id": None, "reason": "traced run served other requests"})
        layers = tracer.layer_metrics(traced["span_files"])
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        record.update(end_to_end_untraced=base_e2e, end_to_end_traced=e2e,
                      tracing_overhead={k: e2e[k] - base_e2e[k] for k in e2e
                                        if k != "failed_ratio"}, run=info,
                      per_layer=layers)
        e2e = {f"tracing_overhead.{k}": v for k, v in record["tracing_overhead"].items()}
    record["failures"] = failures
    served = traced if args.trace else result
    by_id = {req["id"]: req for reqs in stream for req in reqs}
    record["requests"] = [{"id": r["id"], "request": describe(by_id[r["id"]]),
                           "class": by_id[r["id"]]["cls"], "latency_ms": r["latency"] * 1000}
                          for r in served["records"]]
    attempted = len(served["records"])
    failed = {f["id"] for f in failures}
    with open(OUT / f"{tag}.json", "w") as f:
        json.dump(record, f, indent=2, sort_keys=True, default=str)
        f.write("\n")

    for k, v in sorted(e2e.items()):
        print(f"{k:40s} {v:14.6f} {UNITS.get(k.split('.')[-1], '')}")
    if args.trace:
        print(f"{'failed_ratio':40s} {len(failed) / attempted:14.6f} 1")
    for k, v in sorted(info.items()):
        print(f"{k:40s} {v}")
    for fail in failures[:20]:
        print(f"FAILED {fail}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bits_max"):
        return "bits"
    if name.endswith("ratio") or name.endswith("per_transform"):
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
