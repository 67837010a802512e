"""The serving process: one closed-loop client that runs a request stream.

    python3 perfbench/serve.py JOB_FILE RESULT_FILE

JOB_FILE is a pickle written by run.py: a header dict, then one pickled
round after another.  For the in-process workloads this process imports
riordankit and calls it directly; for ``cli`` it runs each request as a
``python -m riordankit`` subprocess (or the traced launcher), one at a time.
Each request is timed on its own; turning the result into an observation
happens after the clock stops.
"""

from __future__ import annotations

import gc
import os
import pickle
import resource
import subprocess
import sys
import time
from pathlib import Path

import oracle
import tracer

HERE = Path(__file__).resolve().parent


def _named(a, r, o):
    from riordankit import production, riordan

    if a == "catalan":
        return riordan.l_catalan(r, o)
    if a == "central":
        return riordan.l_central(r, o)
    return production.a_p(r, o)


def execute(req):
    """Run one in-process request and return the library's result."""
    from riordankit import berlekamp, hankel, production, riordan

    kind, n = req["kind"], req["size"]
    if "terms" in req and "array" not in req:
        a = req["terms"]
        if kind == "ht_spot":
            return hankel.hankel_transform(a, n)
        if kind in ("ht_ldl", "ht_bareiss"):
            return hankel.hankel_transform(a, n, method=kind[3:])
        if kind == "ldl":
            return hankel.ldl(hankel.hankel_matrix(a, n))
        if kind == "bm":
            return berlekamp.bm_triangle(a, n)
        if kind == "charpoly":
            return berlekamp.char_poly(a, n)
        if kind == "production":
            return production.production_matrix(hankel.ldl(hankel.hankel_matrix(a, n + 1)).l)
    r = req["r"]
    if kind == "matrix":
        return _named(req["array"], r, n).to_matrix(n)
    if kind == "inverse":
        return _named(req["array"], r, n).inverse().to_matrix(n)
    if kind == "multiply":
        return _named(req["array"], r, n).multiply(riordan.binomial(n)).to_matrix(n)
    if kind == "apply":
        return _named(req["array"], r, n).apply(req["terms"])
    if kind == "binomial_power":
        return riordan.binomial_power(r, n).to_matrix(n)
    if kind == "bridge":
        return production.stieltjes_bridge(r, n)
    raise ValueError(f"unknown request kind {kind!r}")


def cli_env(root) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(root) / "src")
    env["COLUMNS"] = "80"  # argparse wraps usage text to the terminal width
    env.pop("PERFBENCH_SPANS", None)
    return env


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def serve(job, rounds, result_path):
    traced = job["trace"]
    spans_dir = Path(job["spans_dir"]) if traced else None
    tr = None
    import_s = 0.0
    if job["workload"] != "cli":
        t0 = time.perf_counter()
        import riordankit  # noqa: F401  (the entry point of the in-process workloads)
        import_s = time.perf_counter() - t0
        if traced:
            tr = tracer.Tracer()
            tr.install()
    env = cli_env(job["root"])
    records = []
    timed = 0.0
    for reqs in rounds:
        for req in reqs:
            if job["workload"] == "cli":
                cmd = [sys.executable, "-m", "riordankit"]
                if traced:
                    cmd = [sys.executable, str(HERE / "launch.py")]
                    env["PERFBENCH_SPANS"] = str(spans_dir / f"{req['id']}.jsonl")
                stdin = (req["stdin"] or "").encode()
                c0 = _children_cpu()
                t0 = time.perf_counter()
                try:
                    proc = subprocess.run(cmd + req["argv"], input=stdin, capture_output=True,
                                          env=env, cwd=job["root"], timeout=job["limit_s"])
                    t1 = time.perf_counter()
                    obs = oracle.observe_process(proc.returncode, proc.stdout, proc.stderr)
                except subprocess.TimeoutExpired:
                    t1 = time.perf_counter()
                    obs = {"error": "Timeout"}
                cpu = _children_cpu() - c0
            else:
                if tr is not None:
                    tr.request = req["id"]
                # Start each request without the last one's garbage, so that
                # the collector's pauses land on the request that caused them.
                gc.collect()
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    result = execute(req)
                except Exception as exc:  # judged by the oracle, not fatal
                    t1 = time.perf_counter()
                    cpu = time.process_time() - c0
                    obs = oracle.observe_error(exc)
                else:
                    t1 = time.perf_counter()
                    cpu = time.process_time() - c0
                    obs = oracle.observe(result)
                    del result
            records.append({"id": req["id"], "latency": t1 - t0, "cpu": cpu, "obs": obs})
            timed += t1 - t0
    who = resource.RUSAGE_CHILDREN if job["workload"] == "cli" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    if tr is not None:
        tr.write(spans_dir / "server.jsonl", import_s)
    with open(result_path, "wb") as f:
        pickle.dump({"records": records, "timed_s": timed,
                     "peak_rss_mb": peak_kb / 1024.0}, f)


def _rounds(f):
    while True:
        try:
            yield pickle.load(f)
        except EOFError:
            return


def main(argv):
    job_path, result_path = argv
    with open(job_path, "rb") as f:
        job = pickle.load(f)
        serve(job, _rounds(f), result_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
