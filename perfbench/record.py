"""Record the expected digests that results without a closed form are
checked against.

    PYTHONPATH=src python3 perfbench/record.py hankel riordan cli

Runs every request a workload can draw once, in this process, and writes
perfbench/expected/<workload>.json.  Run it only on a commit whose outputs
are known good: the files in the tree were recorded on commit a044c50,
where `riordankit verify` passes.  Re-recording after a change to the
library would hide that change from the oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import oracle
import serve
import workloads

OUT = Path(__file__).resolve().parent / "expected"


def _record_inprocess(reqs):
    digests = {}
    for key, req in reqs:
        if key in digests:
            continue
        try:
            obs = oracle.observe(serve.execute(req))
        except Exception as exc:
            obs = oracle.observe_error(exc)
        digests[key] = obs["digest"]
    return digests


def hankel_requests():
    for kind, source, r, n in workloads.hankel_space():
        terms = workloads.hankel_input(source, r, workloads.hankel_terms_needed(kind, n))
        req = {"kind": kind, "size": n, "terms": terms}
        yield workloads.hankel_digest_key(kind, source, r, n), req


def riordan_requests():
    for req in workloads.riordan_space():
        if req["kind"] == "apply":
            req["terms"] = workloads.family_terms(req["family"], req["size"], req["r"])
        yield workloads.riordan_digest_key(req), req


def record_cli():
    from riordankit import cli

    os.environ["COLUMNS"] = "80"
    digests = {}
    for entries in workloads.cli_space().values():
        for argv, stdin in entries:
            out, err = io.StringIO(), io.StringIO()
            old_stdin = sys.stdin
            sys.stdin = io.StringIO(stdin or "")
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(argv))
            finally:
                sys.stdin = old_stdin
            obs = oracle.observe_process(code, out.getvalue().encode(), err.getvalue().encode())
            digests[workloads.cli_digest_key(argv, stdin)] = obs["digest"]
    return digests


def main(argv):
    OUT.mkdir(exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        if workload == "hankel":
            digests = _record_inprocess(hankel_requests())
        elif workload == "riordan":
            digests = _record_inprocess(riordan_requests())
        else:
            digests = record_cli()
        with open(OUT / f"{workload}.json", "w") as f:
            json.dump(digests, f, indent=0, sort_keys=True)
            f.write("\n")
        print(f"{workload}: {len(digests)} digests", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
