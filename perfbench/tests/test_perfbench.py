"""The benchmark's own tests.

    python3 -m pytest perfbench/tests
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_same_request_stream():
    for workload in workloads.WORKLOADS:
        first = workloads.build(workload, 7, count=3)
        assert first == workloads.build(workload, 7, count=3)
        assert first != workloads.build(workload, 8, count=3)


def _judge(workload, req, result):
    with open(HERE / "expected" / f"{workload}.json") as f:
        digests = json.load(f)
    return oracle.check(workloads.expectation(workload, req, digests), oracle.observe(result))


def test_oracle_rejects_a_corrupted_result():
    # One request per kind of check: closed form, recorded digest, column 0.
    stream = workloads.build("hankel", 3, count=1)[0]
    closed = next(q for q in stream if q["kind"] == "ht_ldl" and q["source"] != "singular"
                  and q["source"] in workloads.FAMILIES)
    recorded = next(q for q in stream if q["kind"] == "charpoly" and q["size"] == 16
                    and q["source"] != "singular")
    array = {"kind": "matrix", "array": "catalan", "family": "-", "r": 3, "size": 8,
             "props": []}
    for workload, req in (("hankel", closed), ("hankel", recorded), ("riordan", array)):
        result = serve.execute(req)
        assert _judge(workload, req, result) is None
        bad = copy.deepcopy(result)
        if isinstance(bad[-1], list):
            bad[-1][0] += 1
        else:
            bad[-1] += 1
        assert _judge(workload, req, bad) is not None


def test_singular_inputs_fail_where_the_construction_says():
    stream = [q for rnd in workloads.build("hankel", 5, count=4) for q in rnd
              if q["source"] == "singular" and q["size"] <= 32]
    assert stream
    for req in stream:
        try:
            obs = oracle.observe(serve.execute(req))
        except ArithmeticError as exc:
            obs = oracle.observe_error(exc)
        assert oracle.check(workloads.expectation("hankel", req, {}), obs) is None


def _calls(result):
    metrics = tracer.layer_metrics(result["span_files"])
    return {k: v for k, v in metrics.items() if k.endswith(".calls")}


def test_traced_and_untraced_runs_agree():
    run.OUT.mkdir(exist_ok=True)
    hankel = [[q for q in workloads.build("hankel", 11, count=1)[0] if q["size"] == 16]]
    cli = [[q for q in workloads.build("cli", 11, count=1)[0] if q["cls"] == "small"][:3]]
    for workload, stream in (("hankel", hankel), ("cli", cli)):
        plain = run.run_pass(workload, stream, f"test-{workload}-plain", False)
        traced = [run.run_pass(workload, stream, f"test-{workload}-{i}", True)
                  for i in range(2)]
        outputs = [[r["obs"] for r in res["records"]] for res in [plain] + traced]
        assert outputs[0] == outputs[1] == outputs[2]
        assert _calls(traced[0]) == _calls(traced[1])
        assert sum(_calls(traced[0]).values()) > 0


@pytest.mark.xfail(strict=True, reason="--size 1 exits 2 (known defect); once this "
                   "passes, move workloads.KNOWN_DEFECT into the cli mix")
def test_known_defect_requests_give_the_identity_block():
    from riordankit import cli

    for argv in workloads.KNOWN_DEFECT:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        assert code == 0, argv
        assert json.loads(out.getvalue())["rows"] == [["1"]], argv
