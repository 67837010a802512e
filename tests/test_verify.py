"""The verify report: pinned digests, grid bounds, and the failure branches."""

from __future__ import annotations

import concurrent.futures
import copy
import hashlib
import json
import os

import pytest

from riordankit import berlekamp, cli, hankel, production, riordan, sequences, verify
from riordankit.cli import canonical_json
from riordankit.errors import CrossCheckFailed, SingularLeadingMinor

# sha256 of the canonical JSON report; a refactor of verify must keep every
# check id, claim, parameter, expected and actual string byte for byte.
PINNED = {
    (4, 8): "79cff93e44472acf23553d65dffbceb4607d7babf93548b583e6fb2b84c47995",
    (8, 16): "7ab54715f8c66a2b8338c2313ef9fb7c22f5e8a5c7d1d2da2bf0575f7c78a919",
}


# The same digest for each scope alone at (4, 8), where the scopes hold
# 10, 48, 57, 267, 32 and 26 checks: a check filed under the wrong scope
# keeps the full report's digest but changes two of these.
PINNED_SCOPES = {
    "series": "a09fb167d98a741d6972f9dcb23c2deba12127be90457c58713ff3996994d718",
    "sequences": "cb9a753fad6e7fff42abe5411844b18ee1c0d6195bfea2ece4fc122cd649ed9c",
    "riordan": "d4dcae87d1db11694e8d35eda3f608545707ec2c49f70499787aceeec73705bb",
    "hankel": "3baf5d224409803d8e4359a1dce1fcbe9d9a4ce00b522cf9a8dd87c229659815",
    "production": "db9cc8d3d7a6244fb07b50a7562720d4119e49453238bb87268c9e6a013b171a",
    "berlekamp": "2b3b96376387627fad44e9b2325bf44e3e96afbf3faabfc6aced682ed1c39e42",
}


def _digest(report):
    text = canonical_json(verify.report_data(report))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("r_max, n_max", sorted(PINNED))
def test_report_digest_is_pinned(r_max, n_max):
    assert _digest(verify.run_checks(["all"], r_max, n_max)) == PINNED[(r_max, n_max)]


@pytest.mark.parametrize("scope", verify.SCOPES)
def test_scope_report_digest_is_pinned(scope):
    assert _digest(verify.run_checks([scope], 4, 8)) == PINNED_SCOPES[scope]


@pytest.mark.parametrize("r_max, n_max", sorted(PINNED))
def test_scope_reports_merge_to_the_full_report(r_max, n_max):
    merged = [
        res for scope in verify.SCOPES
        for res in verify.run_checks([scope], r_max, n_max).checks
    ]
    merged.sort(key=lambda res: res.id)
    assert merged == verify.run_checks(["all"], r_max, n_max).checks


def test_parallel_report_equals_serial():
    serial = verify.run_checks(["all"], 4, 8)
    assert verify.run_checks(["all"], 4, 8, parallel=True) == serial


class SerialPool:
    """A stand-in for ProcessPoolExecutor that records its worker count
    and maps in this process."""

    workers = []

    def __init__(self, max_workers=None):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("cpus, workers", [(64, 21), (None, 1)])
def test_parallel_starts_at_most_one_worker_per_check(monkeypatch, cpus, workers):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(SerialPool, "workers", [])
    serial = verify.run_checks(["all"], 4, 8)
    assert verify.run_checks(["all"], 4, 8, parallel=True) == serial
    # No check, no pool.
    assert verify.run_checks([], 4, 8, parallel=True).checks == []
    assert SerialPool.workers == [workers]


@pytest.mark.parametrize("r_max, n_max", [(0, 8), (4, 0), (-1, -1)])
def test_run_checks_rejects_an_empty_grid(r_max, n_max):
    with pytest.raises(ValueError, match="must be at least 1"):
        verify.run_checks(["all"], r_max, n_max)


def test_grid_search_reports_its_first_counterexample(monkeypatch):
    true_t = sequences.triangle_T

    def lopsided(n, k, r):
        return true_t(n, k, r) + (1 if n >= 2 and k == 0 else 0)

    monkeypatch.setattr(sequences, "triangle_T", lopsided)
    by_id = {res.id: res for res in verify.check_triangle(1, 5)}
    record = by_id["triangle-symmetry-r1"]
    assert record.status == "fail"
    assert record.expected == "symmetric"
    assert record.actual == "mismatch at (2, 0)"


def test_a_wrong_production_rule_fails_the_independent_checks(monkeypatch):
    # l_catalan with beta = r + 1 below the diagonal in place of r: the
    # series (d, h) stay right, only the matrix the rule expands is wrong.
    true_build = riordan.l_catalan

    def planted(r, order):
        arr = copy.copy(true_build(r, order))  # the original stays in the cache
        arr._rows = (riordan._rule_rows, ((r, r), (1, r + 1, r + 1), 0))
        return arr

    monkeypatch.setattr(riordan, "l_catalan", planted)
    report = verify.run_checks(["all"], 4, 8)
    failed = {res.id for res in report.checks if res.status == "fail"}
    # The rule's matrix against the LDL factor of the Hankel matrix, the
    # family's own terms, a literal display table, the action d * (f o h) of
    # the series, and the Stieltjes bridge, which compares its product's
    # matrix with the Catalan array's.
    bridges = {f"stieltjes-bridge-r{r}" for r in range(1, 5)}
    actions = {f"riordan-fundamental-catalan-r{r}" for r in range(1, 5)}
    assert {"ldl-lfactor-catalan-r1", "l-catalan-col0-r2", "riordan-catalan-r3"} <= failed
    assert actions <= failed
    assert bridges <= failed
    assert all("catalan" in check for check in failed - bridges), failed


def test_a_wrong_ldl_diagonal_fails_every_bareiss_agreement(monkeypatch):
    true_ldl = hankel.ldl

    def planted(h):
        dec = true_ldl(h)
        return hankel.LDLDecomp(l=dec.l, d=dec.d[:-1] + [2 * dec.d[-1]])

    monkeypatch.setattr(hankel, "ldl", planted)
    agreement = [
        res for res in verify.run_checks(["hankel"], 4, 8).checks
        if res.id.startswith("ldl-bareiss-agreement-")
    ]
    # Three families at r = 1..4.
    assert len(agreement) == 12
    assert all(res.status == "fail" for res in agreement)


def test_a_wrong_recurrence_entry_fails_every_generating_function_check(monkeypatch):
    true_triangle = berlekamp.bm_triangle

    def planted(a, count):
        rows = true_triangle(a, count)
        return rows[:-1] + [rows[-1][:-1] + [rows[-1][-1] + 1]]

    monkeypatch.setattr(berlekamp, "bm_triangle", planted)
    gf = [
        res for res in verify.run_checks(["berlekamp"], 4, 8).checks
        if res.id.startswith("bm-gf-r")
    ]
    message = "CrossCheckFailed: generating function rows do not match the solved rows"
    assert len(gf) == 4
    assert all((res.status, res.actual) == ("fail", message) for res in gf)


def test_a_guarded_construction_that_raises_fails_its_check(monkeypatch):
    def planted(r, order):
        raise CrossCheckFailed("planted bridge")

    monkeypatch.setattr(production, "stieltjes_bridge", planted)
    by_id = {res.id: res for res in verify.run_checks(["production"], 1, 8).checks}
    record = by_id["stieltjes-bridge-r1"]
    assert record.status == "fail"
    assert record.expected == "holds"
    assert record.actual == "CrossCheckFailed: planted bridge"


def test_a_wrong_table_value_fails_its_row(monkeypatch):
    true_coeff = riordan.egf_column_coeff

    def planted(n, k, r):
        return true_coeff(n, k, r) + 1000

    monkeypatch.setattr(riordan, "egf_column_coeff", planted)
    by_id = {res.id: res for res in verify.run_checks(["riordan"], 2, 4).checks}
    record = by_id["riordan-entry-egf-2-0-2"]
    assert record.status == "fail"
    assert (record.expected, record.actual) == ("13", "1013")


@pytest.mark.parametrize("error", [
    ZeroDivisionError("planted division"),
    SingularLeadingMinor(2, "planted minor"),
], ids=["ZeroDivisionError", "SingularLeadingMinor"])
@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
def test_a_check_that_raises_is_reported_as_a_failed_check(
    capsys, monkeypatch, error, parallel
):
    def planted(h):
        raise error

    monkeypatch.setattr(hankel, "ldl", planted)
    argv = ["verify", "--scope", "hankel", "--r-max", "2", "--n-max", "4"]
    code = cli.main(argv + ["--parallel"] * parallel)
    out, err = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in err
    data = json.loads(out)
    raised = [c for c in data["checks"] if c["id"].endswith("-raised")]
    assert raised
    assert all(c["status"] == "fail" for c in raised)
    assert all(c["actual"] == f"{type(error).__name__}: {error}" for c in raised)
    # Checks that never call ldl still report, and pass.
    assert any(c["id"].startswith("ht-central-") for c in data["checks"])
    assert int(data["summary"]["failed"]) == len(
        [c for c in data["checks"] if c["status"] == "fail"]
    )


def test_summary_counts_one_planted_failure(capsys, monkeypatch):
    # One failing check among the series checks: every count of the
    # summary must move, the library's report and the CLI's alike.
    total = verify.run_checks(["series"], 2, 4).summary["total"]

    def planted(r_max, n_max):
        yield verify.CheckResult("planted", "a planted claim", "{}", "fail", "1", "2")

    monkeypatch.setitem(verify._REGISTRY, "planted", ("series", planted))
    summary = verify.run_checks(["series"], 2, 4).summary
    assert summary == {"total": total + 1, "passed": total, "failed": 1}
    code = cli.main(["verify", "--scope", "series", "--r-max", "2", "--n-max", "4"])
    out, _ = capsys.readouterr()
    assert code == 1
    summary = json.loads(out)["summary"]
    assert summary == {"total": str(total + 1), "passed": str(total), "failed": "1"}
