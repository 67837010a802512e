"""The verify report: pinned digests, grid bounds, and the failure branch."""

from __future__ import annotations

import hashlib

import pytest

from riordankit import riordan, sequences, verify
from riordankit.cli import canonical_json

# sha256 of the canonical JSON report; a refactor of verify must keep every
# check id, claim, parameter, expected and actual string byte for byte.
PINNED = {
    (4, 8): "79cff93e44472acf23553d65dffbceb4607d7babf93548b583e6fb2b84c47995",
    (8, 16): "7ab54715f8c66a2b8338c2313ef9fb7c22f5e8a5c7d1d2da2bf0575f7c78a919",
}


@pytest.mark.parametrize("r_max, n_max", sorted(PINNED))
def test_report_digest_is_pinned(r_max, n_max):
    report = verify.run_checks(["all"], r_max, n_max)
    text = canonical_json(verify.report_data(report))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[(r_max, n_max)]


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
        arr = true_build(r, order)
        return riordan._named(arr.d, arr.h, ((r, r), (1, r + 1, r + 1), 0), arr._inverse)

    monkeypatch.setattr(riordan, "l_catalan", planted)
    report = verify.run_checks(["all"], 4, 8)
    failed = {res.id for res in report.checks if res.status == "fail"}
    # The rule's matrix against the LDL factor of the Hankel matrix, the
    # family's own terms and a literal display table.
    assert {"ldl-lfactor-catalan-r1", "l-catalan-col0-r2", "riordan-catalan-r3"} <= failed
    assert all("catalan" in check for check in failed), failed
