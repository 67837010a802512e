"""Command-line behavior: output shapes, exit codes, canonical JSON."""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import riordankit
from riordankit import cli, production, riordan, sequences, series


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def walk_values(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from walk_values(v)
    elif isinstance(node, list):
        for v in node:
            yield from walk_values(v)
    else:
        yield node


def test_generate_json(capsys):
    code, out, _ = run_cli(capsys, "generate", "b", "--r", "2", "--n", "5")
    assert code == 0
    data = json.loads(out)
    assert data == {"family": "b", "r": "2", "values": ["1", "3", "10", "34", "116"]}


def test_generate_csv(capsys):
    code, out, _ = run_cli(
        capsys, "generate", "catalan", "--r", "3", "--n", "8", "--format", "csv"
    )
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "n,value"
    assert [line.split(",")[1] for line in lines[1:9]] == [
        "1", "3", "12", "57", "300", "1686", "9912", "60213",
    ]
    assert "\r" not in out


def test_generate_triangle_csv(capsys):
    code, out, _ = run_cli(
        capsys, "generate", "triangle", "--r", "2", "--n", "3", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == [
        "n,k,value",
        "0,0,1",
        "1,0,1",
        "1,1,1",
        "2,0,1",
        "2,1,3",
        "2,2,1",
    ]


def test_generate_rejects_bad_parameters(capsys):
    assert run_cli(capsys, "generate", "fibonacci")[0] == 2
    assert run_cli(capsys, "generate", "central", "--r", "0")[0] == 2
    assert run_cli(capsys, "generate", "central", "--n", "0")[0] == 2


def test_hankel_transform_family_envelope(capsys):
    code, out, _ = run_cli(
        capsys, "hankel", "transform", "--family", "sum", "--r", "2", "--count", "4"
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["values"] == ["3", "20", "272", "7424"]
    assert data["params"]["method"] == "spot"
    assert data["input"][0] == "3"


def test_hankel_transform_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(
        sys, "stdin", io.StringIO("# central r = 2\n1, 3 13\n63 321\n")
    )
    code, out, _ = run_cli(capsys, "hankel", "transform", "--count", "3")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["values"] == ["1", "4", "32"]
    assert data["params"]["family"] == "stdin"


def int_str_limit():
    """The interpreter's limit on int <-> str conversion, None where there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def test_answers_longer_than_the_int_str_limit(capsys):
    # H_98 of the Catalan family at r = 8 is the first value past 4300 digits.
    before = int_str_limit()
    code, out, err = run_cli(
        capsys, "hankel", "transform", "--family", "catalan", "--r", "8", "--count", "99"
    )
    assert (code, err) == (0, "")
    assert int_str_limit() == before
    last = json.loads(out)["result"]["values"][-1]
    assert len(last) > 4300
    want = sequences.closed_ht("catalan", 98, 8)
    if before is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert last == str(want)
    finally:
        if before is not None:
            sys.set_int_max_str_digits(before)


def test_stdin_terms_longer_than_the_int_str_limit(capsys, monkeypatch):
    term = "7" + "0" * 4300
    monkeypatch.setattr(sys, "stdin", io.StringIO(term + "\n"))
    before = int_str_limit()
    code, out, err = run_cli(capsys, "hankel", "transform", "--count", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["values"] == [term]
    assert int_str_limit() == before


def test_a_block_past_the_row_store_bound(capsys):
    # Order 362 is the first whose block exceeds the row store's bound: it
    # is handed out but not stored, and its rows are the stored order-361
    # rows plus one more.
    assert 361 * 362 // 2 <= riordan.ROW_STORE_ENTRIES < 362 * 363 // 2
    riordan.clear_row_store()
    rows = {}
    for size in (361, 362):
        code, out, err = run_cli(capsys, "riordan", "central", "--r", "3", "--size", str(size))
        assert (code, err) == (0, "")
        rows[size] = json.loads(out)["rows"]
    assert riordan._row_store_entries == 361 * 362 // 2
    assert len(rows[362]) == 362 and rows[362][:361] == rows[361]
    for k in (0, 1, 180, 360, 361):
        assert rows[362][361][k] == str(riordan.central_l_entry(361, k, 3)), k


def test_stdin_with_too_few_terms_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 2\n"))
    code, _, err = run_cli(capsys, "hankel", "transform", "--count", "3")
    assert code == 2
    assert "terms" in err


def test_stdin_with_junk_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 two 3\n"))
    code, _, _ = run_cli(capsys, "hankel", "transform", "--count", "1")
    assert code == 2


@pytest.mark.parametrize("token", ["1_0", "١"], ids=["underscore", "arabic-indic"])
def test_stdin_takes_only_ascii_decimal_integers(capsys, monkeypatch, token):
    # int() alone reads both tokens, as 10 and 1.
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"{token} 2 3\n"))
    code, out, err = run_cli(capsys, "hankel", "transform", "--count", "2")
    assert (code, out) == (2, "")
    assert f"invalid literal for int() with base 10: {token!r}" in err


REFUSED = [
    (["production", "array", "--array", "binomial", "--size", "3"], None,
     "error: --array applies only to production matrix\n"),
    (["production", "bridge", "--array", "central", "--size", "3"], None,
     "error: --array applies only to production matrix\n"),
    (["hankel", "transform", "--r", "3", "--count", "2"], "1 2 6 22 90\n",
     "error: --r applies only to --family terms\n"),
    (["riordan", "catalan", "--size", "1_0"], None,
     "argument --size: invalid positive value: '1_0'\n"),
    (["generate", "catalan", "--r", "\u0663"], None,
     "argument --r: invalid positive value: '\u0663'\n"),
    (["riordan", "binomial", "--power", "1_0", "--size", "3"], None,
     "argument --power: invalid decimal value: '1_0'\n"),
]


@pytest.mark.parametrize("argv, stdin, message", REFUSED,
                         ids=[" ".join(argv) for argv, _, _ in REFUSED])
def test_options_are_read_or_refused(capsys, monkeypatch, argv, stdin, message):
    # Each of these once ran, ignoring the option or reading 1_0 as 10 and
    # an Arabic-Indic three as 3.
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(message)
    assert "Traceback" not in err


def test_singular_minor_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 1 2 3 5 8 13\n"))
    code, _, err = run_cli(capsys, "hankel", "ldl", "--size", "4")
    assert code == 3
    assert "order 3" in err


def test_singular_recurrence_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 1 2 3 5 8 13 21\n"))
    code, _, err = run_cli(capsys, "hankel", "bm", "--rows", "4")
    assert code == 3
    assert "order 3" in err


def test_hankel_ldl_table(capsys):
    code, out, _ = run_cli(
        capsys, "hankel", "ldl", "--family", "central", "--r", "2", "--size", "4"
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["d"] == ["1", "4", "8", "16"]
    assert data["result"]["l"][3] == ["63", "33", "9", "1"]


def test_hankel_bm_and_charpoly(capsys):
    code, out, _ = run_cli(
        capsys, "hankel", "bm", "--family", "catalan", "--r", "3", "--rows", "4"
    )
    assert code == 0
    assert json.loads(out)["result"]["rows"][-1] == ["-81", "142", "-75", "15"]
    code, out, _ = run_cli(
        capsys, "hankel", "charpoly", "--family", "catalan", "--r", "3", "--size", "4"
    )
    assert code == 0
    assert json.loads(out)["result"]["coefficients"] == [
        "81", "-142", "75", "-15", "1",
    ]


def test_hankel_production_is_tridiagonal(capsys):
    code, out, _ = run_cli(
        capsys, "hankel", "production", "--family", "catalan", "--r", "2",
        "--size", "3",
    )
    assert code == 0
    assert json.loads(out)["result"]["rows"] == [
        ["2", "1", "0"],
        ["2", "3", "1"],
        ["0", "2", "3"],
    ]


def test_riordan_expansion_and_inverse(capsys):
    code, out, _ = run_cli(capsys, "riordan", "catalan", "--r", "3", "--size", "4")
    assert code == 0
    assert json.loads(out)["rows"] == [
        ["1"],
        ["3", "1"],
        ["12", "7", "1"],
        ["57", "43", "11", "1"],
    ]
    code, out, _ = run_cli(
        capsys, "riordan", "binomial", "--power", "-1", "--size", "3"
    )
    assert code == 0
    assert json.loads(out)["rows"] == [["1"], ["-1", "1"], ["1", "-2", "1"]]


def test_power_is_only_for_the_binomial_array(capsys):
    for array in ("central", "catalan", "ap", "coefficient"):
        code, out, err = run_cli(capsys, "riordan", array, "--power", "3")
        assert (code, out) == (2, "")
        assert err == "error: --power applies only to the binomial array\n"
    code, out, _ = run_cli(capsys, "riordan", "binomial", "--power", "3", "--size", "2")
    assert code == 0
    assert json.loads(out)["rows"] == [["1"], ["3", "1"]]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="--size 1 exits 2: a Riordan array of "
                   "order 1 cannot carry h'(0)")
@pytest.mark.parametrize(
    "argv",
    [["riordan", a] for a in ("catalan", "central", "ap", "binomial", "coefficient")]
    + [["production", a] for a in ("array", "bridge")],
    ids=" ".join,
)
def test_size_one_gives_the_identity_block(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--size", "1")
    assert code == 0
    assert json.loads(out)["rows"] == [["1"]]


def default_pairs():
    """(argv without an option, the same argv with the option's default given)."""
    yield ["hankel", "transform", "--family", "catalan", "--r", "2"], ["--count", "8"]
    yield ["hankel", "transform", "--family", "sum", "--r", "2"], ["--method", "spot"]
    for action in ("ldl", "charpoly", "production"):
        yield ["hankel", action, "--family", "central", "--r", "2"], ["--size", "4"]
    yield ["hankel", "bm", "--family", "catalan", "--r", "3"], ["--rows", "4"]
    for action in ("transform", "ldl", "bm", "charpoly", "production"):
        yield ["hankel", action, "--family", "catalan"], ["--r", "1"]
    for action in ("matrix", "array", "bridge"):
        yield ["production", action, "--r", "2"], ["--size", "4"]
    yield ["production", "matrix", "--r", "2", "--size", "3"], ["--array", "ap"]
    for array in cli.ARRAY_NAMES:
        yield ["riordan", array, "--r", "2"], ["--size", "6"]
    yield ["riordan", "binomial", "--size", "4"], ["--power", "1"]
    for family in cli.GENERATE_FAMILIES:
        yield ["generate", family], ["--n", "8", "--r", "1"]
    yield ["verify"], ["--r-max", "4", "--n-max", "8"]


@pytest.mark.parametrize("argv, given", list(default_pairs()),
                         ids=lambda v: " ".join(v))
def test_an_omitted_option_reads_its_default(capsys, argv, given):
    # A default moved by a refactor changes the bytes of the bare run.
    bare = run_cli(capsys, *argv)
    assert bare[0] == 0, argv
    assert bare == run_cli(capsys, *argv, *given)


def test_riordan_csv_rows(capsys):
    code, out, _ = run_cli(
        capsys, "riordan", "central", "--r", "2", "--size", "3", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == [
        "n,k,value",
        "0,0,1",
        "1,0,3",
        "1,1,1",
        "2,0,13",
        "2,1,6",
        "2,2,1",
    ]


def test_production_commands(capsys):
    code, out, _ = run_cli(
        capsys, "production", "matrix", "--array", "ap", "--r", "2", "--size", "3"
    )
    assert code == 0
    assert json.loads(out)["rows"] == [
        ["0", "2", "0"],
        ["0", "1", "2"],
        ["0", "1", "1"],
    ]
    code, out, _ = run_cli(capsys, "production", "array", "--r", "2", "--size", "4")
    assert code == 0
    assert json.loads(out)["rows"][3] == ["0", "6", "8", "8"]
    code, out, _ = run_cli(capsys, "production", "bridge", "--r", "2", "--size", "3")
    assert code == 0
    assert json.loads(out)["rows"] == [["1"], ["2", "1"], ["6", "5", "1"]]


def test_failed_cross_check_exits_one_without_a_traceback(capsys, monkeypatch):
    # The bridge compares its product with l_catalan; make that disagree.
    catalan = riordankit.riordan.l_catalan

    def other_catalan(r, order):
        return catalan(r + 1, order)

    monkeypatch.setattr(riordankit.production.riordan, "l_catalan", other_catalan)
    code, out, err = run_cli(capsys, "production", "bridge", "--r", "2", "--size", "4")
    assert (code, out) == (1, "")
    assert err == "error: bridge product does not match the Catalan array\n"
    assert "Traceback" not in err


def test_family_step_with_a_remainder_exits_one(capsys, monkeypatch):
    # A catalan step off by one leaves a remainder at n = 2 (bottom 3).
    recurrences = sequences._recurrences

    def planted(r):
        table = recurrences(r)
        first, step = table["catalan"]
        table["catalan"] = first, lambda n, a: (step(n, a)[0] + 1, step(n, a)[1])
        return table

    monkeypatch.setattr(sequences, "_recurrences", planted)
    with pytest.raises(riordankit.errors.CrossCheckFailed, match="catalan term 2"):
        sequences.family_terms("catalan", 5, 3)
    code, out, err = run_cli(capsys, "generate", "catalan", "--r", "3", "--n", "5")
    assert (code, out) == (1, "")
    assert err == "error: catalan term 2 is 37/3, not an int\n"


def test_production_csv_rows(capsys):
    code, out, _ = run_cli(
        capsys, "production", "matrix", "--array", "ap", "--r", "2", "--size", "3",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "i,j,value",
        "0,0,0",
        "0,1,2",
        "0,2,0",
        "1,0,0",
        "1,1,1",
        "1,2,2",
        "2,0,0",
        "2,1,1",
        "2,2,1",
    ]
    code, out, _ = run_cli(
        capsys, "production", "array", "--r", "2", "--size", "3", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == [
        "n,k,value",
        "0,0,1",
        "1,0,0",
        "1,1,2",
        "2,0,0",
        "2,1,2",
        "2,2,4",
    ]


def table_commands():
    """Every command that takes --format, at size 5."""
    for family in cli.GENERATE_FAMILIES:
        for r in ("1", "3"):
            yield ["generate", family, "--r", r, "--n", "5"]
    for array in cli.ARRAY_NAMES:
        yield ["riordan", array, "--size", "5"]
        yield ["riordan", array, "--size", "5", "--inverse"]
    yield ["riordan", "binomial", "--size", "5", "--power", "-2"]
    for action in ("matrix", "array", "bridge"):
        yield ["production", action, "--size", "5"]


def test_csv_lines_are_the_json_entries(capsys):
    """The CSV of a command is its JSON's entries in order: ``n,value`` per
    term, ``n,k,value`` per row entry and ``i,j,value`` per entry of a
    production matrix."""
    for argv in table_commands():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        data = json.loads(out)
        if "values" in data:
            lines = ["n,value"] + [f"{n},{v}" for n, v in enumerate(data["values"])]
        else:
            lines = ["i,j,value" if argv[1] == "matrix" else "n,k,value"] + [
                f"{n},{k},{v}"
                for n, row in enumerate(data["rows"])
                for k, v in enumerate(row)
            ]
        assert run_cli(capsys, *argv, "--format", "csv") == (
            0, "\n".join(lines) + "\n", ""), argv


def test_verify_small_scope(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--scope", "hankel", "--r-max", "1", "--n-max", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["failed"] == "0"
    ids = [c["id"] for c in data["checks"]]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    assert "ht-central-r1-n1" in ids
    by_id = {c["id"]: c for c in data["checks"]}
    assert by_id["ht-central-r1-n1"]["expected"] == "2"
    assert by_id["ht-central-r1-n1"]["actual"] == "2"


def test_verify_report_is_canonical_and_string_valued(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--scope", "sequences", "--r-max", "2", "--n-max", "3"
    )
    assert code == 0
    data = json.loads(out)
    assert json.dumps(data, sort_keys=True, indent=2) + "\n" == out
    assert all(isinstance(v, str) for v in walk_values(data))


def test_verify_parallel_matches_serial(capsys):
    code, serial, _ = run_cli(
        capsys, "verify", "--scope", "series", "--r-max", "2", "--n-max", "3"
    )
    assert code == 0
    code, parallel, _ = run_cli(
        capsys, "verify", "--scope", "series", "--r-max", "2", "--n-max", "3",
        "--parallel",
    )
    assert code == 0
    assert serial == parallel


def test_verify_rejects_unknown_scope(capsys):
    assert run_cli(capsys, "verify", "--scope", "curves")[0] == 2


def test_verify_needs_a_positive_n_max(capsys):
    code, out, err = run_cli(capsys, "verify", "--n-max", "0")
    assert code == 2
    assert out == ""
    assert "must be a positive integer" in err
    assert "Traceback" not in err
    assert run_cli(capsys, "verify", "--n-max", "1")[0] == 0


def test_all_json_surfaces_are_string_valued(capsys):
    surfaces = [
        ("generate", "central", "--r", "2", "--n", "4"),
        ("generate", "triangle", "--n", "3"),
        ("hankel", "transform", "--family", "catalan", "--count", "3"),
        ("hankel", "ldl", "--family", "sum", "--r", "2", "--size", "3"),
        ("riordan", "ap", "--r", "2", "--size", "3"),
        ("production", "bridge", "--r", "3", "--size", "3"),
    ]
    for argv in surfaces:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        data = json.loads(out)
        assert all(isinstance(v, str) for v in walk_values(data)), argv


def test_module_entry_point():
    # The child must import the package under test, wherever pytest found it.
    src = os.path.dirname(os.path.dirname(riordankit.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "riordankit", "generate", "central", "--n", "4"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["values"] == ["1", "2", "6", "20"]


def loaded_modules(statement):
    """The modules a fresh ``python -S`` holds after the statement; -S keeps
    site ``.pth`` imports from loading modules the package does not."""
    src = os.path.dirname(os.path.dirname(riordankit.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"{statement}; import sys; print(*sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    return set(proc.stdout.split())


def test_only_verify_loads_the_check_registry_and_dataclasses():
    cli_modules = loaded_modules("import riordankit.cli")
    assert "riordankit.cli" in cli_modules
    assert "riordankit.verify" not in cli_modules
    assert "dataclasses" not in cli_modules
    assert "dataclasses" not in loaded_modules("import riordankit")
    assert "riordankit.verify" in loaded_modules(
        "from riordankit.cli import main; main(['verify', '--scope', 'series', "
        "'--r-max', '1', '--n-max', '1'])"
    )


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "hankel", "--help")[0] == 0


# sha256 of the exit code, stdout and stderr, at COLUMNS=80, of every
# ``--help`` and of the three usage errors whose stderr perfbench's recorded
# ``cli`` digests hold: a parser edit that passes every other test would
# still fail the benchmark's output check.  The bytes are those of Python
# 3.11's argparse, which perfbench's digests were recorded with; other
# versions lay out and word the usage text differently.
USAGE_DIGESTS = {
    "--help": "00acf687440abb2ca1e3d5c0c9a94a189ceb6c96a25af55ce1e16d61989f3810",
    "generate --help": "6feaf133d0a452f517ad414af5375c6e7481035fa2bf0eb93a21842025404267",
    "hankel --help": "410a88330bd1a2d815a6adbdccf70975963d512be634afc3ffc203db9f4cfaed",
    "riordan --help": "f4611658241950fcee686c6537ee4dc3f3c3dce563048f7b9491622f90e88ecf",
    "production --help": "64b9ef770e5ff7d75085f8e034a26b4606710a17e1b4cb7892a2414902a6f9b0",
    "verify --help": "7c6a35560049d7947a495dd502677a18368d53cc2f4bb0b9fb5fbb4865715c4a",
    "hankel transform --help": "597637b21a8638d25fb6c81a2ae0e0e9e0863efddfe68951cb4311efc8264f4b",
    "hankel ldl --help": "09f545df3bc742424e6f43d90ce5f0b6e93137ecba4c64e0684d89c78ec1f0b9",
    "hankel bm --help": "f634194d07a9b26eeff2204715927b9369895bbb25c7eb29d9bfbac739b418e5",
    "hankel charpoly --help": "9659805b5a1c9bcec1f341f384b33edc1428ee28b163df75c61511c3e54b9924",
    "hankel production --help": "41a5183162107fa10105766dcab96e03fa7116891f3d12eb259a6cbc6c5ac6c5",
    "generate catalan --r 0": "944d181d09afd4faa2e531aa5d2e39c0901f68aa78ba763c727e590cf6c45102",
    "riordan ap --r 0 --size 4": "89e2d06ffbd0a50e1c2ab1199374a471f5b663e8987e281746b381eb704d169f",
    "verify --scope matrix": "b3bbb973ad4cbf7250809b1ee5fd2c24023c50245dead15a45d64c6f38aa114d",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the digests are of Python 3.11's argparse output")
@pytest.mark.parametrize("argv", list(USAGE_DIGESTS))
def test_usage_text_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *argv.split())
    digest = hashlib.sha256(repr((code, out, err)).encode()).hexdigest()
    assert digest == USAGE_DIGESTS[argv]


# sha256 of the exit code, stdout and stderr of every command in
# ``sweep_commands``; a refactor must keep each of them byte for byte.  The
# ``--size 1`` riordan and production requests pin today's exit 2 (the
# known defect of ROADMAP item 4), so fixing it means recording this anew.
SWEEP_DIGEST = "45367e90e8d8f598bbb8ec902ff2176ffad296580cc33e80ed2934503850d535"


def singular_stdin(p):
    """Moments of 2 to 4 weighted points, as in perfbench's exit-3 pool: the
    first Hankel minor past the number of points vanishes."""
    rng = random.Random(f"perfbench-singular-{p}")
    k = 2 + p % 3
    points = rng.sample(range(-3, 4), k)
    weights = [rng.randint(1, 4) for _ in range(k)]
    terms = [sum(w * x**n for x, w in zip(points, weights)) for n in range(16)]
    return " ".join(map(str, terms)) + "\n"


def sweep_commands():
    """(argv, stdin text or None) for every hankel action, named array and
    production action on a small grid, plus malformed and singular stdin."""
    actions = {"transform": "--count", "ldl": "--size", "bm": "--rows",
               "charpoly": "--size", "production": "--size"}
    for action, flag in actions.items():
        for fam in ("central", "catalan", "sum", "b", "pell", "bessel",
                    "interleaved"):
            for r in ("1", "3", "8"):
                for n in ("1", "4", "9"):
                    base = ["hankel", action, "--family", fam, "--r", r, flag, n]
                    if action == "transform":
                        for m in ("spot", "ldl", "both", "bareiss"):
                            yield base + ["--method", m], None
                    else:
                        yield base, None
    for array in ("central", "catalan", "ap", "binomial", "coefficient"):
        for r in ("1", "2", "5"):
            for n in ("1", "2", "6", "12"):
                base = ["riordan", array, "--r", r, "--size", n]
                yield base, None
                yield base + ["--inverse"], None
                yield base + ["--format", "csv"], None
    for r in ("1", "2", "5"):
        for n in ("1", "2", "6"):
            for array in ("central", "catalan", "ap", "binomial"):
                yield ["production", "matrix", "--array", array, "--r", r,
                       "--size", n], None
            for action in ("array", "bridge"):
                yield ["production", action, "--r", r, "--size", n], None
    yield ["hankel", "transform", "--count", "5"], "1 2 3\n"
    yield ["hankel", "ldl", "--size", "3"], "1 2 x 4 5\n"
    for action in ("transform", "ldl", "bm", "charpoly"):
        for p in range(6):
            yield ["hankel", action, actions[action], "6"], singular_stdin(p)


def test_cli_sweep_digest_is_pinned(capsys, monkeypatch):
    digest = hashlib.sha256()
    for argv, stdin in sweep_commands():
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code, out, err = run_cli(capsys, *argv)
        digest.update(repr((argv, stdin, code, out, err)).encode())
    assert digest.hexdigest() == SWEEP_DIGEST


# sha256 of the exit code, stdout and stderr of every command in
# ``zero_rich_commands``: the routes that run on past a vanishing leading
# minor, on inputs whose minors vanish in runs.
ZERO_RICH_DIGEST = "18b3ac79a77a0b9577762c3928793c76f7158ba5d2984bdeffd3126e82e4b582"


def zero_rich_stdin(p):
    """32 seeded terms (20 for every tenth input) rich in vanishing Hankel
    minors: sparse {0, +-1}, few-atom moments, leading zeros, short
    recurrences, and terms of +-(2^61 - 1)."""
    rng = random.Random(f"zero-rich-{p}")
    kind = p % 5
    if kind == 0:
        terms = [rng.choice((0, 0, 0, 1, -1)) for _ in range(32)]
    elif kind == 1:
        atoms = [(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
        terms = [sum(w * x**n for x, w in atoms) for n in range(32)]
    elif kind == 2:
        zeros = rng.randint(1, 4)
        terms = [0] * zeros + [rng.choice((0, 1, -1, 2)) for _ in range(32 - zeros)]
    elif kind == 3:
        terms = [rng.choice((0, 1)), rng.choice((0, 1, -1))]
        c = [rng.choice((0, 1, -1)) for _ in range(2)]
        while len(terms) < 32:
            terms.append(c[0] * terms[-1] + c[1] * terms[-2])
    else:
        terms = [rng.choice((0, 0, 1, 2**61 - 1, -(2**61 - 1))) for _ in range(32)]
    return " ".join(map(str, terms[: 20 if p % 10 == 9 else 32])) + "\n"


def zero_rich_commands():
    for p in range(40):
        stdin = zero_rich_stdin(p)
        for n in range(1, 17):
            yield ["hankel", "transform", "--method", "bareiss", "--count", str(n)], stdin
            yield ["hankel", "charpoly", "--size", str(n)], stdin
            yield ["hankel", "bm", "--rows", str(n)], stdin


def test_zero_rich_digest_is_pinned(capsys, monkeypatch):
    digest = hashlib.sha256()
    for argv, stdin in zero_rich_commands():
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code, out, err = run_cli(capsys, *argv)
        digest.update(repr((argv, stdin, code, out, err)).encode())
    assert digest.hexdigest() == ZERO_RICH_DIGEST


# sha256 of the exit code, stdout and stderr of every command in
# ``large_size_commands``: the named arrays and their inverses at the orders
# the ``riordan`` workload runs, past the sweep's ``--size 12``.
LARGE_SIZE_DIGEST = "04ccd74357a5392045053fc00438a709ef92b9c1ca6c6cd754a2e8aa173e19bb"


def large_size_commands():
    for array in ("catalan", "central", "ap", "coefficient"):
        for r in ("1", "4", "8"):
            for n in ("24", "40"):
                base = ["riordan", array, "--r", r, "--size", n]
                yield base
                yield base + ["--inverse"]
    for r in ("1", "4", "8"):
        yield ["production", "bridge", "--r", r, "--size", "16"]


def test_large_size_digest_is_pinned(capsys):
    digest = hashlib.sha256()
    for argv in large_size_commands():
        code, out, err = run_cli(capsys, *argv)
        digest.update(repr((argv, code, out, err)).encode())
    assert digest.hexdigest() == LARGE_SIZE_DIGEST


# sha256 of the exit code, stdout and stderr of every command in
# ``series_free_commands`` and of one product's rows, recorded before the
# named arrays built their series lazily.
SERIES_FREE_DIGEST = "7523cf825728aa125345781c96a8af8109172854d900d1ef9b68795c78bd9fbe"


def series_free_commands():
    for array in ("catalan", "central", "binomial", "coefficient"):
        base = ["riordan", array, "--r", "3", "--size", "40"]
        yield base
        yield base + ["--inverse"]
    # The partner of a_p is a plain rational array: its --inverse expands
    # its series.
    yield ["riordan", "ap", "--r", "3", "--size", "40"]
    yield ["production", "array", "--r", "3", "--size", "40"]
    yield ["production", "bridge", "--r", "3", "--size", "40"]


@pytest.fixture
def no_series(monkeypatch):
    """Make the square root, the products, the divisions and the
    compositions behind (d, h) raise, and clear the named arrays' caches
    and the row store: an array cached with its series already read, or
    rows stored by an earlier route, would hide a read."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a series (d, h) was built")

    for name in ("sqrt", "compose", "__mul__", "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(series.Series, name, forbidden)
    monkeypatch.setattr(series, "rational", forbidden)
    for build in (riordan.l_central, riordan.l_catalan, production.a_p):
        build.cache_clear()
    riordan.clear_row_store()


def test_named_arrays_and_products_print_without_building_series(capsys, no_series):
    # A named array expands by its rule and inverts to its partner's closed
    # form, and a product expands by its shifted rule or multiplies its
    # factors' matrices: none of them needs the series.
    digest = hashlib.sha256()
    for argv in series_free_commands():
        code, out, err = run_cli(capsys, *argv)
        digest.update(repr((argv, code, out, err)).encode())
    rows = riordan.l_central(3, 40).multiply(riordan.binomial(40)).to_matrix(40)
    digest.update(repr(rows).encode())
    assert digest.hexdigest() == SERIES_FREE_DIGEST


def test_named_arrays_and_products_act_without_building_series(no_series):
    # Acting on terms is the matrix-vector product of the stored rows.
    order = 40
    arrays = [riordan.binomial_power(-2, order)]
    for r in (1, 3):
        for build in (riordan.l_central, riordan.l_catalan, production.a_p,
                      riordan.coefficient_array):
            arr = build(r, order)
            arrays += [arr, arr.multiply(riordan.binomial(order))]
            # a_p's partner is a plain rational array, which acts by series.
            if build is not production.a_p:
                arrays.append(arr.inverse())
        arrays.append(riordan.l_catalan(r, order).multiply(riordan.l_central(r, order).inverse()))
    unit = [1] + [0] * order  # one term more than the order
    for arr in arrays:
        assert arr.apply(unit) == [row[0] for row in arr.to_matrix(order)]
        # Hashing reads entry (0, 0), d(0), off the rows.
        assert hash(arr) == hash(1)
    catalan = riordan.l_catalan(3, order).apply(unit)
    assert catalan == sequences.family_terms("catalan", order, 3)
    powers = riordan.binomial(order).apply([Fraction(1, 2)] * order)
    assert powers == [Fraction(2**n, 2) for n in range(order)]
    assert all(type(v) is Fraction for v in catalan + powers)


# The CLI grammar: every subcommand at sizes 2..8 (``--size 1`` is the
# strict xfail above), with each size flag in turn; stdin too short, all
# zero, or the moments of 2, 3 and 4 points.
GRAMMAR_SIZES = range(2, 9)
GRAMMAR_STDIN = ("1 2 3\n", "0 " * 20 + "\n", *(singular_stdin(p) for p in range(3)))


def grammar_commands():
    """(label, size flag, argv without its size, stdin text or None)."""
    for fam in ("triangle",) + sequences.FAMILY_NAMES:
        for r in ("1", "2", "5"):
            for fmt in ("json", "csv"):
                yield "generate", "--n", ["generate", fam, "--r", r, "--format", fmt], None
    hankel_actions = {"transform": "--count", "ldl": "--size", "bm": "--rows",
                      "charpoly": "--size", "production": "--size"}
    sources = [(["--family", fam, "--r", r], None)
               for fam in sequences.FAMILY_NAMES for r in ("1", "2", "5")]
    sources += [([], text) for text in GRAMMAR_STDIN]
    for action, flag in hankel_actions.items():
        methods = ("spot", "ldl", "both", "bareiss") if action == "transform" else (None,)
        for opts, stdin in sources:
            for method in methods:
                argv = ["hankel", action, *opts] + (["--method", method] if method else [])
                yield f"hankel {action}", flag, argv, stdin
    for array in cli.ARRAY_NAMES:
        for r in ("1", "2", "5"):
            for extra in ([], ["--inverse"], ["--format", "csv"], ["--power", "-2"]):
                yield "riordan", "--size", ["riordan", array, "--r", r, *extra], None
    for r in ("1", "2", "5"):
        for array in ("central", "catalan", "ap", "binomial"):
            for fmt in ("json", "csv"):
                argv = ["production", "matrix", "--array", array, "--r", r, "--format", fmt]
                yield "production", "--size", argv, None
        for action in ("array", "bridge"):
            yield "production", "--size", ["production", action, "--r", r], None
        yield "verify", "--n-max", ["verify", "--r-max", r], None


def leading_block(small, big):
    """Whether the output ``small`` is the leading block of ``big``: JSON
    lists (terms, rows, diagonals) are prefixes, entry by entry, and
    objects agree key by key but for the echoed parameters; a CSV line
    keyed by all of its fields but the value appears in ``big`` too."""
    if isinstance(small, dict):
        return small.keys() == big.keys() and all(
            key == "params" or leading_block(small[key], big[key]) for key in small
        )
    if isinstance(small, list):
        return len(small) <= len(big) and all(map(leading_block, small, big))
    return small == big


def csv_entries(out):
    header, *lines = out.splitlines()
    return header, {tuple(line.split(",")[:-1]): line for line in lines}


def test_cli_grammar_exit_codes_and_leading_blocks(capsys, monkeypatch):
    """Every run exits 0, 1, 2 or 3 without an exception, and a run that
    exits 0 at size n prints the leading block of the run at size n + 1.
    Two outputs are not blocks: ``hankel charpoly``, whose window-n
    polynomial is not a prefix of window n + 1's, and ``verify``'s report;
    both are held to the exit codes alone."""
    runs = compared = 0
    for label, flag, argv, stdin in grammar_commands():
        before = None
        for size in GRAMMAR_SIZES:
            if stdin is not None:
                monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
            code, out, _ = run_cli(capsys, *argv, flag, str(size))
            runs += 1
            assert code in (0, 1, 2, 3), (argv, size, code)
            now = out if code == 0 else None
            if before is not None and now is not None and label not in (
                "hankel charpoly", "verify"
            ):
                if "csv" in argv:
                    (head, small), (big_head, big) = csv_entries(before), csv_entries(now)
                    assert head == big_head and small.items() <= big.items(), (argv, size)
                else:
                    assert leading_block(json.loads(before), json.loads(now)), (argv, size)
                compared += 1
            before = now
    assert runs > 2000 and compared > 1000, (runs, compared)
