"""Command-line behavior: output shapes, exit codes, canonical JSON."""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

import riordankit
from riordankit import cli


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


def test_stdin_with_too_few_terms_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 2\n"))
    code, _, err = run_cli(capsys, "hankel", "transform", "--count", "3")
    assert code == 2
    assert "terms" in err


def test_stdin_with_junk_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 two 3\n"))
    code, _, _ = run_cli(capsys, "hankel", "transform", "--count", "1")
    assert code == 2


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
