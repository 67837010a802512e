"""Command-line surface: generate tables, inspect Hankel structure, verify.

Output conventions
------------------
* JSON is canonical: keys sorted, two-space indent, and every numeric value
  rendered as a decimal string (integers) or ``p/q`` (rationals) so consumers
  never face big-integer overflow or floats.
* CSV is a header row plus data rows, LF line endings.
* Exit codes: 0 success / all checks pass, 1 internal error or failed
  verification, 2 usage or parameter error, 3 mathematical singularity.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import production as production_mod
from . import riordan, sequences
from . import berlekamp, hankel
from .errors import (
    IndexOutOfTriangle,
    InsufficientTerms,
    RiordanKitError,
    SingularDiagonal,
    SingularLeadingMinor,
    SingularSystem,
    UnsupportedParameter,
)

GENERATE_FAMILIES = ("triangle",) + sequences.FAMILY_NAMES
# The named arrays, as (r, order) -> array.  The constructor is looked up per
# call, so one rebound on its module (by a tracer, say) is the one that runs.
NAMED_ARRAYS = {
    "central": lambda r, order: riordan.l_central(r, order),
    "catalan": lambda r, order: riordan.l_catalan(r, order),
    "ap": lambda r, order: production_mod.a_p(r, order),
    "binomial": lambda r, order: riordan.binomial(order),
    "coefficient": lambda r, order: riordan.coefficient_array(r, order),
}
ARRAY_NAMES = tuple(NAMED_ARRAYS)
# The scopes of ``verify``'s check registry, kept here so that ``--scope``
# can list them without importing it.
VERIFY_SCOPES = ("series", "sequences", "riordan", "hankel", "production", "berlekamp")


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _emit_json(data) -> None:
    sys.stdout.write(canonical_json(data))


def _emit_csv(header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_rows_csv(rows, header=("n", "k", "value")) -> None:
    """One CSV line per entry of ragged rows: row index, column index, value."""
    _emit_csv(
        header, [(n, k, v) for n, row in enumerate(rows) for k, v in enumerate(row)]
    )


def _str_list(values):
    return [str(v) for v in values]


def _str_rows(rows):
    return [[str(v) for v in row] for row in rows]


def _read_stdin_terms(stream) -> list:
    """Parse decimal integers separated by commas or whitespace.

    Lines starting with ``#`` are comments and skipped.
    """
    terms = []
    for line in stream:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        for token in stripped.replace(",", " ").split():
            terms.append(int(token))
    return terms


def _terms_for(args, needed: int) -> list:
    if args.family is not None:
        return sequences.family_terms(args.family, needed, args.r)
    terms = _read_stdin_terms(sys.stdin)
    if len(terms) < needed:
        raise InsufficientTerms(
            f"need {needed} terms on stdin, got {len(terms)}"
        )
    return terms


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


# ------------------------------------------------------------- subcommands


def cmd_generate(args) -> int:
    if args.family == "triangle":
        rows = sequences.triangle_rows(args.n, args.r)
        if args.format == "csv":
            _emit_rows_csv(rows)
        else:
            _emit_json(
                {"family": "triangle", "r": str(args.r), "rows": _str_rows(rows)}
            )
        return 0
    values = sequences.family_terms(args.family, args.n, args.r)
    if args.format == "csv":
        _emit_csv(("n", "value"), list(enumerate(values)))
    else:
        _emit_json(
            {"family": args.family, "r": str(args.r), "values": _str_list(values)}
        )
    return 0


def _hankel_emit(args, needed: int, params: dict, result_of) -> int:
    """Read the first ``needed`` terms and emit the envelope shared by every
    ``hankel`` action: the terms, the parameters, and ``result_of(terms)``."""
    terms = _terms_for(args, needed)[:needed]
    result = result_of(terms)
    head = {"family": args.family or "stdin"}
    if args.family is not None:
        head["r"] = str(args.r)
    head.update({k: str(v) for k, v in params.items()})
    _emit_json({"input": _str_list(terms), "params": head, "result": result})
    return 0


def cmd_hankel_transform(args) -> int:
    def result_of(terms):
        values = hankel.hankel_transform(terms, args.count, method=args.method)
        return {"values": _str_list(values)}

    params = {"count": args.count, "method": args.method}
    return _hankel_emit(args, 2 * args.count - 1, params, result_of)


def cmd_hankel_ldl(args) -> int:
    def result_of(terms):
        dec = hankel.ldl(hankel.hankel_matrix(terms, args.size))
        return {"l": _str_rows(dec.l), "d": _str_list(dec.d)}

    return _hankel_emit(args, 2 * args.size - 1, {"size": args.size}, result_of)


def cmd_hankel_bm(args) -> int:
    def result_of(terms):
        return {"rows": _str_rows(berlekamp.bm_triangle(terms, args.rows))}

    return _hankel_emit(args, 2 * args.rows, {"rows": args.rows}, result_of)


def cmd_hankel_charpoly(args) -> int:
    def result_of(terms):
        return {"coefficients": _str_list(berlekamp.char_poly(terms, args.size))}

    return _hankel_emit(args, 2 * args.size, {"size": args.size}, result_of)


def cmd_hankel_production(args) -> int:
    def result_of(terms):
        dec = hankel.ldl(hankel.hankel_matrix(terms, args.size + 1))
        return {"rows": _str_rows(production_mod.production_matrix(dec.l))}

    return _hankel_emit(args, 2 * args.size + 1, {"size": args.size}, result_of)


def cmd_riordan(args) -> int:
    if args.power != 1 and args.array != "binomial":
        raise UnsupportedParameter("--power applies only to the binomial array")
    order = args.size
    arr = NAMED_ARRAYS[args.array](args.r, order)
    if args.power != 1:
        arr = riordan.binomial_power(args.power, order)
    if args.inverse:
        arr = arr.inverse()
    rows = arr.to_matrix(args.size)
    if args.format == "csv":
        _emit_rows_csv(rows)
    else:
        params = {
            "r": str(args.r),
            "size": str(args.size),
            "inverse": "true" if args.inverse else "false",
        }
        if args.array == "binomial":
            params["power"] = str(args.power)
        _emit_json({"array": args.array, "params": params, "rows": _str_rows(rows)})
    return 0


def cmd_production(args) -> int:
    params = {"r": str(args.r), "size": str(args.size)}
    header = ("n", "k", "value")
    if args.action == "matrix":
        source = NAMED_ARRAYS[args.array](args.r, args.size + 1)
        rows = production_mod.production_matrix(source.to_matrix(args.size + 1))
        params["array"] = args.array
        header = ("i", "j", "value")
    elif args.action == "array":
        rows = production_mod.a_p(args.r, args.size).to_matrix(args.size)
    else:
        rows = production_mod.stieltjes_bridge(args.r, args.size)
    if args.format == "csv":
        _emit_rows_csv(rows, header)
    else:
        _emit_json({"action": args.action, "params": params, "rows": _str_rows(rows)})
    return 0


def cmd_verify(args) -> int:
    from . import verify

    scopes = args.scope or ["all"]
    report = verify.run_checks(scopes, args.r_max, args.n_max, parallel=args.parallel)
    _emit_json(verify.report_data(report))
    return 0 if report.summary["failed"] == 0 else 1


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riordankit",
        description="Exact-arithmetic toolkit for Riordan arrays, Hankel "
        "determinants, and constant-recurrence triangles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="print a sequence family or triangle")
    gen.add_argument("family", choices=GENERATE_FAMILIES)
    gen.add_argument("--r", type=_positive_int, default=1)
    gen.add_argument("--n", type=_positive_int, default=8,
                     help="number of terms (or triangle rows)")
    gen.add_argument("--format", choices=("json", "csv"), default="json")
    gen.set_defaults(func=cmd_generate)

    han = sub.add_parser("hankel", help="Hankel transforms and factorizations")
    hsub = han.add_subparsers(dest="action", required=True)

    def _family_opts(p):
        p.add_argument("--family", choices=sequences.FAMILY_NAMES, default=None,
                       help="built-in family; omit to read terms from stdin")
        p.add_argument("--r", type=_positive_int, default=1)

    tr = hsub.add_parser("transform", help="sequence of leading Hankel minors")
    _family_opts(tr)
    tr.add_argument("--count", type=_positive_int, default=8)
    tr.add_argument("--method", choices=("ldl", "bareiss", "both", "spot"),
                    default="spot")
    tr.set_defaults(func=cmd_hankel_transform)

    ld = hsub.add_parser("ldl", help="exact LDL^T factorization of the Hankel matrix")
    _family_opts(ld)
    ld.add_argument("--size", type=_positive_int, default=4)
    ld.set_defaults(func=cmd_hankel_ldl)

    bm = hsub.add_parser("bm", help="solve the recurrence triangle window by window")
    _family_opts(bm)
    bm.add_argument("--rows", type=_positive_int, default=4)
    bm.set_defaults(func=cmd_hankel_bm)

    cp = hsub.add_parser("charpoly",
                         help="characteristic coefficients of one window "
                         "(ascending order)")
    _family_opts(cp)
    cp.add_argument("--size", type=_positive_int, default=4)
    cp.set_defaults(func=cmd_hankel_charpoly)

    pr = hsub.add_parser("production",
                         help="production matrix of the Hankel unit factor")
    _family_opts(pr)
    pr.add_argument("--size", type=_positive_int, default=4)
    pr.set_defaults(func=cmd_hankel_production)

    rio = sub.add_parser("riordan", help="expand a named array to a triangle")
    rio.add_argument("array", choices=ARRAY_NAMES)
    rio.add_argument("--r", type=_positive_int, default=1)
    rio.add_argument("--size", type=_positive_int, default=6)
    rio.add_argument("--inverse", action="store_true")
    rio.add_argument("--power", type=int, default=1,
                     help="integer power of the binomial array")
    rio.add_argument("--format", choices=("json", "csv"), default="json")
    rio.set_defaults(func=cmd_riordan)

    prod = sub.add_parser("production",
                          help="production matrices and the arrays they generate")
    prod.add_argument("action", choices=("matrix", "array", "bridge"))
    prod.add_argument("--array", choices=[n for n in ARRAY_NAMES if n != "coefficient"],
                      default="ap", help="source array for 'matrix'")
    prod.add_argument("--r", type=_positive_int, default=1)
    prod.add_argument("--size", type=_positive_int, default=4)
    prod.add_argument("--format", choices=("json", "csv"), default="json")
    prod.set_defaults(func=cmd_production)

    ver = sub.add_parser("verify", help="run the identity-check suite")
    ver.add_argument("--scope", action="append",
                     choices=("all",) + VERIFY_SCOPES, default=None)
    ver.add_argument("--r-max", type=_positive_int, default=4)
    ver.add_argument("--n-max", type=_positive_int, default=8)
    ver.add_argument("--parallel", action="store_true")
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SingularLeadingMinor, SingularSystem, SingularDiagonal) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (IndexOutOfTriangle, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RiordanKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
