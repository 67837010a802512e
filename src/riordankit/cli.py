"""Command-line surface: generate tables, inspect Hankel structure, verify.

Output conventions
------------------
* JSON is canonical: keys sorted, two-space indent, and every numeric value
  rendered as a decimal string (integers) or ``p/q`` (rationals) so consumers
  never face big-integer overflow or floats.
* CSV is a header row plus data rows, LF line endings.
* ``_emit`` is the one writer of stdout: every handler builds its JSON
  record once and passes its CSV lines as tuples over the same strings.
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


def _emit(args, data, header=(), lines=()) -> None:
    """Print ``data`` as canonical JSON or, with ``--format csv``, the header
    and one comma-joined line per tuple of ``lines``."""
    if getattr(args, "format", "json") == "csv":
        text = "\n".join([",".join(header), *(",".join(map(str, t)) for t in lines)])
        sys.stdout.write(text + "\n")
    else:
        sys.stdout.write(canonical_json(data))


def _entries(rows):
    """Ragged rows as (row index, column index, value) tuples."""
    return ((n, k, v) for n, row in enumerate(rows) for k, v in enumerate(row))


def _str_list(values):
    return [str(v) for v in values]


def _str_rows(rows):
    return [[str(v) for v in row] for row in rows]


def decimal(text: str) -> int:
    """One integer of stdin or of an option, read by ``int`` only from ASCII
    text without ``_``: ``int`` alone would also take digit separators and
    the digits of other scripts."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def positive(text: str) -> int:
    value = decimal(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


# ------------------------------------------------------------- subcommands


def cmd_generate(args) -> int:
    data = {"family": args.family, "r": str(args.r)}
    if args.family == "triangle":
        data["rows"] = rows = _str_rows(sequences.triangle_rows(args.n, args.r))
        _emit(args, data, ("n", "k", "value"), _entries(rows))
    else:
        data["values"] = values = _str_list(
            sequences.family_terms(args.family, args.n, args.r))
        _emit(args, data, ("n", "value"), enumerate(values))
    return 0


def _ldl_result(terms, n, method):
    dec = hankel.ldl(hankel.hankel_matrix(terms, n))
    return {"l": _str_rows(dec.l), "d": _str_list(dec.d)}


# The ``hankel`` actions, each as (help, size option, its default, extra,
# result): the action reads 2n + extra terms for size n and reports
# result(terms, n, method).  build_parser and cmd_hankel both read it.
HANKEL_ACTIONS = {
    "transform": (
        "sequence of leading Hankel minors", "--count", 8, -1,
        lambda terms, n, method: {
            "values": _str_list(hankel.hankel_transform(terms, n, method=method))},
    ),
    "ldl": (
        "exact LDL^T factorization of the Hankel matrix", "--size", 4, -1, _ldl_result,
    ),
    "bm": (
        "solve the recurrence triangle window by window", "--rows", 4, 0,
        lambda terms, n, method: {
            "rows": _str_rows(berlekamp.bm_triangle(terms, n))},
    ),
    "charpoly": (
        "characteristic coefficients of one window (ascending order)", "--size", 4, 0,
        lambda terms, n, method: {
            "coefficients": _str_list(berlekamp.char_poly(terms, n))},
    ),
    "production": (
        "production matrix of the Hankel unit factor", "--size", 4, 1,
        lambda terms, n, method: {"rows": _str_rows(production_mod.production_matrix(
            hankel.ldl(hankel.hankel_matrix(terms, n + 1)).l))},
    ),
}


def cmd_hankel(args) -> int:
    """Read the action's terms, from --family or stdin, and print them with
    the parameters and the action's result."""
    _, option, _, extra, result_of = HANKEL_ACTIONS[args.action]
    n = getattr(args, option[2:])
    needed = 2 * n + extra
    params = {"family": args.family or "stdin", option[2:]: str(n)}
    if args.family is not None:
        r = args.r or 1
        terms = sequences.family_terms(args.family, needed, r)
        params["r"] = str(r)
    elif args.r is not None:
        raise UnsupportedParameter("--r applies only to --family terms")
    else:
        terms = [decimal(token) for line in sys.stdin
                 if not line.lstrip().startswith("#")
                 for token in line.replace(",", " ").split()]
        if len(terms) < needed:
            raise InsufficientTerms(f"need {needed} terms on stdin, got {len(terms)}")
    terms = terms[:needed]
    method = getattr(args, "method", None)
    if method is not None:
        params["method"] = method
    result = result_of(terms, n, method)
    _emit(args, {"input": _str_list(terms), "params": params, "result": result})
    return 0


def cmd_riordan(args) -> int:
    if args.power != 1 and args.array != "binomial":
        raise UnsupportedParameter("--power applies only to the binomial array")
    order = args.size
    arr = NAMED_ARRAYS[args.array](args.r, order)
    if args.power != 1:
        arr = riordan.binomial_power(args.power, order)
    if args.inverse:
        arr = arr.inverse()
    rows = _str_rows(arr.to_matrix(args.size))
    params = {"r": str(args.r), "size": str(args.size),
              "inverse": "true" if args.inverse else "false"}
    if args.array == "binomial":
        params["power"] = str(args.power)
    _emit(args, {"array": args.array, "params": params, "rows": rows},
          ("n", "k", "value"), _entries(rows))
    return 0


def cmd_production(args) -> int:
    params = {"r": str(args.r), "size": str(args.size)}
    header = ("n", "k", "value")
    if args.action == "matrix":
        # Every --array choice expands by a Z/A rule (riordan._rule_rows),
        # whose P is read off the rule.
        params["array"] = array = args.array or "ap"
        source = NAMED_ARRAYS[array](args.r, args.size + 1)
        rows = riordan.rule_matrix(*source._rows[1], args.size)
        header = ("i", "j", "value")
    elif args.array is not None:
        raise UnsupportedParameter("--array applies only to production matrix")
    elif args.action == "array":
        rows = production_mod.a_p(args.r, args.size).to_matrix(args.size)
    else:
        rows = production_mod.stieltjes_bridge(args.r, args.size)
    rows = _str_rows(rows)
    _emit(args, {"action": args.action, "params": params, "rows": rows},
          header, _entries(rows))
    return 0


def cmd_verify(args) -> int:
    from . import verify

    scopes = args.scope or ["all"]
    report = verify.run_checks(scopes, args.r_max, args.n_max, parallel=args.parallel)
    _emit(args, verify.report_data(report))
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
    gen.add_argument("--r", type=positive, default=1)
    gen.add_argument("--n", type=positive, default=8,
                     help="number of terms (or triangle rows)")
    gen.set_defaults(func=cmd_generate)

    han = sub.add_parser("hankel", help="Hankel transforms and factorizations")
    hsub = han.add_subparsers(dest="action", required=True)

    for action, (help_text, option, default, _, _) in HANKEL_ACTIONS.items():
        act = hsub.add_parser(action, help=help_text)
        act.add_argument("--family", choices=sequences.FAMILY_NAMES, default=None,
                         help="built-in family; omit to read terms from stdin")
        # None stands for 1; it tells a --r given with stdin terms apart.
        act.add_argument("--r", type=positive, default=None)
        act.add_argument(option, type=positive, default=default)
        if action == "transform":
            act.add_argument(
                "--method", choices=("ldl", "bareiss", "both", "spot"), default="spot",
                help="spot, both: the moment pass and its certificate mod 2^61-1; "
                "ldl: the pass without the certificate; bareiss: the pass carried "
                "through vanishing minors (no Bareiss elimination)")
        act.set_defaults(func=cmd_hankel)

    rio = sub.add_parser("riordan", help="expand a named array to a triangle")
    rio.add_argument("array", choices=ARRAY_NAMES)
    rio.add_argument("--r", type=positive, default=1)
    rio.add_argument("--size", type=positive, default=6)
    rio.add_argument("--inverse", action="store_true")
    rio.add_argument("--power", type=decimal, default=1,
                     help="integer power of the binomial array")
    rio.set_defaults(func=cmd_riordan)

    prod = sub.add_parser("production",
                          help="production matrices and the arrays they generate")
    prod.add_argument("action", choices=("matrix", "array", "bridge"))
    prod.add_argument("--array", choices=[n for n in ARRAY_NAMES if n != "coefficient"],
                      default=None, help="source array for 'matrix'")
    prod.add_argument("--r", type=positive, default=1)
    prod.add_argument("--size", type=positive, default=4)
    prod.set_defaults(func=cmd_production)

    ver = sub.add_parser("verify", help="run the identity-check suite")
    ver.add_argument("--scope", action="append",
                     choices=("all",) + VERIFY_SCOPES, default=None)
    ver.add_argument("--r-max", type=positive, default=4)
    ver.add_argument("--n-max", type=positive, default=8)
    ver.add_argument("--parallel", action="store_true")
    ver.set_defaults(func=cmd_verify)

    # Added last, so that each --help lists it after every other option.
    for table in (gen, rio, prod):
        table.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv=None) -> int:
    """Run one command; answers are exact, so their ints are printed and
    read at any length.  The interpreter's limit on int <-> str conversion
    (4300 digits by default, where it exists) is lifted for the call and
    restored after it, so an in-process caller keeps its own setting."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
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
