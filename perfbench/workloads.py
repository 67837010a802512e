"""Seeded request streams for the three benchmark workloads.

A stream is a list of rounds; a round is a list of requests.  Every round
of a workload has the same make-up (kinds, sizes, shares of repeats and
singular inputs), and the seed only chooses parameters inside it, so runs
with different seeds do comparable work.  Runs serve whole rounds.

The inputs the program receives (sequence terms, array keys, argv and
stdin text) are all built here, by the benchmark's own formulas, before
any timing starts.  The expectation a result is judged against is built
here too, after the run (``expectation``).
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

import oracle

WORKLOADS = ("hankel", "riordan", "cli")
FAMILIES = ("catalan", "central", "sum")
R_VALUES = tuple(range(1, 9))

# --------------------------------------------------------------- formulas


def family_terms(name: str, count: int, r: int) -> list:
    """Terms of the catalan, central and sum families.

    Written independently of the library: central(n) = sum_j C(n,j)^2 r^j
    and the generalized Catalan numbers as Narayana polynomials,
    c(n) = sum_k N(n,k) r^k with c(0) = 1.
    """
    def catalan(n):
        if n == 0:
            return 1
        return sum(comb(n, k) * comb(n, k - 1) * r**k for k in range(1, n + 1)) // n

    if name == "catalan":
        return [catalan(n) for n in range(count)]
    if name == "central":
        return [sum(comb(n, j) ** 2 * r**j for j in range(n + 1)) for n in range(count)]
    if name == "sum":
        c = [catalan(n) for n in range(count + 1)]
        return [c[n] + c[n + 1] for n in range(count)]
    raise ValueError(f"unknown family {name!r}")


def b_terms(count: int, r: int) -> list:
    """b(n; r) from (1-x)/(1-(r+2)x+rx^2) by its recurrence."""
    out = [1, r + 1]
    while len(out) < count:
        out.append((r + 2) * out[-1] - r * out[-2])
    return out[:count]


def closed_hankel(name: str, count: int, r: int) -> list:
    """The paper's Hankel transforms: r^C(n+1,2), 2^n r^C(n+1,2) and
    r^C(n+1,2) b(n+1; r)."""
    b = b_terms(count + 1, r)
    out = []
    for n in range(count):
        power = r ** comb(n + 1, 2)
        if name == "catalan":
            out.append(power)
        elif name == "central":
            out.append(2**n * power)
        else:
            out.append(power * b[n + 1])
    return out


def random_terms(index: int, count: int) -> list:
    """Pool sequence ``index``: fixed integers, the same for every seed, so
    their results can be checked against recorded digests."""
    rng = random.Random(f"perfbench-random-{index}")
    return [rng.randint(1, 9) for _ in range(count)]


def moment_terms(points, weights, count: int) -> list:
    """a_n = sum_i w_i x_i^n: satisfies the order-k recurrence whose roots
    are the k distinct points, and its Hankel minors of order <= k are
    positive (a positive measure on k points), so order k+1 is the first
    that vanishes."""
    return [sum(w * x**n for x, w in zip(points, weights)) for n in range(count)]


def moment_hankel(points, weights, count: int) -> list:
    """Hankel determinants of moment_terms by Cauchy-Binet:
    det H_m = sum over m-subsets S of prod w_i prod_{i<j} (x_i - x_j)^2."""
    pairs = list(zip(points, weights))
    out = []
    for m in range(1, count + 1):
        total = 0
        for subset in combinations(pairs, m):
            term = 1
            for _, w in subset:
                term *= w
            for (xi, _), (xj, _) in combinations(subset, 2):
                term *= (xi - xj) ** 2
            total += term
        out.append(total)
    return out


# ----------------------------------------------------------------- hankel

HANKEL_KINDS = ("ht_spot", "ht_ldl", "ldl", "bm", "charpoly", "production")
HANKEL_SIZES = (16, 32, 48, 64)
# bm_triangle solves every window up to n, so its cost grows one power
# faster than the rest; n = 64 takes 7 s at r = 8 on commit a044c50.
BM_MAX = 48
RANDOM_POOL = 6
SOURCES = FAMILIES + ("random",)
# r = 8 costs up to 3.5 times r = 1 (spot, bm, charpoly), so r is never
# left to the seed: this fixed order alternates cheap and dear values.
R_CYCLE = (1, 8, 3, 6, 5, 4, 7, 2)
SINGULAR_SIZES = (16, 16, 32)
SINGULAR_KINDS = HANKEL_KINDS + ("ht_bareiss",)


def hankel_terms_needed(kind: str, n: int) -> int:
    return {"bm": 2 * n, "charpoly": 2 * n, "production": 2 * n + 1}.get(kind, 2 * n - 1)


def hankel_class(n: int) -> str:
    return "small" if n <= 32 else "large"


def hankel_digest_key(kind: str, source: str, r, n: int) -> str:
    return f"hankel|{kind}|{source}|{r}|{n}"


def hankel_space():
    """Every (kind, source, r, n) whose result is checked by a recorded
    digest: all non-transform kinds on the families, everything on the
    random pool."""
    for kind in HANKEL_KINDS:
        sizes = [n for n in HANKEL_SIZES if kind != "bm" or n <= BM_MAX]
        for n in sizes:
            if not kind.startswith("ht_"):
                for fam in FAMILIES:
                    for r in R_VALUES:
                        yield kind, fam, r, n
            for p in range(RANDOM_POOL):
                yield kind, f"random{p}", "-", n


def hankel_input(source: str, r, n_terms: int) -> list:
    if source.startswith("random"):
        return random_terms(int(source[6:]), n_terms)
    return family_terms(source, n_terms, r)


def _hankel_cells() -> list:
    """The requests every round holds, with the same source and r in every
    round and for every seed (a Latin square: each source covers 6 cells and
    each size all four sources), so all runs do the same costly work."""
    cells = []
    for a, kind in enumerate(HANKEL_KINDS):
        for b, n in enumerate(HANKEL_SIZES):
            n = min(n, BM_MAX) if kind == "bm" else n
            src, r = SOURCES[(a + b) % len(SOURCES)], R_CYCLE[(3 * a + 2 * b) % len(R_CYCLE)]
            if src == "random":
                src, r = f"random{(a + 2 * b) % RANDOM_POOL}", "-"
            cells.append({"kind": kind, "size": n, "source": src, "r": r,
                          "terms": hankel_input(src, r, hankel_terms_needed(kind, n)),
                          "props": []})
    return cells


def _hankel_rounds(seed: int, count: int) -> list:
    # The seed picks the singular inputs and the order of each round.
    rng = random.Random(f"hankel-{seed}")
    cells = _hankel_cells()
    rounds = []
    next_id = 0
    for j in range(count):
        reqs = [dict(cell) for cell in cells]
        for n in SINGULAR_SIZES:
            kind = rng.choice(SINGULAR_KINDS)
            k = rng.randint(2, 6)
            points = rng.sample(range(-3, 4), k)
            weights = [rng.randint(1, 4) for _ in range(k)]
            reqs.append({
                "kind": kind, "size": n, "source": "singular", "r": "-",
                "points": points, "weights": weights,
                "terms": moment_terms(points, weights, hankel_terms_needed(kind, n)),
                "props": ["singular"],
            })
        rng.shuffle(reqs)
        for req in reqs:
            req.update(id=next_id, round=j, cls=hankel_class(req["size"]))
            next_id += 1
        rounds.append(reqs)
    return rounds


def _hankel_expectation(req, digests) -> dict:
    kind, n = req["kind"], req["size"]
    if req["source"] == "singular":
        k = len(req["points"])
        if kind == "ht_bareiss":
            values = moment_hankel(req["points"], req["weights"], min(k, n))
            return {"digest": oracle.digest(values + [0] * (n - len(values)))}
        if kind == "bm":
            return {"error": "SingularSystem", "at": k + 1, "partial": k}
        if kind == "charpoly":
            return {"error": "SingularSystem", "at": n}
        return {"error": "SingularLeadingMinor", "at": k}
    if kind in ("ht_spot", "ht_ldl") and req["source"] in FAMILIES:
        return {"digest": oracle.digest(closed_hankel(req["source"], n, req["r"]))}
    key = hankel_digest_key(kind, req["source"], req["r"], n)
    return {"digest": digests.get(key, "missing:" + key)}


# ---------------------------------------------------------------- riordan

ARRAYS = ("catalan", "central", "ap")
ORDERS = (8, 16, 24, 32, 40)
# One round, in slots.  A slot that builds a named array owns one
# (array, order) cell and takes r = R_CYCLE[(offset + round) % 8], so each
# cell gets a new r in each of 8 rounds and every base request misses the
# library's caches.  The repeats come after the request whose key they
# reuse: "exact" asks for the same (array, r, order) key, "smaller" for the
# same (array, r) at a lower order (a miss for an exact-order cache).
#
# r and |k| follow fixed cycles, the same for every seed, because cost
# depends on them (A_P costs ten times more at r > 1 than at r = 1;
# binomial_power grows with |k|); the seed picks the sign of k, the family
# that apply reads, and the order.
# binomial_power runs at an order where every k is cheap.  The counts put
# each median inside a group of like requests: per round 7 cheap ones (the
# repeats, binomial_power), then the order-16 builds, the order-24 requests
# and the three biggest builds.
RIORDAN_SLOTS = (
    # name, kind, array, order, r offset
    ("A", "matrix", "catalan", 40, 0),
    ("B", "matrix", "central", 32, 1),
    ("E", "inverse", "catalan", 32, 2),
    ("C", "matrix", "ap", 24, 3),
    ("F", "multiply", "central", 24, 4),
    ("G", "apply", "catalan", 24, 5),
    ("D", "matrix", "central", 16, 6),
    ("H", "bridge", "-", 16, 7),  # l_catalan at 16, a_p at 18
    ("I", "binomial_power", "-", 8, None),
)
# |k| for binomial_power by round; the seed picks the sign.
POWER_CYCLE = (1, 8, 2, 7, 3, 6, 4, 5)
RIORDAN_REPEATS = (
    ("exact_repeat", "A", None),
    ("exact_repeat", "B", None),
    ("exact_repeat", "F", None),
    ("exact_repeat", "D", None),
    ("smaller_order", "B", 8),
    ("smaller_order", "A", 8),
)


def riordan_class(order: int) -> str:
    return "small" if order <= 16 else "large" if order >= 32 else "medium"


def riordan_digest_key(req) -> str:
    return "riordan|" + "|".join(str(req[f]) for f in ("kind", "array", "family", "r", "size"))


def riordan_space():
    for o in ORDERS:
        for r in R_VALUES:
            for a in ARRAYS:
                for kind in ("matrix", "inverse", "multiply"):
                    yield {"kind": kind, "array": a, "family": "-", "r": r, "size": o}
                for fam in FAMILIES:
                    yield {"kind": "apply", "array": a, "family": fam, "r": r, "size": o}
            yield {"kind": "bridge", "array": "-", "family": "-", "r": r, "size": o}
        for k in POWER_CYCLE:
            for sign in (1, -1):
                yield {"kind": "binomial_power", "array": "-", "family": "-", "r": sign * k,
                       "size": o}


def _riordan_rounds(seed: int, count: int) -> list:
    if count > len(R_CYCLE):
        raise ValueError(f"riordan has fresh keys for {len(R_CYCLE)} rounds, not {count}")
    rng = random.Random(f"riordan-{seed}")
    rounds = []
    next_id = 0
    for j in range(count):
        base = {}
        for name, kind, array, order, offset in RIORDAN_SLOTS:
            req = {"kind": kind, "array": array, "family": "-", "size": order, "props": []}
            if kind == "binomial_power":
                req["r"] = POWER_CYCLE[j % len(POWER_CYCLE)] * rng.choice((1, -1))
            else:
                req["r"] = R_CYCLE[(offset + j) % len(R_CYCLE)]
            if kind == "apply":
                req["family"] = rng.choice(FAMILIES)
                req["terms"] = family_terms(req["family"], order, req["r"])
            base[name] = req
        repeats = []
        for prop, source, order in RIORDAN_REPEATS:
            src = base[source]
            repeats.append({"kind": "matrix", "array": src["array"], "family": "-",
                            "r": src["r"], "size": order or src["size"], "props": [prop]})
        reqs = list(base.values())
        rng.shuffle(reqs)
        rng.shuffle(repeats)
        for req in reqs + repeats:
            req.update(id=next_id, round=j, cls=riordan_class(req["size"]))
            next_id += 1
        rounds.append(reqs + repeats)
    return rounds


def _riordan_expectation(req, digests) -> dict:
    key = riordan_digest_key(req)
    out = {"digest": digests.get(key, "missing:" + key)}
    if req["kind"] == "matrix":
        # Column 0 of the named arrays is the family itself (A_P has d = 1).
        if req["array"] == "ap":
            col0 = [1] + [0] * (req["size"] - 1)
        else:
            col0 = family_terms(req["array"], req["size"], req["r"])
        out["col0"] = oracle.digest(col0)
    elif req["kind"] == "bridge":
        out["col0"] = oracle.digest(family_terms("catalan", req["size"], req["r"]))
    return out


# -------------------------------------------------------------------- cli

GENERATE = ("triangle", "central", "catalan", "sum", "b", "pell", "bessel", "interleaved")
HANKEL_ACTIONS = {"transform": "--count", "ldl": "--size", "bm": "--rows",
                  "charpoly": "--size", "production": "--size"}
METHODS = ("spot", "ldl", "both", "bareiss")
STDIN_POOL = 6
# The large commands are the same in every round and for every seed, so
# that the large class costs the same whatever the seed draws.
MEDIUM = (
    ["hankel", "bm", "--family", "catalan", "--r", "3", "--rows", "24"],
    ["hankel", "transform", "--family", "sum", "--r", "6", "--count", "24"],
    ["hankel", "ldl", "--family", "central", "--r", "2", "--size", "24"],
    ["hankel", "production", "--family", "catalan", "--r", "5", "--size", "16"],
    ["riordan", "central", "--r", "5", "--size", "16"],
    ["riordan", "catalan", "--r", "7", "--size", "16", "--inverse"],
    ["production", "bridge", "--r", "4", "--size", "12"],
    ["production", "matrix", "--array", "central", "--r", "3", "--size", "12"],
)
VERIFY = (
    [["verify", "--scope", s] for s in
     ("series", "sequences", "riordan", "hankel", "production", "berlekamp")]
    + [["verify"], ["verify", "--r-max", "8", "--n-max", "16"], ["verify", "--parallel"]]
)
EXIT2 = (
    (["generate", "catalan", "--r", "0"], None),
    (["riordan", "ap", "--r", "0", "--size", "4"], None),
    (["verify", "--scope", "matrix"], None),
    (["hankel", "transform", "--count", "5"], "1 2 3\n"),
    (["hankel", "ldl", "--size", "3"], "1 2 x 4 5\n"),
)
# --size 1 on these commands exits 2 on commit a044c50 although the answer is
# the 1 x 1 identity block (a known defect); they are left out of the mix
# because a run must not count failures at the baseline.
KNOWN_DEFECT = tuple(
    [["riordan", a, "--size", "1"] for a in ("catalan", "central", "ap", "binomial")]
    + [["production", a, "--size", "1"] for a in ("array", "bridge")]
)


def _stdin_text(terms) -> str:
    return " ".join(str(t) for t in terms) + "\n"


def _singular_stdin(p: int):
    rng = random.Random(f"perfbench-singular-{p}")
    k = 2 + p % 3
    points = rng.sample(range(-3, 4), k)
    weights = [rng.randint(1, 4) for _ in range(k)]
    return moment_terms(points, weights, 16)


def cli_space():
    """Every request the cli mix can draw, by category."""
    space = {c: [] for c in ("generate", "hankel", "stdin", "riordan", "production",
                             "exit2", "exit3", "medium", "verify")}
    for fam in GENERATE:
        for r in R_VALUES:
            for n in ("6", "10"):
                for fmt in ("json", "csv"):
                    space["generate"].append(
                        (["generate", fam, "--r", str(r), "--n", n, "--format", fmt], None))
    for action, flag in HANKEL_ACTIONS.items():
        for fam in FAMILIES:
            for r in R_VALUES:
                base = ["hankel", action, "--family", fam, "--r", str(r)]
                for n in ("4", "8"):
                    if action == "transform":
                        for m in METHODS:
                            space["hankel"].append((base + [flag, n, "--method", m], None))
                    else:
                        space["hankel"].append((base + [flag, n], None))
    for action in ("transform", "ldl", "bm", "charpoly"):
        flag = HANKEL_ACTIONS[action]
        for p in range(STDIN_POOL):
            space["stdin"].append(
                (["hankel", action, flag, "6"], _stdin_text(random_terms(p, 12))))
            space["exit3"].append(
                (["hankel", action, flag, "6"], _stdin_text(_singular_stdin(p))))
    for r in R_VALUES:
        for a in ("central", "catalan", "ap", "coefficient"):
            for n in ("4", "8"):
                base = ["riordan", a, "--r", str(r), "--size", n]
                space["riordan"] += [(base, None), (base + ["--inverse"], None)]
        for a in ("central", "catalan", "ap", "binomial"):
            for n in ("3", "6"):
                space["production"].append(
                    (["production", "matrix", "--array", a, "--r", str(r), "--size", n], None))
        for action in ("array", "bridge"):
            for n in ("4", "8"):
                space["production"].append(
                    (["production", action, "--r", str(r), "--size", n], None))
    for k in range(1, 5):
        for sign in (1, -1):
            for n in ("4", "8"):
                space["riordan"].append(
                    (["riordan", "binomial", "--power", str(sign * k), "--size", n], None))
    space["exit2"] = list(EXIT2)
    space["medium"] = [(argv, None) for argv in MEDIUM]
    space["verify"] = [(argv, None) for argv in VERIFY]
    return space


# Seeded draws per round from each category of small commands; every
# round also runs all of MEDIUM and VERIFY, the large class.
CLI_ROUND = (("generate", 2), ("hankel", 3), ("stdin", 2), ("riordan", 2),
             ("production", 2), ("exit2", 2), ("exit3", 1))


def cli_digest_key(argv, stdin) -> str:
    key = "cli|" + " ".join(argv)
    if stdin is not None:
        key += "|stdin:" + oracle.text_digest(stdin)
    return key


def _cli_rounds(seed: int, count: int) -> list:
    rng = random.Random(f"cli-{seed}")
    space = cli_space()
    rounds = []
    next_id = 0
    for j in range(count):
        reqs = []
        for cat, draws in CLI_ROUND:
            for argv, stdin in rng.sample(space[cat], draws):
                reqs.append({"kind": cat, "argv": argv, "stdin": stdin, "cls": "small",
                             "props": []})
        for cat in ("medium", "verify"):
            for argv, stdin in space[cat]:
                reqs.append({"kind": cat, "argv": argv, "stdin": stdin, "cls": "large",
                             "props": []})
        rng.shuffle(reqs)
        for req in reqs:
            req.update(id=next_id, round=j)
            next_id += 1
        rounds.append(reqs)
    return rounds


def _cli_expectation(req, digests) -> dict:
    key = cli_digest_key(req["argv"], req["stdin"])
    return {"digest": digests.get(key, "missing:" + key)}


# ------------------------------------------------------------------ entry

# Request properties whose share each run reports.
PROPERTIES = {"hankel": ("singular",), "riordan": ("exact_repeat", "smaller_order"),
              "cli": ()}
# A run serves a fixed number of rounds, set by --seconds: the seconds over
# the time a round took on commit a044c50 (2-vCPU Xeon, Python 3.11), so
# both sides of a comparison serve the same requests.  MIN_ROUNDS leaves at
# least ten samples beyond the p90 (hankel) or p75 latency.
ROUND_S = {"hankel": 4.8, "riordan": 5.0, "cli": 15.5}
MIN_ROUNDS = {"hankel": 4, "riordan": 3, "cli": 2}


def rounds_for(workload: str, seconds: float) -> int:
    rounds = max(MIN_ROUNDS[workload], round(seconds / ROUND_S[workload]))
    return min(rounds, len(R_CYCLE)) if workload == "riordan" else rounds


def build(workload: str, seed: int, count: int) -> list:
    """The request stream (``count`` rounds) for a workload and seed."""
    return {"hankel": _hankel_rounds, "riordan": _riordan_rounds,
            "cli": _cli_rounds}[workload](seed, count)


def expectation(workload: str, req, digests) -> dict:
    return {"hankel": _hankel_expectation, "riordan": _riordan_expectation,
            "cli": _cli_expectation}[workload](req, digests)
