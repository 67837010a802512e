"""Spans around every call into the library's public functions.

``Tracer.install`` rebinds each traced function, from outside, in every
loaded ``riordankit`` module namespace that binds it (so ``hankel.bareiss_det``
and ``berlekamp.solve`` are traced as well as ``linalg.*``), and replaces
traced methods on their classes.  The library itself is not edited.

A span is [name, start, end, parent span, request id, post, bits]: ``post``
is the tracer's own time after ``end`` (measuring the result), which is
charged to no layer, and ``bits`` is the largest numerator or denominator
bit-length in the result.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from time import perf_counter

# module -> traced names; a tuple groups methods reported under its first
# name (the reflected operators and the RiordanArray.__mul__ alias).
LAYERS = {
    "series": (("Series.__mul__", "Series.__rmul__"),
               ("Series.__truediv__", "Series.__rtruediv__"),
               "Series.sqrt", "Series.compose", "Series.revert", "rational",
               "bivariate_expand"),
    "riordan": (("RiordanArray.to_matrix",), ("RiordanArray.multiply", "RiordanArray.__mul__"),
                "RiordanArray.inverse", "RiordanArray.apply", "binomial_power",
                "l_catalan", "l_central"),
    "production": ("production_matrix", "matrix_from_production", "a_p", "stieltjes_bridge"),
    "hankel": ("hankel_matrix", "ldl", "hankel_transform"),
    "linalg": ("bareiss_det", "solve", "lower_tri_inverse", "mat_mul"),
    "berlekamp": ("solve_bm", "bm_triangle", "char_poly"),
    "sequences": ("family_terms",),
    "verify": ("run_checks",),
    "cli": ("main", "canonical_json"),
}
# Layers whose lru_cache hit counts are reported.
CACHED = {"riordan": ("l_catalan", "l_central"), "production": ("a_p",)}


def function_names():
    """Every traced function as '<module>.<name>', in table order."""
    for layer, entries in LAYERS.items():
        for entry in entries:
            yield f"{layer}.{entry[0] if isinstance(entry, tuple) else entry}"


def result_bits(value) -> int:
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, (list, tuple)):
        return max((result_bits(v) for v in value), default=0)
    for attrs in (("coeffs",), ("d", "h"), ("l", "d"), ("rows",)):
        if all(hasattr(value, a) for a in attrs):
            return max(result_bits(getattr(value, a)) for a in attrs)
    return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        self.cached = {}

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.request, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = perf_counter()
                stack.pop()
            span[6] = result_bits(result)
            span[5] = perf_counter() - end
            return result

        return traced

    def install(self):
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "riordankit" or n.startswith("riordankit."))]
        for layer, entries in LAYERS.items():
            mod = sys.modules.get(f"riordankit.{layer}")
            if mod is None:
                continue
            for entry in entries:
                group = entry if isinstance(entry, tuple) else (entry,)
                name = f"{layer}.{group[0]}"
                if "." in group[0]:
                    cls = getattr(mod, group[0].split(".")[0])
                    originals = {cls.__dict__[q.split(".")[1]] for q in group}
                    for orig in originals:
                        wrapper = self._wrap(name, orig)
                        for attr, value in list(vars(cls).items()):
                            if value is orig:
                                setattr(cls, attr, wrapper)
                    continue
                orig = getattr(mod, group[0])
                wrapper = self._wrap(name, orig)
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                if group[0] in CACHED.get(layer, ()):
                    self.cached.setdefault(layer, []).append(orig)

    def cache_counts(self) -> dict:
        out = {}
        for layer, fns in self.cached.items():
            infos = [fn.cache_info() for fn in fns]
            hits = sum(i.hits for i in infos)
            out[layer] = [hits, hits + sum(i.misses for i in infos)]
        return out

    def write(self, path, import_s: float):
        with open(path, "w") as f:
            f.write(json.dumps({"import_s": import_s, "caches": self.cache_counts()}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def read(path):
    with open(path) as f:
        head = json.loads(f.readline())
        return head, [json.loads(line) for line in f]


def layer_metrics(files) -> dict:
    """Per-layer metrics from span files (one per traced process)."""
    calls = dict.fromkeys(function_names(), 0)
    total = dict.fromkeys(calls, 0.0)
    self_s = dict.fromkeys(calls, 0.0)
    bits = dict.fromkeys(LAYERS, 0)
    caches = {layer: [0, 0] for layer in CACHED}
    imports = []
    for path in files:
        head, spans = read(path)
        imports.append(head["import_s"])
        for layer, (hits, n) in head["caches"].items():
            caches[layer][0] += hits
            caches[layer][1] += n
        covered = [0.0] * len(spans)
        for name, start, end, parent, _req, post, _bits in spans:
            if parent is not None:
                covered[parent] += end - start + post
        for (name, start, end, _p, _r, _post, b), cov in zip(spans, covered):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - cov
            layer = name.split(".")[0]
            bits[layer] = max(bits[layer], b)
    out = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.total_s"] = total[name]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        out[f"{layer}.result_bits_max"] = bits[layer]
    imports.sort()
    out["cli.import_s"] = imports[len(imports) // 2] if imports else 0.0
    for layer, (hits, n) in caches.items():
        out[f"{layer}.cache_hits"] = hits
        out[f"{layer}.cache_calls"] = n
        out[f"{layer}.cache_hit_ratio"] = hits / n if n else 0.0
    transforms = calls["hankel.hankel_transform"]
    out["hankel.crosscheck_per_transform"] = (
        calls["linalg.bareiss_det"] / transforms if transforms else 0.0)
    return out
