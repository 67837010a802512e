"""Canonical observations of results, and the check that judges them.

The serving process turns each result into an observation outside the
timed region: a digest of its canonical form, the digest of column 0 for
ragged row matrices, or the type and index of a raised error.  The client
compares that observation with the expectation the workload built.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def canon(value):
    """JSON-able form with every number as a decimal or p/q string."""
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if hasattr(value, "coeffs"):  # Series
        return canon(value.coeffs)
    if hasattr(value, "h"):  # RiordanArray
        return {"d": canon(value.d), "h": canon(value.h)}
    if hasattr(value, "l"):  # LDLDecomp
        return {"l": canon(value.l), "d": canon(value.d)}
    raise TypeError(f"no canonical form for {type(value).__name__}")


def text_digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:24]


def digest(value) -> str:
    return text_digest(json.dumps(canon(value), sort_keys=True, separators=(",", ":")))


def observe(result) -> dict:
    obs = {"digest": digest(result)}
    if isinstance(result, list) and result and isinstance(result[0], list):
        obs["col0"] = digest([row[0] for row in result])
    return obs


def observe_error(exc: BaseException) -> dict:
    obs = {"error": type(exc).__name__}
    for attr in ("index", "order"):
        if isinstance(getattr(exc, attr, None), int):
            obs["at"] = getattr(exc, attr)
    partial = getattr(exc, "partial", None)
    if partial is not None:
        obs["partial"] = len(partial)
    obs["digest"] = text_digest(json.dumps(obs, sort_keys=True))
    return obs


def observe_process(returncode: int, stdout: bytes, stderr: bytes) -> dict:
    """A CLI run: exit code and stdout, plus stderr when it failed."""
    return {"digest": text_digest(returncode, stdout, stderr if returncode else b"")}


def check(expect: dict, obs: dict) -> str | None:
    """None if the observation meets every expected field, else the reason."""
    for key, want in expect.items():
        got = obs.get(key)
        if got != want:
            return f"{key}: expected {want!r}, observed {got!r}"
    return None
