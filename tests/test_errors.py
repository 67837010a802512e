"""Every library error survives a pickle round trip, as it must to cross a
process pool: same type, same message, same index, order and partial
result."""

from __future__ import annotations

import inspect
import pickle
from fractions import Fraction

from riordankit import errors
from riordankit.errors import RiordanKitError, SingularLeadingMinor, SingularSystem


def instances():
    for _, cls in inspect.getmembers(errors, inspect.isclass):
        if not issubclass(cls, RiordanKitError):
            continue
        if cls is SingularLeadingMinor:
            yield cls(2, "x")
            yield cls(4)
        elif cls is SingularSystem:
            yield cls(3, "y", partial=[1, Fraction(-2, 3)])
            yield cls(5)
        else:
            yield cls(f"{cls.__name__} message")


def test_errors_survive_a_pickle_round_trip():
    for exc in instances():
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is type(exc)
        assert str(copy) == str(exc)
        for attr in ("index", "order", "partial"):
            assert getattr(copy, attr, None) == getattr(exc, attr, None), (exc, attr)
