"""The per-layer tracer in ``perfbench/tracer.py`` looks library functions
up by name and reads ``cache_info()`` off the cached constructors; a
rename, or a cache dropped, would only show up in a traced benchmark run.
The tracer is loaded from its file and only read."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    for layer, entries in tracer.LAYERS.items():
        mod = importlib.import_module(f"riordankit.{layer}")
        for entry in entries:
            for name in entry if isinstance(entry, tuple) else (entry,):
                if "." in name:
                    cls_name, method = name.split(".")
                    assert method in vars(getattr(mod, cls_name)), f"{layer}.{name}"
                else:
                    assert callable(getattr(mod, name, None)), f"{layer}.{name}"


def test_every_cached_function_reports_its_cache():
    tracer = load_tracer()
    for layer, names in tracer.CACHED.items():
        mod = importlib.import_module(f"riordankit.{layer}")
        for name in names:
            assert callable(getattr(getattr(mod, name), "cache_info", None)), (
                f"{layer}.{name}"
            )
