"""The names the benchmark's tracer binds still exist in the library."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _load_spans()
    missing = []
    for mod_name, attr in spans.FUNCTIONS:
        if not hasattr(importlib.import_module(mod_name), attr):
            missing.append(f"{mod_name}.{attr}")
    for mod_name, cls_name, attr in spans.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"{mod_name}.{cls_name}.{attr}")
    assert missing == []
