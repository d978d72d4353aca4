"""The names the benchmark's tracer binds still exist in the library, and the
benchmark's own tests (which pin the call structure the tracer reads) pass."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


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


def test_bench_own_tests_pass():
    # a subprocess: the benchmark re-imports hesnil by deleting sys.modules entries
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/test_bench.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
