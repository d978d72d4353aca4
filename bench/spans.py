"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side: every public name a module
of ``hesnil`` binds is replaced, in each module that binds it, by a wrapper
that opens a span, calls the original and closes the span.  Spans nest on
one stack; a span's self time is its duration minus the durations of its
direct children.  Totals are aggregated per (phase, span name) as the run
goes, so memory stays flat however many spans there are.

Term counts come from operand and result sizes, never from inside the
library: ``poly.mul`` records |a|*|b| term pairs and |a*b| terms out,
``poly.truncate`` records terms in and kept, and so on.  ``poly.mul`` spans
only products of two polynomials: scaling by a scalar, whether written
``p * c`` or ``c * p``, goes through ``Poly.scale`` and is spanned as
``poly.scale``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "counts", "maxima")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts: Dict[str, int] = defaultdict(int)
        self.maxima: Dict[str, int] = defaultdict(int)

    def to_json(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s,
                "counts": dict(self.counts), "maxima": dict(self.maxima)}


class _Frame:
    __slots__ = ("name", "start", "child_s", "child_calls")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.child_calls: Dict[str, int] = defaultdict(int)


class SpanRecorder:
    """Nested spans with self time, aggregated per phase and name.

    ``clock`` is injectable so the self-time arithmetic can be tested on a
    scripted span tree.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.phase = "setup"
        self.stats: Dict[str, Dict[str, SpanStats]] = defaultdict(lambda: defaultdict(SpanStats))
        self._stack: List[_Frame] = []

    def enter(self, name: str) -> _Frame:
        frame = _Frame(name, self.clock())
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> SpanStats:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        duration = end - frame.start
        st = self.stats[self.phase][frame.name]
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - frame.child_s
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += duration
            parent.child_calls[frame.name] += 1
        return st

    def get(self, phase: str, name: str) -> SpanStats:
        return self.stats[phase].get(name) or SpanStats()

    def to_json(self) -> dict:
        return {phase: {name: st.to_json() for name, st in sorted(spans.items())}
                for phase, spans in self.stats.items()}


# -- what gets wrapped --------------------------------------------------------

def _size(x) -> int:
    terms = getattr(x, "terms", None)
    return len(terms) if terms is not None else 1


def _count_mul(st: SpanStats, frame: _Frame, args, result) -> None:
    a, b = args[0], args[1]
    st.counts["term_pairs"] += _size(a) * _size(b)
    out = _size(result)
    st.counts["terms_out"] += out
    if out > st.maxima["terms_out"]:
        st.maxima["terms_out"] = out


def _count_truncate(st: SpanStats, frame: _Frame, args, result) -> None:
    st.counts["terms_in"] += _size(args[0])
    st.counts["terms_kept"] += _size(result)


def _count_laplacian(st: SpanStats, frame: _Frame, args, result) -> None:
    st.counts["terms_in"] += _size(args[0])


def _count_laplacian_iter(st: SpanStats, frame: _Frame, args, result) -> None:
    # Laplacians actually applied: the iteration stops early at zero
    st.counts["depth"] += frame.child_calls["diffops.laplacian"]


def _count_apply_D(st: SpanStats, frame: _Frame, args, result) -> None:
    st.counts["term_pairs"] += _size(args[0]) * _size(args[1])


# (module, attribute) -> span name; a class attribute is "Class.method"
FUNCTIONS = {
    ("hesnil.poly", "exp_truncated"): "poly.exp_truncated",
    ("hesnil.tgraded", "compose_poly"): "tgraded.compose_poly",
    ("hesnil.tgraded", "exp_tgraded"): "tgraded.exp_tgraded",
    ("hesnil.diffops", "partial"): "diffops.partial",
    ("hesnil.diffops", "laplacian"): "diffops.laplacian",
    ("hesnil.diffops", "laplacian_iter"): "diffops.laplacian_iter",
    ("hesnil.diffops", "apply_D"): "diffops.apply_D",
    ("hesnil.diffops", "hessian"): "diffops.hessian",
    ("hesnil.nilpotency", "is_hn"): "nilpotency.is_hn",
    ("hesnil.nilpotency", "trace_powers"): "nilpotency.trace_powers",
    ("hesnil.nilpotency", "laplacian_powers"): "nilpotency.laplacian_powers",
    ("hesnil.inversion", "invert_general"): "inversion.invert_general",
    ("hesnil.inversion", "invert_hn"): "inversion.invert_hn",
    ("hesnil.inversion", "invert_closed"): "inversion.invert_closed",
    ("hesnil.inversion", "pair_from_fixed_point"): "inversion.pair_from_fixed_point",
    ("hesnil.inversion", "compose_check"): "inversion.compose_check",
    ("hesnil.inversion", "burgers_residual"): "inversion.burgers_residual",
    ("hesnil.inversion", "heat_residual"): "inversion.heat_residual",
    ("hesnil.inversion", "exp_formula_check"): "inversion.exp_formula_check",
    ("hesnil.generators", "w_construction"): "generators.construction",
    ("hesnil.generators", "w_tilde_construction"): "generators.construction",
    ("hesnil.generators", "ug_construction"): "generators.construction",
    ("hesnil.generators", "pg_construction"): "generators.construction",
    ("hesnil.generators", "ph_construction"): "generators.construction",
    ("hesnil.generators", "sample_isotropic"): "generators.construction",
    ("hesnil.vanishing", "build_member"): "vanishing.build_member",
    ("hesnil.vanishing", "run_trial"): "vanishing.run_trial",
    ("hesnil.vanishing", "_vanishing_flags"): "vanishing.flags",
    ("hesnil.vanishing", "isotropy_check"): "vanishing.isotropy_check",
    ("hesnil.vanishing", "pd_qt_check"): "vanishing.pd_qt_check",
    ("hesnil.vanishing", "render_report"): "vanishing.render_report",
}

METHODS = {
    ("hesnil.poly", "Poly", "__mul__"): "poly.mul",
    ("hesnil.poly", "Poly", "scale"): "poly.scale",
    ("hesnil.poly", "Poly", "truncate"): "poly.truncate",
    ("hesnil.poly", "Poly", "substitute_linear"): "poly.substitute_linear",
    ("hesnil.tgraded", "TGraded", "__mul__"): "tgraded.TGraded.mul",
    ("hesnil.diffops", "PolyMatrix", "__mul__"): "diffops.PolyMatrix.mul",
}

COUNTERS = {
    "poly.mul": _count_mul,
    "poly.truncate": _count_truncate,
    "diffops.laplacian": _count_laplacian,
    "diffops.laplacian_iter": _count_laplacian_iter,
    "diffops.apply_D": _count_apply_D,
}


def _wrap(recorder: SpanRecorder, name: str, fn: Callable,
          spanned: Optional[Callable] = None) -> Callable:
    """``fn`` inside a span; calls for which ``spanned(args)`` is false pass through."""
    counter = COUNTERS.get(name)

    def traced(*args, **kwargs):
        if spanned is not None and not spanned(args):
            return fn(*args, **kwargs)
        frame = recorder.enter(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            st = recorder.exit(frame)
            if counter is not None and result is not None:
                counter(st, frame, args, result)

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


class Tracer:
    """Installs span wrappers into every loaded ``hesnil`` module; undoable."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[tuple] = []

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "hesnil" or key.startswith("hesnil."))]
        for (mod_name, attr), name in FUNCTIONS.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = _wrap(self.recorder, name, original)
            # rebind the name wherever a module imported it
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for (mod_name, cls_name, attr), name in METHODS.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            spanned = None
            if name == "poly.mul":
                # a product of two polynomials; p * c falls through to the scale span
                spanned = lambda args, cls=cls: isinstance(args[1], cls)  # noqa: E731
            self._undo.append((cls, attr, original))
            setattr(cls, attr, _wrap(self.recorder, name, original, spanned))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def per_layer(recorder: SpanRecorder, items: int) -> Dict[str, tuple]:
    """Per-layer metrics: (value, unit) for each name in BENCHMARK.json.

    Item-phase figures are per item completed under tracing; the set-up
    figures are for one traced corpus build.
    """
    def item(name: str) -> SpanStats:
        return recorder.get("items", name)

    per = 1.0 / max(items, 1)
    out: Dict[str, tuple] = {}

    def calls(name: str) -> None:
        out[f"{name}.calls"] = (item(name).calls * per, "count/item")

    def self_s(name: str) -> None:
        out[f"{name}.self_s"] = (item(name).self_s * per, "s/item")

    def total_s(name: str) -> None:
        out[f"{name}.s"] = (item(name).total_s * per, "s/item")

    def count(name: str, key: str) -> None:
        out[f"{name}.{key}"] = (item(name).counts[key] * per, "count/item")

    mul = "poly.mul"
    calls(mul); self_s(mul); count(mul, "term_pairs"); count(mul, "terms_out")
    out["poly.mul.max_terms_out"] = (item(mul).maxima["terms_out"], "count")
    trunc = item("poly.truncate")
    count("poly.truncate", "terms_in")
    kept = trunc.counts["terms_kept"] / trunc.counts["terms_in"] if trunc.counts["terms_in"] else 1.0
    out["poly.truncate.kept_ratio"] = (kept, "ratio")
    total_s("poly.exp_truncated")

    lap = "diffops.laplacian"
    calls(lap); self_s(lap); count(lap, "terms_in")
    calls("diffops.laplacian_iter"); count("diffops.laplacian_iter", "depth")
    calls("diffops.apply_D"); self_s("diffops.apply_D"); count("diffops.apply_D", "term_pairs")
    calls("diffops.partial"); self_s("diffops.partial")
    self_s("diffops.hessian"); self_s("diffops.PolyMatrix.mul")

    calls("nilpotency.is_hn"); total_s("nilpotency.is_hn")
    total_s("nilpotency.trace_powers"); total_s("nilpotency.laplacian_powers")

    calls("tgraded.TGraded.mul"); self_s("tgraded.TGraded.mul")
    total_s("tgraded.compose_poly"); total_s("tgraded.exp_tgraded")

    for fn in ("invert_general", "invert_hn", "invert_closed", "pair_from_fixed_point",
               "compose_check", "burgers_residual", "heat_residual", "exp_formula_check"):
        total_s(f"inversion.{fn}")

    self_s("vanishing.run_trial")
    for fn in ("flags", "isotropy_check", "pd_qt_check", "render_report"):
        total_s(f"vanishing.{fn}")

    setup = recorder.stats["setup"]
    for name, key in (("generators.construction", "total_s"),
                      ("vanishing.build_member", "total_s"),
                      ("poly.substitute_linear", "self_s")):
        st = setup.get(name) or SpanStats()
        label = "s" if key == "total_s" else "self_s"
        out[f"{name}.{label}"] = (getattr(st, key), "s")
    return out
