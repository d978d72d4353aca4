"""Fast tests of the benchmark itself (not of the library).

Run from the root of a checkout:  python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def hesnil():
    return run.import_hesnil()


class ScriptedClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_on_a_nested_span_tree():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and B [5, 7]
    rec = spans.SpanRecorder(clock=ScriptedClock([0, 1, 2, 3, 4, 5, 7, 10]))
    a = rec.enter("A")
    b = rec.enter("B")
    c = rec.enter("C")
    rec.exit(c)
    rec.exit(b)
    b2 = rec.enter("B")
    rec.exit(b2)
    rec.exit(a)
    st = rec.stats["setup"]
    assert (st["A"].calls, st["A"].total_s, st["A"].self_s) == (1, 10, 5)
    assert (st["B"].calls, st["B"].total_s, st["B"].self_s) == (2, 5, 4)
    assert (st["C"].calls, st["C"].total_s, st["C"].self_s) == (1, 1, 1)
    assert a.child_calls == {"B": 2}


def test_spans_closed_out_of_order_raise():
    rec = spans.SpanRecorder(clock=ScriptedClock([0, 1, 2]))
    outer = rec.enter("outer")
    rec.enter("inner")
    with pytest.raises(RuntimeError):
        rec.exit(outer)


def test_tracer_counts_term_pairs_and_restores(hesnil):
    original = hesnil.Poly.__mul__
    original_is_hn = hesnil.vanishing.is_hn
    rec = spans.SpanRecorder()
    tracer = spans.Tracer(rec)
    tracer.install()
    try:
        a = hesnil.parse("z1 + z2 + z3")
        b = hesnil.parse("z1 - z2", arity=3)
        a * b
        hesnil.laplacian_iter(hesnil.parse("z1^2*z2^2"), 5)
        # Delta(z1^2 z2^2) = 2 z1^2 + 2 z2^2, Delta of that = 8, then 0: three steps
        assert rec.get("setup", "diffops.laplacian_iter").counts["depth"] == 3
        hesnil.vanishing.is_hn(a)
    finally:
        tracer.uninstall()
    assert hesnil.Poly.__mul__ is original
    assert hesnil.vanishing.is_hn is original_is_hn
    mul = rec.get("setup", "poly.mul")
    assert mul.counts["term_pairs"] >= 6 and mul.maxima["terms_out"] >= 5
    assert rec.get("setup", "nilpotency.is_hn").calls == 1


def test_scaling_is_not_counted_as_a_product(hesnil):
    rec = spans.SpanRecorder()
    tracer = spans.Tracer(rec)
    tracer.install()
    try:
        a = hesnil.parse("z1 + z2")
        a * a
        a * 2
        3 * a
    finally:
        tracer.uninstall()
    mul = rec.get("setup", "poly.mul")
    assert (mul.calls, mul.counts["term_pairs"], mul.counts["terms_out"]) == (1, 4, 3)
    assert rec.get("setup", "poly.scale").calls == 2


def _tally_with(hesnil, workload, items, plant):
    """Run one round with ``plant`` applied to every output, then the oracles."""
    planted = dataclasses.replace(workload, run=lambda h, item: plant(workload.run(h, item)))
    tally = run.Tally(len(items))
    run.run_round(hesnil, planted, items, tally)
    run.apply_oracles(hesnil, planted, items, tally)
    return tally


def _vanishing_items(hesnil, kind, n, d, t_order):
    slots = [(kind, n, d, None, {"t_order": t_order})]
    return W.with_configs(hesnil, W.build_hn_items(hesnil, slots, [7]))


@pytest.mark.parametrize("kind,n,d", [("w", 4, 3), ("ph", 4, 3)])
def test_vanishing_flipped_flag_is_a_failed_item(hesnil, kind, n, d):
    workload = W.WORKLOADS["vanishing"]
    items = _vanishing_items(hesnil, kind, n, d, 2)
    assert _tally_with(hesnil, workload, items, lambda out: out).wrong == 0

    def flip(out):
        report, failures, _ = out
        flags = list(report.vanishing_flags)
        flags[0] = not flags[0]
        report = dataclasses.replace(report, vanishing_flags=flags)
        return report, failures, hesnil.render_report([report], "json")

    tally = _tally_with(hesnil, workload, items, flip)
    assert tally.wrong == 1 and tally.attempted == 1


def test_vanishing_ph_flags_are_checked_against_the_gradient_recurrence(hesnil):
    workload = W.WORKLOADS["vanishing"]
    items = _vanishing_items(hesnil, "ph", 4, 3, 2)

    def flip_consistently(out):
        # flags and deg_t stay self-consistent; only the independent route objects
        report, failures, _ = out
        flags = [not f for f in report.vanishing_flags]
        nonzero = [m for m, f in enumerate(flags, start=1) if not f]
        report = dataclasses.replace(report, vanishing_flags=flags,
                                     deg_t=max(nonzero) if nonzero else 0)
        return report, failures, hesnil.render_report([report], "json")

    assert _tally_with(hesnil, workload, items, flip_consistently).wrong == 1


def _inversion_items(hesnil):
    slots = [("pg", 2, 3, None, {"s": (1, 1)})]
    items = W.build_hn_items(hesnil, slots, [11])
    coeff = __import__("random").Random(3)
    support = __import__("random").Random(4)
    p = W.sample_non_hn(hesnil, support, coeff, 2, (2, 3))
    items.append(W.Item("random", "random", 2, 3, 0, p, {}, False, {"s": (1, 0)}))
    return items


def test_inversion_perturbed_q_slot_is_a_failed_item(hesnil):
    workload = W.WORKLOADS["inversion"]
    items = _inversion_items(hesnil)
    assert _tally_with(hesnil, workload, items, lambda out: out).wrong == 0

    def perturb(out):
        pair = out["closed" if "closed" in out else "general"]
        coeffs = list(pair.q.coeffs)
        coeffs[1] = coeffs[1] + hesnil.parse("z1^2*z2", arity=pair.source.arity)
        q = hesnil.TGraded(pair.q.arity, coeffs, pair.q.t_order, pair.q.z_trunc)
        key = "closed" if "closed" in out else "general"
        return {**out, key: dataclasses.replace(pair, q=q)}

    tally = _tally_with(hesnil, workload, items, perturb)
    assert tally.wrong == 2 and tally.attempted == 2


def test_hn_screen_flipped_verdict_is_a_failed_item(hesnil):
    workload = W.WORKLOADS["hn_screen"]
    items = W.build_hn_items(hesnil, [("w", 3, 3, None, {})], [5])
    items += W.build_non_hn_items(hesnil, [(3, (2, 3))], 5, "test", lambda i: {})
    for index, item in enumerate(items):
        item.params["point_seed"] = f"test:{index}"
    assert _tally_with(hesnil, workload, items, lambda r: r).wrong == 0

    def flip(report):
        v = not report.is_hn
        return dataclasses.replace(report, is_hn=v, verdict_matrix=v, verdict_laplacian=v)

    # the construction fails its own check; the random member fails sympy's
    tally = _tally_with(hesnil, workload, items, flip)
    assert tally.wrong == 2 and tally.attempted == 2


def test_an_item_that_raises_is_failed_but_not_wrong(hesnil):
    workload = W.WORKLOADS["hn_screen"]
    items = W.build_hn_items(hesnil, [("w", 3, 3, None, {})], [5])

    def boom(report):
        raise ArithmeticError("planted")

    tally = _tally_with(hesnil, workload, items, boom)
    assert (tally.errors, tally.wrong, tally.attempted) == (1, 0, 1)


def test_member_seed_search_gives_the_slot_shape(hesnil):
    slots = [("pg", 4, 4, ((0, 4), (2, 2)), {}), ("ph", 6, 3, (((0, 0, 2),), (), ()), {})]
    seeds = W.find_member_seeds(hesnil, slots, 3, "test")
    assert seeds == W.find_member_seeds(hesnil, slots, 3, "test")
    for (kind, n, d, shape, _), item in zip(slots, W.build_hn_items(hesnil, slots, seeds)):
        assert W.shape_of(hesnil, kind, item.provenance) == shape
