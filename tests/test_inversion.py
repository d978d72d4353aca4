"""Deformed inversion pairs: the four routes, composition, and PDE identities."""

import math
import random
from fractions import Fraction

import pytest

import hesnil.inversion
from hesnil import (
    CriterionMismatchError,
    HNRequiredError,
    OrderViolationError,
    Poly,
    binomial_identity_check,
    burgers_residual,
    compose_check,
    deg_t,
    exp_formula_check,
    exp_truncated,
    exp_tilde_check,
    first_vanishing_index,
    gr,
    heat_residual,
    higher_dt_power_check,
    invert_closed,
    invert_fixed_point,
    invert_general,
    invert_hn,
    is_hn,
    pair_from_fixed_point,
    parse,
    potential_from_gradient,
    power_flow_check,
    qt_power,
    trace_powers,
)
from hesnil import (
    DeformedPair, PolyVector, TGraded, build_member, compose_poly, grad_pair, laplacian, partial)
import hesnil.nilpotency
from hesnil.inversion import _hn_slots
from hesnil.nilpotency import TheoremCheckError, _light_cone
from conftest import (
    build_hn_corpus, build_non_hn_corpus, count_squares, rand_coeff, random_order2_poly,
    reference_exp)

ALL_METHODS = (invert_general, invert_hn, invert_closed, pair_from_fixed_point)

WORKED = parse("v1*(u2+i*v2)^2")
WORKED_Q2 = parse("1/2*(u2+i*v2)^4")


def test_geometric_series_slots():
    p = parse("z1^2")
    for method in (invert_general, pair_from_fixed_point):
        pair = method(p, 6)
        for m in range(1, 7):
            assert pair.q_slot(m) == parse("z1^2").scale(2 ** (m - 1))
    assert deg_t(invert_general(p, 6)) == 5
    assert first_vanishing_index(invert_general(p, 6)) is None


def test_trivial_type_collapses_to_source():
    # Delta(P^2) = 0 forces Q_t = P
    p = parse("(z1+i*z2)^3")
    for method in ALL_METHODS:
        pair = method(p, 5)
        assert pair.q_slot(1) == p
        for m in range(2, 6):
            assert pair.q_slot(m).is_zero()
        assert deg_t(pair) == 0
        assert first_vanishing_index(pair) == 2


def test_worked_nontrivial_pair():
    for method in ALL_METHODS:
        pair = method(WORKED, 4)
        assert pair.q_slot(1) == WORKED
        assert pair.q_slot(2) == WORKED_Q2
        assert pair.q_slot(3).is_zero()
        assert pair.q_slot(4).is_zero()
        assert deg_t(pair) == 1
        assert first_vanishing_index(pair) == 3


def _gradient_recurrence(p, t_order, z_cap=None):
    """Q_[1..t_order] slot by slot through grad_pair, with no early stop."""
    def cap(q):
        return q if z_cap is None else q.truncate(z_cap)

    slots = [cap(p)]
    for m in range(2, t_order + 1):
        acc = Poly.zero(p.arity)
        for k in range(1, m):
            acc = acc + grad_pair(slots[k - 1], slots[m - k - 1])
        slots.append(cap(acc.scale(Fraction(1, 2 * (m - 1)))))
    return slots


@pytest.mark.parametrize("member, t_order, z_cap, last", [
    # D = 6, so the recurrence closes after Q_[12]
    ((6, 3, "ph", 502001506), 16, None, 6),
    # the cap zeroes Q_[5] and Q_[6], so the capped recurrence closes after Q_[8]
    ((6, 3, "ph", 502001506), 16, 6, 4),
    ((6, 3, "ph", 1000003), 12, None, 4),
    ((4, 4, "ug", 3000009), 8, None, 1),
])
def test_general_closure_matches_the_full_recurrence(member, t_order, z_cap, last):
    p, _ = build_member(*member[:3], {}, member[3])
    pair = invert_general(p, t_order, z_cap)
    slots = [pair.q_slot(m) for m in range(1, t_order + 1)]
    assert slots == _gradient_recurrence(p, t_order, z_cap)
    assert max(m for m, q in enumerate(slots, 1) if not q.is_zero()) == last


def test_general_closure_on_random_and_degenerate_input():
    rng = random.Random(4411)
    for z_cap in (None, 5, None, 4):
        p = random_order2_poly(rng, 3, 3)
        assert [invert_general(p, 6, z_cap).q_slot(m) for m in range(1, 7)] == \
            _gradient_recurrence(p, 6, z_cap)
    # Q_[2] = 0 closes at once, and the zero P before any slot is formed
    for p in (parse("(z1+i*z2)^3"), Poly.zero(2)):
        assert [invert_general(p, 5).q_slot(m) for m in range(1, 6)] == \
            _gradient_recurrence(p, 5)


def test_method_tags():
    p = parse("z1^2")
    assert invert_general(p, 2).method == "general"
    assert invert_hn(WORKED, 2).method == "hn_recurrence"
    assert invert_closed(WORKED, 2).method == "closed_form"
    assert pair_from_fixed_point(p, 2).method == "fixed_point"


def test_methods_agree_on_hn_sample():
    for p in build_hn_corpus(8, seed=61000):
        pairs = [method(p, 5) for method in ALL_METHODS]
        slots0 = [pairs[0].q_slot(m) for m in range(1, 6)]
        for pair in pairs[1:]:
            assert [pair.q_slot(m) for m in range(1, 6)] == slots0


def test_general_matches_fixed_point_on_non_hn():
    rng = random.Random(8812)
    for _ in range(6):
        p = random_order2_poly(rng, 2, 4)
        a = invert_general(p, 5)
        b = pair_from_fixed_point(p, 5)
        assert a.q == b.q


def test_fixed_point_iterates():
    p = parse("z1^2")
    layers = invert_fixed_point(p, 4)
    for m, layer in enumerate(layers):
        assert layer[0] == parse("z1").scale(2 ** m)


def test_fixed_point_round_r_composes_at_window_r(monkeypatch):
    p, t = parse("z1^2*z2 + z2^3"), 5
    windows = []
    compose = hesnil.inversion._compose_packed

    def spied(polys, values, ws, one):
        windows.append(list(ws))
        return compose(polys, values, ws, one)

    expected = invert_fixed_point(p, t)
    monkeypatch.setattr(hesnil.inversion, "_compose_packed", spied)
    assert invert_fixed_point(p, t) == expected
    assert windows == [[r] * p.arity for r in range(1, t + 1)]
    assert pair_from_fixed_point(p, t).q == invert_general(p, t).q


def test_potential_from_gradient():
    q = parse("z1^2*z2 + z2^3")
    vec = PolyVector([parse("2*z1*z2"), parse("z1^2 + 3*z2^2")])
    assert potential_from_gradient(vec) == q
    bad = PolyVector([parse("z2", arity=2), Poly.zero(2)])
    with pytest.raises(ValueError):
        potential_from_gradient(bad)


def test_compose_check_both_directions():
    members = [parse("z1^2"), parse("z1^2*z2 + z2^3"), WORKED]
    for p in members:
        pair = invert_general(p, 5)
        for direction in ("fg", "gf"):
            residuals = compose_check(p, pair, direction=direction)
            assert all(r.is_zero() for r in residuals)
    with pytest.raises(ValueError):
        compose_check(members[0], invert_general(members[0], 3), direction="x")


@pytest.mark.parametrize("kind", ["w", "wtilde", "ug", "pg", "ph"])
def test_composition_routes_agree_with_general(kind):
    # compose_check and the fixed-point iteration share the packed composition core
    p, _ = build_member(4, 3, kind, {}, 7)
    assert not p.is_zero()
    pair = invert_general(p, 4)
    for direction in ("fg", "gf"):
        assert all(r.is_zero() for r in compose_check(p, pair, direction=direction))
    layers = invert_fixed_point(p, 4)
    for m in range(1, 5):
        assert list(layers[m]) == [partial(pair.q_slot(m), i) for i in range(4)]


def test_burgers_residual_both_forms():
    pair = invert_general(parse("z1^2*z2"), 5)
    assert burgers_residual(pair, form="gradient").is_zero()
    hn_pair = invert_hn(WORKED, 5)
    assert burgers_residual(hn_pair, form="gradient").is_zero()
    assert burgers_residual(hn_pair, form="laplacian").is_zero()
    with pytest.raises(ValueError):
        burgers_residual(pair, form="other")


def _burgers_gradient_reference(q):
    """dQ/dt - 1/2 sum_i (d_i Q)^2 by series products: one TGraded product and sum per i."""
    rhs = TGraded.zero(q.arity, q.t_order, q.z_trunc)
    for i in range(q.arity):
        d = q.map_coeffs(lambda c: partial(c, i), z_drop=1)
        rhs = rhs + d * d
    return q.dt() - rhs.scale(Fraction(1, 2))


def test_gradient_burgers_residual_matches_the_series_route_off_the_solution():
    rng = random.Random(19)
    sources = [WORKED, parse("z1^2*z2 + 1/7*i*z2^3 - 2/11*z1*z2^2"),
               random_order2_poly(rng, 3, 4), build_member(4, 3, "ph", {}, 7)[0]]
    for p in sources:
        for t_order, cap in ((1, None), (4, None), (4, 5), (5, 3), (3, 0)):
            pair = invert_general(p, t_order, z_cap=cap)
            slots = list(pair.q.coeffs)
            if t_order > 1:
                slots[1] = slots[1].scale(2)  # Q_[2] doubled: no longer a solution
            q = TGraded(p.arity, slots, t_order, cap)
            perturbed = DeformedPair(p, q, t_order, "perturbed")
            out, ref = burgers_residual(perturbed), _burgers_gradient_reference(q)
            assert (out.t_order, out.z_trunc, out.coeffs) == (ref.t_order, ref.z_trunc, ref.coeffs)
            if t_order > 1 and not slots[1].is_zero() and cap != 0:
                assert not out.is_zero()
            assert burgers_residual(pair).is_zero()
    with pytest.raises(ValueError, match="empty window"):
        burgers_residual(DeformedPair(WORKED, TGraded(WORKED.arity, [], 0), 0, "empty"))


def test_closed_form_refuses_non_hn_input_before_any_power_of_p(monkeypatch):
    p = parse("z1^3 + z1*z2^2 + z2*z3^2")
    steps = []
    poly_mul = Poly.__mul__

    def watched_mul(a, b):
        if isinstance(b, Poly) and b == p:
            steps.append(a.degree())
        return poly_mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", watched_mul)
    for refuse in (lambda: invert_closed(p, 12), lambda: qt_power(p, 2, 12)):
        steps.clear()
        with pytest.raises(HNRequiredError):
            refuse()
        # the verdict comes from the Laplacian recurrence, which forms no power of P
        assert steps == []
    # both routes are still computed and cross-checked on a refusal
    monkeypatch.setattr(hesnil.inversion, "trace_powers", lambda q: [Poly.zero(q.arity)] * 3)
    with pytest.raises(CriterionMismatchError):
        invert_closed(p, 12)


def _verdict_inputs():
    hn = [build_member(4, d, kind, {}, 7)[0]
          for kind in ("w", "wtilde", "ug", "pg", "ph") for d in (3, 4)]
    # quadratic P with H = Hes P: Tr H^m = 0 below m = 3 and below m = 4
    late = [parse("1/2*z2^2 - 1/2*z3^2 + i*z1*z3"),
            parse("1/2*i*z1^2 + 1/2*i*z2^2 - z1*z3 + z2*z3 - 1/2*i*z3^2 - 1/2*i*z4^2")]
    return hn + [WORKED], build_non_hn_corpus(12) + late


def spy_back(monkeypatch, light_cone=_light_cone):
    """Record each list that _hn_slots' back map returns, light_cone giving the map."""
    seen = []

    def spied(p):
        image, pairs, back = light_cone(p)

        def recording(polys):
            seen.append(back(polys))
            return seen[-1]
        return image, pairs, recording

    monkeypatch.setattr(hesnil.inversion, "_light_cone", spied)
    return seen


def test_recurrence_verdict_is_the_hn_criterion(monkeypatch):
    hn, non_hn = _verdict_inputs()
    seen = spy_back(monkeypatch)
    # every fourth random non-HN member is harmonic; the last two start later still
    assert [laplacian(p).is_zero() for p in non_hn[3:12:4]] == [True] * 3
    assert [t.is_zero() for t in trace_powers(non_hn[-2])] == [True, True, False]
    assert [t.is_zero() for t in trace_powers(non_hn[-1])] == [True, True, True, False]
    for p in hn + non_hn:
        pair = invert_general(p, p.arity)
        slots = _hn_slots(p, p.arity)
        assert (slots is not None) == is_hn(p).is_hn
        traces = trace_powers(p)
        first = next((m for m, t in enumerate(traces, 1) if not t.is_zero()), None)
        assert (first is None) == (p in hn)
        # on HN input the gradient recurrence's slots; else the one list mapped back is
        # Delta of the gradient recurrence's first non-harmonic slot
        assert slots == (list(pair.q.coeffs) if first is None else None)
        assert seen[-1] == (slots if first is None else [laplacian(pair.q_slot(first))])
        for m in range(1, (first or p.arity) + 1):
            # zero below the first nonzero trace, and Tr Hes(P)^m itself there
            assert laplacian(pair.q_slot(m)) == traces[m - 1]
    # routes that agree on every verdict but not as polynomials are a bug
    monkeypatch.setattr(hesnil.inversion, "trace_powers",
                        lambda q: [t.scale(2) for t in trace_powers(q)])
    for p in non_hn:
        with pytest.raises(CriterionMismatchError):
            _hn_slots(p, p.arity)


@pytest.mark.parametrize("kind", ["w", "wtilde", "ug", "pg", "ph"])
@pytest.mark.parametrize("cap", [None, 2, 6])
def test_hn_slots_are_the_gradient_recurrences(kind, cap):
    # on HN input the Laplacian recurrence gives invert_general's slots through z_cap,
    # past n and up to its closure
    p, _ = build_member(4, 3, kind, {}, 7)
    slots = _hn_slots(p, 9, cap)
    assert slots is not None and len(slots) == 9
    assert [q if cap is None else q.truncate(cap) for q in slots] == \
        list(invert_general(p, 9, cap).q.coeffs)


def from_light_cone(q: Poly) -> Poly:
    """q(u + i v, u - i v): fields j and h + j are z_j and zeta_j, a last odd field is kept."""
    n, h, i = q.arity, q.arity // 2, gr(0, 1)
    rows = [[int(r == k) for k in range(n)] for r in range(n)]
    for j in range(h):
        rows[j][j], rows[j][h + j], rows[h + j][j], rows[h + j][h + j] = 1, i, 1, -i
    return q.substitute_linear(rows)


@pytest.mark.parametrize("kind", ["pg", "ph"])
@pytest.mark.parametrize("n, d", [(4, 3), (4, 4), (6, 3), (6, 4), (8, 3), (8, 4)])
def test_light_cone_slots_are_the_gradient_recurrences_on_pg_and_ph(kind, n, d):
    # both kinds are sparser in light-cone coordinates, so the recurrence runs there
    for seed in (11, 17):
        p, _ = build_member(n, d, kind, {}, seed)
        assert len(_light_cone(p)[0].terms) < len(p.terms)
        assert _hn_slots(p, n + 2) == list(invert_general(p, n + 2).q.coeffs)


def _light_cone_input(rng, n, shape):
    """A random P, built sparse in light-cone coordinates and mapped to (u, v); terms of
    degree 2..3, not homogeneous.  "hn": F(z) + sum_j zeta_j G_j(z) with G strictly
    triangular, HN because S Hes' = [[JG, 0], [*, JG^T]] for the swap S of z_j and zeta_j;
    "harmonic": F(z) + G(zeta) (+ w z_1), harmonic and mostly not HN; "any": no pattern."""
    h = n // 2
    zs, zetas = list(range(h)), list(range(h, 2 * h))

    def term(fields, degree):
        e = [0] * n
        for _ in range(degree):
            e[rng.choice(fields)] += 1
        return Poly(n, {tuple(e): rand_coeff(rng)})

    parts = []
    if shape == "hn":
        parts += [term(zs, rng.randint(2, 3)) for _ in range(2)]
        parts += [Poly.variable(h + j, n) * term(zs[j + 1:], rng.randint(1, 2))
                  for j in range(h - 1) if rng.random() < 0.7]
    elif shape == "harmonic":
        parts += [term(zs, rng.randint(2, 3)), term(zetas, rng.randint(2, 3))]
        if n % 2:
            parts.append(Poly.variable(n - 1, n) * Poly.variable(0, n))
    else:
        parts += [term(list(range(n)), rng.randint(2, 3)) for _ in range(3)]
    return from_light_cone(sum(parts, Poly.zero(n)))


def test_light_cone_slots_match_the_uv_recurrence_on_random_inputs(monkeypatch):
    rng, inputs = random.Random(4507), []
    while len(inputs) < 48:
        n = 3 + len(inputs) % 4
        p = _light_cone_input(rng, n, ("hn", "harmonic", "any")[len(inputs) // 4 % 3])
        if not p.is_zero() and len(_light_cone(p)[0].terms) < len(p.terms):
            inputs.append(p)
    assert {p.arity for p in inputs} == {3, 4, 5, 6}
    seen = spy_back(monkeypatch)
    light = [_hn_slots(p, 5, cap) for p in inputs for cap in (None, 5)]
    light_seen = seen[:]
    # each shape gives both verdicts' routes: the HN ones run to slot 5 and past, the
    # others stop at their first nonzero Delta Q_[m], mapped back to meet Tr Hes(P)^m
    verdicts = [slots is not None for slots in light]
    assert verdicts.count(True) >= 32 and verdicts.count(False) >= 24
    assert {len(slots) for slots in light if slots is not None} == {5, 6}
    twice = [(ts, next((m for m, t in enumerate(ts, 1) if not t.is_zero()), None))
             for ts in map(trace_powers, inputs) for _ in (None, 5)]
    assert [slots is None for slots in light] == [m is not None for _, m in twice]
    assert {m for _, m in twice} >= {None, 1, 2}
    assert [mapped for mapped, (_, m) in zip(light_seen, twice) if m is not None] == \
        [[ts[m - 1]] for ts, m in twice if m is not None]
    # the same recurrence on P itself, with Delta = sum_i d_i^2
    seen = spy_back(monkeypatch, lambda p: (p, [(j, j, 1) for j in range(p.arity)],
                                            lambda polys: polys))
    assert light == [_hn_slots(p, 5, cap) for p in inputs for cap in (None, 5)]
    assert light_seen == seen


def test_non_hn_input_meets_its_trace_before_none_is_returned(monkeypatch):
    # non-HN inputs that the recurrence runs in light-cone coordinates
    rng, inputs = random.Random(4507), []
    while len(inputs) < 8:
        p = _light_cone_input(rng, 4 + len(inputs) % 2, "any")
        if (not p.is_zero() and len(_light_cone(p)[0].terms) < len(p.terms)
                and not is_hn(p).is_hn):
            inputs.append(p)
    for p in inputs:
        assert _hn_slots(p, 5) is None
        first = next(m for m, t in enumerate(trace_powers(p), 1) if not t.is_zero())
        # Delta Q_[m] off Tr Hes(P)^m by a constant, or a zero Tr Hes(P)^m: both raise
        for planted in (lambda t: t + 1, lambda t: t.scale(0)):
            monkeypatch.setattr(hesnil.inversion, "trace_powers", lambda q: [
                planted(t) if m == first else t for m, t in enumerate(trace_powers(q), 1)])
            with pytest.raises(CriterionMismatchError, match=rf"Delta Q_\[{first}\] differs"):
                _hn_slots(p, 5)
            monkeypatch.undo()


def test_hn_slots_certify_the_light_cone_map(monkeypatch):
    p, _ = build_member(6, 3, "ph", {}, 11)
    mapped = hesnil.nilpotency._substitute_linear

    def tampered(polys, *args):
        out = mapped(polys, *args)
        return [out[0] + Poly.variable(0, p.arity) ** 3] + out[1:]

    monkeypatch.setattr(hesnil.nilpotency, "_substitute_linear", tampered)
    for run in (lambda: _hn_slots(p, 8), lambda: invert_hn(p, 8),
                lambda: invert_closed(p, 3), lambda: is_hn(p)):
        with pytest.raises(TheoremCheckError, match="is not its light-cone image's"):
            run()


def test_hn_only_inverters_refuse_a_harmonic_non_hn_input(monkeypatch):
    # Delta P = 0 but Tr Hes(P)^2 = 8: refused at slot 2, with each caller's message
    p = parse("z1^2 - z2^2")
    assert laplacian(p).is_zero() and not is_hn(p).is_hn
    seen = spy_back(monkeypatch)
    assert _hn_slots(p, 5) is None
    assert seen == [[laplacian(invert_general(p, 2).q_slot(2))]] == [[Poly.constant(2, 8)]]
    for who, refuse in (("invert_hn", lambda: invert_hn(p, 5)),
                        ("invert_hn", lambda: invert_hn(p, 5, z_cap=2)),
                        ("invert_closed", lambda: invert_closed(p, 5)),
                        ("qt_power", lambda: qt_power(p, 2, 5))):
        with pytest.raises(HNRequiredError, match=f"^{who} needs Hessian-nilpotent input$"):
            refuse()


def test_hn_slots_raise_on_either_planted_fault(monkeypatch):
    # Tr H^m vanishes for m < 3 and not at m = 3, so Delta Q_[3] != 0
    p = parse("1/2*z2^2 - 1/2*z3^2 + i*z1*z3")
    traces = trace_powers(p)
    # a trace route that disagrees with Delta Q_[3] is a bug, never a verdict
    doubled = traces[:2] + [traces[2].scale(2)]
    monkeypatch.setattr(hesnil.inversion, "trace_powers", lambda q: doubled)
    with pytest.raises(CriterionMismatchError, match=r"Delta Q_\[3\] differs"):
        _hn_slots(p, 5)
    # with the trace route cut at m = 2, slot 3 lies past the verdict and must be harmonic
    monkeypatch.setattr(hesnil.inversion, "trace_powers", lambda q: traces[:2])
    with pytest.raises(TheoremCheckError, match=r"Q_\[3\] is not harmonic past") as raised:
        _hn_slots(p, 5)
    assert raised.type is TheoremCheckError


@pytest.mark.parametrize("text", ["(z1+i*z2)^3 + z1^2*z2^2", "z1^2*z2 + (z1+i*z2)^4"])
def test_hn_recurrence_refuses_non_hn_input_under_every_cap(text):
    # each truncation at or below degree 3 drops a component, and some are HN
    p = parse(text)
    assert not is_hn(p).is_hn and p.is_homogeneous() is None
    assert any(is_hn(p.truncate(c)).is_hn for c in range(p.degree()))
    for cap in range(p.degree() + 1):
        with pytest.raises(HNRequiredError, match="invert_hn needs Hessian-nilpotent input"):
            invert_hn(p, 4, z_cap=cap)


def test_heat_residual_vanishes_for_hn():
    pair = invert_hn(WORKED, 4)
    for s in (1, 2, gr(1, 1)):
        assert heat_residual(WORKED, pair, s, 12).is_zero()
    with pytest.raises(ValueError):
        heat_residual(WORKED, pair, 0, 12)


def test_exp_formula_identity():
    pair = invert_hn(WORKED, 4)
    for s in (1, 2, gr(1, 1)):
        lhs, rhs = exp_formula_check(WORKED, pair, s, 12)
        assert lhs == rhs


def test_exp_tilde_identity():
    for p in (parse("(z1+i*z2)^4"), WORKED):
        pair = invert_hn(p, 4)
        lhs, rhs = exp_tilde_check(p, pair)
        assert lhs == rhs


def test_qt_power_closed_form():
    # Q_t = P + (t/2) W with W = (u2+i*v2)^4, so
    # Q_t^2 = P^2 + t P W + (t^2/4) W^2
    w = parse("(u2+i*v2)^4")
    out = qt_power(WORKED, 2, 3)
    assert out.coeff(0) == WORKED * WORKED
    assert out.coeff(1) == WORKED * w
    assert out.coeff(2) == (w * w).scale(gr("1/4"))


def test_qt_power_matches_direct_powers():
    pair = invert_closed(WORKED, 4)
    for k in (1, 2, 3):
        direct = (pair.q ** k).truncate_t(4)
        assert qt_power(WORKED, k, 4) == direct


def test_power_flow_identity():
    for p in (parse("z1^2*z2"), WORKED):
        pair = invert_general(p, 5)
        for k in (0, 1):
            for m in (1, 2):
                lhs, rhs = power_flow_check(pair, k, m)
                assert lhs == rhs


def test_higher_dt_identity():
    pair = invert_hn(WORKED, 5)
    for k in (1, 2):
        for l in (1, 2):
            lhs, rhs = higher_dt_power_check(pair, k, l)
            assert lhs == rhs


def test_binomial_identity_on_hn_members():
    members = [WORKED, parse("(z1+i*z2)^3")]
    for p in members:
        for alpha in (1, 2):
            for beta in (1, 2):
                for m in (0, 1, 2):
                    lhs, rhs = binomial_identity_check(p, alpha, beta, m)
                    assert lhs == rhs


def test_binomial_identity_fails_off_hypothesis():
    lhs, rhs = binomial_identity_check(parse("z1^2"), 1, 1, 1)
    assert lhs == parse("30*z1^4")
    assert rhs == parse("36*z1^4")
    with pytest.raises(ValueError):
        binomial_identity_check(parse("z1^2"), 0, 1, 1)
    with pytest.raises(ValueError):
        binomial_identity_check(parse("z1^2"), 1, 1, -1)


def test_order_and_hn_guards():
    with pytest.raises(OrderViolationError):
        invert_general(parse("z1 + z2"), 3)
    with pytest.raises(OrderViolationError):
        invert_general(Poly.one(1) + parse("z1^2"), 3)
    for method in (invert_hn, invert_closed):
        with pytest.raises(HNRequiredError):
            method(parse("z1^2*z2"), 3)
    with pytest.raises(HNRequiredError):
        qt_power(parse("z1^2*z2"), 1, 3)
    # order first, then HN, then the t_order and k checks
    with pytest.raises(OrderViolationError):
        invert_closed(parse("z1 + z2"), 0)
    with pytest.raises(HNRequiredError, match="invert_closed needs Hessian-nilpotent input"):
        invert_closed(parse("z1^2*z2"), 0)
    with pytest.raises(HNRequiredError, match="qt_power needs Hessian-nilpotent input"):
        qt_power(parse("z1^2*z2"), 0, 3)
    with pytest.raises(ValueError, match="t_order must be at least 1"):
        invert_closed(WORKED, 0)
    with pytest.raises(ValueError, match="k must be at least 1"):
        qt_power(WORKED, 0, 3)


HN_MEMBERS = {"ph n=4 d=3": ("ph", 4, 3), "pg n=4 d=4": ("pg", 4, 4)}


@pytest.mark.parametrize("member", sorted(HN_MEMBERS))
def test_closed_form_and_its_verdict_share_one_chain(monkeypatch, member):
    kind, n, d = HN_MEMBERS[member]
    p, _ = build_member(n, d, kind, {}, 7)
    expected = [invert_closed(p, 4), qt_power(p, 2, 4)]
    squares = count_squares(monkeypatch, p)
    assert invert_closed(p, 4) == expected[0]
    assert len(squares) == 1
    assert qt_power(p, 2, 4) == expected[1]
    assert len(squares) == 2


@pytest.mark.parametrize("member", sorted(HN_MEMBERS))
def test_closed_form_takes_one_verdict(monkeypatch, member):
    kind, n, d = HN_MEMBERS[member]
    p, _ = build_member(n, d, kind, {}, 7)
    calls = []

    def counting_hn_slots(q, t_order, z_cap=None):
        calls.append((q, t_order))
        return _hn_slots(q, t_order, z_cap)

    monkeypatch.setattr(hesnil.inversion, "_hn_slots", counting_hn_slots)
    pair = invert_closed(p, 4)
    assert calls == [(p, p.arity)]
    assert pair.q == invert_hn(p, 4).q
    calls.clear()
    qt_power(p, 2, 4)
    assert calls == [(p, p.arity)]


@pytest.mark.parametrize("member", sorted(HN_MEMBERS))
def test_closed_form_cross_checks_both_criteria(monkeypatch, member):
    kind, n, d = HN_MEMBERS[member]
    p, _ = build_member(n, d, kind, {}, 7)
    # a trace route that disagrees with the recurrence route is a bug, never a verdict
    monkeypatch.setattr(hesnil.inversion, "trace_powers", lambda q: [Poly.one(q.arity)])
    for method in (lambda: invert_closed(p, 4), lambda: qt_power(p, 2, 4),
                   lambda: invert_hn(p, 4)):
        with pytest.raises(CriterionMismatchError):
            method()


def test_z_cap_matches_truncated_exact():
    p = parse("z1^2*z2 + z2^3")
    exact = invert_general(p, 5)
    capped = invert_general(p, 5, z_cap=4)
    for m in range(1, 6):
        assert capped.q_slot(m) == exact.q_slot(m).truncate(4)
    hn_exact = invert_hn(WORKED, 5)
    hn_capped = invert_hn(WORKED, 5, z_cap=4)
    for m in range(1, 6):
        assert hn_capped.q_slot(m) == hn_exact.q_slot(m).truncate(4)


# -- packed routes against series routes kept here, off the solution ------------------


def _shift(a: TGraded, k: int) -> TGraded:
    """a times t^k: the window widens by k."""
    return TGraded(a.arity, [Poly.zero(a.arity)] * k + a.coeffs, a.t_order + k, a.z_trunc)


def _compose_check_reference(p, pair, direction, z_cap):
    """F_t(G_t(z)) - z or G_t(F_t(z)) - z by compose_poly and series sums."""
    n, m_top = p.arity, pair.t_order + 1
    coords = [Poly.variable(i, n) for i in range(n)]
    dp = [partial(p, i) for i in range(n)]
    dq = [[partial(pair.q.coeff(j), i) for i in range(n)] for j in range(pair.t_order)]
    identity = [TGraded.from_poly(coords[i], m_top, z_cap) for i in range(n)]
    if direction == "fg":
        g = [TGraded(n, [coords[i]] + [dq[j][i] for j in range(pair.t_order)], m_top, z_cap)
             for i in range(n)]
        return [g[i] - _shift(compose_poly(dp[i], g, pair.t_order, z_cap), 1) - identity[i]
                for i in range(n)]
    f = [TGraded(n, [coords[i], -dp[i]], m_top, z_cap) for i in range(n)]
    return [sum((_shift(compose_poly(dq[j][i], f, m_top - j - 1, z_cap), j + 1)
                 for j in range(pair.t_order)), f[i]) - identity[i] for i in range(n)]


def _doubled_q2(pair: DeformedPair) -> DeformedPair:
    """The pair with Q_[2] doubled: no longer a solution."""
    slots = list(pair.q.coeffs)
    if len(slots) > 1:
        slots[1] = slots[1].scale(2)
    q = TGraded(pair.q.arity, slots, pair.t_order, pair.q.z_trunc)
    return DeformedPair(pair.source, q, pair.t_order, "perturbed")


def _same(out: TGraded, ref: TGraded) -> None:
    assert (out.t_order, out.z_trunc, out.coeffs) == (ref.t_order, ref.z_trunc, ref.coeffs)


OFF_SOLUTION_SOURCES = [WORKED, parse("z1^2*z2 + 1/7*i*z2^3 - 2/11*z1*z2^2"),
                        build_member(4, 3, "ph", {}, 7)[0]]


def test_compose_check_matches_the_series_route_off_the_solution():
    sources = OFF_SOLUTION_SOURCES + [random_order2_poly(random.Random(20), 3, 4)]
    for p in sources:
        for t_order, cap in ((1, None), (3, None), (4, None), (3, 4), (4, 2), (3, 0)):
            pair = invert_general(p, t_order, z_cap=cap)
            perturbed = _doubled_q2(pair)
            for direction in ("fg", "gf"):
                assert all(r.is_zero() for r in compose_check(p, pair, direction))
                for z_cap in (None, 0, 1, 3, 6):
                    if z_cap is None and cap is not None:
                        continue  # the default cap, checked below
                    outs = compose_check(p, perturbed, direction, z_cap)
                    refs = _compose_check_reference(p, perturbed, direction, z_cap)
                    for out, ref in zip(outs, refs):
                        _same(out, ref)
                    if t_order > 1 and z_cap is None:
                        assert not all(r.is_zero() for r in outs)
                if cap is not None:
                    outs = compose_check(p, perturbed, direction)
                    refs = _compose_check_reference(p, perturbed, direction, max(cap - 1, 0))
                    for out, ref in zip(outs, refs):
                        _same(out, ref)


def test_compose_check_defaults_to_one_degree_below_the_pair_cap():
    pair = invert_general(WORKED, 3, z_cap=2)
    for direction in ("fg", "gf"):
        # composing the truncated pair exactly leaves coordinates 2-4 nonzero
        exact = _compose_check_reference(WORKED, pair, direction, None)
        assert [r.is_zero() for r in exact] == [True, False, False, False]
        for residual in compose_check(WORKED, pair, direction):
            assert residual.is_zero() and residual.z_trunc == 1
        assert all(r.z_trunc == 2 for r in compose_check(WORKED, pair, direction, z_cap=2))


def _fixed_point_reference(p, t_order, z_cap):
    """G <- z + t (grad P)(G) on series, one compose_poly per coordinate and round."""
    n = p.arity
    base = [TGraded.from_poly(Poly.variable(i, n), t_order + 1, z_cap) for i in range(n)]
    g = list(base)
    for _ in range(t_order):
        g = [base[i] + _shift(compose_poly(partial(p, i), g, t_order, z_cap), 1)
             for i in range(n)]
    return [[g[i].coeff(j) for i in range(n)] for j in range(t_order + 1)]


def test_fixed_point_layers_match_the_series_route_on_non_hn_input():
    rng = random.Random(23)
    sources = [random_order2_poly(rng, n, 4) for n in (2, 3, 3)] + [parse("z1^2*z2")]
    for p in sources:
        assert not is_hn(p).is_hn
        for t_order in (1, 3, 4):
            for cap in (None, 0, 2, 4):
                layers = invert_fixed_point(p, t_order, cap)
                assert [list(v) for v in layers] == _fixed_point_reference(p, t_order, cap)
    with pytest.raises(ValueError, match="nonnegative"):
        invert_fixed_point(WORKED, 2, -1)


def test_heat_residual_matches_the_series_route_off_the_solution():
    for p in (WORKED, build_member(4, 3, "ph", {}, 7)[0]):
        for t_order, cap in ((1, None), (3, None), (4, None), (4, 5), (3, 1)):
            perturbed = _doubled_q2(invert_hn(p, t_order, z_cap=cap))
            for s in (gr(1), gr(1, 1), gr(Fraction(-2, 7))):
                for z_cap in (0, 2, 6):
                    out = heat_residual(p, perturbed, s, z_cap)
                    u = reference_exp(perturbed.q.scale(s), z_cap)
                    ref = u.dt() - u.map_coeffs(laplacian, z_drop=2).scale(1 / (2 * s))
                    _same(out, ref)
                    if t_order > 1 and cap is None and z_cap == 6:
                        assert not out.is_zero()


def test_laplacian_burgers_residual_matches_the_series_route_off_the_solution():
    for p in OFF_SOLUTION_SOURCES:
        for t_order, cap in ((1, None), (4, None), (4, 5), (5, 3), (3, 1), (3, 0)):
            pair = invert_general(p, t_order, z_cap=cap)
            # a linear term in Q_[1] makes Q_t^2 reach past the cap of the slots it squares
            linear = TGraded(p.arity, [pair.q.coeffs[0] + Poly.variable(0, p.arity)]
                             + pair.q.coeffs[1:], t_order, cap)
            for q in (pair.q, _doubled_q2(pair).q, linear):
                out = burgers_residual(DeformedPair(p, q, t_order, "perturbed"), "laplacian")
                ref = q.dt() - (q * q).map_coeffs(laplacian, z_drop=2).scale(Fraction(1, 4))
                _same(out, ref)


def _exp_formula_rhs_reference(p, s, cap, t_order):
    """sum_k t^k Delta^k exp(s P) / ((2s)^k k!) by Poly Laplacians and scalings."""
    term, slots = exp_truncated(p, s, cap + 2 * (t_order - 1)), []
    for k in range(t_order):
        term = laplacian(term) if k else term
        slots.append(term.truncate(cap).scale(1 / ((2 * s) ** k * math.factorial(k))))
    return TGraded(p.arity, slots, t_order, cap)


def test_exp_formula_sides_share_the_pair_cap():
    pair = invert_hn(WORKED, 4, z_cap=3)
    for s in (gr(1), gr(1, 1), gr(Fraction(-2, 7))):
        lhs, rhs = exp_formula_check(WORKED, pair, s, 8)
        assert lhs == rhs and lhs.z_trunc == rhs.z_trunc == 3
        _same(lhs, reference_exp(pair.q.scale(s), 8))
        _same(rhs, _exp_formula_rhs_reference(WORKED, s, 3, 4))
        _, exact_rhs = exp_formula_check(WORKED, invert_hn(WORKED, 4), s, 8)
        _same(exact_rhs, _exp_formula_rhs_reference(WORKED, s, 8, 4))
