"""Deformed inversion pairs: the four routes, composition, and PDE identities."""

import random
from fractions import Fraction

import pytest

import hesnil.nilpotency
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
    exp_tilde_check,
    first_vanishing_index,
    gr,
    heat_residual,
    higher_dt_power_check,
    invert_closed,
    invert_fixed_point,
    invert_general,
    invert_hn,
    pair_from_fixed_point,
    parse,
    potential_from_gradient,
    power_flow_check,
    qt_power,
)
from hesnil import PolyVector, build_member, grad_pair, partial
from conftest import build_hn_corpus, count_squares, random_order2_poly

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
    # compose_check and the fixed-point iteration both run through compose_poly
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
def test_closed_form_cross_checks_both_criteria(monkeypatch, member):
    kind, n, d = HN_MEMBERS[member]
    p, _ = build_member(n, d, kind, {}, 7)
    # a matrix route that disagrees with the Laplacian route is a bug, never a verdict
    monkeypatch.setattr(hesnil.nilpotency, "trace_powers", lambda q: [Poly.one(q.arity)])
    with pytest.raises(CriterionMismatchError):
        invert_closed(p, 4)
    with pytest.raises(CriterionMismatchError):
        qt_power(p, 2, 4)


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
