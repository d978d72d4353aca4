"""Truncated series in t with polynomial coefficients."""

from fractions import Fraction
from typing import Callable, Sequence

import pytest

from hesnil import Poly, TGraded, build_member, compose_poly, exp_tgraded, gr, parse
from conftest import reference_exp


def tg(slot_texts, t_order=None, z_trunc=None, arity=None):
    polys = [parse(s, arity=arity) for s in slot_texts]
    n = arity if arity is not None else max(p.arity for p in polys)
    polys = [parse(s, arity=n) for s in slot_texts]
    return TGraded(n, polys, t_order or len(polys), z_trunc)


def test_construction_pads_and_validates():
    a = TGraded(1, [parse("z1")], 3)
    assert a.coeff(0) == parse("z1")
    assert a.coeff(1).is_zero()
    assert a.coeff(2).is_zero()
    with pytest.raises(IndexError):
        a.coeff(3)
    with pytest.raises(IndexError):
        a.coeff(-1)
    with pytest.raises(ValueError):
        TGraded(1, [parse("z1")] * 4, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        TGraded(1, [parse("z1")], 3, z_trunc=-1)
    assert TGraded(1, [parse("z1")], 3, z_trunc=0).is_zero()


def test_z_trunc_applies_on_construction():
    a = TGraded(1, [parse("z1^3 + z1")], 1, z_trunc=2)
    assert a.coeff(0) == parse("z1")


def test_addition_and_window_join():
    a = tg(["z1", "z1^2"], t_order=3)
    b = tg(["1", "z1^2"], t_order=2, arity=1)
    s = a + b
    assert s.t_order == 2
    assert s.coeff(0) == parse("z1 + 1")
    assert s.coeff(1) == parse("2*z1^2")


def test_multiplication_is_convolution():
    a = tg(["1", "z1", "z1^2"])
    prod = a * a
    assert prod.coeff(0) == parse("1", arity=1)
    assert prod.coeff(1) == parse("2*z1")
    assert prod.coeff(2) == parse("3*z1^2")


def reference_product(a: TGraded, b: TGraded) -> TGraded:
    """a * b slot by slot: a Poly sum of Poly products, then the joint caps."""
    t = min(a.t_order, b.t_order)
    caps = [c for c in (a.z_trunc, b.z_trunc) if c is not None]
    slots = []
    for j in range(t):
        total = Poly.zero(a.arity)
        for i in range(j + 1):
            total = total + a.coeffs[i] * b.coeffs[j - i]
        slots.append(total.truncate(min(caps)) if caps else total)
    return TGraded(a.arity, slots, t, min(caps) if caps else None)


@pytest.mark.parametrize("a,b", [
    (tg(["z1^2 + 1/7*z2", "i*z1*z2", "1/11*z2^3 - z1"], z_trunc=4),
     tg(["1/13", "z1 - i*z2", "z2^2", "1/3*z1^2*z2"], z_trunc=2)),
    (tg(["z1", "z1^2 + z2"], t_order=3), tg(["1/2*z2^2", "(1+i)*z1"], z_trunc=3, arity=2)),
    (TGraded.zero(2, 3), tg(["z1 + z2", "z1*z2"], t_order=3)),
    (TGraded.zero(2, 4, z_trunc=1), TGraded.zero(2, 2)),
    (TGraded.zero(2, 0), tg(["z1 + z2"], z_trunc=5)),
])
def test_product_matches_slot_by_slot_reference(a, b):
    for x, y in ((a, b), (b, a)):
        prod, ref = x * y, reference_product(x, y)
        assert (prod.t_order, prod.z_trunc) == (ref.t_order, ref.z_trunc)
        assert prod.coeffs == ref.coeffs


def test_z_trunc_propagates_via_min():
    a = tg(["z1"], z_trunc=4)
    b = tg(["z1"], z_trunc=2)
    assert (a * b).z_trunc == 2
    assert (a + b).z_trunc == 2
    assert a.scale(3).z_trunc == 4


def test_power_matches_repeated_product():
    a = tg(["1", "z1"], t_order=4)
    assert a ** 3 == a * a * a
    assert (a ** 0).coeff(0) == Poly.one(1)


def test_dt_shifts_and_scales():
    a = tg(["z1", "z1^2", "z1^3"])
    da = a.dt()
    assert da.t_order == 2
    assert da.coeff(0) == parse("z1^2")
    assert da.coeff(1) == parse("2*z1^3")
    with pytest.raises(ValueError):
        tg(["z1"]).dt().dt()


def test_truncations():
    a = tg(["z1^3", "z1^2", "z1"], t_order=3)
    assert a.truncate_t(2).t_order == 2
    assert a.truncate_z(2).coeff(0).is_zero()
    assert a.truncate_z(2).coeff(1) == parse("z1^2")


def test_equality_ignores_window_metadata_only_on_shared_slots():
    a = tg(["z1", "0"], arity=1)
    b = tg(["z1"], t_order=2, arity=1)
    assert a == b
    c = tg(["z1", "z1"], arity=1)
    assert a != c


def test_compose_poly_translates_argument():
    p = parse("z1^2")
    value = TGraded(1, [parse("z1"), Poly.one(1)], 3)
    out = compose_poly(p, [value], 3)
    assert out.coeff(0) == parse("z1^2")
    assert out.coeff(1) == parse("2*z1")
    assert out.coeff(2) == Poly.one(1)


def test_compose_poly_multivariate():
    p = parse("z1*z2")
    v1 = TGraded(2, [parse("z1", arity=2), parse("z2", arity=2)], 2)
    v2 = TGraded(2, [parse("z2", arity=2), Poly.zero(2)], 2)
    out = compose_poly(p, [v1, v2], 2)
    assert out.coeff(0) == parse("z1*z2")
    assert out.coeff(1) == parse("z2^2")


def test_exp_tgraded_nilpotent_head():
    a = TGraded(1, [Poly.zero(1), parse("z1")], 3)
    e = exp_tgraded(a)
    assert e.coeff(0) == Poly.one(1)
    assert e.coeff(1) == parse("z1")
    assert e.coeff(2) == parse("1/2*z1^2")


def test_exp_tgraded_constant_head_needs_cap():
    a = TGraded(1, [parse("z1"), parse("z1")], 2)
    with pytest.raises(ValueError):
        exp_tgraded(a)
    e = exp_tgraded(a, z_trunc=3)
    assert e.coeff(0) == parse("1/6*z1^3 + 1/2*z1^2 + z1 + 1")
    assert e.coeff(1) == parse("1/2*z1^3 + z1^2 + z1")


def test_exp_tgraded_multiplicative_on_commuting_args():
    a = TGraded(1, [Poly.zero(1), parse("z1")], 4)
    b = TGraded(1, [Poly.zero(1), parse("2*z1")], 4)
    assert exp_tgraded(a) * exp_tgraded(b) == exp_tgraded(a + b)


def test_empty_window_is_a_valid_series():
    p = parse("z1^2 + 1/7*z1 + 3")
    empties = [
        TGraded.from_poly(p, 0),
        compose_poly(p, [tg(["z1", "z1^2"])], 0),
        compose_poly(Poly.constant(0, 5), [], 0),
        TGraded(1, [], 0) ** 2,
        exp_tgraded(TGraded(1, [], 0)),
        exp_tgraded(tg(["z1", "z1^2"]).truncate_t(0), z_trunc=3),
        tg(["z1"]).dt(),
    ]
    for e in empties:
        assert (e.t_order, e.coeffs) == (0, [])


def substitute(p: Poly, images: Sequence, lift: Callable, zero):
    """sum of lift(c) * prod_j images[j]^e_j over the terms c z^e of p.

    Works in any ring whose elements support *, + and **; each power of an
    image is formed once and shared by every term that uses it.
    """
    powers: list = [{} for _ in images]
    total = zero
    for mono, coeff in p.terms.items():
        prod = lift(coeff)
        for j, e in enumerate(mono):
            if not e:
                continue
            cache = powers[j]
            if e not in cache:
                cache[e] = images[j] ** e
            prod = prod * cache[e]
        total = total + prod
    return total


def reference_compose(p: Poly, values, t_order: int, z_trunc=None) -> TGraded:
    """compose_poly through the generic substitution loop: one series product per
    factor, each power of a value rebuilt by repeated products from one."""
    arity = values[0].arity
    one = TGraded.from_poly(Poly.one(arity), t_order, z_trunc)
    vals = [v.truncate_t(min(v.t_order, t_order)) for v in values]
    return substitute(p, vals, one.scale, TGraded.zero(arity, t_order, z_trunc))


def gaussian_line(re: Fraction, im: Fraction) -> Poly:
    return parse("z1 + z2").scale(gr(re, im))


COMPOSE_VALUES = {
    "a": tg(["z1 + 1/7*z2", "i*z2", "1/11*z1^2"], t_order=4, arity=2),
    "b": TGraded(2, [parse("z2", arity=2), gaussian_line(Fraction(2, 13), Fraction(-1, 7))]),
    "c": tg(["z1^2 - z2", "1/13*z1*z2", "z2^3"], z_trunc=4),
    "short": TGraded(2, [gaussian_line(Fraction(1, 11), Fraction(3, 13))], 1, z_trunc=0),
}
COMPOSE_POLYS = {
    "mixed": parse("1/7*z1^2*z2 + 2/11*i*z2^3 - 1/13*z1 + 5"),
    "exponent 5": parse("z1^5 - 3/7*i*z1^4 + z2", arity=2),
    "exponents 4 and 2": parse("(1/11+i)*z1^4*z2^2 + 1/13*i", arity=2),
    "constant": Poly.constant(2, gr(Fraction(1, 7), Fraction(-1, 11))),
    "zero": Poly.zero(2),
    "three variables": parse("1/7*z1*z2*z3^2 + i*z1^2*z3 - z2 + 1/13*z1*z2*z3", arity=3),
}


@pytest.mark.parametrize("name", sorted(COMPOSE_POLYS))
def test_compose_matches_substitution_reference(name):
    p = COMPOSE_POLYS[name]
    orders = ("ab", "ba", "ca", "bc") if p.arity == 2 else ("abc", "cab", "bca")
    for order in orders:
        values = [COMPOSE_VALUES[name] for name in order]
        for t_order in (1, 3, 5):
            for cap in (None, 0, 3):
                out, ref = compose_poly(p, values, t_order, cap), reference_compose(
                    p, values, t_order, cap)
                assert (out.t_order, out.z_trunc, out.coeffs) == (
                    ref.t_order, ref.z_trunc, ref.coeffs)


def test_compose_ignores_the_windows_of_unused_variables():
    p = parse("z1^3 - 1/7*i*z1", arity=2)
    a, short = COMPOSE_VALUES["a"], COMPOSE_VALUES["short"]
    for cap in (None, 3):
        out = compose_poly(p, [a, short], 5, cap)
        assert (out.t_order, out.z_trunc) == (4, cap)
        ref = reference_compose(p, [a, short], 5, cap)
        assert (out.t_order, out.z_trunc, out.coeffs) == (ref.t_order, ref.z_trunc, ref.coeffs)
    used = compose_poly(parse("z1^3 - z2", arity=2), [a, short], 5, 3)
    assert (used.t_order, used.z_trunc) == (1, 0)


def test_compose_arity_zero_and_mismatch():
    c = Poly.constant(0, gr(Fraction(1, 7), Fraction(2, 13)))
    out = compose_poly(c, [], 3, 2)
    assert (out.t_order, out.z_trunc, out.coeffs) == (3, 2, [c, Poly.zero(0), Poly.zero(0)])
    with pytest.raises(ValueError):
        compose_poly(parse("z1*z2"), [COMPOSE_VALUES["a"], tg(["z1"], arity=3)], 2)
    with pytest.raises(ValueError):
        compose_poly(parse("z1*z2"), [COMPOSE_VALUES["a"]], 2)


def test_substitute_linear_matches_the_generic_loop_on_a_light_cone_map():
    # P^3 of the ph n=8, d=4 member at trial seed 1000004 in (z, w), z = u + iv and w = u - iv:
    # u_j = (z_j + w_j) / 2 and v_j = i (w_j - z_j) / 2 take its 778 terms to 112
    p, _ = build_member(8, 4, "ph", {}, 1000004)
    cube, h = p * p * p, 4

    def rows(a, b):  # variable j to a[0] x_j + a[1] x_(h+j), variable h + j likewise by b
        return [[c[0] if k == j else c[1] if k == h + j else 0 for k in range(2 * h)]
                for c in (a, b) for j in range(h)]

    half = gr(Fraction(1, 2))
    forward = rows((half, half), (gr(0, Fraction(-1, 2)), gr(0, Fraction(1, 2))))
    light = cube.substitute_linear(forward)
    assert (len(cube.terms), len(light.terms)) == (778, 112)
    images = [Poly(2 * h, {tuple(int(k == t) for k in range(2 * h)): c for t, c in enumerate(r)})
              for r in forward]
    assert light == substitute(cube, images, lambda c: Poly.constant(2 * h, c), Poly.zero(2 * h))
    assert light.substitute_linear(rows((1, gr(0, 1)), (1, gr(0, -1)))) == cube


def test_compose_poly_keeps_each_polynomial_its_own_window_and_cap():
    # series of t_order 5 (uncapped), 3 (capped at 4) and 2 (capped at 0)
    values = [tg(["z1 + 1/7*z2", "i*z2", "1/11*z1^2", "z1*z2", "1/13*z2^2"], arity=3),
              tg(["1/7*z2 + i*z3", "z1^2 - z3", "2/11*z2"], z_trunc=4, arity=3),
              tg(["z3 + z1", "1/13*i*z2^2"], z_trunc=0, arity=3)]
    cases = [
        (parse("z1^2", arity=3), 5),  # window 5: only the first series is read
        (parse("1/7*z1^3*z2 - i*z2^2 + 3", arity=3), 5),
        (parse("z2^3 + 1/11*z1", arity=3), 4),
        (parse("z3*z1^2 + 2/13*i*z1^4", arity=3), 5),
        (parse("z1^2", arity=3), 1),
        (Poly.constant(3, gr(Fraction(1, 7), 1)), 4),
        (Poly.zero(3), 3),
    ]
    for cap in (None, 2, 5):
        for p, t in cases:
            out = compose_poly(p, values, t, cap)
            ref = reference_compose(p, values, t, cap)
            assert (out.t_order, out.z_trunc, out.coeffs) == (ref.t_order, ref.z_trunc, ref.coeffs)


EXP_HEADS = ["0", "z1^2 - 1/7*z2", "(2/3 + i)*z1*z2 - 1/11*i*z2^3", "1/5*z1 + z2^2",
             "i*z1^3 + 3/13*z1*z2^2"]
EXP_TAILS = [[], ["i*z2"], ["z1^2", "1/7*z1*z2 - i"], ["0", "1/11*z2^3", "(1 - i)*z1"],
             ["2/13*i*z1^2*z2", "z2^2", "1/3", "z1*z2^2"]]


@pytest.mark.parametrize("head", EXP_HEADS)
def test_exp_tgraded_matches_the_series_route(head):
    # 5 heads x 5 tails x t_order 0-4 x caps None, 0, 2, 4, 7: 625 cases
    for tail in EXP_TAILS:
        slots = [parse(text, arity=2) for text in [head] + tail]
        for t_order in range(5):
            a = TGraded(2, slots[:t_order], t_order)
            for cap in (None, 0, 2, 4, 7):
                if cap is None and t_order and head != "0":
                    with pytest.raises(ValueError, match="needs a z-degree cap"):
                        exp_tgraded(a, cap)
                    continue
                ref = reference_exp(a, cap)
                # the cap given to exp_tgraded, or carried by the series itself
                for out in (exp_tgraded(a, cap), exp_tgraded(TGraded(2, a.coeffs, t_order, cap))):
                    assert (out.t_order, out.z_trunc, out.coeffs) == (
                        ref.t_order, ref.z_trunc, ref.coeffs)
