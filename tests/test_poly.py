"""Sparse polynomial ring, text grammar, and truncated exponentials."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hesnil import GaussianRational, Poly, exp_truncated, format_poly, gr, parse
from hesnil import partial
import hesnil.poly
from hesnil.poly import MAX_POWER_TERMS, MAX_POWER_WORK, MAX_PRODUCT_PAIRS, _Packed, _poly_dot

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
scalars = st.builds(GaussianRational, rationals, rationals)


@st.composite
def poly_of_arity(draw, arity, max_exp=2, max_terms=5):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(0, max_exp)) for _ in range(arity))
        coeff = draw(scalars)
        terms[mono] = terms.get(mono, GaussianRational(0)) + coeff
    return Poly(arity, terms)


@st.composite
def poly_triples(draw, max_arity=4):
    arity = draw(st.integers(1, max_arity))
    return tuple(draw(poly_of_arity(arity)) for _ in range(3))


def test_constructors_and_measures():
    z1 = Poly.variable(0, 2)
    z2 = Poly.variable(1, 2)
    p = z1 * z1 * z2
    assert p.degree() == 3
    assert p.order() == 3
    assert p.is_homogeneous() == 3
    q = p + Poly.one(2)
    assert q.order() == 0
    assert q.is_homogeneous() is None
    zero = Poly.zero(2)
    assert zero.is_zero()
    assert zero.degree() == -1
    assert zero.order() == math.inf


def test_isotropic_square_sum_collapses():
    z1 = Poly.variable(0, 2)
    z2 = Poly.variable(1, 2)
    i = Poly.constant(2, gr(0, 1))
    lhs = (z1 + i * z2) ** 2 + (z1 - i * z2) ** 2
    assert lhs == z1 ** 2 * 2 - z2 ** 2 * 2
    assert lhs == parse("2*z1^2 - 2*z2^2")


def test_evaluate_at_point():
    p = parse("(z1+i*z2)^3")
    assert p.evaluate([1, 0]) == gr(1)
    assert p.evaluate([0, 1]) == gr(0, -1)
    with pytest.raises(ValueError):
        p.evaluate([1])
    # zero, constants, and points with zero coordinates
    assert Poly.zero(2).evaluate([1, 2]) == gr(0)
    assert Poly.constant(2, gr(3, -1)).evaluate([5, 7]) == gr(3, -1)
    assert Poly.constant(0, 4).evaluate([]) == gr(4)
    q = parse("z1^2*z2 + 3*z2 - 2")
    assert q.evaluate([0, 0]) == q.evaluate([5, 0]) == gr(-2)
    assert q.evaluate([0, gr(0, 1)]) == gr(-2, 3)


def test_truncate_and_graded_piece():
    p = parse("z1^4 + z1^2*z2 + 3*z2 + 1")
    assert p.truncate(2) == parse("3*z2 + 1", arity=2)
    assert p.graded_piece(3) == parse("z1^2*z2")
    assert p.graded_piece(5).is_zero()


def test_substitute_linear_doubles_variables():
    p = parse("z1^2")
    q = p.substitute_linear([[1, gr(0, 1)]])
    assert q == parse("u1^2 + 2*i*u1*v1 - v1^2")


def test_substitute_linear_with_shift():
    p = parse("z1^2")
    q = p.substitute_linear([[1]], shift=[2])
    assert q == parse("z1^2 + 4*z1 + 4")


def test_substitute_linear_zero_rows_and_small_targets():
    p = parse("z1*z2 + z2^2 + z1")
    # a zero row sends z1 to 0; with a shift, to a constant
    assert p.substitute_linear([[0, 0], [1, 2]]) == parse("z1^2 + 4*z1*z2 + 4*z2^2")
    assert p.substitute_linear([[0, 0], [1, 0]], shift=[3, 0]) == parse("z1^2 + 3*z1 + 3",
                                                                        arity=2)
    # onto arity 1, and onto arity 0, where only the shift is left
    assert p.substitute_linear([[1], [gr(0, 1)]]) == parse("(-1 + i)*z1^2 + z1")
    assert p.substitute_linear([[], []], shift=[2, 3]) == Poly.constant(0, 17)
    assert Poly.zero(2).substitute_linear([[1], [1]], shift=[1, 1]) == Poly.zero(1)


def test_substitute_linear_validates_shapes():
    p = parse("z1*z2")
    with pytest.raises(ValueError):
        p.substitute_linear([[1, 0]])
    with pytest.raises(ValueError):
        p.substitute_linear([[1, 0], [0]])
    with pytest.raises(ValueError):
        p.substitute_linear([[1, 0], [0, 1]], shift=[1])


def test_parse_grammar_example():
    p = parse("3/2*z1^2*z2 - i*z3")
    assert p.arity == 3
    assert p.terms[(2, 1, 0)] == gr("3/2")
    assert p.terms[(0, 0, 1)] == gr(0, -1)


def test_parse_uv_style_maps_to_doubled_arity():
    p = parse("u1*v2")
    assert p.arity == 4
    assert p.terms[(1, 0, 0, 1)] == gr(1)
    q = parse("u1^2", arity=6)
    assert q.arity == 6


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse("z1 + u1")
    with pytest.raises(ValueError):
        parse("z0")
    with pytest.raises(ValueError):
        parse("z1 $ z2")
    with pytest.raises(ValueError):
        parse("z3", arity=2)
    with pytest.raises(ValueError):
        parse("u2", arity=3)
    with pytest.raises(ValueError):
        parse("z1 + ")


def test_parse_bounds_the_terms_of_a_power():
    # (z1 + z2 + z3)^2000 could have C(2002, 2) terms: refused before any product
    with pytest.raises(ValueError, match="3-term base to the power 2000"):
        parse("(z1+z2+z3)^2000")
    with pytest.raises(ValueError, match="2-term base"):
        parse(f"(z1 + z2)^{MAX_POWER_TERMS}")
    # the largest power of a 4-term base within the bound has exactly that many terms
    e = max(e for e in range(100) if math.comb(e + 3, 3) <= MAX_POWER_TERMS)
    assert len(parse(f"(z1 + z2 + z3 + z4)^{e}").terms) == math.comb(e + 3, 3)
    with pytest.raises(ValueError):
        parse(f"(z1 + z2 + z3 + z4)^{e + 1}")
    # a monomial or zero base has at most one term at every exponent
    assert parse("z1^2000") == Poly(1, {(2000,): 1})
    assert parse("(2*z1*z2)^2000") == Poly(2, {(2000, 2000): 2 ** 2000})
    assert parse("0^2000") == Poly.zero(0)


@pytest.mark.parametrize("text, terms, bits", [
    ("(z1+z2)^999", 1000, 999 * 2),
    ("(z1+z2+z3)^61", 1953, 61 * 2),
    ("(z1+z2+z3+z4)^20", 1771, 20 * 3),
    ("(z1+z2)^1999", 2000, 1999 * 2),
    # 2 * 123456789 has 28 bits
    ("(123456789*z1+z2)^999", 1000, 999 * 28),
    # the denominators count: 1/3 and 7/5 are 5/15 and 21/15, and 2 * 15 * 21 has 10 bits;
    # 2 * 21 alone has 6, which would admit this power
    ("(1/3*z1+7/5*z2)^640", 641, 640 * 10),
])
def test_parse_bounds_the_work_of_a_power(text, terms, bits):
    # every power here is within MAX_POWER_TERMS; its work is terms^2 times coefficient bits
    assert terms <= MAX_POWER_TERMS
    if terms * terms * bits <= MAX_POWER_WORK:
        assert len(parse(text).terms) == terms
    else:
        exponent = text.split("^")[1]
        with pytest.raises(ValueError, match=f"power {exponent} needs more than MAX_POWER_WORK"):
            parse(text)


def test_parse_bounds_the_term_pairs_of_a_product(monkeypatch):
    # two powers within MAX_POWER_TERMS, 1771 terms each: refused before the product
    assert 1771 * 1771 > MAX_PRODUCT_PAIRS
    with pytest.raises(ValueError, match="1771-term and a 1771-term factor"):
        parse("(z1+z2+z3+z4)^20*(z5+z6+z7+z8)^20")
    # at the bound a product is taken; each step of a chain is bounded on its own
    monkeypatch.setattr(hesnil.poly, "MAX_PRODUCT_PAIRS", 12)
    assert len(parse("(z1+z2+z3)*(z4+z5+z6+z7)").terms) == 12
    assert len(parse("(z1+z2+z3)*(z4+z5+z6+z7)*5*z8").terms) == 12
    with pytest.raises(ValueError, match="12-term and a 2-term factor"):
        parse("(z1+z2+z3)*(z4+z5+z6+z7)*(z8+z9)")
    with pytest.raises(ValueError, match="a 5-term and a 3-term factor"):
        parse("(z1+z2+z3+z4+z5)*(z6+z7+z8)")


def test_parse_handles_unicode_minus_and_whitespace():
    assert parse("z1 − z2") == parse("z1 - z2")
    assert parse("  3 * z1 ") == parse("3*z1")


def test_format_ordering_and_signs():
    p = parse("z2^2 - z1^3 + i*z1*z2 + 1/2")
    assert format_poly(p) == "-z1^3 + i*z1*z2 + z2^2 + 1/2"
    assert format_poly(Poly.zero(2)) == "0"
    mixed = parse("(1+2*i)*z1")
    assert format_poly(mixed) == "(1+2*i)*z1"
    # one case per coefficient shape: the sign is pulled out unless mixed
    for text in ("z1", "-z1", "2/3*z1", "-2/3*z1", "i*z1", "-i*z1", "3/4*i*z1",
                 "-3/4*i*z1", "(1/2-i)*z1", "(-2-5/3*i)*z1", "z1 + 1", "z1 - 7/2",
                 "z1 - i", "z1 + (1-i)"):
        assert format_poly(parse(text, arity=1)) == text


def test_format_uv_style():
    p = parse("u2^2*v1")
    assert format_poly(p, style="uv") == "u2^2*v1"


def test_exp_truncated_matches_series():
    p = parse("z1^2")
    assert exp_truncated(p, 2, 4) == parse("2*z1^4 + 2*z1^2 + 1")
    assert exp_truncated(Poly.zero(1), 5, 3) == Poly.one(1)
    with pytest.raises(ValueError):
        exp_truncated(Poly.one(1), 1, 3)


@given(poly_triples())
@settings(max_examples=60)
def test_ring_axioms(triple):
    a, b, c = triple
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * Poly.one(a.arity) == a
    assert (a - a).is_zero()


@given(poly_triples())
@settings(max_examples=60)
def test_parse_format_roundtrip(triple):
    p = triple[0]
    text = format_poly(p)
    assert parse(text, arity=p.arity) == p


@given(poly_of_arity(2, max_exp=2, max_terms=3))
@settings(max_examples=30)
def test_exp_of_opposite_scales_cancel(p):
    q = p.graded_piece(1) + p.graded_piece(2)
    if q.is_zero():
        return
    n = 6
    prod = exp_truncated(q, 1, n) * exp_truncated(q, -1, n)
    assert prod.truncate(n) == Poly.one(2)


@given(poly_of_arity(3))
@settings(max_examples=40)
def test_power_matches_repeated_product(p):
    assert p ** 3 == p * p * p
    assert p ** 0 == Poly.one(3)


SCALED = Poly(3, {(2, 0, 1): gr(Fraction(3, 7), Fraction(-1, 11)), (0, 1, 0): Fraction(5, 13),
                  (0, 0, 0): gr(0, 2), (1, 1, 1): -1, (0, 0, 4): gr(Fraction(14, 3), 17)})


@pytest.mark.parametrize("c", [0, 1, -1, gr(0, 1), gr(0, Fraction(-1, 17)),
                               gr(Fraction(3, 7), Fraction(-2, 11)), 6, Fraction(-14, 3), "7/5"])
def test_scale_matches_termwise_product(c):
    g = GaussianRational.coerce(c)
    for p in (SCALED, Poly.zero(3), Poly.zero(0), Poly.constant(0, gr(Fraction(1, 7), 3))):
        out = p.scale(c)
        assert out.terms == {m: k * g for m, k in p.terms.items() if k * g}
        for k in out.terms.values():
            assert k
            for part in (k.re, k.im):
                assert type(part) is Fraction and part.denominator > 0
                assert math.gcd(part.numerator, part.denominator) == 1
        assert p * c == out and c * p == out


def _dot_termwise(arity, pairs, weights=None):
    """sum of w * a * b by the termwise route: one product, scale and sum per pair."""
    total = Poly.zero(arity)
    for j, (a, b) in enumerate(pairs):
        total = total + (a * b).scale(weights[j] if weights else 1)
    return total


def _pairs(arity, *texts):
    """Consecutive texts as (a, b) pairs of polynomials of this arity."""
    polys = [parse(t, arity=arity) for t in texts]
    return list(zip(polys[::2], polys[1::2]))


DOT_CASES = {
    "empty, arity 0": (0, [], None),
    "empty, arity 3": (3, [], None),
    "zero factor": (2, _pairs(2, "z1 + i*z2", "0", "z1", "z2^2"), None),
    "weights 0, 1 and 2": (2, _pairs(2, "z1^2 - z2", "z2 + 3", "i*z1", "z1*z2",
                                     "z2", "z2 - 1/2*z1"), [0, 1, 2]),
    "over 7, 11 and 13": (3, _pairs(3, "(1/7 + 2/11*i)*z1^2 + 3/13*z3", "(5/13 - 1/7*i)*z2 + 4/11",
                                    "1/11*i*z1*z2 - 2/7", "1/13*z1 + 3*z3"), [2, 1]),
    "cancels to zero": (2, _pairs(2, "1/7*z1 + 1/11*i*z2", "z1 - z2",
                                  "1/7*z1 + 1/11*i*z2", "z2 - z1"), None),
    "cancels in some terms": (2, _pairs(2, "1/7*z1 + 1/11*z2", "z1 + i*z2",
                                        "1/7*z1", "-z1"), [1, 1]),
}


@pytest.mark.parametrize("name", list(DOT_CASES))
def test_poly_dot_matches_the_termwise_route(name):
    arity, pairs, weights = DOT_CASES[name]
    out = _poly_dot(arity, pairs, weights)
    assert out.arity == arity
    assert out == _dot_termwise(arity, pairs, weights)
    for k in out.terms.values():
        assert k
        for part in (k.re, k.im):
            assert type(part) is Fraction and math.gcd(part.numerator, part.denominator) == 1
    if name.startswith("empty") or name == "cancels to zero":
        assert out.terms == {}


def test_evaluate_is_ring_morphism():
    a = parse("z1^2 + i*z2")
    b = parse("z2^3 - 2*z1")
    point = [gr(2, 1), gr("1/2")]
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


PACKED_CASES = {
    "over 7, 11 and 13": (3, "(1/7 + 2/11*i)*z1^3*z3 + 3/13*z3^2 - 5/11*i*z1*z2 + 4/7"),
    "zero": (3, "0"),
    "arity 1": (1, "1/7*z1^4 - 2/13*i*z1 + 3/11"),
    "z2 absent": (3, "1/11*z1^2*z3 + z3^5 - 2/7*i*z1 + 1/13*z3"),
}


@pytest.mark.parametrize("name", list(PACKED_CASES))
def test_packed_partial_and_truncate_match_the_poly_routes(name):
    arity, text = PACKED_CASES[name]
    p = parse(text, arity=arity)
    # the tightest field width the degree allows, and a roomier one
    for top in (max(p.degree(), 0), 2 * p.degree() + 9):
        form = _Packed.of(p, top)
        for i in range(arity):
            d = form.partial(i)
            assert len({k for k, _, _ in d.terms}) == len(d.terms)
            assert all(r or im for _, r, im in d.terms)
            assert d.poly() == partial(p, i)
        for deg in range(-1, p.degree() + 2):
            assert form.truncate(deg).poly() == p.truncate(deg)
    if name == "z2 absent":
        assert _Packed.of(p, p.degree()).partial(1).terms == []


@given(poly_triples())
@settings(max_examples=40)
def test_sub_matches_adding_the_negation(triple):
    a, b, _ = triple
    assert a - b == a + (-b)
    assert all(c for c in (a - b).terms.values())
    assert (a - a).terms == {}
    assert a - 3 == a + Poly.constant(a.arity, -3) and 3 - a == Poly.constant(a.arity, 3) + (-a)
    with pytest.raises(ValueError, match="arity mismatch"):
        a - Poly.zero(a.arity + 1)


def _exp_termwise(p, s, max_degree):
    """sum s^k p^k / k! by one product, scale and sum per k, truncated at the end."""
    s, total, pk = GaussianRational.coerce(s), Poly.one(p.arity), Poly.one(p.arity)
    for k in range(1, max_degree + 1):
        pk = pk * p
        total = total + pk.scale(s ** k * Fraction(1, math.factorial(k)))
    return total.truncate(max_degree)


@pytest.mark.parametrize("s", [0, 1, gr(1, 1), gr(Fraction(-2, 7), Fraction(1, 11))])
def test_exp_truncated_matches_the_termwise_series(s):
    for text, arity in (("1/7*z1^2 - 3/11*i*z1*z2^2 + 1/13*z2^3", 2), ("z1^2", 1),
                        ("2/7*z1*z2 + i*z2^2*z3 - 1/11*z3^4", 3), ("1/13*z1 - i*z1^3", 1)):
        p = parse(text, arity=arity)
        for max_degree in range(0, 8):
            assert exp_truncated(p, s, max_degree) == _exp_termwise(p, s, max_degree)
    # below the order only the constant 1 survives
    assert exp_truncated(parse("z1^3 + z1*z2^2"), gr(1, 1), 2) == Poly.one(2)
