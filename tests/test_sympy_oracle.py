"""Differential oracle: Poly kernels against sympy's exact Q(i) arithmetic.

Every operation is recomputed by sympy over its QQ_I domain on small
random inputs (arity <= 3, or <= 4 for Hessians, Jacobians and gradient
pairings; <= 5 terms, degree <= 4) and compared coefficient for
coefficient.  Fixed cases aim at the integer-numerator kernel's edges:
arity 0 and 1, exponent sums that cross a packed-field width,
cancellation, and coprime denominators; products are also compared with a
termwise GaussianRational reference.  Matrix products, one fused dot
per entry, are checked entry by entry, with mixed denominators.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

sp = pytest.importorskip("sympy")

from hesnil import (  # noqa: E402
    GaussianRational, Poly, PolyMatrix, PolyVector, apply_D, grad_pair, hessian, jacobian,
    laplacian, partial, partial_multi)
from hesnil.diffops import cofactor_det  # noqa: E402

QQ_I = sp.QQ_I
ORACLE = settings(max_examples=25, deadline=None)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=30)
scalars = st.builds(GaussianRational, rationals, rationals)


def polys(arity):
    monos = st.tuples(*[st.integers(0, 4)] * arity).filter(lambda e: sum(e) <= 4)
    return st.dictionaries(monos, scalars, max_size=5).map(lambda t: Poly(arity, t))


arities = st.integers(1, 3)
single = arities.flatmap(polys)
pairs = arities.flatmap(lambda n: st.tuples(polys(n), polys(n)))


def sp_scalar(c: GaussianRational):
    return sp.Rational(c.re.numerator, c.re.denominator) \
        + sp.I * sp.Rational(c.im.numerator, c.im.denominator)


def symbols(prefix: str, k: int):
    return sp.symbols(f"{prefix}1:{k + 1}")


def to_sympy(p: Poly, gens=None):
    gens = gens or symbols("x", p.arity)
    terms = {m: QQ_I.from_sympy(sp_scalar(c)) for m, c in p.terms.items()}
    return sp.Poly.from_dict(terms, gens, domain=QQ_I)


@ORACLE
@given(pairs)
def test_product_partials_and_laplacian(pair):
    a, b = pair
    xs = symbols("x", a.arity)
    sa, sb = to_sympy(a), to_sympy(b)
    assert to_sympy(a * b) == sa * sb
    for i, x in enumerate(xs):
        assert to_sympy(partial(a, i)) == sa.diff(x)
    lap = sum((sa.diff((x, 2)) for x in xs[1:]), sa.diff((xs[0], 2)))
    assert to_sympy(laplacian(a)) == lap


@ORACLE
@given(single, scalars)
@example(Poly(2, {(1, 0): GaussianRational(0, 1)}), GaussianRational(0))
def test_scale(p, c):
    # built from the expression: mul_ground(0) leaves an unnormalised zero,
    # which compares unequal to the zero polynomial
    expected = sp.Poly(to_sympy(p).as_expr() * sp_scalar(c), *symbols("x", p.arity), domain=QQ_I)
    assert to_sympy(p.scale(c)) == expected
    assert canonical(p.scale(c))


@ORACLE
@given(pairs)
def test_apply_D(pair):
    f, g = pair
    xs = symbols("x", f.arity)
    sg = to_sympy(g)
    expected = sp.Poly(0, *xs, domain=QQ_I)
    for mono, c in f.terms.items():
        expected += sg.diff(*zip(xs, mono)) * sp_scalar(c)
    assert to_sympy(apply_D(f, g)) == expected


@ORACLE
@given(single.flatmap(lambda p: st.tuples(st.just(p), st.tuples(*[st.integers(0, 3)] * p.arity))))
@example((Poly(2, {(1, 2): GaussianRational(Fraction(1, 7), 2), (0, 1): 1}), (2, 0)))
@example((Poly(3, {(1, 1, 1): GaussianRational(0, Fraction(3, 11))}), (0, 0, 0)))
@example((Poly(1, {(2,): 1, (0,): Fraction(1, 13)}), (3,)))
def test_partial_multi(case):
    # orders run past the degree, so some derivatives vanish
    p, orders = case
    xs = symbols("x", p.arity)
    assert to_sympy(partial_multi(p, orders)) == to_sympy(p).diff(*zip(xs, orders))


# -- first and second partials from one packed form, arity 1-4 ------------------


def sparse_polys(arity):
    """At most 5 terms of degree <= 4, each monomial a multiset of variables."""
    monos = st.lists(st.integers(0, arity - 1), max_size=4).map(
        lambda vs: tuple(vs.count(i) for i in range(arity)))
    return st.dictionaries(monos, scalars, max_size=5).map(lambda t: Poly(arity, t))


up_to_four = st.integers(1, 4)


@ORACLE
@given(up_to_four.flatmap(sparse_polys))
def test_hessian(p):
    xs = symbols("x", p.arity)
    sp_p = to_sympy(p)
    got = hessian(p)
    assert [[to_sympy(h) for h in r] for r in got.rows] == [
        [sp_p.diff(x).diff(y) for y in xs] for x in xs]
    assert all(canonical(h) for r in got.rows for h in r)


@ORACLE
@given(up_to_four.flatmap(lambda n: st.lists(sparse_polys(n), min_size=1, max_size=4)))
def test_jacobian(entries):
    xs = symbols("x", entries[0].arity)
    got = jacobian(PolyVector(entries))
    assert [[to_sympy(h) for h in r] for r in got.rows] == [
        [to_sympy(p).diff(x) for x in xs] for p in entries]
    assert all(canonical(h) for r in got.rows for h in r)


@ORACLE
@given(up_to_four.flatmap(lambda n: st.tuples(sparse_polys(n), sparse_polys(n))))
def test_grad_pair(pair):
    a, b = pair
    xs = symbols("x", a.arity)
    sa, sb = to_sympy(a), to_sympy(b)
    expected = sp.Poly(0, *xs, domain=QQ_I)
    for x in xs:
        expected += sa.diff(x) * sb.diff(x)
    got = grad_pair(a, b)
    assert to_sympy(got) == expected and canonical(got)


@ORACLE
@given(single.flatmap(lambda p: st.tuples(st.just(p), st.lists(scalars, min_size=p.arity,
                                                                 max_size=p.arity))))
def test_evaluate(case):
    p, point = case
    xs = symbols("x", p.arity)
    value = to_sympy(p).as_expr().xreplace(dict(zip(xs, map(sp_scalar, point))))
    assert sp.expand(value) == sp_scalar(p.evaluate(point))


@st.composite
def substitutions(draw):
    p = draw(single)
    width = draw(arities)
    matrix = draw(st.lists(st.lists(scalars, min_size=width, max_size=width),
                           min_size=p.arity, max_size=p.arity))
    shift = draw(st.none() | st.lists(scalars, min_size=p.arity, max_size=p.arity))
    return p, matrix, shift, width


@ORACLE
@given(substitutions())
def test_substitute_linear(case):
    p, matrix, shift, width = case
    xs, ys = symbols("x", p.arity), symbols("y", width)
    images = {
        x: sum(sp_scalar(c) * y for c, y in zip(row, ys)) + (sp_scalar(shift[j]) if shift else 0)
        for j, (x, row) in enumerate(zip(xs, matrix))
    }
    expected = sp.Poly(to_sympy(p).as_expr().xreplace(images), *ys, domain=QQ_I)
    assert to_sympy(p.substitute_linear(matrix, shift), ys) == expected


@ORACLE
@given(st.integers(1, 4).flatmap(
    lambda k: st.lists(st.lists(scalars, min_size=k, max_size=k), min_size=k, max_size=k)))
def test_cofactor_det(rows):
    expected = sp.Matrix([[sp_scalar(c) for c in row] for row in rows]).det()
    assert sp.expand(expected) == sp_scalar(cofactor_det(rows, GaussianRational(0)))


# -- edge cases of the integer-numerator kernel ---------------------------------


def reference_product(a: Poly, b: Poly) -> dict:
    """a * b termwise in GaussianRational arithmetic, zeros dropped."""
    out: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            out[mono] = out.get(mono, GaussianRational(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def canonical(p: Poly) -> bool:
    return all(c and type(c.re) is Fraction and type(c.im) is Fraction
               for c in p.terms.values())


def terms(arity: int, *pairs) -> Poly:
    """A Poly from (monomial, coefficient) pairs, built without multiplying."""
    return Poly(arity, dict(pairs))


F = Fraction
I = GaussianRational(0, 1)
KERNEL_CASES = {
    "arity 0": (terms(0, ((), GaussianRational(F(1, 7), F(-2, 3)))),
                terms(0, ((), GaussianRational(0, F(1, 17))))),
    "arity 0, zero factor": (terms(0, ((), 5)), Poly.zero(0)),
    "arity 1, zero factor": (Poly.zero(1), terms(1, ((2,), 1), ((0,), 1))),
    "z1^15 * z1": (terms(1, ((15,), 1)), terms(1, ((1,), 1))),
    "z1^255 * z1": (terms(1, ((255,), F(3, 7)), ((3,), -I)),
                    terms(1, ((1,), 1), ((0,), F(1, 11)))),
    "degree 40, arity 3": (
        terms(3, ((13, 14, 13), 1), ((40, 0, 0), F(-2, 3)), ((0, 20, 20), I)),
        terms(3, ((27, 0, 13), 1), ((0, 40, 0), 5), ((31, 9, 0), -1), ((0, 0, 0), 1))),
    "fields at 63 + 1": (terms(3, ((63, 0, 0), 1), ((0, 31, 32), 1), ((0, 0, 63), -1)),
                         terms(3, ((1, 0, 0), 1), ((0, 0, 1), I), ((0, 1, 0), -1))),
    "cancels in some terms": (terms(3, ((1, 0, 0), 1), ((0, 1, 0), I), ((0, 0, 1), 1)),
                              terms(3, ((1, 0, 0), 1), ((0, 1, 0), -I), ((0, 0, 1), -1))),
    "coprime denominators": (
        terms(2, ((1, 0), F(1, 7)), ((0, 1), F(1, 11)), ((0, 0), F(1, 13))),
        terms(2, ((1, 0), F(1, 13)), ((0, 2), GaussianRational(0, F(1, 17))))),
}


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_kernel_edge_cases(name):
    a, b = KERNEL_CASES[name]
    for x, y in ((a, b), (b, a)):
        prod = x * y
        assert prod.terms == reference_product(x, y)
        assert canonical(prod)
    if not a.arity:
        assert sp.expand(sp_scalar(prod.constant_term())) == sp.expand(
            sp_scalar(a.constant_term()) * sp_scalar(b.constant_term()))
        return
    xs = symbols("x", a.arity)
    sa, sb = to_sympy(a), to_sympy(b)
    assert to_sympy(prod) == sa * sb
    for p, sp_p in ((a, sa), (prod, sa * sb)):
        lap = laplacian(p)
        assert canonical(lap)
        assert to_sympy(lap) == sum((sp_p.diff((x, 2)) for x in xs[1:]), sp_p.diff((xs[0], 2)))
        for i, x in enumerate(xs):
            assert canonical(partial(p, i))
            assert to_sympy(partial(p, i)) == sp_p.diff(x)
        orders = tuple(range(1, a.arity + 1))
        assert to_sympy(partial_multi(p, orders)) == sp_p.diff(*zip(xs, orders))


def test_kernel_cancellation_to_zero():
    # (z1 + i z2)^k is harmonic: every coefficient of its Laplacian cancels
    linear = terms(2, ((1, 0), 1), ((0, 1), I))
    h = Poly.one(2)
    for k in range(1, 8):
        h = Poly(2, reference_product(h, linear))
        assert linear ** k == h and canonical(linear ** k)
        assert laplacian(h).terms == {}
    quadric = terms(2, ((2, 0), F(1, 7)), ((0, 2), F(-1, 7)), ((1, 1), F(2, 13)))
    assert laplacian(quadric).terms == {}
    # the z1*z2 terms cancel
    conj = terms(2, ((1, 0), 1), ((0, 1), -I))
    assert (linear * conj).terms == terms(2, ((2, 0), 1), ((0, 2), 1)).terms


# -- matrix products on the fused dot -----------------------------------------


def sp_matrix_product(a: PolyMatrix, b: PolyMatrix) -> list:
    rows = [[to_sympy(p) for p in r] for r in a.rows]
    cols = [[to_sympy(p) for p in r] for r in b.rows]
    return [[sum((rows[i][t] * cols[t][j] for t in range(1, len(cols))), rows[i][0] * cols[0][j])
             for j in range(len(cols[0]))] for i in range(len(rows))]


@st.composite
def matrix_pairs(draw):
    n = draw(arities)
    r, k, c = (draw(st.integers(1, 3)) for _ in range(3))
    entries = polys(n)
    a = [[draw(entries) for _ in range(k)] for _ in range(r)]
    b = [[draw(entries) for _ in range(c)] for _ in range(k)]
    return PolyMatrix(a), PolyMatrix(b)


MIXED_DENOMINATORS = (
    PolyMatrix([[terms(2, ((1, 0), F(1, 7)), ((0, 0), F(2, 3))), Poly.zero(2)],
                [terms(2, ((0, 2), GaussianRational(0, F(1, 11)))), terms(2, ((1, 1), F(-5, 13)))]]),
    PolyMatrix([[terms(2, ((0, 1), F(1, 13))), terms(2, ((2, 0), GaussianRational(F(1, 17), 1)))],
                [terms(2, ((1, 0), F(3, 7)), ((0, 1), F(1, 11))), terms(2, ((0, 0), F(1, 9)))]]),
)


@ORACLE
@given(matrix_pairs())
def test_matrix_product(pair):
    a, b = pair
    got = a * b
    assert [[to_sympy(p) for p in r] for r in got.rows] == sp_matrix_product(a, b)
    assert all(canonical(p) for r in got.rows for p in r)


def test_matrix_product_mixed_denominators():
    a, b = MIXED_DENOMINATORS
    for x, y in ((a, b), (b, a), (a, a)):
        got = x * y
        assert [[to_sympy(p) for p in r] for r in got.rows] == sp_matrix_product(x, y)
        assert all(canonical(p) for r in got.rows for p in r)
