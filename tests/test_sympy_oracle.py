"""Differential oracle: Poly kernels against sympy's exact Q(i) arithmetic.

Every operation is recomputed by sympy over its QQ_I domain on small
random inputs (arity <= 3, <= 5 terms, degree <= 4) and compared
coefficient for coefficient.
"""

import pytest
from hypothesis import given, settings, strategies as st

sp = pytest.importorskip("sympy")

from hesnil import GaussianRational, Poly, apply_D, laplacian, partial  # noqa: E402
from hesnil.diffops import cofactor_det  # noqa: E402

QQ_I = sp.QQ_I
ORACLE = settings(max_examples=25, deadline=None)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
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
