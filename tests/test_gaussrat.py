"""Field arithmetic for Gaussian rationals."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hesnil import GaussianRational, gr, parse

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)
scalars = st.builds(GaussianRational, rationals, rationals)
nonzero_scalars = scalars.filter(lambda a: not a.is_zero())


def test_construction_and_parts():
    a = gr("3/2", -2)
    assert a.re == Fraction(3, 2)
    assert a.im == Fraction(-2)
    assert not a.is_real()
    assert gr(5).is_real()


def test_coerce_accepts_int_str_fraction():
    assert GaussianRational.coerce(3) == gr(3)
    assert GaussianRational.coerce("7/4") == gr("7/4")
    assert GaussianRational.coerce(Fraction(1, 3)) == gr("1/3")
    a = gr(1, 1)
    assert GaussianRational.coerce(a) is a


def test_basic_arithmetic():
    a, b = gr(1, 2), gr(3, -1)
    assert a + b == gr(4, 1)
    assert a - b == gr(-2, 3)
    assert a * b == gr(5, 5)
    assert -a == gr(-1, -2)


def test_scalar_and_poly_add_and_subtract_as_polys():
    # the scalar steps aside, so Poly.__radd__ and __rsub__ answer
    p = parse("z1 + z2")
    assert gr(1, 1) + p == p + gr(1, 1) == parse("z1 + z2 + 1 + i")
    assert gr(1, 1) - p == parse("1 + i - z1 - z2")
    assert p - gr(1, 1) == -(gr(1, 1) - p)
    with pytest.raises(TypeError):
        gr(1) + object()
    with pytest.raises(TypeError):
        gr(1) - object()


def test_division_by_complex():
    a = gr(1, 1)
    b = gr(0, 1)
    assert a / b == gr(1, -1)
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / gr(0)


def test_powers_including_negative():
    i = gr(0, 1)
    assert i ** 2 == gr(-1)
    assert i ** 3 == gr(0, -1)
    assert i ** 4 == gr(1)
    assert gr(2) ** -2 == gr("1/4")
    assert i ** -1 == gr(0, -1)


def test_conjugate_and_str():
    assert gr(1, 2).conjugate() == gr(1, -2)
    assert str(gr(0, 1)) == "i"
    assert str(gr(0, -1)) == "-i"
    assert str(gr("3/2")) == "3/2"
    assert str(gr(0, "3/2")) == "3/2*i"
    assert str(gr(1, 2)) == "1+2*i"
    assert str(gr(1, -2)) == "1-2*i"
    assert str(gr(0)) == "0"


def test_equality_against_plain_numbers():
    assert gr(3) == 3
    assert gr("1/2") == Fraction(1, 2)
    assert gr(3, 1) != 3
    assert hash(gr(3)) == hash(3)
    assert hash(gr("1/2")) == hash(Fraction(1, 2))


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(nonzero_scalars)
def test_multiplicative_inverse(a):
    assert a * (GaussianRational(1) / a) == gr(1)


@given(scalars)
def test_norm_via_conjugate(a):
    n = a * a.conjugate()
    assert n.is_real()
    assert n.re >= 0
