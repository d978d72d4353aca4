"""Exact arithmetic over Q(i), the field of Gaussian rationals.

A value is a pair of arbitrary-precision rationals (re, im) representing
re + im*i.  Fractions keep themselves in lowest terms with positive
denominators, so every value has exactly one representation and equality
and hashing are structural.

Instances are immutable by convention: no method mutates self, every
operation returns a fresh value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, str, Fraction]
ScalarLike = Union[int, str, Fraction, "GaussianRational"]


class GaussianRational:
    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0) -> None:
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def _raw(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        # trusted constructor: both parts are already Fractions
        g = cls.__new__(cls)
        g.re = re
        g.im = im
        return g

    # -- coercion -----------------------------------------------------

    @staticmethod
    def coerce(value: ScalarLike) -> "GaussianRational":
        if type(value) is GaussianRational:
            return value
        if isinstance(value, (int, str, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        if type(other) is not GaussianRational:
            if not isinstance(other, (int, str, Fraction)):
                return NotImplemented  # so that c + p reaches Poly.__radd__
            other = GaussianRational(other)
        return GaussianRational._raw(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        if type(other) is not GaussianRational:
            if not isinstance(other, (int, str, Fraction)):
                return NotImplemented  # so that c - p reaches Poly.__rsub__
            other = GaussianRational(other)
        return GaussianRational._raw(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.coerce(other) - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational._raw(-self.re, -self.im)

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        if not isinstance(other, (GaussianRational, int, str, Fraction)):
            return NotImplemented  # so that c * p reaches Poly.__rmul__
        o = GaussianRational.coerce(other)
        a, b, c, d = self.re, self.im, o.re, o.im
        return GaussianRational._raw(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._raw(self.re, -self.im)

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        n = o.re * o.re + o.im * o.im
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        a, b, c, d = self.re, self.im, o.re, o.im
        return GaussianRational._raw((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.coerce(other) / self

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        if exponent < 0:
            return (ONE / self) ** (-exponent)
        result = ONE
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- display -------------------------------------------------------

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        tail = "i" if mag == 1 else f"{mag}*i"
        return f"{self.re}{sign}{tail}"


ONE = GaussianRational(1)


def gr(re: RationalLike = 0, im: RationalLike = 0) -> GaussianRational:
    """Shorthand constructor, convenient in tests and scripts."""
    return GaussianRational(re, im)
