"""Sparse multivariate polynomials over Q(i).

A polynomial of arity n is a dict mapping exponent tuples of length n to
nonzero GaussianRational coefficients.  The empty dict is the zero
polynomial; zero coefficients are never stored, so equality is structural.
Display order is graded lexicographic, highest total degree first.

Every product, scaling and derivative runs on one integer kernel, the private
_Packed form: a polynomial's coefficients become Gaussian-integer pairs over one
common denominator, the lcm of its own, and its monomials one int key each.
Products, Laplacians, partials and f(D) work on those ints, a chain of them
(matrix powers, the recurrences, truncated exp series, series compositions and
exponentials, the inversion checks' residuals) stays packed, and each output
coefficient is reduced once, when a Poly is made from the form.  Every substitution
(compose_poly, the inversion checks, substitute_linear, evaluate) runs on _compose_packed.

Two variable naming styles are understood by the text grammar:

    z-style   z1, z2, ..., zN        index k-1 for zK
    uv-style  u1..un, v1..vn        uK -> index K-1, vK -> index n+K-1

uv-style is the doubled-variable convention used when a polynomial in n
complex variables is rewritten over pairs (u, v) with z = u + i*v.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction
from operator import lshift
from typing import Collection, List, Mapping, Optional, Sequence, Union

from .gaussrat import GaussianRational, ScalarLike

Monomial = tuple  # exponent vector, one nonnegative int per variable

ORDER_INF = math.inf  # order of the zero polynomial


class Poly:
    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Optional[Mapping[Monomial, ScalarLike]] = None):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        self.arity = arity
        clean: dict = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != arity or any(e < 0 or not isinstance(e, int) for e in mono):
                    raise ValueError(f"bad exponent tuple {mono} for arity {arity}")
                c = GaussianRational.coerce(coeff)
                if mono in clean:
                    c = clean[mono] + c
                if c:
                    clean[mono] = c
                elif mono in clean:
                    del clean[mono]
        self.terms = clean

    @classmethod
    def _raw(cls, arity: int, terms: dict) -> "Poly":
        # trusted constructor: terms already canonical
        p = cls.__new__(cls)
        p.arity = arity
        p.terms = terms
        return p

    @classmethod
    def zero(cls, arity: int) -> "Poly":
        return cls._raw(arity, {})

    @classmethod
    def constant(cls, arity: int, value: ScalarLike) -> "Poly":
        c = GaussianRational.coerce(value)
        if not c:
            return cls.zero(arity)
        return cls._raw(arity, {(0,) * arity: c})

    @classmethod
    def one(cls, arity: int) -> "Poly":
        return cls.constant(arity, 1)

    @classmethod
    def variable(cls, index: int, arity: int) -> "Poly":
        if not 0 <= index < arity:
            raise ValueError(f"variable index {index} out of range for arity {arity}")
        mono = tuple(1 if j == index else 0 for j in range(arity))
        return cls._raw(arity, {mono: GaussianRational(1)})

    # -- predicates and measures ----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> Union[int, float]:
        """Lowest total degree among terms; ORDER_INF for the zero polynomial."""
        if not self.terms:
            return ORDER_INF
        return min(sum(m) for m in self.terms)

    def degree(self) -> int:
        """Highest total degree; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    def is_homogeneous(self) -> Optional[int]:
        """Common total degree of all terms, or None.

        None means either not homogeneous or the zero polynomial (which is
        homogeneous of every degree, so reports no particular one).
        """
        if not self.terms:
            return None
        degs = {sum(m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def constant_term(self) -> GaussianRational:
        return self.terms.get((0,) * self.arity, GaussianRational(0))

    # -- ring operations -------------------------------------------------

    def _check_arity(self, other: "Poly") -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other: Union["Poly", ScalarLike]) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(self.arity, other)
        self._check_arity(other)
        if len(self.terms) < len(other.terms):
            self, other = other, self
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = out.get(mono)
            c = coeff if c is None else c + coeff
            if c:
                out[mono] = c
            elif mono in out:
                del out[mono]
        return Poly._raw(self.arity, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw(self.arity, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Union["Poly", ScalarLike]) -> "Poly":
        return self + (-other if isinstance(other, Poly) else -GaussianRational.coerce(other))

    def __rsub__(self, other: ScalarLike) -> "Poly":
        return Poly.constant(self.arity, other) - self

    def scale(self, value: ScalarLike) -> "Poly":
        c = GaussianRational.coerce(value)
        if not c:
            return Poly.zero(self.arity)
        form = _Packed.of(self, self.degree())
        return _Packed.dot([(form, form.constant(c))]).poly()

    def __mul__(self, other: Union["Poly", ScalarLike]) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check_arity(other)
        # the smaller operand drives the outer loop
        pair = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        return _poly_dot(self.arity, [pair])

    def __rmul__(self, other: ScalarLike) -> "Poly":
        return self.scale(other)

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result, base, k = Poly.one(self.arity), self, exponent
        while k:
            if k & 1:
                result = result * base
            if k > 1:
                base = base * base
            k >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.arity == other.arity and self.terms == other.terms
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self == Poly.constant(self.arity, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self.terms.items())))

    # -- evaluation and substitution --------------------------------------

    def evaluate(self, point: Sequence[ScalarLike]) -> GaussianRational:
        """The value at point: a composition with arity-0 constants."""
        if len(point) != self.arity:
            raise ValueError(f"point has {len(point)} coordinates, need {self.arity}")
        return _substitute_linear([self], [[]] * self.arity, 0, point)[0].constant_term()

    def truncate(self, max_degree: int) -> "Poly":
        """Drop every term of total degree greater than max_degree."""
        out = {m: c for m, c in self.terms.items() if sum(m) <= max_degree}
        if len(out) == len(self.terms):
            return self
        return Poly._raw(self.arity, out)

    def graded_piece(self, degree: int) -> "Poly":
        out = {m: c for m, c in self.terms.items() if sum(m) == degree}
        return Poly._raw(self.arity, out)

    def substitute_linear(
        self,
        matrix: Sequence[Sequence[ScalarLike]],
        shift: Optional[Sequence[ScalarLike]] = None,
    ) -> "Poly":
        """Substitute an affine image for every variable.

        matrix has one row per variable of self (arity rows); row j lists
        the coefficients of the image of variable j over the new variables,
        so all rows share one length, the arity of the result.  shift, if
        given, adds a constant to each image (length = self.arity).
        """
        if len(matrix) != self.arity:
            raise ValueError(f"matrix needs {self.arity} rows, got {len(matrix)}")
        widths = {len(row) for row in matrix}
        if self.arity and len(widths) != 1:
            raise ValueError("matrix rows must share one length")
        new_arity = widths.pop() if widths else 0
        if shift is not None and len(shift) != self.arity:
            raise ValueError(f"shift needs {self.arity} entries, got {len(shift)}")
        return _substitute_linear([self], matrix, new_arity, shift)[0]

    # -- display -----------------------------------------------------------

    def sorted_monomials(self) -> list:
        return sorted(self.terms, key=lambda m: (sum(m), m), reverse=True)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({self.arity}, {format_poly(self)!r})"


class _Packed:
    """A polynomial kept on integers through a chain of products and derivatives:
    each monomial one int key, top.bit_length() + 1 bits per variable (variable
    0 highest; top bounds every degree the chain reaches, so no field carries),
    and terms [(key, re, im), ...], Gaussian-integer numerators over den, no zeros.
    Forms that meet in one dot share arity and width."""

    __slots__ = ("arity", "width", "shifts", "den", "terms")

    def __init__(self, arity: int, width: int, den: int, terms: list):
        self.arity, self.width, self.den, self.terms = arity, width, den, terms
        self.shifts = range(width * (arity - 1), -1, -width)

    @classmethod
    def _encode(cls, arity: int, width: int, items: Collection) -> "_Packed":
        """(mono, coefficient) pairs as packed keys and Gaussian-integer numerators over
        one positive denominator, the lcm of the coefficients' own."""
        den = 1
        for _, c in items:
            den = math.lcm(den, c.re.denominator, c.im.denominator)
        form = cls(arity, width, den, [])
        shifts = form.shifts
        form.terms = [(sum(map(lshift, m, shifts)), c.re.numerator * (den // c.re.denominator),
                       c.im.numerator * (den // c.im.denominator)) for m, c in items]
        return form

    @classmethod
    def of(cls, p: Poly, top: int) -> "_Packed":
        return cls._encode(p.arity, max(top, 0).bit_length() + 1, p.terms.items())

    def poly(self) -> Poly:
        """The polynomial, each coefficient reduced once."""
        mask, shifts, den, make = (1 << self.width) - 1, self.shifts, self.den, GaussianRational._raw
        return Poly._raw(self.arity, {tuple(k >> s & mask for s in shifts): make(
            Fraction(r, den), Fraction(i, den)) for k, r, i in self.terms})

    @staticmethod
    def dot(pairs: Sequence[tuple], weights: Optional[Sequence[int]] = None) -> "_Packed":
        """sum of w * a * b over the pairs (a, b) of a nonempty list, w from weights
        (default 1), on one accumulator over the lcm of the pairs' denominators."""
        den = 1
        for a, b in pairs:
            den = math.lcm(den, a.den * b.den)
        acc: dict = {}
        get = acc.get
        for j, (a, b) in enumerate(pairs):
            f = den // (a.den * b.den) * (weights[j] if weights else 1)
            for ka, ar, ai in a.terms:
                ar, ai = ar * f, ai * f
                for kb, br, bi in b.terms:
                    k = ka + kb
                    c = get(k)
                    if c is None:
                        acc[k] = [ar * br - ai * bi, ar * bi + ai * br]
                    else:
                        c[0] += ar * br - ai * bi
                        c[1] += ar * bi + ai * br
        return _Packed(pairs[0][0].arity, pairs[0][0].width, den,
                       [(k, r, i) for k, (r, i) in acc.items() if r or i])

    def constant(self, value: ScalarLike) -> "_Packed":
        """value as a constant of this form's arity and width."""
        c = GaussianRational.coerce(value)
        return _Packed._encode(self.arity, self.width, [((0,) * self.arity, c)] if c else [])

    def partial(self, index: int) -> "_Packed":
        """d/dz_index: key - (1 << shift) times the exponent e > 0; keys stay distinct."""
        s, mask = self.shifts[index], (1 << self.width) - 1
        return _Packed(self.arity, self.width, self.den, [
            (k - (1 << s), r * e, i * e) for k, r, i in self.terms if (e := k >> s & mask)])

    def apply_D(self, op: "_Packed") -> "_Packed":
        """op(D) applied to this form, op at the same arity and width: each pair of a
        term z^e here and a term c z^s of op adds c perm(e, s) z^(e - s) when e >= s in
        every field.  One borrow test decides that: with the free top bit of every field
        set in the key, subtracting s clears a field's top bit iff that exponent is short."""
        mask = (1 << self.width) - 1
        guard = sum(1 << (s + self.width - 1) for s in self.shifts)
        ops = [(k, r, i, [(s, f) for s in self.shifts if (f := k >> s & mask)])
               for k, r, i in op.terms]
        acc: dict = {}
        get = acc.get
        for key, re, im in self.terms:
            high = key | guard
            for k, opr, opi, fields in ops:
                if (high - k) & guard == guard:
                    w = math.prod([math.perm(key >> s & mask, f) for s, f in fields])
                    r, i = (re * opr - im * opi) * w, (re * opi + im * opr) * w
                    c = get(key - k)
                    if c is None:
                        acc[key - k] = [r, i]
                    else:
                        c[0] += r
                        c[1] += i
        return _Packed(self.arity, self.width, self.den * op.den,
                       [(k, r, i) for k, (r, i) in acc.items() if r or i])

    def truncate(self, max_degree: Optional[int]) -> "_Packed":
        """Terms of degree <= max_degree (None: all): key * ones sums the fields in the top one."""
        if max_degree is None:
            return self
        ones, mask = sum(1 << s for s in self.shifts), (1 << self.width) - 1
        head = max(self.shifts, default=0)
        return _Packed(self.arity, self.width, self.den, [
            t for t in self.terms if t[0] * ones >> head & mask <= max_degree])

    def laplacian(self, pairs: Optional[Sequence[tuple]] = None) -> "_Packed":
        """sum w d_a d_b over the (a, b, w) field pairs, by default Delta = [(i, i, 1)]: per
        pair, key - (1 << shift_a) - (1 << shift_b) times w e_a e_b, or w e_a (e_a - 1) at a = b."""
        mask, shifts = (1 << self.width) - 1, self.shifts
        steps = [(shifts[a], shifts[b], (1 << shifts[a]) + (1 << shifts[b]), w, a == b)
                 for a, b, w in pairs or [(i, i, 1) for i in range(self.arity)]]
        acc: dict = {}
        get = acc.get
        for key, re, im in self.terms:
            for sa, sb, step, w, same in steps:
                if (e := key >> sa & mask) > same and (f := (key >> sb & mask) - same):
                    k, m = key - step, e * f * w
                    c = get(k)
                    if c is None:
                        acc[k] = [re * m, im * m]
                    else:
                        c[0] += re * m
                        c[1] += im * m
        return _Packed(self.arity, self.width, self.den,
                       [(k, r, i) for k, (r, i) in acc.items() if r or i])


def _poly_dot(arity: int, pairs: Sequence[tuple], weights: Optional[Sequence[int]] = None) -> Poly:
    """sum of w * a * b over the pairs (a, b) of polynomials of this arity, w from weights
    (default 1), as one fused dot; the zero polynomial when there are no pairs."""
    if not pairs:
        return Poly.zero(arity)
    top = max(a.degree() + b.degree() for a, b in pairs)
    return _Packed.dot([(_Packed.of(a, top), _Packed.of(b, top)) for a, b in pairs], weights).poly()


def _slot(like: _Packed, pairs: list, weights: Optional[list] = None, den: int = 1,
          cap: Optional[int] = None) -> _Packed:
    """One slot: the dot of its pairs over den times their denominator, truncated at cap;
    without pairs, zero at the arity and width of like."""
    if not pairs:
        return _Packed(like.arity, like.width, 1, [])
    acc = _Packed.dot(pairs, weights)
    acc.den *= den
    return acc.truncate(cap)


def _slot_pairs(a: Sequence[_Packed], b: Sequence[_Packed], t: int) -> list:
    """For each slot j < t of a * b, the pairs (a_i, b_(j-i)) with both nonzero; a and b
    are packed slot lists, slots past their ends zero.  Each slot is one dot of its pairs."""
    return [[(a[i], b[j - i]) for i in range(max(0, j + 1 - len(b)), min(j + 1, len(a)))
             if a[i].terms and b[j - i].terms] for j in range(t)]


def _compose_packed(polys: Sequence[_Packed], values: Sequence[Sequence[_Packed]],
                    windows: Sequence[int], one: _Packed) -> List[List[list]]:
    """Each packed polynomial (any width) composed, at its window, with the packed series
    (slot lists at the width of one, zero past their ends): per slot the pairs of one dot.
    Each power of a series is formed once from the next lower one, through the widest
    window that reads it; each term's coefficient is folded into its first factor."""
    plans, reach = [], {}  # reach[j]: (widest window, highest power) read of series j
    for p, t in zip(polys, windows):
        mask = (1 << p.width) - 1
        terms = [([k >> s & mask for s in p.shifts], r, i) for k, r, i in p.terms]
        for j, e in enumerate(map(max, zip(*(m for m, _, _ in terms)))):
            if e:
                w, high = reach.get(j, (0, 0))
                reach[j] = (max(w, t), max(high, e))
        plans.append((p.den, terms, t))

    def mul(a: list, b: list, t: int) -> list:
        return [_slot(one, ps) for ps in _slot_pairs(a, b, t)]

    powers = {}
    for j, (w, e) in reach.items():
        powers[j] = [values[j][:w]]
        while len(powers[j]) < e:
            powers[j].append(mul(powers[j][-1], powers[j][0], w))
    results = []
    for den, terms, t in plans:
        out: list = [[] for _ in range(t)]
        for m, r, i in terms:
            factors = [powers[j][e - 1] for j, e in enumerate(m) if e] or [[one]]
            x = [_Packed(one.arity, one.width, den, [(0, r, i)])]
            for f in factors[:-1]:
                x = mul(x, f, t)
            for acc, ps in zip(out, _slot_pairs(x, factors[-1], t)):
                acc += ps
        results.append(out)
    return results


def _substitute_linear(polys: Sequence[Poly], matrix: Sequence[Sequence[ScalarLike]],
                       arity: int, shift: Optional[Sequence[ScalarLike]] = None) -> List[Poly]:
    """Each polynomial under substitute_linear's affine images, of this arity, in one
    composition: each power of an image is formed once for all of them."""
    one = _Packed.of(Poly.one(arity), max(p.degree() for p in polys))  # images keep degrees
    units = [tuple(1 if k == t else 0 for k in range(arity)) for t in range(arity)] + [(0,) * arity]
    images = [[_Packed._encode(arity, one.width, [(m, c) for m, v in zip(units, [*row, s])
                                                  if (c := GaussianRational.coerce(v))])]
              for row, s in zip(matrix, shift or [0] * len(matrix))]
    out = _compose_packed([_Packed.of(p, p.degree()) for p in polys], images, [1] * len(polys), one)
    return [_slot(one, ps).poly() for (ps,) in out]


# -- exponential truncation ------------------------------------------------


def exp_truncated(p: Poly, s: ScalarLike, max_degree: int) -> Poly:
    """Truncation to total degree max_degree of exp(s*p) = sum s^k p^k / k!.

    Requires order(p) >= 1 so the sum is finite per degree; a nonzero
    constant term is rejected.  exp of the zero polynomial is 1.
    """
    return _exp_packed(p, s, max_degree, max_degree + p.degree()).poly()


def _exp_packed(p: Poly, s: ScalarLike, max_degree: int, top: int) -> _Packed:
    """exp_truncated's series, unreduced, at the width of top >= max_degree + deg p."""
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    one = _Packed.of(Poly.one(p.arity), top)
    if p.is_zero():
        return one
    ord_p = p.order()
    if ord_p < 1:
        raise ValueError("exp_truncated needs order >= 1 (no constant term)")
    # the truncated chain p^k meets its scalars s^k / k!, packed constants, in one dot
    s, x, pk, pairs = GaussianRational.coerce(s), _Packed.of(p, top), one, [(one, one)]
    for k in range(1, max_degree // ord_p + 1):
        pk = _Packed.dot([(pk, x)]).truncate(max_degree)
        pairs.append((pk, one.constant(s ** k / math.factorial(k))))
    return _Packed.dot(pairs)


# -- text grammar ------------------------------------------------------------

# parse refuses base ^ e when C(e + t - 1, t - 1), which bounds the terms of the
# power of a t-term base, exceeds this
MAX_POWER_TERMS = 2000
# or when its estimated work, term pairs times coefficient bits, exceeds this: on a 2-core
# host (z1 + z2)^999, just under it, expands in 0.15 s and (z1 + z2)^1999, 8 times over, in 1.1 s
MAX_POWER_WORK = 2 * 10 ** 9
# and a * b with more term pairs than this, as (z1+z2+z3+z4)^20 * (z5+z6+z7+z8)^20
MAX_PRODUCT_PAIRS = 250_000

_TOKEN = _re.compile(r"\s*(?:(\d+)|([zuv])(\d+)|(i)|([-+*^()/]))")


def _tokenize(text: str) -> list:
    text = text.replace("−", "-")
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad character at position {pos}: {text[pos:pos + 10]!r}")
            break
        if m.group(1):
            tokens.append(("int", int(m.group(1))))
        elif m.group(2):
            tokens.append(("var", (m.group(2), int(m.group(3)))))
        elif m.group(4):
            tokens.append(("i", None))
        else:
            tokens.append((m.group(5), None))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens: list, var_index, arity: int):
        self.tokens = tokens
        self.pos = 0
        self.var_index = var_index
        self.arity = arity

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.take()
        if tok[0] != kind:
            raise ValueError(f"expected {kind!r}, got {tok[0]!r}")
        return tok

    def parse_expr(self) -> Poly:
        acc = self.parse_term()
        while self.peek() in "+-":
            op = self.take()[0]
            rhs = self.parse_term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def parse_term(self) -> Poly:
        acc = self.parse_factor()
        while self.peek() == "*":
            self.take()
            rhs = self.parse_factor()
            if len(acc.terms) * len(rhs.terms) > MAX_PRODUCT_PAIRS:
                raise ValueError(f"a product of a {len(acc.terms)}-term and a {len(rhs.terms)}"
                                 f"-term factor has more than {MAX_PRODUCT_PAIRS} term pairs")
            acc = acc * rhs
        return acc

    def parse_factor(self) -> Poly:
        if self.peek() == "-":
            self.take()
            return -self.parse_factor()
        base = self.parse_base()
        if self.peek() == "^":
            self.take()
            kind, value = self.take()
            if kind != "int":
                raise ValueError("exponent must be a nonnegative integer")
            t = len(base.terms)
            if t > 1:
                terms, form = math.comb(value + t - 1, t - 1), _Packed.of(base, base.degree())
                if terms > MAX_POWER_TERMS:
                    raise ValueError(f"a {t}-term base to the power {value} can have more than "
                                     f"{MAX_POWER_TERMS} terms")
                # about terms^2 coefficient pairs, of about value * log2(t * height) bits each
                height = t * form.den * max(max(abs(r), abs(i)) for _, r, i in form.terms)
                if terms * terms * value * height.bit_length() > MAX_POWER_WORK:
                    raise ValueError(f"a {t}-term base to the power {value} needs more than "
                                     f"MAX_POWER_WORK = {MAX_POWER_WORK} term-pair bits of work")
            return base ** value
        return base

    def parse_base(self) -> Poly:
        kind, value = self.take()
        if kind == "int":
            num = value
            if self.peek() == "/":
                self.take()
                dkind, den = self.take()
                if dkind != "int" or den == 0:
                    raise ValueError("bad rational literal")
                return Poly.constant(self.arity, Fraction(num, den))
            return Poly.constant(self.arity, num)
        if kind == "i":
            return Poly.constant(self.arity, GaussianRational(0, 1))
        if kind == "var":
            return Poly.variable(self.var_index(value), self.arity)
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ValueError(f"unexpected token {kind!r}")


def parse(text: str, arity: Optional[int] = None) -> Poly:
    """Parse polynomial text in either variable style.

    Arity is inferred from the largest variable index unless given
    explicitly (z-style: arity >= max K of zK; uv-style: arity = 2n with
    n >= max K of uK/vK, and an explicit arity must be even).  Mixing z
    with u/v names is an error.
    """
    tokens = _tokenize(text)
    letters = set()
    max_index = 0
    for kind, value in tokens:
        if kind == "var":
            letter, k = value
            if k < 1:
                raise ValueError(f"variable index must start at 1, got {letter}{k}")
            letters.add(letter)
            max_index = max(max_index, k)
    if "z" in letters and (letters & {"u", "v"}):
        raise ValueError("cannot mix z-style and uv-style variable names")
    if letters & {"u", "v"}:
        if arity is None:
            n, arity = max_index, 2 * max_index
        else:
            if arity % 2 or arity < 2 * max_index:
                raise ValueError(f"uv-style needs even arity >= {2 * max_index}")
            n = arity // 2
        def var_index(value):
            letter, k = value
            return k - 1 if letter == "u" else n + k - 1
    else:
        if arity is None:
            arity = max_index
        elif arity < max_index:
            raise ValueError(f"explicit arity {arity} below max variable index {max_index}")
        def var_index(value):
            return value[1] - 1
    parser = _Parser(tokens, var_index, arity)
    result = parser.parse_expr()
    parser.expect("end")
    return result


def _var_name(index: int, arity: int, style: str) -> str:
    if style == "uv":
        n = arity // 2
        if index < n:
            return f"u{index + 1}"
        return f"v{index - n + 1}"
    return f"z{index + 1}"


def _coeff_body(c: GaussianRational) -> tuple:
    """Split a coefficient into (sign, text, is_unit) for term rendering.

    sign is +1 or -1 and is pulled outside the term; text is str of the
    magnitude ('' when the magnitude is 1 and may be omitted before a
    monomial).  Mixed re/im coefficients keep their sign inside a
    parenthesized block and report sign +1.
    """
    if c.re and c.im:
        return 1, f"({c})", False
    sign = 1 if (c.re or c.im) > 0 else -1
    text = str(c if sign > 0 else -c)
    return sign, ("" if text == "1" else text), text == "1"


def format_poly(p: Poly, style: str = "z") -> str:
    """Render in the text grammar; parse(format_poly(p)) reproduces p."""
    if style not in ("z", "uv"):
        raise ValueError(f"unknown style {style!r}")
    if style == "uv" and p.arity % 2:
        raise ValueError("uv-style needs even arity")
    if not p.terms:
        return "0"
    parts = []
    for mono in p.sorted_monomials():
        factors = []
        for j, e in enumerate(mono):
            if not e:
                continue
            name = _var_name(j, p.arity, style)
            factors.append(name if e == 1 else f"{name}^{e}")
        mono_text = "*".join(factors)
        sign, coeff_text, unit = _coeff_body(p.terms[mono])
        if mono_text:
            body = mono_text if unit else f"{coeff_text}*{mono_text}"
        else:
            body = coeff_text if coeff_text else "1"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign < 0 else "") + first_body
    for sign, body in parts[1:]:
        out += (" - " if sign < 0 else " + ") + body
    return out
