"""Series in a deformation parameter t with polynomial coefficients.

A TGraded value represents sum_j coeffs[j] * t^j, known through t-powers
strictly below t_order; higher powers are unknown, not zero.  Every
operation tracks the window honestly: a product is only trusted through
the smaller of the two windows, differentiation in t shrinks the window
by one.

z_trunc, when set, records that each coefficient has been truncated to
that total z-degree.  None means coefficients are exact polynomials.
Operations propagate the tighter of the two caps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Union

from .gaussrat import GaussianRational, ScalarLike
from .poly import Poly, _Packed, exp_truncated


def _min_cap(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _slot_pairs(a: Sequence[_Packed], b: Sequence[_Packed], t: int) -> list:
    """For each slot j < t of a * b, the pairs (a_i, b_(j-i)) with both nonzero; a and b
    are packed slot lists, slots past their ends zero.  Each slot is one dot of its pairs."""
    return [[(a[i], b[j - i]) for i in range(max(0, j + 1 - len(b)), min(j + 1, len(a)))
             if a[i].terms and b[j - i].terms] for j in range(t)]


class TGraded:
    __slots__ = ("arity", "t_order", "coeffs", "z_trunc")

    def __init__(
        self,
        arity: int,
        coeffs: Sequence[Poly],
        t_order: Optional[int] = None,
        z_trunc: Optional[int] = None,
    ):
        if t_order is None:
            t_order = len(coeffs)
        if t_order < 0:
            raise ValueError("t_order must be nonnegative")
        if z_trunc is not None and z_trunc < 0:
            raise ValueError(f"z-degree cap must be nonnegative, got {z_trunc}")
        if len(coeffs) > t_order:
            raise ValueError(f"{len(coeffs)} coefficients exceed t_order {t_order}")
        slots = list(coeffs)
        for p in slots:
            if not isinstance(p, Poly) or p.arity != arity:
                raise ValueError("every coefficient must be a Poly of the stated arity")
        while len(slots) < t_order:
            slots.append(Poly.zero(arity))
        if z_trunc is not None:
            slots = [p.truncate(z_trunc) for p in slots]
        self.arity = arity
        self.t_order = t_order
        self.coeffs = slots
        self.z_trunc = z_trunc

    @classmethod
    def zero(cls, arity: int, t_order: int, z_trunc: Optional[int] = None) -> "TGraded":
        return cls(arity, [], t_order, z_trunc)

    @classmethod
    def from_poly(cls, p: Poly, t_order: int, z_trunc: Optional[int] = None) -> "TGraded":
        """Embed a z-polynomial as a series constant in t."""
        return cls(p.arity, [p][:t_order], t_order, z_trunc)

    # -- access ---------------------------------------------------------

    def coeff(self, j: int) -> Poly:
        """Coefficient of t^j (must lie inside the known window)."""
        if j < 0 or j >= self.t_order:
            raise IndexError(f"t-power {j} outside window [0, {self.t_order})")
        return self.coeffs[j]

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.coeffs)

    # -- arithmetic -------------------------------------------------------

    def _join(self, other: "TGraded") -> tuple:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")
        return min(self.t_order, other.t_order), _min_cap(self.z_trunc, other.z_trunc)

    def __add__(self, other: "TGraded") -> "TGraded":
        t, z = self._join(other)
        slots = [self.coeffs[j] + other.coeffs[j] for j in range(t)]
        return TGraded(self.arity, slots, t, z)

    def __sub__(self, other: "TGraded") -> "TGraded":
        t, z = self._join(other)
        slots = [self.coeffs[j] - other.coeffs[j] for j in range(t)]
        return TGraded(self.arity, slots, t, z)

    def __neg__(self) -> "TGraded":
        return TGraded(self.arity, [-p for p in self.coeffs], self.t_order, self.z_trunc)

    def scale(self, value: ScalarLike) -> "TGraded":
        c = GaussianRational.coerce(value)
        return TGraded(self.arity, [p.scale(c) for p in self.coeffs], self.t_order, self.z_trunc)

    def scale_poly(self, p: Poly) -> "TGraded":
        slots = [c * p for c in self.coeffs]
        return TGraded(self.arity, slots, self.t_order, self.z_trunc)

    def __mul__(self, other: "TGraded") -> "TGraded":
        t, z = self._join(other)
        top = max((p.degree() for p in self.coeffs), default=0) + max(
            (p.degree() for p in other.coeffs), default=0)
        a = [_Packed.of(p, top) for p in self.coeffs[:t]]
        b = [_Packed.of(p, top) for p in other.coeffs[:t]]
        slots = [_Packed.dot(ps).poly() if ps else Poly.zero(self.arity)
                 for ps in _slot_pairs(a, b, t)]
        return TGraded(self.arity, slots, t, z)

    def __pow__(self, exponent: int) -> "TGraded":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series exponent must be a nonnegative integer")
        result = TGraded.from_poly(Poly.one(self.arity), self.t_order, self.z_trunc)
        for _ in range(exponent):
            result = result * self
        return result

    # -- calculus in t ------------------------------------------------------

    def dt(self) -> "TGraded":
        """Derivative in t; the window shrinks by one."""
        if self.t_order == 0:
            raise ValueError("cannot differentiate an empty window")
        slots = [self.coeffs[j + 1].scale(j + 1) for j in range(self.t_order - 1)]
        return TGraded(self.arity, slots, self.t_order - 1, self.z_trunc)

    def shift_t(self, k: int = 1) -> "TGraded":
        """Multiply by t^k; the window widens by k."""
        if k < 0:
            raise ValueError("shift power must be nonnegative")
        slots = [Poly.zero(self.arity)] * k + self.coeffs
        return TGraded(self.arity, slots, self.t_order + k, self.z_trunc)

    # -- window management ----------------------------------------------------

    def truncate_t(self, t_order: int) -> "TGraded":
        if t_order > self.t_order:
            raise ValueError("cannot widen a truncated window")
        return TGraded(self.arity, self.coeffs[:t_order], t_order, self.z_trunc)

    def truncate_z(self, max_degree: int) -> "TGraded":
        return TGraded(self.arity, self.coeffs, self.t_order, _min_cap(self.z_trunc, max_degree))

    def map_coeffs(self, fn: Callable[[Poly], Poly], z_drop: int = 0) -> "TGraded":
        """Apply a z-operation to every coefficient.

        z_drop states how many degrees of trust the operation costs on
        truncated coefficients (2 per Laplacian, 1 per first derivative,
        0 for degree-preserving maps).
        """
        cap = None if self.z_trunc is None else max(self.z_trunc - z_drop, 0)
        return TGraded(self.arity, [fn(p) for p in self.coeffs], self.t_order, cap)

    # -- comparison and display --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TGraded):
            return NotImplemented
        if self.arity != other.arity:
            return False
        n = max(len(self.coeffs), len(other.coeffs))
        zero = Poly.zero(self.arity)
        for j in range(n):
            a = self.coeffs[j] if j < len(self.coeffs) else zero
            b = other.coeffs[j] if j < len(other.coeffs) else zero
            if a != b:
                return False
        return True

    __hash__ = None

    def __str__(self) -> str:
        parts = []
        for j, p in enumerate(self.coeffs):
            if p.is_zero():
                continue
            head = "" if j == 0 else ("t*" if j == 1 else f"t^{j}*")
            parts.append(f"{head}({p})")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"TGraded(t_order={self.t_order}, z_trunc={self.z_trunc}, {self})"


def compose_poly(p: Poly, values: Sequence[TGraded], t_order: int,
                 z_trunc: Optional[int] = None) -> TGraded:
    """Substitute one series per variable of p; window and z cap join only the series p uses."""
    return _compose_polys([p], values, [t_order], z_trunc)[0]


def _compose_polys(polys: Sequence[Poly], values: Sequence[TGraded], t_orders: Sequence[int],
                   z_trunc: Optional[int] = None) -> List[TGraded]:
    """compose_poly of each polynomial at its own t_order, on one set of packed powers per
    series: each power is formed once from the next lower one, through the widest window a
    polynomial using it reads; each term's product stays packed with its coefficient folded
    in, each output slot is one dot over all terms."""
    arity = values[0].arity if values else 0
    plans, reach = [], {}  # reach[j]: (widest window, highest power) read of series j
    for p, t in zip(polys, t_orders):
        if len(values) != p.arity:
            raise ValueError(f"need {p.arity} series, got {len(values)}")
        top_exp = [max(col) for col in zip(*p.terms)]
        used = [j for j, e in enumerate(top_exp) if e]
        if any(values[j].arity != arity for j in used):
            raise ValueError("every series must share one arity")
        t, z = min([t] + [values[j].t_order for j in used]), z_trunc
        for j in used:
            z = _min_cap(z, values[j].z_trunc)
            w, e = reach.get(j, (0, 0))
            reach[j] = (max(w, t), max(e, top_exp[j]))
        plans.append((p, t, z))
    degs = {j: max([q.degree() for q in values[j].coeffs[:w]] + [0]) for j, (w, _) in reach.items()}
    top = max((sum(e * degs[j] for j, e in enumerate(m) if e) for p in polys for m in p.terms),
              default=0)
    one, zero = (_Packed.of(Poly.constant(arity, c), top) for c in (1, 0))

    def mul(a: list, b: list, t: int) -> list:
        return [_Packed.dot(ps) if ps else zero for ps in _slot_pairs(a, b, t)]

    powers = {}
    for j, (w, e) in reach.items():
        powers[j] = [[_Packed.of(q, top) for q in values[j].coeffs[:w]]]
        while len(powers[j]) < e:
            powers[j].append(mul(powers[j][-1], powers[j][0], w))
    results = []
    for p, t, z in plans:
        out: list = [[] for _ in range(t)]
        for m, c in p.terms.items():
            factors = [powers[j][e - 1] for j, e in enumerate(m) if e] or [[one]]
            x = [_Packed.of(Poly.constant(arity, c), top)]
            for f in factors[:-1]:
                x = mul(x, f, t)
            for acc, ps in zip(out, _slot_pairs(x, factors[-1], t)):
                acc += ps
        slots = [_Packed.dot(ps).poly() if ps else Poly.zero(arity) for ps in out]
        results.append(TGraded(arity, slots, t, z))
    return results


def exp_tgraded(a: TGraded, z_trunc: Optional[int] = None) -> TGraded:
    """exp of a series, slot by slot: exp(A_0) * exp(A - A_0).

    The t-constant slot A_0 exponentiates to an infinite z-series, so a
    z-degree cap is required whenever A_0 is nonzero.  The remainder has
    positive t-valuation and exponentiates exactly within the window.
    """
    cap = _min_cap(a.z_trunc, z_trunc)
    head = a.coeffs[0] if a.coeffs else Poly.zero(a.arity)
    if not head.is_zero():
        if cap is None:
            raise ValueError("exp of a series with nonzero t-constant slot needs a z-degree cap")
        e0 = exp_truncated(head, 1, cap)
    else:
        e0 = Poly.one(a.arity)
    tail = TGraded(a.arity, [Poly.zero(a.arity)][:a.t_order] + a.coeffs[1:], a.t_order, cap)
    term = TGraded.from_poly(Poly.one(a.arity), a.t_order, cap)
    total = term
    for k in range(1, a.t_order):
        term = term * tail
        total = total + term.scale(Fraction(1, math.factorial(k)))
    return total.scale_poly(e0)
