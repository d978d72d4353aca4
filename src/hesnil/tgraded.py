"""Series in a deformation parameter t with polynomial coefficients.

A TGraded value represents sum_j coeffs[j] * t^j, known through t-powers
strictly below t_order; higher powers are unknown, not zero.  Every
operation tracks the window honestly: a product is only trusted through
the smaller of the two windows, differentiation in t shrinks the window
by one.

z_trunc, when set, records that each coefficient has been truncated to
that total z-degree.  None means coefficients are exact polynomials.
Operations propagate the tighter of the two caps.  Products and compose_poly run
on poly's packed slot dot and composition engine.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Callable, Optional, Sequence, Union

from .gaussrat import ScalarLike
from .poly import Poly, _Packed, _compose_packed, _exp_packed, _slot, _slot_pairs


def _min_cap(*caps: Optional[int]) -> Optional[int]:
    """The tightest of the z caps, None when no cap is set."""
    return min((c for c in caps if c is not None), default=None)


class TGraded:
    __slots__ = ("arity", "t_order", "coeffs", "z_trunc")

    def __init__(self, arity: int, coeffs: Sequence[Poly], t_order: Optional[int] = None,
                 z_trunc: Optional[int] = None):
        t_order = len(coeffs) if t_order is None else t_order
        if t_order < 0:
            raise ValueError("t_order must be nonnegative")
        if z_trunc is not None and z_trunc < 0:
            raise ValueError(f"z-degree cap must be nonnegative, got {z_trunc}")
        if len(coeffs) > t_order:
            raise ValueError(f"{len(coeffs)} coefficients exceed t_order {t_order}")
        if any(not isinstance(p, Poly) or p.arity != arity for p in coeffs):
            raise ValueError("every coefficient must be a Poly of the stated arity")
        slots = list(coeffs) + [Poly.zero(arity)] * (t_order - len(coeffs))
        self.arity, self.t_order, self.z_trunc = arity, t_order, z_trunc
        self.coeffs = slots if z_trunc is None else [p.truncate(z_trunc) for p in slots]

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
        return TGraded(self.arity, [a + b for a, b in zip(self.coeffs[:t], other.coeffs)], t, z)

    def __sub__(self, other: "TGraded") -> "TGraded":
        t, z = self._join(other)
        return TGraded(self.arity, [a - b for a, b in zip(self.coeffs[:t], other.coeffs)], t, z)

    def scale(self, value: ScalarLike) -> "TGraded":
        return TGraded(self.arity, [p.scale(value) for p in self.coeffs], self.t_order,
                       self.z_trunc)

    def __mul__(self, other: "TGraded") -> "TGraded":
        t, z = self._join(other)
        top = max((p.degree() for p in self.coeffs), default=0) + max(
            (p.degree() for p in other.coeffs), default=0)
        a = [_Packed.of(p, top) for p in self.coeffs[:t]]
        b = [_Packed.of(p, top) for p in other.coeffs[:t]]
        return TGraded(self.arity, [_slot(a[0], ps, cap=z).poly() for ps in _slot_pairs(a, b, t)],
                       t, z)

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
        return self.arity == other.arity and all(a == b for a, b in zip_longest(
            self.coeffs, other.coeffs, fillvalue=Poly.zero(self.arity)))

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
    if len(values) != p.arity:
        raise ValueError(f"need {p.arity} series, got {len(values)}")
    arity = values[0].arity if values else 0
    used = [values[j] for j, e in enumerate(map(max, zip(*p.terms))) if e]
    if any(v.arity != arity for v in used):
        raise ValueError("every series must share one arity")
    t = min([t_order] + [v.t_order for v in used])
    z = _min_cap(z_trunc, *(v.z_trunc for v in used))
    top = max(p.degree(), 1) * max([q.degree() for v in values for q in v.coeffs] + [0])
    one = _Packed.of(Poly.one(arity), top)
    (out,) = _compose_packed([_Packed.of(p, p.degree())],
                             [[_Packed.of(q, top) for q in v.coeffs] for v in values], [t], one)
    return TGraded(arity, [_slot(one, ps, cap=z).poly() for ps in out], t, z)


def exp_tgraded(a: TGraded, z_trunc: Optional[int] = None) -> TGraded:
    """exp of a series, slot by slot: exp(A_0) * exp(A - A_0).

    The t-constant slot A_0 exponentiates to an infinite z-series, so a
    z-degree cap is required whenever A_0 is nonzero.  The remainder has
    positive t-valuation and exponentiates exactly within the window.
    """
    cap, slots = _exp_slots(a, 1, z_trunc)
    return TGraded(a.arity, [u.poly() for u in slots], a.t_order, cap)


def _exp_slots(a: TGraded, s: ScalarLike, z_trunc: Optional[int]) -> tuple:
    """(cap, unreduced slots of exp(s a) through cap), cap joining a's and z_trunc: one
    packed chain of tail^k / k!, tail = s(a - a_0), truncated at each step; slot j is one
    dot of the chain's slot j with exp(s a_0)."""
    t, cap = a.t_order, _min_cap(a.z_trunc, z_trunc)
    head = a.coeffs[0] if t else Poly.zero(a.arity)
    if head.terms and cap is None:
        raise ValueError("exp of a series with nonzero t-constant slot needs a z-degree cap")
    d = max([q.degree() for q in a.coeffs] + [0])
    top = max(t - 1, 1) * d if cap is None else cap + max(cap, d)
    one = _Packed.of(Poly.one(a.arity), top)
    e0, scale = _exp_packed(head, s, cap, top) if head.terms else one, one.constant(s)
    tail = [_slot(one, [])] + [_slot(one, [(_Packed.of(q, top), scale)], cap=cap)
                               for q in a.coeffs[1:]]
    chain = [[one] + tail[:1] * (t - 1)]
    for k in range(1, t):
        chain.append([_slot(one, ps, den=k, cap=cap) for ps in _slot_pairs(chain[-1], tail, t)])
    return cap, [_slot(one, [(c[j], e0) for c in chain[:j + 1]], cap=cap) for j in range(t)]
