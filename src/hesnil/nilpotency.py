"""Hessian nilpotency verdicts, computed by two independent routes.

A polynomial is Hessian-nilpotent when its Hessian matrix is nilpotent.
Over a field of characteristic zero an n x n matrix is nilpotent exactly
when the traces of its first n powers vanish, which gives the matrix
route.  The equivalent polynomial route checks Delta^m P^m = 0 for
1 <= m <= n.  Both are computed; a disagreement cannot come from the
mathematics, only from a bug, so it raises instead of returning.  Other
verdicts read the Laplacian recurrence's slots (inversion._hn_slots).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .diffops import hessian, laplacian_powers_table
from .gaussrat import GaussianRational
from .poly import Poly, _substitute_linear, format_poly


class TheoremCheckError(RuntimeError):
    """A consequence that is a theorem failed: an implementation bug, never bad input."""


class CriterionMismatchError(TheoremCheckError):
    """The matrix and Laplacian verdicts disagreed; by design unreachable."""


def trace_powers(p: Poly, max_m: Optional[int] = None) -> List[Poly]:
    """[trace(Hes(p)^m) for m = 1..max_m], default max_m = arity."""
    n = p.arity
    if max_m is None:
        max_m = n
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    if n == 0 or max_m == 0:
        return []
    return hessian(p).trace_powers(max_m)


def _plane_map(n: int, m=((1, GaussianRational(0, 1)), (1, GaussianRational(0, -1)))) -> List[list]:
    """Rows of field j -> m00 x_j + m01 x_(h+j), field h + j -> m10 x_j + m11 x_(h+j), h = n // 2
    (a last odd field kept); by default z_j = u_j + i v_j and zeta_j = u_j - i v_j, the doubled
    coordinates, so at n = 2h the first h rows are pg's and ph's z_j -> u_j + i v_j."""
    h = n // 2
    return [[m[r // h][k // h] if max(r, k) < 2 * h and r % h == k % h else int(r == k)
             for k in range(n)] for r in range(n)]


def _light_cone(p: Poly) -> Tuple[Poly, List[tuple], Callable[[List[Poly]], List[Poly]]]:
    """(P', pairs, back) in the light-cone coordinates z_j = u_j + i v_j, zeta_j = u_j - i v_j
    (fields j and h + j, h = n // 2; a last odd field is kept) if P has fewer terms there:
    P' = P(u, v), Delta = 4 sum_j d_zj d_zetaj (+ d_last^2) as field pairs of _Packed.laplacian,
    and back, mapping P' and the given polynomials to (u, v) in one composition, which raises
    unless P' gives P exactly; else (P, [(i, i, 1)], the identity).  The map is a linear ring
    isomorphism, so it keeps degrees and zero tests and carries Delta to those pairs."""
    n, h, i = p.arity, p.arity // 2, GaussianRational(0, 1)
    # the map keeps each term's degree in every plane (u_j, v_j) and is invertible on each
    # such piece, where a lone term of nonzero degree in k planes has 2^k or more image terms
    pieces = Counter(tuple(m[j] + m[h + j] for j in range(h)) + m[2 * h:] for m in p.terms)
    if sum(2 ** sum(map(bool, g[:h])) if c == 1 else 1 for g, c in pieces.items()) < len(p.terms):
        image = p.substitute_linear(_plane_map(n, ((Fraction(1, 2),) * 2, (-i / 2, i / 2))))
        if len(image.terms) < len(p.terms):
            def back(polys: List[Poly]) -> List[Poly]:
                source, *out = _substitute_linear([image] + polys, _plane_map(n), n)
                if source != p:
                    raise TheoremCheckError(f"{format_poly(p)!r} is not its light-cone image's")
                return out
            return image, [(j, h + j, 4) for j in range(h)] + [(n - 1, n - 1, 1)] * (n % 2), back
    return p, [(j, j, 1) for j in range(n)], lambda polys: polys


def laplacian_powers(p: Poly, max_m: Optional[int] = None) -> List[Poly]:
    """[Delta^m (p^m) for m = 1..max_m], default max_m = arity: one power chain (through
    Poly products) in the coordinates of _light_cone, mapped back."""
    if max_m is None:
        max_m = p.arity
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    image, pairs, back = _light_cone(p)
    return back(laplacian_powers_table(image, max_m, (0,), pairs)[0][1:])


@dataclass(frozen=True)
class HNReport:
    arity: int
    degree: int
    order: Optional[int]          # None for the zero polynomial
    low_order: bool               # order below 2: verdicts still computed, criterion untested there
    harmonic: bool
    traces: List[Poly]
    laplacians: List[Poly]
    verdict_matrix: bool
    verdict_laplacian: bool
    is_hn: bool

    def to_json_dict(self) -> dict:
        """The fields in field order, with each polynomial formatted."""
        return dict(vars(self), traces=[format_poly(t) for t in self.traces],
                    laplacians=[format_poly(v) for v in self.laplacians])


def is_hn(p: Poly) -> HNReport:
    """Full nilpotency report for p, both verdicts cross-checked."""
    traces, laplacians = trace_powers(p), laplacian_powers(p)
    verdict_matrix = all(t.is_zero() for t in traces)
    verdict_laplacian = all(v.is_zero() for v in laplacians)
    if verdict_matrix != verdict_laplacian:
        raise CriterionMismatchError(f"matrix verdict {verdict_matrix} vs laplacian verdict "
                                     f"{verdict_laplacian} on {format_poly(p)!r}")
    return HNReport(arity=p.arity, degree=p.degree(),
                    order=None if p.is_zero() else int(p.order()),
                    low_order=not p.is_zero() and p.order() < 2,
                    harmonic=laplacians[0].is_zero() if laplacians else True,
                    traces=traces, laplacians=laplacians, verdict_matrix=verdict_matrix,
                    verdict_laplacian=verdict_laplacian, is_hn=verdict_matrix)
