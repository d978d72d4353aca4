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

from dataclasses import dataclass
from typing import List, Optional

from .diffops import hessian, laplacian_powers_table
from .poly import Poly, format_poly


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


def laplacian_powers(p: Poly, max_m: Optional[int] = None) -> List[Poly]:
    """[Delta^m (p^m) for m = 1..max_m], default max_m = arity."""
    if max_m is None:
        max_m = p.arity
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    return laplacian_powers_table(p, max_m, (0,))[0][1:]


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
    order = p.order()
    order_field = None if p.is_zero() else int(order)
    low_order = (not p.is_zero()) and order < 2
    traces = trace_powers(p)
    laplacians = laplacian_powers(p)
    verdict_matrix = all(t.is_zero() for t in traces)
    verdict_laplacian = all(v.is_zero() for v in laplacians)
    if verdict_matrix != verdict_laplacian:
        raise CriterionMismatchError(
            f"matrix verdict {verdict_matrix} vs laplacian verdict {verdict_laplacian} "
            f"on {format_poly(p)!r}"
        )
    harmonic = laplacians[0].is_zero() if laplacians else True
    return HNReport(
        arity=p.arity,
        degree=p.degree(),
        order=order_field,
        low_order=low_order,
        harmonic=harmonic,
        traces=traces,
        laplacians=laplacians,
        verdict_matrix=verdict_matrix,
        verdict_laplacian=verdict_laplacian,
        is_hn=verdict_matrix,
    )
