"""Deformed inversion pairs and the PDE identities they satisfy.

For a polynomial P with order >= 2, F_t(z) = z - t grad P has a unique
formal inverse G_t(z) = z + t grad Q_t, and Q_t = sum_{m>=1} t^{m-1} Q_[m]
is determined by Q_[1] = P together with a quadratic recurrence.  Q_t is
stored as a TGraded whose slot j holds Q_[j+1], so a pair built to
t_order M carries Q_[1..M].

Three constructions are implemented: the gradient recurrence valid for
every P, the Laplacian recurrence valid for Hessian-nilpotent P, and the
closed form Q_[m] = Delta^{m-1} P^m / (2^{m-1} m! (m-1)!), also HN-only.
A fixed-point iteration on G itself provides a fourth, derivative-free
route.  The check functions return residuals or (lhs, rhs) pairs and
never assert; callers decide what zero means for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .diffops import PolyVector, grad_pair, laplacian, laplacian_powers_table, partial
from .gaussrat import GaussianRational, ScalarLike
from .nilpotency import _hn_report, is_hn
from .poly import Poly, _Packed, _poly_dot, exp_truncated
from .tgraded import TGraded, compose_poly, exp_tgraded


class OrderViolationError(ValueError):
    """Input must have order >= 2 (no constant or linear part)."""


class HNRequiredError(ValueError):
    """This construction is only valid for Hessian-nilpotent input."""


def _require_order2(p: Poly) -> None:
    if not p.is_zero() and p.order() < 2:
        raise OrderViolationError(
            f"inversion needs order >= 2, got order {p.order()}"
        )


def _require_hn(p: Poly, who: str) -> None:
    if not is_hn(p).is_hn:
        raise HNRequiredError(f"{who} needs Hessian-nilpotent input")


@dataclass(frozen=True)
class DeformedPair:
    source: Poly
    q: TGraded
    t_order: int
    method: str

    def q_slot(self, m: int) -> Poly:
        """Q_[m], the coefficient of t^{m-1}; m runs from 1 to t_order."""
        if m < 1 or m > self.t_order:
            raise IndexError(f"slot {m} outside [1, {self.t_order}]")
        return self.q.coeff(m - 1)


def _pair(p: Poly, slots: List[Poly], z_cap: Optional[int], method: str) -> DeformedPair:
    q = TGraded(p.arity, slots, len(slots), z_cap)
    return DeformedPair(source=p, q=q, t_order=len(slots), method=method)


def invert_general(p: Poly, t_order: int, z_cap: Optional[int] = None) -> DeformedPair:
    """Gradient recurrence, valid for every P of order >= 2:

    Q_[1] = P,   Q_[m] = 1/(2(m-1)) sum_{k+l=m} <grad Q_[k], grad Q_[l]>.
    """
    _require_order2(p)
    if t_order < 1:
        raise ValueError("t_order must be at least 1")
    n = p.arity
    slots = [p if z_cap is None else p.truncate(z_cap)]
    # every product of gradients below has degree at most t_order (deg P - 2) + 2
    top = t_order * (slots[0].degree() - 2) + 2
    grads = [[_Packed.of(partial(slots[0], i), top) for i in range(n)]]
    last = 0 if slots[0].is_zero() else 1
    for m in range(2, t_order + 1):
        if m > 2 * last:
            # D = last is the last nonzero slot: each pair k + l = m' >= m > 2D has
            # max(k, l) strictly between D and m', a zero slot by induction on m'
            slots += [Poly.zero(n)] * (t_order + 1 - m)
            break
        # the k = l pairs once, the k < l pairs twice
        pairs, weights = [], []
        for k in range(1, m // 2 + 1):
            pairs += zip(grads[k - 1], grads[m - k - 1])
            weights += [1 if 2 * k == m else 2] * n
        acc = _Packed.dot(pairs, weights).poly() if pairs else Poly.zero(n)
        q_m = acc.scale(Fraction(1, 2 * (m - 1)))
        if z_cap is not None:
            q_m = q_m.truncate(z_cap)
        slots.append(q_m)
        last = last if q_m.is_zero() else m
        grads.append([_Packed.of(partial(q_m, i), top) for i in range(n)])
    return _pair(p, slots, z_cap, "general")


def invert_hn(p: Poly, t_order: int, z_cap: Optional[int] = None) -> DeformedPair:
    """Laplacian recurrence, Hessian-nilpotent input only:

    Q_[1] = P,   Q_[m] = 1/(4(m-1)) Delta sum_{k+l=m} Q_[k] Q_[l].

    With a z-degree cap, earlier slots are kept to a padded degree so the
    Laplacian applied at each later step cannot eat into the trusted
    window; the returned slots are all exact through z_cap.
    """
    _require_order2(p)
    _require_hn(p, "invert_hn")
    if t_order < 1:
        raise ValueError("t_order must be at least 1")

    def cap_for(m: int) -> Optional[int]:
        return None if z_cap is None else z_cap + 2 * (t_order - m)

    slots = [p if z_cap is None else p.truncate(cap_for(1))]
    for m in range(2, t_order + 1):
        # the k = l pair once, the k < l pairs twice
        ks = range(1, m // 2 + 1)
        acc = _poly_dot(p.arity, [(slots[k - 1], slots[m - k - 1]) for k in ks],
                        [1 if 2 * k == m else 2 for k in ks])
        q_m = laplacian(acc).scale(Fraction(1, 4 * (m - 1)))
        cap = cap_for(m)
        if cap is not None:
            q_m = q_m.truncate(cap)
        slots.append(q_m)
    return _pair(p, slots, z_cap, "hn_recurrence")


def invert_closed(p: Poly, t_order: int, z_cap: Optional[int] = None) -> DeformedPair:
    """Closed form, Hessian-nilpotent input only:

    Q_[m] = Delta^{m-1} P^m / (2^{m-1} m! (m-1)!).
    """
    error = "t_order must be at least 1" if t_order < 1 else None
    return _pair(p, _power_slots(p, 1, t_order, "invert_closed", error), z_cap, "closed_form")


def _power_slots(p: Poly, k: int, t_order: int, who: str, error: Optional[str]) -> List[Poly]:
    """k! Delta^m P^{m+k} / (2^m m! (m+k)!) for m < t_order: the t^m slots of Q_t^k.

    At k = 1 slot m is Q_[m+1], so invert_closed and qt_power share it.  The HN
    verdict (both criteria, cross-checked) reads its Delta^m P^m off the same
    chain of powers.  Raises on order < 2, then on non-HN input, then with the
    caller's parameter error if there is one.
    """
    _require_order2(p)
    laplacians, rows = laplacian_powers_table(p, (p.arity, t_order - 1), (0, k))
    if not _hn_report(p, laplacians[1:]).is_hn:
        raise HNRequiredError(f"{who} needs Hessian-nilpotent input")
    if error is not None:
        raise ValueError(error)
    # k! / (m! (m+k)!) = 1 / (m! perm(m+k, m))
    return [row.scale(Fraction(1, 2 ** m * math.factorial(m) * math.perm(m + k, m)))
            for m, row in enumerate(rows)]


def invert_fixed_point(p: Poly, t_order: int, z_cap: Optional[int] = None) -> List[PolyVector]:
    """Iterate G <- z + t (grad P)(G), truncated past t^t_order.

    Round r pins down the coefficient of t^r, so t_order rounds converge.
    Returns one PolyVector per t-power 0..t_order; slot 0 is the identity
    and slot j equals grad Q_[j].
    """
    _require_order2(p)
    if t_order < 1:
        raise ValueError("t_order must be at least 1")
    n = p.arity
    if n == 0:
        raise ValueError("need at least one variable")
    coords = [Poly.variable(i, n) for i in range(n)]
    base = [TGraded.from_poly(coords[i], t_order + 1, z_cap) for i in range(n)]
    dp = [partial(p, i) for i in range(n)]
    g = list(base)
    for _ in range(t_order):
        composed = [compose_poly(dp[i], g, t_order, z_cap) for i in range(n)]
        g = [base[i] + composed[i].shift_t(1) for i in range(n)]
    return [PolyVector([g[i].coeff(j) for i in range(n)]) for j in range(t_order + 1)]


def potential_from_gradient(vec: PolyVector) -> Poly:
    """Recover q with grad q = vec and q(0) = 0, by graded Euler division.

    Each degree-e piece of sum_i z_i vec_i equals e times the matching
    piece of q.  Raises if vec is not an exact gradient.
    """
    n = vec.arity
    radial = _poly_dot(n, [(Poly.variable(i, n), vec[i]) for i in range(n)])
    q = Poly.zero(n)
    for e in sorted({sum(m) for m in radial.terms}):
        q = q + radial.graded_piece(e).scale(Fraction(1, e))
    for i in range(n):
        if partial(q, i) != vec[i]:
            raise ValueError("input is not an exact gradient field")
    return q


def pair_from_fixed_point(p: Poly, t_order: int, z_cap: Optional[int] = None) -> DeformedPair:
    """Deformed pair recovered from the fixed-point iteration.

    The t^m slot of the iteration is grad Q_[m]; integrating each slot
    gives Q_[m] directly, with the gradient property verified.
    """
    slots_grad = invert_fixed_point(p, t_order, z_cap)
    slots = [potential_from_gradient(v) for v in slots_grad[1:]]
    return _pair(p, slots, z_cap, "fixed_point")


# -- t-graded operator helpers -------------------------------------------------


def tg_partial(a: TGraded, index: int) -> TGraded:
    return a.map_coeffs(lambda p: partial(p, index), z_drop=1)


def tg_laplacian(a: TGraded) -> TGraded:
    return a.map_coeffs(laplacian, z_drop=2)


def tg_laplacian_iter(a: TGraded, k: int) -> TGraded:
    for _ in range(k):
        a = tg_laplacian(a)
    return a


# -- residuals and identity checks ----------------------------------------------


def deg_t(pair: DeformedPair) -> int:
    """Largest t-power with a nonzero slot, within the computed window."""
    top = 0
    for j in range(pair.t_order):
        if not pair.q.coeffs[j].is_zero():
            top = j
    return top


def first_vanishing_index(pair: DeformedPair) -> Optional[int]:
    """Smallest m with Q_[m] = ... = Q_[t_order] = 0, None if Q_[t_order] != 0."""
    idx = None
    for m in range(pair.t_order, 0, -1):
        if pair.q.coeff(m - 1).is_zero():
            idx = m
        else:
            break
    return idx


def compose_check(
    p: Poly,
    pair: DeformedPair,
    direction: str = "fg",
    z_cap: Optional[int] = None,
) -> List[TGraded]:
    """Residual of the inversion property, one series per coordinate.

    direction "fg" checks F_t(G_t(z)) - z, "gf" checks G_t(F_t(z)) - z.
    Both vanish identically through t^t_order when the pair is correct.
    """
    if direction not in ("fg", "gf"):
        raise ValueError("direction must be 'fg' or 'gf'")
    n = p.arity
    m_top = pair.t_order + 1
    coords = [Poly.variable(i, n) for i in range(n)]
    dp = [partial(p, i) for i in range(n)]
    dq = [[partial(pair.q.coeff(j), i) for i in range(n)] for j in range(pair.t_order)]
    residuals = []
    if direction == "fg":
        g_vec = [
            TGraded(n, [coords[i]] + [dq[j][i] for j in range(pair.t_order)], m_top, z_cap)
            for i in range(n)
        ]
        for i in range(n):
            comp = compose_poly(dp[i], g_vec, pair.t_order, z_cap)
            resid = g_vec[i] - comp.shift_t(1) - TGraded.from_poly(coords[i], m_top, z_cap)
            residuals.append(resid)
    else:
        f_vec = [TGraded(n, [coords[i], -dp[i]], m_top, z_cap) for i in range(n)]
        for i in range(n):
            acc = f_vec[i]
            for j in range(pair.t_order):
                comp = compose_poly(dq[j][i], f_vec, m_top - (j + 1), z_cap)
                acc = acc + comp.shift_t(j + 1)
            residuals.append(acc - TGraded.from_poly(coords[i], m_top, z_cap))
    return residuals


def burgers_residual(pair: DeformedPair, form: str = "gradient") -> TGraded:
    """Residual of the evolution law of Q_t, trusted through t^{t_order-2}.

    form "gradient":  dQ/dt - (1/2) <grad Q, grad Q>   (every P)
    form "laplacian": dQ/dt - (1/4) Delta(Q^2)         (HN P)
    """
    q = pair.q
    if form == "gradient":
        rhs = TGraded.zero(q.arity, q.t_order, q.z_trunc)
        for i in range(q.arity):
            d = tg_partial(q, i)
            rhs = rhs + d * d
        rhs = rhs.scale(Fraction(1, 2))
    elif form == "laplacian":
        rhs = tg_laplacian(q * q).scale(Fraction(1, 4))
    else:
        raise ValueError("form must be 'gradient' or 'laplacian'")
    return q.dt() - rhs


def heat_residual(p: Poly, pair: DeformedPair, s: ScalarLike, z_cap: int) -> TGraded:
    """Residual of dU/dt = (1/(2s)) Delta U for U = exp(s Q_t).

    U is an honest z-truncated series, so the residual is trusted through
    z-degree z_cap - 2 and t-power t_order - 2.
    """
    s = GaussianRational.coerce(s)
    if not s:
        raise ValueError("s must be nonzero")
    if z_cap is None:
        raise ValueError("a z-degree cap is required (exp is an infinite z-series)")
    u = exp_tgraded(pair.q.scale(s), z_cap)
    return u.dt() - tg_laplacian(u).scale(GaussianRational(1) / (2 * s))


def exp_formula_check(
    p: Poly,
    pair: DeformedPair,
    s: ScalarLike,
    z_cap: int,
) -> Tuple[TGraded, TGraded]:
    """Both sides of exp(s Q_t) = sum_k t^k Delta^k exp(s P) / ((2s)^k k!).

    Valid for Hessian-nilpotent P.  exp(s P) is computed with 2(t_order-1)
    degrees of padding so that every iterated Laplacian on the right is
    exact through z_cap.
    """
    s = GaussianRational.coerce(s)
    if not s:
        raise ValueError("s must be nonzero")
    lhs = exp_tgraded(pair.q.scale(s), z_cap)
    m_top = pair.t_order
    padded = exp_truncated(p, s, z_cap + 2 * (m_top - 1))
    slots = []
    term = padded
    for k in range(m_top):
        if k:
            term = laplacian(term)
        c = (GaussianRational(1) / ((2 * s) ** k)) * Fraction(1, math.factorial(k))
        slots.append(term.truncate(z_cap).scale(c))
    return lhs, TGraded(p.arity, slots, m_top, z_cap)


def exp_tilde_check(
    p: Poly,
    pair: DeformedPair,
    z_cap: Optional[int] = None,
) -> Tuple[TGraded, TGraded]:
    """Both sides of exp(Q_t - P) = exp(t ((1/2) Delta + Lambda_P + (1/4) Delta P^2)) 1.

    Valid for Hessian-nilpotent P.  Both sides are polynomial slot by
    slot, so no cap is needed; with a cap, operator applications on the
    right are padded before the final truncation.
    """
    n = p.arity
    m_top = pair.t_order
    tilde = TGraded(n, [Poly.zero(n)] + list(pair.q.coeffs[1:]), m_top, pair.q.z_trunc)
    lhs = exp_tgraded(tilde, z_cap)
    dp = [partial(p, i) for i in range(n)]
    quarter_dp2 = laplacian_powers_table(p, 1, (1,))[0][1].scale(Fraction(1, 4))

    def op(f: Poly) -> Poly:
        pairs = [(dp[i], partial(f, i)) for i in range(n)] + [(quarter_dp2, f)]
        return laplacian(f).scale(Fraction(1, 2)) + _poly_dot(n, pairs)

    slots = [Poly.one(n)]
    f = Poly.one(n)
    for k in range(1, m_top):
        f = op(f)
        if z_cap is not None:
            f = f.truncate(z_cap + 2 * (m_top - 1 - k))
        slots.append(f.scale(Fraction(1, math.factorial(k))))
    return lhs, TGraded(n, slots, m_top, z_cap)


def qt_power(p: Poly, k: int, t_order: int, z_cap: Optional[int] = None) -> TGraded:
    """Closed form of Q_t^k for Hessian-nilpotent P:

    Q_t^k = k! sum_m t^m Delta^m P^{m+k} / (2^m m! (m+k)!).
    """
    error = "k must be at least 1" if k < 1 else None
    return TGraded(p.arity, _power_slots(p, k, t_order, "qt_power", error), t_order, z_cap)


def power_flow_check(pair: DeformedPair, k: int, m: int) -> Tuple[TGraded, TGraded]:
    """Both sides of the mixed flow identity, for any P:

    d/dt Delta^k Q_t^m = 1/(2(m+1)) Delta^{k+1} Q_t^{m+1}
                         - (1/2) Delta^k (Q_t^m Delta Q_t).
    """
    if k < 0 or m < 1:
        raise ValueError("need k >= 0 and m >= 1")
    q = pair.q
    qm = q ** m
    lhs = tg_laplacian_iter(qm, k).dt()
    rhs = tg_laplacian_iter(qm * q, k + 1).scale(Fraction(1, 2 * (m + 1))) \
        - tg_laplacian_iter(qm * tg_laplacian(q), k).scale(Fraction(1, 2))
    return lhs, rhs.truncate_t(lhs.t_order)


def higher_dt_power_check(pair: DeformedPair, k: int, l: int) -> Tuple[TGraded, TGraded]:
    """Both sides of the l-fold t-derivative law, Hessian-nilpotent case:

    d^l/dt^l Q_t^k = Delta^l Q_t^{k+l} / (2^l (k+1)(k+2)...(k+l)).
    """
    if k < 1 or l < 1:
        raise ValueError("need k >= 1 and l >= 1")
    q = pair.q
    lhs = q ** k
    for _ in range(l):
        lhs = lhs.dt()
    rhs = tg_laplacian_iter(q ** (k + l), l).scale(Fraction(1, (2 ** l) * math.perm(k + l, l)))
    return lhs, rhs.truncate_t(lhs.t_order)


def binomial_identity_check(p: Poly, alpha: int, beta: int, m: int) -> Tuple[Poly, Poly]:
    """Both sides of the convolution law for iterated Laplacians of powers:

    Delta^m P^{m+a+b} = C(a+b,a)^{-1} sum_{k+l=m} C(m,k) C(m+a+b, k+a)
                        (Delta^k P^{k+a}) (Delta^l P^{l+b}),

    valid for Hessian-nilpotent P and a, b >= 1; both sides are returned
    unasserted, so a non-HN input simply yields an unequal pair.
    """
    if alpha < 1 or beta < 1 or m < 0:
        raise ValueError("need alpha >= 1, beta >= 1, m >= 0")
    rows_a, rows_b, rows_ab = laplacian_powers_table(p, m, (alpha, beta, alpha + beta))
    ks = range(m + 1)
    rhs = _poly_dot(p.arity, [(rows_a[k], rows_b[m - k]) for k in ks],
                    [math.comb(m, k) * math.comb(m + alpha + beta, k + alpha) for k in ks])
    return rows_ab[m], rhs.scale(Fraction(1, math.comb(alpha + beta, alpha)))
