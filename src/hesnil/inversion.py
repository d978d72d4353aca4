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
route.  The Laplacian recurrence certifies itself: the Laplacians of its slots
give the HN verdict, so the HN-only routes refuse non-HN input on it, forming
no power of P.  The check functions return residuals or (lhs, rhs) pairs and
never assert; callers decide what zero means for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .diffops import PolyVector, laplacian, laplacian_powers_table
from .gaussrat import GaussianRational, ScalarLike
from .nilpotency import CriterionMismatchError, TheoremCheckError, _light_cone, trace_powers
from .poly import Poly, _Packed, _compose_packed, _exp_packed, _poly_dot, _slot, format_poly
from .tgraded import TGraded, _exp_slots, exp_tgraded


class OrderViolationError(ValueError):
    """Input must have order >= 2 (no constant or linear part)."""


class HNRequiredError(ValueError):
    """This construction is only valid for Hessian-nilpotent input."""


def _require_order2(p: Poly) -> None:
    if not p.is_zero() and p.order() < 2:
        raise OrderViolationError(f"inversion needs order >= 2, got order {p.order()}")


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
    acc, grads = _Packed.of(slots[0], top), []
    last = 0 if slots[0].is_zero() else 1
    for m in range(2, t_order + 1):
        if m > 2 * last:
            # D = last is the last nonzero slot: each pair k + l = m' >= m > 2D has
            # max(k, l) strictly between D and m', a zero slot by induction on m'
            slots += [Poly.zero(n)] * (t_order + 1 - m)
            break
        grads.append([acc.partial(i) for i in range(n)])
        # the k = l pairs once, the k < l pairs twice
        pairs, weights = [], []
        for k in range(1, m // 2 + 1):
            pairs += zip(grads[k - 1], grads[m - k - 1])
            weights += [1 if 2 * k == m else 2] * n
        acc = _slot(acc, pairs, weights, 2 * (m - 1), z_cap)
        slots.append(acc.poly())
        last = last if not acc.terms else m
    return _pair(p, slots, z_cap, "general")


def _hn_slots(p: Poly, t_order: int, z_cap: Optional[int] = None) -> Optional[List[Poly]]:
    """Q_[1..T], T = max(t_order, n, 1), by the Laplacian recurrence if p is HN, else None:

    Q_[1] = P,   Q_[m] = 1/(4(m-1)) Delta sum_{k+l=m} Q_[k] Q_[l].

    While Q_[1..m-1] are harmonic, slot m is invert_general's, and Delta Q_t =
    sum_k t^k Tr H^{k+1}(G_t) for H = Hes P, so the first nonzero Delta Q_[m] is
    Tr H^m: by Newton's identities P is HN iff Delta Q_[m] = 0 for m <= n.  Raises
    unless both routes agree as polynomials there, or if a later slot is not harmonic.
    With a z-degree cap, slot m > n is kept to z_cap + 2(T - m), so each Laplacian
    leaves z_cap exact.  It runs in _light_cone's coordinates, exact for every P; the
    traces stay in (u, v), and Delta Q_[m] is mapped back to meet them.
    """
    _require_order2(p)
    traces = trace_powers(p)  # Tr H^m for m <= n: the verdict's window
    image, pairs, back = _light_cone(p)
    n, total = len(traces), max(t_order, len(traces), 1)
    # every product below has degree at most total (deg P - 2) + 4
    forms, last = [_Packed.of(image, total * (p.degree() - 2) + 4)], 0
    for m in range(1, total + 1):
        if m > 1:
            if m > max(2 * last, n):
                break  # closed as in invert_general: every slot from m on is zero
            # the k = l pair once, the k < l pairs twice; the sum kept 2 degrees past slot m
            ks = range(1, m // 2 + 1)
            cap = None if z_cap is None or m <= n else z_cap + 2 * (total + 1 - m)
            forms.append(_slot(forms[0], [(forms[k - 1], forms[m - k - 1]) for k in ks],
                               [1 if 2 * k == m else 2 for k in ks], 4 * (m - 1), cap
                               ).laplacian(pairs))
        last, lap = m if forms[-1].terms else last, forms[-1].laplacian(pairs)
        if m <= n and (lap.terms or not traces[m - 1].is_zero()):
            if back([lap.poly()]) != [traces[m - 1]]:
                raise CriterionMismatchError(
                    f"Delta Q_[{m}] differs from Tr Hes(P)^{m} on {format_poly(p)!r}")
            return None
        if lap.terms:
            raise TheoremCheckError(f"Q_[{m}] is not harmonic past the verdict: {format_poly(p)!r}")
    return back([f.poly() for f in forms]) + [Poly.zero(p.arity)] * (total - len(forms))


def invert_hn(p: Poly, t_order: int, z_cap: Optional[int] = None) -> DeformedPair:
    """The Laplacian recurrence of _hn_slots, HN input only; exact through z_cap."""
    slots = _hn_slots(p, t_order, z_cap)
    if slots is None:
        raise HNRequiredError("invert_hn needs Hessian-nilpotent input")
    if t_order < 1:
        raise ValueError("t_order must be at least 1")
    return _pair(p, slots[:t_order], z_cap, "hn_recurrence")


def invert_closed(p: Poly, t_order: int, z_cap: Optional[int] = None) -> DeformedPair:
    """Closed form, Hessian-nilpotent input only:

    Q_[m] = Delta^{m-1} P^m / (2^{m-1} m! (m-1)!).
    """
    if _hn_slots(p, p.arity) is None:  # raises first on order < 2; forms no power of P
        raise HNRequiredError("invert_closed needs Hessian-nilpotent input")
    if t_order < 1:
        raise ValueError("t_order must be at least 1")
    return _pair(p, _power_slots(p, 1, t_order), z_cap, "closed_form")


def _power_slots(p: Poly, k: int, t_order: int) -> List[Poly]:
    """k! Delta^m P^{m+k} / (2^m m! (m+k)!) for m < t_order: for HN P, the t^m slots of
    Q_t^k.  At k = 1 slot m is Q_[m+1], so invert_closed, qt_power and the vanishing
    window share this one chain of powers; the callers take the HN verdict.
    """
    # k! / (m! (m+k)!) = 1 / (m! perm(m+k, m))
    return [row.scale(Fraction(1, 2 ** m * math.factorial(m) * math.perm(m + k, m)))
            for m, row in enumerate(laplacian_powers_table(p, t_order - 1, (k,))[0])]


def invert_fixed_point(p: Poly, t_order: int, z_cap: Optional[int] = None) -> List[PolyVector]:
    """Iterate G <- z + t (grad P)(G), truncated past t^t_order.

    Round r pins down the coefficient of t^r from the slots below it, so it
    composes at window r, and t_order rounds converge.
    Returns one PolyVector per t-power 0..t_order; slot 0 is the identity
    and slot j equals grad Q_[j].  G stays packed through every round.
    """
    _require_order2(p)
    if t_order < 1:
        raise ValueError("t_order must be at least 1")
    if z_cap is not None and z_cap < 0:
        raise ValueError(f"z-degree cap must be nonnegative, got {z_cap}")
    n = p.arity
    if n == 0:
        raise ValueError("need at least one variable")
    # in every round, slot j of G has degree at most j (deg P - 2) + 1
    top = max(t_order * (p.degree() - 2) + 1, 1)
    one, source = _Packed.of(Poly.one(n), top), _Packed.of(p, p.degree())
    dp = [source.partial(i) for i in range(n)]
    base = [_Packed.of(Poly.variable(i, n), top).truncate(z_cap) for i in range(n)]
    g = [[z] for z in base]
    for r in range(1, t_order + 1):
        comps = _compose_packed(dp, g, [r] * n, one)
        g = [[base[i]] + [_slot(one, ps, cap=z_cap) for ps in comps[i]] for i in range(n)]
    return [PolyVector([g[i][j].poly() for i in range(n)]) for j in range(t_order + 1)]


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
    form = _Packed.of(q, q.degree())
    if any(form.partial(i).poly() != vec[i] for i in range(n)):
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


def tg_laplacian(a: TGraded, k: int = 1) -> TGraded:
    for _ in range(k):
        a = a.map_coeffs(laplacian, z_drop=2)
    return a


# -- residuals and identity checks ----------------------------------------------


def deg_t(pair: DeformedPair) -> int:
    """Largest t-power with a nonzero slot, within the computed window."""
    return max((j for j, c in enumerate(pair.q.coeffs) if not c.is_zero()), default=0)


def first_vanishing_index(pair: DeformedPair) -> Optional[int]:
    """Smallest m with Q_[m] = ... = Q_[t_order] = 0, None if Q_[t_order] != 0."""
    last = max((j + 1 for j, c in enumerate(pair.q.coeffs) if not c.is_zero()), default=0)
    return last + 1 if last < pair.t_order else None


def compose_check(p: Poly, pair: DeformedPair, direction: str = "fg",
                  z_cap: Optional[int] = None) -> List[TGraded]:
    """Residual of the inversion property, one series per coordinate.

    direction "fg" checks F_t(G_t(z)) - z, "gf" checks G_t(F_t(z)) - z.
    Both vanish identically through t^t_order when the pair is correct.
    Without z_cap, a pair capped at c is checked through z-degree
    max(c - 1, 0): its grad Q is trusted one degree less than Q.

    Each residual slot is one packed dot, reduced once.
    """
    if direction not in ("fg", "gf"):
        raise ValueError("direction must be 'fg' or 'gf'")
    n, t, q = p.arity, pair.t_order, pair.q
    if z_cap is None and q.z_trunc is not None:
        z_cap = max(q.z_trunc - 1, 0)
    # bounds deg P, deg Q and every product below
    top = max([p.degree(), 1] + [c.degree() for c in q.coeffs]) * max(p.degree() - 1, 1)
    one, source = _Packed.of(Poly.one(n), top), _Packed.of(p, top)
    forms = [_Packed.of(c, top) for c in q.coeffs]
    minus_dp = [_slot(one, [(source.partial(i), one)], [-1]) for i in range(n)]
    dq = [[f.partial(i) for f in forms] for i in range(n)]
    z = [_Packed.of(Poly.variable(i, n), top).truncate(z_cap) for i in range(n)]
    if direction == "fg":
        # slot s >= 1 of F(G) - z: G_s + ((-grad P)(G))_{s-1}
        vals = [[z[i]] + [d.truncate(z_cap) for d in dq[i]] for i in range(n)]
        comps = _compose_packed(minus_dp, vals, [t] * n, one)
    else:
        # slot s >= 1 of G(F) - z: F_s + sum_{j<s} ((grad Q_[j+1])(F))_{s-1-j}
        vals = [[z[i], minus_dp[i].truncate(z_cap)] for i in range(n)]
        parts = _compose_packed([d for row in dq for d in row], vals,
                                [t - j for _ in range(n) for j in range(t)], one)
        comps = [[sum((parts[i * t + j][r - j] for j in range(r + 1)), []) for r in range(t)]
                 for i in range(n)]
    # slot 0 is z - z in both directions: G_0 = F_0 = z by construction
    return [TGraded(n, [Poly.zero(n)] + [
        _slot(one, [(v, one) for v in vals[i][s:s + 1]] + ps, cap=z_cap).poly()
        for s, ps in enumerate(comps[i], 1)], t + 1, z_cap) for i in range(n)]


def burgers_residual(pair: DeformedPair, form: str = "gradient") -> TGraded:
    """Residual of the evolution law of Q_t, trusted through t^{t_order-2}.

    form "gradient":  dQ/dt - (1/2) <grad Q, grad Q>   (every P)
    form "laplacian": dQ/dt - (1/4) Delta(Q^2)         (HN P)
    """
    if form not in ("gradient", "laplacian"):
        raise ValueError("form must be 'gradient' or 'laplacian'")
    q = pair.q
    if q.t_order == 0:
        raise ValueError("cannot differentiate an empty window")
    n, gradient = q.arity, form == "gradient"
    cap = None if q.z_trunc is None else max(q.z_trunc - 2 + gradient, 0)
    top = 2 * max(c.degree() for c in q.coeffs)
    forms, one = [_Packed.of(c, top) for c in q.coeffs], _Packed.of(Poly.one(n), top)
    grads = [[f.partial(i) for i in range(n)] for f in forms] if gradient else []
    slots = []
    for j in range(q.t_order - 1):
        ks = range(j // 2 + 1)
        ws = [1 + (2 * k < j) for k in ks]  # the k = l pair once, the k < l pairs twice
        if gradient:
            # 2 * slot j = 2(j+1) Q_[j+2] - sum_{k+l=j} <grad Q_[k+1], grad Q_[l+1]>
            pairs = [(forms[j + 1], one)] + [ab for k in ks for ab in zip(grads[k], grads[j - k])]
            weights = [2 * (j + 1)] + [-w for w in ws for _ in range(n)]
        else:
            # 4 * slot j = 4(j+1) Q_[j+2] - Delta sum_{k+l=j} Q_[k+1] Q_[l+1]
            square = _Packed.dot([(forms[k], forms[j - k]) for k in ks], ws)
            pairs = [(forms[j + 1], one), (square.truncate(q.z_trunc).laplacian(), one)]
            weights = [4 * (j + 1), -1]
        slots.append(_slot(one, pairs, weights, 4 - 2 * gradient, cap).poly())
    return TGraded(n, slots, q.t_order - 1, cap)


def heat_residual(p: Poly, pair: DeformedPair, s: ScalarLike, z_cap: int) -> TGraded:
    """Residual of dU/dt = (1/(2s)) Delta U for U = exp(s Q_t).

    U is an honest z-truncated series, so the residual is trusted through
    z-degree z_cap - 2 and t-power t_order - 2.  U stays packed up to the
    one reduction per residual slot.
    """
    s = GaussianRational.coerce(s)
    if not s:
        raise ValueError("s must be nonzero")
    if z_cap is None:
        raise ValueError("a z-degree cap is required (exp is an infinite z-series)")
    if pair.t_order == 0:
        raise ValueError("cannot differentiate an empty window")
    cap, u = _exp_slots(pair.q, s, z_cap)
    one, half, cap = u[0].constant(1), u[0].constant(1 / (2 * s)), max(cap - 2, 0)
    slots = [_slot(one, [(u[j + 1], one), (u[j].laplacian(), half)], [j + 1, -1], cap=cap).poly()
             for j in range(pair.t_order - 1)]
    return TGraded(p.arity, slots, pair.t_order - 1, cap)


def exp_formula_check(p: Poly, pair: DeformedPair, s: ScalarLike,
                      z_cap: int) -> Tuple[TGraded, TGraded]:
    """Both sides of exp(s Q_t) = sum_k t^k Delta^k exp(s P) / ((2s)^k k!).

    Valid for Hessian-nilpotent P.  Both sides are truncated at the tighter
    of z_cap and the pair's own cap.  exp(s P) is computed, packed, with
    2(t_order-1) degrees of padding so that every iterated Laplacian on the
    right is exact through that cap.
    """
    s = GaussianRational.coerce(s)
    if not s:
        raise ValueError("s must be nonzero")
    cap, u = _exp_slots(pair.q, s, z_cap)
    m_top, n = pair.t_order, p.arity
    lhs = TGraded(n, [x.poly() for x in u], m_top, cap)
    term = _exp_packed(p, s, cap + 2 * (m_top - 1), cap + 2 * (m_top - 1) + p.degree())
    slots = []
    for k in range(m_top):
        term = term.laplacian() if k else term
        c = 1 / ((2 * s) ** k * math.factorial(k))
        slots.append(_Packed.dot([(term.truncate(cap), term.constant(c))]).poly())
    return lhs, TGraded(n, slots, m_top, cap)


def exp_tilde_check(p: Poly, pair: DeformedPair,
                    z_cap: Optional[int] = None) -> Tuple[TGraded, TGraded]:
    """Both sides of exp(Q_t - P) = exp(t ((1/2) Delta + Lambda_P + (1/4) Delta P^2)) 1.

    Valid for Hessian-nilpotent P.  Both sides are polynomial slot by
    slot, so no cap is needed; with a cap, operator applications on the
    right are padded before the final truncation.
    """
    n, m_top = p.arity, pair.t_order
    tilde = TGraded(n, [Poly.zero(n)] + list(pair.q.coeffs[1:]), m_top, pair.q.z_trunc)
    lhs = exp_tgraded(tilde, z_cap)
    # f_k = op^k 1 has degree at most k (2 deg P - 2), so top bounds every product below
    top = max(m_top, 1) * 2 * max(p.degree(), 1)
    x, one = _Packed.of(p, top), _Packed.of(Poly.one(n), top)
    dp, lap_p2 = [x.partial(i) for i in range(n)], _Packed.dot([(x, x)]).laplacian()
    slots, f = [Poly.one(n)], one
    for k in range(1, m_top):
        # 4 op(f) = 2 Delta f + 4 <grad P, grad f> + (Delta P^2) f
        pairs = [(f.laplacian(), one), (lap_p2, f)] + [(d, f.partial(i)) for i, d in enumerate(dp)]
        cap = None if z_cap is None else z_cap + 2 * (m_top - 1 - k)
        f = _slot(one, pairs, [2, 1] + [4] * n, 4, cap)
        slots.append(_Packed(n, f.width, f.den * math.factorial(k), f.terms).poly())
    return lhs, TGraded(n, slots, m_top, z_cap)


def qt_power(p: Poly, k: int, t_order: int, z_cap: Optional[int] = None) -> TGraded:
    """Closed form of Q_t^k for Hessian-nilpotent P:

    Q_t^k = k! sum_m t^m Delta^m P^{m+k} / (2^m m! (m+k)!).
    """
    if _hn_slots(p, p.arity) is None:
        raise HNRequiredError("qt_power needs Hessian-nilpotent input")
    if k < 1:
        raise ValueError("k must be at least 1")
    return TGraded(p.arity, _power_slots(p, k, t_order), t_order, z_cap)


def power_flow_check(pair: DeformedPair, k: int, m: int) -> Tuple[TGraded, TGraded]:
    """Both sides of the mixed flow identity, for any P:

    d/dt Delta^k Q_t^m = 1/(2(m+1)) Delta^{k+1} Q_t^{m+1}
                         - (1/2) Delta^k (Q_t^m Delta Q_t).
    """
    if k < 0 or m < 1:
        raise ValueError("need k >= 0 and m >= 1")
    q = pair.q
    qm = q ** m
    lhs = tg_laplacian(qm, k).dt()
    rhs = tg_laplacian(qm * q, k + 1).scale(Fraction(1, 2 * (m + 1))) \
        - tg_laplacian(qm * tg_laplacian(q), k).scale(Fraction(1, 2))
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
    rhs = tg_laplacian(q ** (k + l), l).scale(Fraction(1, (2 ** l) * math.perm(k + l, l)))
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
