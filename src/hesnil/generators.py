"""Constructions that produce Hessian-nilpotent polynomials from isotropic data.

All vectors live in C^n with the bilinear (not Hermitian) pairing
<a, b> = sum_i a_i b_i, so "isotropic" means <a, a> = 0.  Coordinates are
Gaussian rationals throughout; nothing here is numeric.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .gaussrat import GaussianRational, ScalarLike, gr
from .poly import Poly, _poly_dot
from .diffops import PolyMatrix, PolyVector, cofactor_det, jacobian
from .nilpotency import TheoremCheckError, _plane_map, is_hn, trace_powers

# the class by name: typing caches subscriptions by argument, so a class
# object here would keep every re-imported gaussrat module alive
Vector = Tuple["GaussianRational", ...]
VectorLike = Sequence[ScalarLike]


class IsotropyViolation(ValueError):
    """A vector supposed to be isotropic has <a, a> != 0."""


class OrthogonalityViolation(ValueError):
    """Two vectors supposed to be orthogonal have <a, b> != 0."""


class GeneratorTheoremError(TheoremCheckError):
    """A consequence that is a theorem for these constructions failed to hold."""


def _coerce_vector(v: VectorLike) -> Vector:
    return tuple(GaussianRational.coerce(c) for c in v)


def bilinear(a: VectorLike, b: VectorLike) -> GaussianRational:
    """<a, b> = sum a_i b_i, without conjugation."""
    va, vb = _coerce_vector(a), _coerce_vector(b)
    if len(va) != len(vb):
        raise ValueError("vectors have different lengths")
    total = GaussianRational(0)
    for x, y in zip(va, vb):
        total = total + x * y
    return total


@dataclass(frozen=True)
class IsotropicSet:
    """A finite family of isotropic vectors in C^n.

    Isotropy of every member is validated on construction.  When
    ``pairwise_orthogonal`` is set, <a_i, a_j> = 0 is validated for all pairs
    as well; the flag is therefore trustworthy downstream.
    """

    arity: int
    vectors: Tuple[Vector, ...]
    pairwise_orthogonal: bool = False

    def __init__(self, arity: int, vectors: Sequence[VectorLike],
                 pairwise_orthogonal: bool = False):
        if arity < 1:
            raise ValueError("arity must be a positive integer")
        vecs = tuple(_coerce_vector(v) for v in vectors)
        for v in vecs:
            if len(v) != arity:
                raise ValueError("vector length does not match arity")
            q = bilinear(v, v)
            if not q.is_zero():
                raise IsotropyViolation(f"vector {v} has <a, a> = {q} != 0")
        if pairwise_orthogonal:
            for i in range(len(vecs)):
                for j in range(i + 1, len(vecs)):
                    q = bilinear(vecs[i], vecs[j])
                    if not q.is_zero():
                        raise OrthogonalityViolation(
                            f"vectors {i} and {j} have <a, b> = {q} != 0")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "pairwise_orthogonal", pairwise_orthogonal)

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)


def linear_form(alpha: VectorLike, arity: Optional[int] = None) -> Poly:
    """The linear polynomial h_a(z) = sum_i a_i z_i."""
    v = _coerce_vector(alpha)
    n = len(v) if arity is None else arity
    if len(v) != n:
        raise ValueError("vector length does not match arity")
    if n < 1:
        raise ValueError("arity must be a positive integer")
    terms = {}
    for idx, c in enumerate(v):
        if not c.is_zero():
            e = [0] * n
            e[idx] = 1
            terms[tuple(e)] = c
    return Poly(n, terms)


def w_construction(xi: IsotropicSet, d: int) -> Poly:
    """Sum of d-th powers of the linear forms of a pairwise-orthogonal set.

    The orthogonality is re-verified here rather than trusted from the flag.
    An empty family yields the zero polynomial.
    """
    IsotropicSet(xi.arity, xi.vectors, pairwise_orthogonal=True)
    return w_construction_unchecked(xi, d)


def w_tilde_construction(xi_list: Sequence[IsotropicSet], max_degree: int) -> Poly:
    """Mixed-degree sum: the m-th family contributes degree m + 1 powers.

    All vectors across all families must be pairwise orthogonal (and
    isotropic); contributions above ``max_degree`` are dropped.
    """
    if not xi_list:
        raise ValueError("need at least one family")
    n = xi_list[0].arity
    flat: List[Vector] = []
    for xi in xi_list:
        if xi.arity != n:
            raise ValueError("families have mismatched arity")
        flat.extend(xi.vectors)
    IsotropicSet(n, flat, pairwise_orthogonal=True)
    total = Poly.zero(n)
    for d, xi in enumerate(xi_list, start=2):
        if d <= max_degree:
            total = total + w_construction_unchecked(xi, d)
    return total


def ug_construction(g: Poly, betas: Union[IsotropicSet, Sequence[VectorLike]]) -> Poly:
    """Compose g with pairwise-orthogonal isotropic linear forms.

    U_g(z) = g(h_b1(z), ..., h_bk(z)) where k = arity of g.  The family is
    validated for isotropy and pairwise orthogonality.
    """
    if isinstance(betas, IsotropicSet):
        vecs = betas.vectors
        n = betas.arity
        # revalidate orthogonality unless the set was built with the flag
        if not betas.pairwise_orthogonal:
            betas = IsotropicSet(n, vecs, pairwise_orthogonal=True)
    else:
        vecs = tuple(_coerce_vector(v) for v in betas)
        if not vecs:
            raise ValueError("need at least one vector")
        n = len(vecs[0])
        betas = IsotropicSet(n, vecs, pairwise_orthogonal=True)
    if g.arity != len(vecs):
        raise ValueError("arity of g must equal the number of vectors")
    matrix = [list(v) for v in vecs]
    return g.substitute_linear(matrix)


def pg_construction(g: Poly) -> Poly:
    """Double the variables: z_j of g becomes u_j + i v_j.

    For g in n variables the result lives in 2n variables ordered
    u_1..u_n, v_1..v_n, and is Hessian-nilpotent for every g.
    """
    if g.arity < 1:
        raise ValueError("g must have at least one variable")
    return g.substitute_linear(_plane_map(2 * g.arity)[:g.arity])


def ph_construction(h: PolyVector) -> Tuple[Poly, bool]:
    """P_H(u, v) = sum_i v_i H_i(u + iv), with the Jacobian-nilpotency verdict.

    H is a polynomial map C^n -> C^n given in variables z_1..z_n.  The result
    lives in 2n variables u_1..u_n, v_1..v_n.  P_H is Hessian-nilpotent
    exactly when the Jacobian matrix JH is nilpotent; both are computed and
    the verdict on JH is returned alongside the polynomial.
    """
    n = len(h)
    if h.arity != n:
        raise ValueError("H must be a map C^n -> C^n in n variables")
    # sum_i w_i H_i(z) in 2n variables (z, w), then z_j -> u_j + i v_j and w_j -> v_j at once
    lifted = Poly(2 * n, {m + tuple(int(j == i) for j in range(n)): c
                          for i, q in enumerate(h) for m, c in q.terms.items()})
    total = lifted.substitute_linear(_plane_map(2 * n, ((1, GaussianRational(0, 1)), (0, 1))))
    # Tr JH^m = 0 for m = 1..n is equivalent to nilpotency in char 0
    nilpotent = all(t.is_zero() for t in jacobian(h).trace_powers(n))
    return total, nilpotent


def scalar_det(rows: Sequence[Sequence[GaussianRational]]) -> GaussianRational:
    """Determinant of a small Gaussian-rational matrix by cofactor expansion."""
    k = len(rows)
    for row in rows:
        if len(row) != k:
            raise ValueError("matrix must be square")
    if k == 0:
        return GaussianRational(1)
    return cofactor_det(rows, GaussianRational(0))


@dataclass(frozen=True)
class PsiData:
    """Gram matrix A and the associated polynomial matrix Psi.

    For P = sum_i h_{a_i}^d: A[i][j] = <a_i, a_j> and
    Psi[i][j] = A[i][j] * h_{a_j}^{d-2}.
    """

    degree: int
    gram: Tuple[Tuple[GaussianRational, ...], ...]
    psi: PolyMatrix


def psi_data(alphas: IsotropicSet, d: int) -> PsiData:
    if d < 2:
        raise ValueError("degree d must be at least 2")
    vecs = alphas.vectors
    if not vecs:
        raise ValueError("need at least one vector")
    n = alphas.arity
    gram = tuple(tuple(bilinear(a, b) for b in vecs) for a in vecs)
    forms = [linear_form(v, n) ** (d - 2) for v in vecs]
    rows = []
    for i in range(len(vecs)):
        rows.append([forms[j].scale(gram[i][j]) for j in range(len(vecs))])
    return PsiData(degree=d, gram=gram, psi=PolyMatrix(rows))


def crit2_check(alphas: IsotropicSet, d: int, m_max: int):
    """Trace identities for P = sum h_{a_i}^d against the small matrix Psi.

    Returns the list of pairs (Tr Hes^m(P), (d(d-1))^m Tr Psi^m) for
    m = 1..m_max.  When P turns out Hessian-nilpotent, the forced
    consequences are also verified: det A = 0, the m-th power pairing sums
    vanish for 2 <= m <= d, and sum_i P(a_i) = 0.  A failure of any forced
    consequence raises GeneratorTheoremError.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    data = psi_data(alphas, d)
    n = alphas.arity
    p = w_construction_unchecked(alphas, d)

    factor = GaussianRational(d * (d - 1))
    psi_traces = data.psi.trace_powers(m_max)
    pairs = [(lhs, psi_traces[m - 1].scale(factor ** m))
             for m, lhs in enumerate(trace_powers(p, m_max), start=1)]

    report = is_hn(p)
    if report.is_hn:
        det = scalar_det([list(row) for row in data.gram])
        if not det.is_zero():
            raise GeneratorTheoremError(f"det A = {det} != 0 for a HN sum of powers")
        vecs = alphas.vectors
        forms = [linear_form(v, n) for v in vecs]
        for m in range(2, d + 1):
            # sum over i, j of <a_i, a_j>^m h_i^(d-m) h_j^(d-m), the weight folded into h_i
            powers = [f ** (d - m) for f in forms]
            total = _poly_dot(n, [(a.scale(c ** m), b) for row, a in zip(data.gram, powers)
                                  for c, b in zip(row, powers) if c])
            if not total.is_zero():
                raise GeneratorTheoremError(
                    f"pairing power sum for m = {m} is nonzero for a HN sum of powers")
        value_sum = GaussianRational(0)
        for v in vecs:
            value_sum = value_sum + p.evaluate(v)
        if not value_sum.is_zero():
            raise GeneratorTheoremError(
                f"sum of P over its own directions is {value_sum} != 0")
    return pairs


def w_construction_unchecked(xi: IsotropicSet, d: int) -> Poly:
    """Sum of d-th powers without any orthogonality requirement.

    Isotropy of each vector is still guaranteed by IsotropicSet.  Used where
    the family is deliberately allowed to be non-orthogonal.
    """
    if d < 2:
        raise ValueError("degree d must be at least 2")
    total = Poly.zero(xi.arity)
    for v in xi.vectors:
        total = total + linear_form(v, xi.arity) ** d
    return total


_SCALE_POOL: Tuple[GaussianRational, ...] = tuple(
    gr(re, im)
    for re in ("-2", "-1", "-1/2", "0", "1/2", "1", "3/2", "2")
    for im in ("-1", "-1/2", "0", "1/2", "1")
    if not (re == "0" and im == "0")
)


def sample_isotropic(n: int, count: int, seed: int,
                     pairwise_orthogonal: bool = False) -> IsotropicSet:
    """Deterministically sample isotropic vectors nl(e_p + s*i*e_q), p != q.

    Any Gaussian-rational multiple of e_p + s*i*e_q (s = +1 or -1) is
    isotropic.  With ``pairwise_orthogonal`` the vectors are placed on
    disjoint coordinate pairs, which caps count at n // 2; requests beyond
    that are infeasible and rejected.  The same (n, count, seed, flag)
    always yields the same set.
    """
    if n < 2:
        raise ValueError("need at least two variables for nonzero isotropic vectors")
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = random.Random(seed)
    vectors: List[Vector] = []
    if pairwise_orthogonal:
        if count > n // 2:
            raise ValueError(
                f"cannot fit {count} pairwise-orthogonal isotropic vectors in C^{n}")
        coords = list(range(n))
        rng.shuffle(coords)
        for j in range(count):
            p_idx, q_idx = coords[2 * j], coords[2 * j + 1]
            vectors.append(_pair_vector(n, p_idx, q_idx, rng))
    else:
        for _ in range(count):
            p_idx = rng.randrange(n)
            q_idx = rng.randrange(n - 1)
            if q_idx >= p_idx:
                q_idx += 1
            vectors.append(_pair_vector(n, p_idx, q_idx, rng))
    return IsotropicSet(n, vectors, pairwise_orthogonal=pairwise_orthogonal)


def _pair_vector(n: int, p_idx: int, q_idx: int, rng: random.Random) -> Vector:
    lam = rng.choice(_SCALE_POOL)
    eps = rng.choice((1, -1))
    vec = [GaussianRational(0)] * n
    vec[p_idx] = lam
    vec[q_idx] = lam * gr(0, eps)
    return tuple(vec)
