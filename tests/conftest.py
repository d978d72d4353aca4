"""Shared corpus builders for the test suite.

Everything is seeded so failures replay exactly.  Corpora are built once per
session and reused across test modules to keep the suite inside its time
budget.
"""

import random

import pytest

from hesnil import (
    GaussianRational,
    IsotropicSet,
    Poly,
    PolyVector,
    build_member,
    gr,
    is_hn,
    linear_form,
)

COEFF_POOL = tuple(
    gr(re, im)
    for re in ("-2", "-1", "-1/2", "0", "1/2", "1", "2")
    for im in ("-1", "0", "1", "1/2")
    if not (re == "0" and im == "0")
)


def rand_coeff(rng):
    return rng.choice(COEFF_POOL)


def rand_exponent(rng, arity, degree):
    e = [0] * arity
    for _ in range(degree):
        e[rng.randrange(arity)] += 1
    return tuple(e)


def random_poly(rng, arity, max_degree, terms=4, min_degree=0):
    """Random sparse polynomial with term degrees in [min_degree, max_degree]."""
    acc = {}
    for _ in range(terms):
        deg = rng.randint(min_degree, max_degree)
        mono = rand_exponent(rng, arity, deg)
        acc[mono] = acc.get(mono, GaussianRational(0)) + rand_coeff(rng)
    return Poly(arity, acc)


def random_order2_poly(rng, arity, max_degree, terms=4):
    """Random polynomial whose lowest term degree is at least 2."""
    while True:
        p = random_poly(rng, arity, max_degree, terms, min_degree=2)
        if not p.is_zero():
            return p


# member kinds rotated through the HN corpus: (kind, n, d)
_HN_ROTATION = [
    ("w", 2, 2), ("w", 4, 3), ("w", 4, 4), ("w", 3, 3),
    ("ug", 4, 2), ("ug", 4, 3), ("ug", 4, 4),
    ("pg", 2, 3), ("pg", 4, 2), ("pg", 4, 3), ("pg", 4, 4),
    ("ph", 4, 3), ("ph", 4, 4),
    ("wtilde", 4, 3),
]


def build_hn_corpus(count, seed=20240):
    """Seeded Hessian-nilpotent members, arity <= 4, degree <= 4."""
    members = []
    i = 0
    while len(members) < count:
        kind, n, d = _HN_ROTATION[i % len(_HN_ROTATION)]
        p, _ = build_member(n, d, kind, {}, seed + i, index=i)
        i += 1
        if p.is_zero():
            continue
        members.append(p)
    return members


def build_non_hn_corpus(count, seed=50711, arity_max=3, degree_max=4):
    """Random members of order >= 2 that fail the nilpotency criterion.

    Every fourth member is harmonic but still not Hessian-nilpotent: a sum
    of powers of two isotropic but non-orthogonal directions.
    """
    rng = random.Random(seed)
    members = []
    while len(members) < count:
        if len(members) % 4 == 3:
            p = _harmonic_non_hn(rng)
        else:
            arity = rng.randint(2, arity_max)
            p = random_order2_poly(rng, arity, degree_max)
        if not is_hn(p).is_hn:
            members.append(p)
    return members


def _harmonic_non_hn(rng):
    # two isotropic directions with <a, b> != 0 give a harmonic sum of cubes
    # whose squared Hessian has nonzero trace
    d = rng.choice((3, 4))
    a = linear_form((1, gr(0, 1), 0))
    b = linear_form((1, 0, gr(0, 1)))
    return a ** d + b ** d


def build_mixed_corpus(count, seed=90121, arity_max=3, degree_max=4):
    """Random polynomials with no nilpotency filtering, plus injected HN members."""
    rng = random.Random(seed)
    members = []
    hn_members = build_hn_corpus(count // 4, seed=seed + 1)
    hn_small = [p for p in hn_members if p.arity <= arity_max]
    while len(members) < count:
        if members and len(members) % 5 == 4 and hn_small:
            members.append(hn_small[len(members) % len(hn_small)])
        else:
            arity = rng.randint(1, arity_max)
            members.append(random_poly(rng, arity, degree_max, terms=3))
    return members


def random_triangular_map(rng, half, degree):
    """Strictly triangular polynomial map, so its Jacobian is nilpotent."""
    comps = []
    for i in range(half):
        if i == half - 1:
            comps.append(Poly.zero(half))
            continue
        acc = {}
        for _ in range(2):
            deg = rng.randint(1, degree)
            e = [0] * half
            for _ in range(deg):
                e[rng.randrange(i + 1, half)] += 1
            acc[tuple(e)] = acc.get(tuple(e), GaussianRational(0)) + rand_coeff(rng)
        comps.append(Poly(half, acc))
    return PolyVector(comps)


@pytest.fixture(scope="session")
def hn_corpus():
    return build_hn_corpus(52)


@pytest.fixture(scope="session")
def non_hn_corpus():
    return build_non_hn_corpus(52)


@pytest.fixture(scope="session")
def mixed_corpus():
    return build_mixed_corpus(208)


def count_squares(monkeypatch, p):
    """Record each P * P product formed while the patch is active; returns the list."""
    squares = []
    poly_mul = Poly.__mul__

    def watched_mul(a, b):
        if isinstance(b, Poly) and a == p and b == p:
            squares.append(a.degree() + b.degree())
        return poly_mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", watched_mul)
    return squares


def reference_exp(a, z_trunc=None):
    """exp of a series by series products: exp(A_0), a truncated Poly exp, times
    sum_k (A - A_0)^k / k!, each power one TGraded product, each slot one Poly product."""
    from fractions import Fraction
    from math import factorial

    from hesnil import TGraded, exp_truncated

    caps = [c for c in (a.z_trunc, z_trunc) if c is not None]
    cap = min(caps) if caps else None
    zero, one = Poly.zero(a.arity), Poly.one(a.arity)
    head = a.coeffs[0] if a.coeffs else zero
    if not head.is_zero() and cap is None:
        raise ValueError("a nonzero t-constant slot needs a cap")
    e0 = exp_truncated(head, 1, cap) if not head.is_zero() else one
    tail = TGraded(a.arity, [zero][:a.t_order] + a.coeffs[1:], a.t_order, cap)
    term = total = TGraded.from_poly(one, a.t_order, cap)
    for k in range(1, a.t_order):
        term = term * tail
        total = total + term.scale(Fraction(1, factorial(k)))
    return TGraded(a.arity, [c * e0 for c in total.coeffs], a.t_order, cap)
