"""Constructions from isotropic vectors and their trace identities."""

import os
import random
import subprocess
import sys

import pytest

from hesnil import (
    GeneratorTheoremError,
    IsotropicSet,
    IsotropyViolation,
    OrthogonalityViolation,
    PolyVector,
    bilinear,
    crit2_check,
    gr,
    is_hn,
    laplacian,
    linear_form,
    parse,
    pg_construction,
    ph_construction,
    psi_data,
    sample_isotropic,
    scalar_det,
    ug_construction,
    w_construction,
    w_construction_unchecked,
    w_tilde_construction,
)
from hesnil.poly import Poly

I = gr(0, 1)

ALPHA1 = (1, I, 0)
ALPHA2 = (1, 0, I)


def fully_harmonic(p, m_max=4):
    return all(laplacian(p ** m).is_zero() for m in range(1, m_max + 1))


def test_bilinear_values_and_errors():
    assert bilinear(ALPHA1, ALPHA1).is_zero()
    assert bilinear(ALPHA1, ALPHA2) == gr(1)
    assert bilinear((1, 2), (3, -1)) == gr(1)
    with pytest.raises(ValueError):
        bilinear((1, 2), (1, 2, 3))


def test_linear_form():
    assert linear_form(ALPHA1) == parse("z1 + i*z2", arity=3)
    assert linear_form((0, 1), arity=2) == parse("z2", arity=2)
    with pytest.raises(ValueError):
        linear_form((1, 0), arity=3)
    with pytest.raises(ValueError):
        linear_form(())


def test_isotropic_set_validation():
    ok = IsotropicSet(3, [ALPHA1, ALPHA2])
    assert len(ok) == 2 and ok.arity == 3
    with pytest.raises(IsotropyViolation):
        IsotropicSet(2, [(1, 1)])
    # <a1, a2> = 1, so the orthogonality flag must be refused
    with pytest.raises(OrthogonalityViolation):
        IsotropicSet(3, [ALPHA1, ALPHA2], pairwise_orthogonal=True)
    with pytest.raises(ValueError):
        IsotropicSet(2, [(1, I, 0)])
    with pytest.raises(ValueError):
        IsotropicSet(0, [])


def test_w_construction_worked_example():
    xi = IsotropicSet(4, [(1, I, 0, 0), (0, 0, 1, I)], pairwise_orthogonal=True)
    p = w_construction(xi, 3)
    assert p == parse("(z1+i*z2)^3 + (z3+i*z4)^3")
    assert is_hn(p).is_hn
    assert fully_harmonic(p)
    assert w_construction(IsotropicSet(2, []), 3).is_zero()
    with pytest.raises(ValueError):
        w_construction(xi, 1)
    with pytest.raises(OrthogonalityViolation):
        w_construction(IsotropicSet(3, [ALPHA1, ALPHA2]), 3)


def test_w_tilde_construction():
    fam1 = IsotropicSet(4, [(1, I, 0, 0)])
    fam2 = IsotropicSet(4, [(0, 0, 1, I)])
    p = w_tilde_construction([fam1, fam2], 3)
    assert p == parse("(z1+i*z2)^2 + (z3+i*z4)^3")
    assert is_hn(p).is_hn
    assert fully_harmonic(p)
    # contributions above the cap are dropped
    assert w_tilde_construction([fam1, fam2], 2) == parse("(z1+i*z2)^2", arity=4)
    with pytest.raises(ValueError):
        w_tilde_construction([], 3)
    with pytest.raises(OrthogonalityViolation):
        w_tilde_construction([IsotropicSet(3, [ALPHA1]), IsotropicSet(3, [ALPHA2])], 3)


def test_ug_construction():
    betas = IsotropicSet(4, [(1, I, 0, 0), (0, 0, 1, I)], pairwise_orthogonal=True)
    g = parse("z1*z2 + z1^3")
    p = ug_construction(g, betas)
    assert p == parse("(z1+i*z2)*(z3+i*z4) + (z1+i*z2)^3")
    assert is_hn(p).is_hn
    assert fully_harmonic(p)
    # plain vector sequences are accepted and validated
    assert ug_construction(g, [(1, I, 0, 0), (0, 0, 1, I)]) == p
    with pytest.raises(ValueError):
        ug_construction(parse("z1^2"), betas)
    with pytest.raises(OrthogonalityViolation):
        ug_construction(parse("z1*z2", arity=2), [ALPHA1, ALPHA2])


def test_pg_construction():
    assert pg_construction(parse("z1^2")) == parse("(u1+i*v1)^2")
    # any g works, including one that is itself far from Hessian-nilpotent
    g = parse("z1^2*z2 + z2^4")
    p = pg_construction(g)
    assert p == parse("(u1+i*v1)^2*(u2+i*v2) + (u2+i*v2)^4")
    assert is_hn(p).is_hn
    assert fully_harmonic(p, m_max=3)
    with pytest.raises(ValueError):
        pg_construction(Poly.constant(0, 1))


def test_ph_construction_and_verdict():
    p, nilpotent = ph_construction(PolyVector([parse("z2^2", arity=2), Poly.zero(2)]))
    assert p == parse("v1*(u2+i*v2)^2")
    assert nilpotent
    assert is_hn(p).is_hn
    p2, nilpotent2 = ph_construction(PolyVector([parse("z1^2", arity=2), Poly.zero(2)]))
    assert p2 == parse("v1*(u1+i*v1)^2", arity=4)
    assert not nilpotent2
    assert not is_hn(p2).is_hn
    with pytest.raises(ValueError):
        ph_construction(PolyVector([parse("z1", arity=2)]))


def test_power_laplacian_on_isotropic_products():
    # Delta(h_a^m h_b^k) = 2 m k <a, b> h_a^(m-1) h_b^(k-1) for isotropic a, b
    rng = random.Random(7421)
    for _ in range(12):
        xi = sample_isotropic(4, 2, rng.randrange(10 ** 6))
        a, b = xi.vectors
        ha, hb = linear_form(a, 4), linear_form(b, 4)
        pairing = bilinear(a, b)
        for m in (1, 2, 3):
            for k in (1, 2):
                lhs = laplacian(ha ** m * hb ** k)
                rhs = (ha ** (m - 1) * hb ** (k - 1)).scale(pairing * (2 * m * k))
                assert lhs == rhs


def test_psi_data():
    xi = IsotropicSet(3, [ALPHA1, ALPHA2])
    data = psi_data(xi, 3)
    assert data.degree == 3
    assert data.gram == ((gr(0), gr(1)), (gr(1), gr(0)))
    h1, h2 = linear_form(ALPHA1), linear_form(ALPHA2)
    assert data.psi[0][0].is_zero()
    assert data.psi[0][1] == h2
    assert data.psi[1][0] == h1
    assert data.psi[1][1].is_zero()
    with pytest.raises(ValueError):
        psi_data(xi, 1)
    with pytest.raises(ValueError):
        psi_data(IsotropicSet(3, []), 3)


def test_crit2_worked_example():
    xi = IsotropicSet(3, [ALPHA1, ALPHA2])
    pairs = crit2_check(xi, 3, 2)
    assert pairs[0][0].is_zero() and pairs[0][1].is_zero()
    expected = parse("72*z1^2 + 72*i*z1*z2 + 72*i*z1*z3 - 72*z2*z3")
    assert pairs[1][0] == expected
    assert pairs[1][1] == expected


def test_crit2_randomized_families():
    rng = random.Random(3119)
    for _ in range(10):
        xi = sample_isotropic(4, 3, rng.randrange(10 ** 6))
        d = rng.choice((2, 3))
        for lhs, rhs in crit2_check(xi, d, 3):
            assert lhs == rhs


def test_crit2_orthogonal_families_pass_forced_consequences():
    # orthogonal families are Hessian-nilpotent, so the det / power-sum /
    # value-sum consequences are exercised and must hold without raising
    rng = random.Random(5531)
    for _ in range(8):
        xi = sample_isotropic(6, 3, rng.randrange(10 ** 6), pairwise_orthogonal=True)
        for lhs, rhs in crit2_check(xi, 3, 3):
            assert lhs == rhs
            assert lhs.is_zero()


def test_crit2_non_orthogonal_hn_family():
    # a_3 = i * a_2 makes the family dependent and non-orthogonal while the
    # sum of squares stays Hessian-nilpotent; the forced consequences must
    # still hold for the family itself
    xi = IsotropicSet(4, [(1, I, 0, 0), (1, 0, I, 0), (I, 0, -1, 0)])
    assert bilinear(xi.vectors[0], xi.vectors[1]) == gr(1)
    pairs = crit2_check(xi, 2, 3)
    for lhs, rhs in pairs:
        assert lhs == rhs
        assert lhs.is_zero()
    p = w_construction_unchecked(xi, 2)
    assert p == parse("(z1+i*z2)^2", arity=4)
    assert is_hn(p).is_hn


def test_scalar_det():
    assert scalar_det([]) == gr(1)
    assert scalar_det([[gr(3)]]) == gr(3)
    assert scalar_det([[gr(1), gr(2)], [gr(3), gr(4)]]) == gr(-2)
    rows = [[gr(0), gr(1), gr(0, 1)],
            [gr(1), gr(0), gr(0)],
            [gr(0, 1), gr(0), gr(0)]]
    assert scalar_det(rows).is_zero()
    with pytest.raises(ValueError):
        scalar_det([[gr(1), gr(2)]])


def test_sampler_determinism_and_isotropy():
    a = sample_isotropic(5, 4, 99)
    b = sample_isotropic(5, 4, 99)
    assert a.vectors == b.vectors
    assert sample_isotropic(5, 4, 100).vectors != a.vectors
    for v in a:
        assert bilinear(v, v).is_zero()
    assert len(sample_isotropic(4, 0, 7)) == 0


def test_sampler_orthogonal_mode():
    xi = sample_isotropic(6, 3, 1234, pairwise_orthogonal=True)
    assert xi.pairwise_orthogonal
    vecs = xi.vectors
    for i in range(3):
        for j in range(i + 1, 3):
            assert bilinear(vecs[i], vecs[j]).is_zero()
    # disjoint coordinate pairs cap the count at n // 2
    with pytest.raises(ValueError):
        sample_isotropic(6, 4, 1234, pairwise_orthogonal=True)
    with pytest.raises(ValueError):
        sample_isotropic(1, 1, 0)


def test_reimport_releases_the_old_modules():
    # typing caches subscriptions by argument, so a class object in a
    # module-level alias would keep every re-imported copy of its module alive
    script = """
import gc, importlib, sys, weakref
def fresh():
    for key in [k for k in sys.modules if k == "hesnil" or k.startswith("hesnil.")]:
        del sys.modules[key]
    return importlib.import_module("hesnil")
old = weakref.ref(fresh().GaussianRational)
fresh()
gc.collect()
sys.exit(0 if old() is None else 1)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    assert subprocess.run([sys.executable, "-c", script], env=env).returncode == 0
