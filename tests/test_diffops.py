"""Partial derivatives, Laplacian calculus, f(D) operators, and matrices."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from hesnil import (
    GaussianRational,
    PolyMatrix,
    PolyVector,
    apply_D,
    grad,
    grad_pair,
    gr,
    hessian,
    jacobian,
    jacobian_det,
    kfactorial_fD_identity,
    laplacian,
    laplacian_iter,
    laplacian_product_expansion,
    leibniz_identity_check,
    linear_form,
    mixed_partial_pair,
    parse,
    partial,
    partial_multi,
    poly_det,
    sigma_squared,
    Poly,
    build_member,
    is_hn,
)
from hesnil.diffops import laplacian_powers_table
from conftest import count_squares, random_order2_poly, random_poly


def test_partial_basic():
    p = parse("z1^2*z2")
    assert partial(p, 0) == parse("2*z1*z2")
    assert partial(p, 1) == parse("z1^2", arity=2)
    assert partial(Poly.one(2), 0).is_zero()
    with pytest.raises(ValueError):
        partial(p, 2)


def test_partial_multi_uses_falling_factorials():
    p = parse("z1^3*z2^2")
    assert partial_multi(p, (2, 1)) == parse("12*z1*z2")
    assert partial_multi(p, (0, 0)) == p
    assert partial_multi(p, (4, 0)).is_zero()


def test_laplacian_values():
    assert laplacian(parse("z1^2*z2")) == parse("2*z2")
    assert laplacian(parse("(z1+i*z2)^4")).is_zero()
    assert laplacian_iter(parse("z1^4"), 2) == parse("24", arity=1)
    assert laplacian_iter(parse("z1^4"), 0) == parse("z1^4")


@pytest.mark.parametrize("member", ["ph n=6 d=3", "random non-HN"])
def test_laplacian_powers_table_matches_binary_powers(member):
    if member == "ph n=6 d=3":
        p, _ = build_member(6, 3, "ph", {}, 1)
    else:
        p = random_order2_poly(random.Random(5), 3, 3)
        assert not is_hn(p).is_hn
    offsets = (0, 1, 2)
    rows = laplacian_powers_table(p, 3, offsets)
    # Poly.__pow__ powers by squaring, an independent route to each P^{m+k}
    assert rows == [[laplacian_iter(p ** (m + k), m) for m in range(4)] for k in offsets]
    assert not rows[1][3].is_zero()


def test_second_iterated_laplacian_of_squared_cubic():
    p = parse("z1^2*z2")
    assert laplacian_iter(p * p, 2) == parse("48*z1^2 + 24*z2^2")


def test_grad_pair_is_symmetric_bilinear():
    p = parse("z1^2")
    assert grad_pair(p, p) == parse("4*z1^2")
    a, b = parse("z1^2*z2"), parse("z2^3")
    assert grad_pair(a, b) == grad_pair(b, a)
    assert grad_pair(a + b, b) == grad_pair(a, b) + grad_pair(b, b)


def test_sigma_squared_and_apply_D():
    sig = sigma_squared(3)
    assert sig == parse("z1^2 + z2^2 + z3^2")
    g = parse("z1^4 + z2^2*z3^2")
    assert apply_D(sig, g) == laplacian(g)
    assert apply_D(parse("z1^2", arity=1), parse("z1^4")) == parse("12*z1^2")
    assert apply_D(Poly.one(2), parse("z1*z2")) == parse("z1*z2")


def _apply_D_termwise(f, g):
    """f(D) g termwise: c b (e)_s z^(e - s) per pair (c z^s in f, b z^e in g), with
    (e)_s = e (e - 1) ... (e - s + 1) per variable, in GaussianRational arithmetic."""
    out = {}
    for s, c in f.terms.items():
        for e, b in g.terms.items():
            k = 1
            for ei, si in zip(e, s):
                for j in range(si):
                    k *= ei - j
            if k:
                mono = tuple(ei - si for ei, si in zip(e, s))
                out[mono] = out.get(mono, GaussianRational(0)) + c * b * k
    return Poly(f.arity, out)


@pytest.mark.parametrize("f, g", [
    ("0", "z1^2*z2 + z2"),
    ("z1^2 + z2", "0"),
    ("3/2 - i", "z1^2*z2 + i*z2^3"),
    ("z1^3*z2^2 + z1*z2", "z1^2*z2"),
    ("2*z1^3 + i*z1", "z1^5 - 1/3*z1^2"),
    ("(1/7 + 2/11*i)*z1^2 + 3/13*z2 - 1/11*i*z1*z2", "(5/13 - 1/7*i)*z1^3*z2 + 4/11*z1*z2^2 + 1/7"),
], ids=["zero f", "zero g", "constant f", "deg f > deg g", "arity 1", "over 7, 11 and 13"])
def test_apply_D_matches_the_termwise_route(f, g):
    arity = 1 if "z2" not in f + g else 2
    f, g = parse(f, arity=arity), parse(g, arity=arity)
    assert apply_D(f, g) == _apply_D_termwise(f, g)


def test_apply_D_is_linear_in_the_operator():
    rng = random.Random(5)
    for _ in range(10):
        f1 = random_poly(rng, 2, 3, terms=3)
        f2 = random_poly(rng, 2, 3, terms=3)
        g = random_poly(rng, 2, 4, terms=3)
        assert apply_D(f1 + f2, g) == apply_D(f1, g) + apply_D(f2, g)


def test_apply_D_composes_multiplicatively():
    rng = random.Random(9)
    for _ in range(8):
        f1 = random_poly(rng, 2, 2, terms=2)
        f2 = random_poly(rng, 2, 2, terms=2)
        g = random_poly(rng, 2, 4, terms=3)
        assert apply_D(f1 * f2, g) == apply_D(f1, apply_D(f2, g))


def test_mixed_partial_pair_degenerate_is_product():
    a, b = parse("z1^2", arity=2), parse("z2^2")
    assert mixed_partial_pair(a, b, 0) == a * b


def test_kfactorial_pairing_example():
    f, g = parse("z1^2"), parse("z1^4")
    lhs, rhs = kfactorial_fD_identity(f, g)
    assert lhs == rhs == parse("24*z1^2")


def test_kfactorial_pairing_randomized():
    rng = random.Random(31)
    for _ in range(12):
        k = rng.randint(1, 3)
        f = random_poly(rng, 2, k, terms=3).graded_piece(k)
        if f.is_zero():
            continue
        g = random_poly(rng, 2, 4, terms=3)
        lhs, rhs = kfactorial_fD_identity(f, g)
        assert lhs == rhs


def test_kfactorial_pairing_requires_homogeneous():
    with pytest.raises(ValueError):
        kfactorial_fD_identity(parse("z1^2 + z1"), parse("z1^3"))


def test_leibniz_power_identity():
    rng = random.Random(17)
    for _ in range(6):
        p = random_poly(rng, 3, 3, terms=3)
        for m in range(1, 5):
            lhs, rhs = leibniz_identity_check(p, m)
            assert lhs == rhs


def test_leibniz_check_reads_one_chain_of_powers(monkeypatch):
    p, _ = build_member(4, 3, "ph", {}, 7)
    expected = leibniz_identity_check(p, 3)
    squares = count_squares(monkeypatch, p)
    # P^2, P^3 and P^4 come from one chain, with no second P^{m-1}
    assert leibniz_identity_check(p, 3) == expected
    assert len(squares) == 1


def test_laplacian_product_expansion():
    rng = random.Random(23)
    for _ in range(6):
        g = random_poly(rng, 2, 3, terms=3)
        f = random_poly(rng, 2, 3, terms=3)
        for l in range(0, 4):
            lhs, rhs = laplacian_product_expansion(g, f, l)
            assert lhs == rhs


def test_laplacian_product_expansion_disjoint_variables():
    g, f = parse("z1^4", arity=2), parse("z2^2")
    lhs, rhs = laplacian_product_expansion(g, f, 2)
    assert lhs == rhs == parse("48*z1^2 + 24*z2^2")


def test_vector_operations():
    v = PolyVector([parse("z1", arity=2), parse("z2", arity=2)])
    w = PolyVector([parse("z2", arity=2), parse("z1", arity=2)])
    assert v.dot(w) == parse("2*z1*z2")
    assert (v + w)[0] == parse("z1 + z2")
    assert len(v) == 2


def test_matrix_operations_and_det():
    m = PolyMatrix([[parse("z1"), Poly.one(1)], [Poly.zero(1), parse("z1")]])
    sq = m * m
    assert sq[0][0] == parse("z1^2")
    assert sq[0][1] == parse("2*z1")
    assert m.trace() == parse("2*z1")
    assert poly_det(m) == parse("z1^2")
    assert (m ** 3)[0][1] == parse("3*z1^2")


# (matrix, nilpotent): a triangular (ph) map, whose Jacobian is strictly upper
# triangular; a generic map; and a Hessian carrying the coprime denominators 7, 11, 13
TRACE_MATRICES = {
    "jacobian of a ph map": (jacobian(PolyVector([
        parse("3*z2^2 - i*z3*z4", arity=4), parse("z3^2 + 1/2*z4^2", arity=4),
        parse("(2+i)*z4^2", arity=4), Poly.zero(4)])), True),
    "non-symmetric jacobian": (jacobian(PolyVector([
        parse("z1*z2 + i*z3^2"), parse("z2^2 - 1/2*z1*z3", arity=3),
        parse("z1^2 + z2", arity=3)])), False),
    "hessian, coprime denominators": (hessian(
        parse("1/7*z1^3 + 1/11*i*z1*z2^2 + 1/13*z2*z3^2 + z1*z3")), False),
    "zero matrix": (PolyMatrix([[Poly.zero(2)] * 2] * 2), True),
    "1x1": (PolyMatrix([[parse("z1^2 + 1/3*z1*z2 + 1/5")]]), False),
}


@pytest.mark.parametrize("name", sorted(TRACE_MATRICES))
def test_trace_powers_match_traces_of_matrix_powers(name):
    m, nilpotent = TRACE_MATRICES[name]
    n = m.shape[0]
    expected = [(m ** j).trace() for j in range(1, n + 3)]
    assert all(t.is_zero() for t in expected) == nilpotent
    for k in (0, 1, n, n + 2):
        assert m.trace_powers(k) == expected[:k]


def test_det_three_by_three():
    rows = [
        [parse("z1", arity=2), parse("z2", arity=2), Poly.zero(2)],
        [Poly.zero(2), parse("z1", arity=2), parse("z2", arity=2)],
        [parse("z2", arity=2), Poly.zero(2), parse("z1", arity=2)],
    ]
    m = PolyMatrix(rows)
    assert poly_det(m) == parse("z1^3 + z2^3")


def test_hessian_is_symmetric_and_correct():
    p = parse("z1^3*z2")
    h = hessian(p)
    assert h[0][1] == h[1][0] == parse("3*z1^2", arity=2)
    assert h[0][0] == parse("6*z1*z2")
    assert h[1][1].is_zero()


def test_hessian_of_isotropic_power_is_rank_one_form():
    # Hes(h^m) = m(m-1) h^(m-2) a a^t for any direction a
    alpha = (gr(2), gr(0, 1), gr("1/2"))
    h = linear_form(alpha)
    for m in range(2, 6):
        hes = hessian(h ** m)
        base = h ** (m - 2)
        c = m * (m - 1)
        for i in range(3):
            for j in range(3):
                expected = base.scale(alpha[i] * alpha[j] * c)
                assert hes[i][j] == expected


def test_jacobian_and_unit_determinant():
    vec = PolyVector([parse("z1^2", arity=2), parse("z1*z2")])
    jac = jacobian(vec)
    assert jac[0][0] == parse("2*z1", arity=2)
    assert jac[1][1] == parse("z1", arity=2)

    p = parse("(z1+i*z2)^3")
    coords = PolyVector([parse("z1", arity=2), parse("z2", arity=2)])
    f = coords - grad(p)
    assert jacobian_det(f) == Poly.one(2)
