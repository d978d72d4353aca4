"""Nilpotency verdicts through the matrix route and the Laplacian route."""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

import hesnil
import hesnil.nilpotency
from hesnil import (
    Poly,
    PolyVector,
    is_hn,
    laplacian_powers,
    parse,
    ph_construction,
    trace_powers,
)
from hesnil.diffops import hessian, laplacian_powers_table
from hesnil.nilpotency import TheoremCheckError, _light_cone
from conftest import random_poly, random_triangular_map


def test_trace_powers_frozen_values():
    p = parse("z1^2*z2")
    traces = trace_powers(p)
    assert traces == [parse("2*z2"), parse("8*z1^2 + 4*z2^2")]


def test_laplacian_powers_frozen_values():
    p = parse("z1^2*z2")
    laps = laplacian_powers(p)
    assert laps == [parse("2*z2"), parse("48*z1^2 + 24*z2^2")]


def test_explicit_max_m():
    p = parse("z1^2*z2")
    assert len(trace_powers(p, 4)) == 4
    assert len(laplacian_powers(p, 1)) == 1


def test_hn_verdict_on_isotropic_power():
    rep = is_hn(parse("(z1+i*z2)^3"))
    assert rep.is_hn and rep.verdict_matrix and rep.verdict_laplacian
    assert rep.harmonic
    assert rep.degree == 3 and rep.order == 3
    assert not rep.low_order
    assert all(t.is_zero() for t in rep.traces)


def test_non_hn_verdict():
    rep = is_hn(parse("z1^2*z2"))
    assert not rep.is_hn
    assert not rep.harmonic


def test_harmonic_but_not_hn():
    rep = is_hn(parse("z1^2 - z2^2"))
    assert rep.harmonic
    assert not rep.is_hn


def test_zero_and_low_order_inputs():
    rep = is_hn(Poly.zero(2))
    assert rep.order is None and rep.is_hn and not rep.low_order
    rep = is_hn(parse("z1 + z2"))
    assert rep.low_order and rep.is_hn
    rep = is_hn(Poly.one(2) + parse("z1^2*z2"))
    assert rep.order == 0 and rep.low_order and not rep.is_hn


def test_report_serializes_to_json():
    rep = is_hn(parse("z1^2*z2"))
    payload = rep.to_json_dict()
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["arity"] == 2
    assert back["traces"] == ["2*z2", "8*z1^2 + 4*z2^2"]
    assert back["verdict_matrix"] is False
    assert back["is_hn"] is False


def test_triangular_map_construction_is_hn():
    h = PolyVector([parse("z2^2", arity=2), Poly.zero(2)])
    p, nilpotent = ph_construction(h)
    assert nilpotent
    assert is_hn(p).is_hn


def test_non_nilpotent_map_construction_is_not_hn():
    h = PolyVector([parse("z1^2", arity=2), Poly.zero(2)])
    p, nilpotent = ph_construction(h)
    assert not nilpotent
    assert not is_hn(p).is_hn


def test_map_nilpotency_biconditional_randomized():
    rng = random.Random(4021)
    total = 54
    seen_nilpotent = 0
    for trial in range(total):
        half = 3 if trial % 9 == 8 else 2
        degree = 1 if half == 3 else 2
        if trial % 2 == 0:
            h = random_triangular_map(rng, half, degree)
        else:
            comps = [random_poly(rng, half, degree, terms=2) for _ in range(half)]
            h = PolyVector([c - Poly.constant(half, c.constant_term()) for c in comps])
        p, nilpotent = ph_construction(h)
        assert is_hn(p).is_hn == nilpotent
        seen_nilpotent += nilpotent
    assert 0 < seen_nilpotent < total


def test_prefix_biconditional_on_small_corpus():
    # vanishing of the first k traces and of the first k iterated
    # Laplacians happen together, for every prefix length k
    rng = random.Random(77)
    members = [random_poly(rng, 3, 4, terms=3) for _ in range(40)]
    members.append(parse("(z1+i*z2)^3"))
    members.append(parse("z1^2 - z2^2"))
    for p in members:
        traces = trace_powers(p)
        laps = laplacian_powers(p)
        for k in range(1, p.arity + 1):
            u_side = all(t.is_zero() for t in traces[:k])
            v_side = all(v.is_zero() for v in laps[:k])
            assert u_side == v_side


def _hn_screen_corpus():
    """The benchmark's hn_screen members at seed 1: HN constructions and random non-HN
    polynomials of arity 3-5."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(workloads)
        seeds = workloads.hn_screen_seeds(hesnil, 1)
        return [item.poly for item in workloads.hn_screen_build(hesnil, seeds, 1)]
    finally:
        del sys.modules[spec.name]


def test_is_hn_matches_the_uv_routes_on_the_hn_screen_corpus():
    members, sparser = _hn_screen_corpus(), 0
    for p in members:
        report, n = is_hn(p), p.arity
        sparser += len(_light_cone(p)[0].terms) < len(p.terms)
        # the Laplacians against the (u, v) table, the traces against naive matrix powers
        assert report.laplacians == laplacian_powers_table(p, n, (0,))[0][1:]
        assert report.traces == [(hessian(p) ** m).trace() for m in range(1, n + 1)]
        verdict = all(v.is_zero() for v in report.laplacians)
        assert report.is_hn == report.verdict_laplacian == report.verdict_matrix == verdict
    assert sparser >= 5 and len(members) == 24



def test_laplacian_powers_map_nonzero_entries_back():
    # z1^2 zeta2 + zeta1^3 + z1 zeta1 z2 is not HN, and sparser in light-cone coordinates
    p = parse("(u1+i*v1)^2*(u2-i*v2) + (u1-i*v1)^3 + (u1^2+v1^2)*(u2+i*v2)")
    assert len(_light_cone(p)[0].terms) < len(p.terms)
    laps = laplacian_powers(p)
    assert laps == laplacian_powers_table(p, 4, (0,))[0][1:]
    assert not any(v.is_zero() for v in laps[:2]) and not is_hn(p).is_hn

def test_is_hn_certifies_the_light_cone_map(monkeypatch):
    p = parse("(u1+i*v1)^3*(u2+i*v2) + v1*(u2+i*v2)^2")
    assert len(_light_cone(p)[0].terms) < len(p.terms)
    mapped = hesnil.nilpotency._substitute_linear
    monkeypatch.setattr(hesnil.nilpotency, "_substitute_linear",
                        lambda polys, *args: [q.scale(2) for q in mapped(polys, *args)])
    with pytest.raises(TheoremCheckError, match="is not its light-cone image's"):
        is_hn(p)
