"""Experiment harness: config validation, trial reports, serialization."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import ceil, factorial

import pytest

import hesnil.inversion
import hesnil.vanishing
from hesnil.diffops import laplacian_powers_table
from hesnil.vanishing import MAX_D, MAX_DOUBLED_TERMS, MAX_N, MAX_T_ORDER
from hesnil import (
    ConfigError,
    ExperimentConfig,
    Poly,
    TheoremCheckError,
    VanishingReport,
    alpha_bound,
    build_member,
    emit_report,
    invert_general,
    is_hn,
    isotropy_check,
    load_report_json,
    parse,
    pd_qt_check,
    render_report,
    run_vanishing_full,
)

BASE = {"n": 4, "d": 3, "generator": {"kind": "ph"}, "trials": 2, "seed": 7,
        "t_order": 4}

GOLDEN_TRIAL0 = {
    "provenance": {"kind": "ph", "trial": 0, "trial_seed": 7000021,
                   "n": 4, "d": 3, "map": ["z2^2", "0"]},
    "hn_verdict": True,
    "vanishing_flags": [False, True, True, True],
    "deg_t": 1,
    "bound": "6",
    "bound_respected": True,
    "isotropy_pass": {"derivative_ideal": True, "pd_on_q": True},
}

GOLDEN_CSV = (
    "provenance,hn_verdict,m1,m2,m3,m4,deg_t,bound,bound_respected,"
    "isotropy_derivative_ideal,isotropy_pd_on_q\n"
    '"{""d"": 3, ""kind"": ""ph"", ""map"": [""z2^2"", ""0""], ""n"": 4, '
    '""trial"": 0, ""trial_seed"": 7000021}",true,false,true,true,true,'
    "1,6,true,true,true\n"
    '"{""d"": 3, ""kind"": ""ph"", ""map"": [""(2-3/2*i)*z2^2"", ""0""], '
    '""n"": 4, ""trial"": 1, ""trial_seed"": 7000022}",true,false,true,true,'
    "true,1,6,true,true,true\n"
)


def test_alpha_bound_table():
    assert alpha_bound(2, 4) == Fraction(0)
    assert alpha_bound(3, 4) == Fraction(3)
    assert alpha_bound(4, 4) == Fraction(12)
    assert alpha_bound(4, 3) == Fraction(6)
    assert isinstance(alpha_bound(3, 5), Fraction)
    # degree 2: n - 2, the d -> 2 limit of the cutoff
    assert alpha_bound(3, 2) == Fraction(1)
    assert alpha_bound(4, 2) == Fraction(2)
    with pytest.raises(ValueError):
        alpha_bound(3, 1)
    with pytest.raises(ValueError):
        alpha_bound(0, 4)


def test_config_defaults():
    cfg = ExperimentConfig.from_dict(
        {"n": 3, "d": 4, "generator": {"kind": "w"}, "trials": 1, "seed": 0})
    # bound is 3, so t_order defaults to 5
    assert cfg.t_order == 5
    assert cfg.format == "json"
    assert cfg.out is None
    assert cfg.parallelism == 1
    assert cfg.generator_params == {}
    d2 = ExperimentConfig.from_dict(
        {"n": 4, "d": 2, "generator": {"kind": "w"}, "trials": 1, "seed": 0})
    assert d2.t_order == 4


def test_config_validation_errors():
    def reject(overrides, *, drop=None):
        data = {**BASE, **overrides}
        if drop:
            del data[drop]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)

    reject({}, drop="generator")
    reject({"extra": 1})
    reject({"generator": {"kind": "ph", "bogus": 1}})
    reject({"generator": {"kind": "nope"}})
    reject({"generator": {"kind": "ph", "params": 3}})
    reject({"n": 1})
    reject({"d": 1})
    reject({"trials": -1})
    reject({"seed": "7"})
    reject({"t_order": 0})
    reject({"z_degree": 5})
    reject({"format": "xml"})
    reject({"out": 7})
    reject({"parallelism": 0})
    # a bool is not an int
    for key in ("trials", "seed", "t_order", "parallelism"):
        reject({key: True})
    for kind, params in (("w", {"count": "2"}), ("w", {"count": 1.0}), ("ug", {"k": True}),
                         ("pg", {"cuont": 2}), ("ph", {"k": 1}), ("w", {"counts": [1]}),
                         ("wtilde", {"counts": 1}), ("wtilde", {"counts": [1, False]}),
                         ("ug", {"k": 3})):
        reject({"generator": {"kind": kind, "params": params}})
    reject({"n": 5, "generator": {"kind": "pg"}})
    reject({"n": 2, "generator": {"kind": "ph"}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict([])
    # t_order defaults to the paper's cutoff + 2, at least 4, up to MAX_T_ORDER
    for n, d, derived in ((4, 4, 14), (6, 3, 32), (8, 4, 1094), (10, 3, 512), (10, 4, 9842),
                          (4, 2, 4)):
        cfg = ExperimentConfig.from_dict(
            {"n": n, "d": d, "generator": {"kind": "ph"}, "trials": 1, "seed": 0})
        assert cfg.t_order == derived == max(4, ceil(alpha_bound(n, d)) + 2)
    # (14, 4) derives 797162; n = 10000 is past MAX_N, refused before any cutoff is formed
    for n, message in ((14, f"MAX_T_ORDER = {MAX_T_ORDER}\\]; it defaults"),
                       (10_000, f"n must be at most MAX_N = {MAX_N}")):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(
                {"n": n, "d": 4, "generator": {"kind": "ph"}, "trials": 1, "seed": 0})
    # with an explicit t_order nothing else bounds n: a member of arity 10^6 is refused
    with pytest.raises(ConfigError, match=f"n must be at most MAX_N = {MAX_N}"):
        ExperimentConfig.from_dict({**BASE, "n": 10 ** 6, "d": 4, "t_order": 4,
                                    "generator": {"kind": "w", "params": {"count": 1}}})
    assert ExperimentConfig.from_dict({**BASE, "n": MAX_N, "t_order": 4}).n == MAX_N
    reject({"t_order": MAX_T_ORDER + 1})
    assert ExperimentConfig.from_dict({**BASE, "t_order": MAX_T_ORDER}).t_order == MAX_T_ORDER


def test_config_refuses_d_past_max_d():
    # refused before alpha_bound forms (d - 1)^(n - 1), with or without a t_order
    w = {"n": MAX_N, "generator": {"kind": "w", "params": {"count": 1}}, "trials": 1, "seed": 1}
    for t_order in ({}, {"t_order": 4}):
        for d in (MAX_D + 1, 10 ** 6):
            with pytest.raises(ConfigError, match=f"^d must be at most MAX_D = {MAX_D}$"):
                ExperimentConfig.from_dict({**w, "d": d, **t_order})
    assert ExperimentConfig.from_dict({**BASE, "d": MAX_D}).d == MAX_D


def test_doubled_members_are_refused_before_the_doubling(monkeypatch):
    def never(*args):
        raise AssertionError("the doubling ran")

    monkeypatch.setattr(hesnil.vanishing, "pg_construction", never)
    monkeypatch.setattr(hesnil.vanishing, "ph_construction", never)
    for kind in ("ph", "pg"):
        with pytest.raises(ConfigError, match=rf"^{kind} at n=16, d=64, trial_seed 1 doubles to "
                                              rf"up to \d+ terms, more than MAX_DOUBLED_TERMS = "
                                              rf"{MAX_DOUBLED_TERMS}$"):
            build_member(16, 64, kind, {}, 1)
    # w at the same n and d doubles nothing and is built
    assert build_member(16, 64, "w", {}, 1)[0].is_homogeneous() == 64
    monkeypatch.undo()
    # the estimate is an upper bound on the doubled terms, met exactly by pg n=4, d=256
    p, _ = build_member(4, 256, "pg", {}, 1)
    assert len(p.terms) == 49_903 <= MAX_DOUBLED_TERMS
    monkeypatch.setattr(hesnil.vanishing, "MAX_DOUBLED_TERMS", 49_902)
    with pytest.raises(ConfigError, match="doubles to up to 49903 terms"):
        build_member(4, 256, "pg", {}, 1)


def test_build_member_errors():
    with pytest.raises(ConfigError):
        build_member(4, 3, "w", {"count": 3}, 1)
    with pytest.raises(ConfigError):
        build_member(4, 3, "wtilde", {"counts": [2, 1]}, 1)
    with pytest.raises(ConfigError):
        build_member(4, 3, "wtilde", {"counts": [0, 0]}, 1)
    with pytest.raises(ConfigError):
        build_member(4, 3, "ug", {"k": 3}, 1)
    with pytest.raises(ConfigError):
        build_member(5, 3, "pg", {}, 1)
    with pytest.raises(ConfigError):
        build_member(2, 3, "ph", {}, 1)
    with pytest.raises(ConfigError):
        build_member(4, 3, "mystery", {}, 1)
    for kind, params in (("w", {"count": "2"}), ("w", {"count": -1}), ("ug", {"k": True}),
                         ("pg", {"cuont": 2}), ("wtilde", {"counts": (1,)}),
                         ("wtilde", {"counts": [True]})):
        with pytest.raises(ConfigError, match=kind):
            build_member(4, 3, kind, params, 1)


def test_build_member_provenance_schema():
    p, prov = build_member(4, 3, "w", {}, 11)
    assert prov["kind"] == "w" and prov["n"] == 4 and prov["d"] == 3
    assert len(prov["vectors"]) == 2
    _, prov = build_member(4, 3, "wtilde", {}, 11)
    assert [len(fam) for fam in prov["vectors"]] == [1, 1]
    _, prov = build_member(4, 3, "ug", {}, 11)
    assert "inner" in prov and len(prov["vectors"]) == 2
    _, prov = build_member(4, 3, "pg", {}, 11)
    assert "inner" in prov
    _, prov = build_member(4, 3, "ph", {}, 11)
    assert len(prov["map"]) == 2
    # the paper's n=4, d=4 case: one vector per degree from the top down
    p, prov = build_member(4, 4, "wtilde", {}, 11)
    assert [len(fam) for fam in prov["vectors"]] == [0, 1, 1]
    assert p.degree() == 4 and is_hn(p).is_hn


def test_golden_report():
    cfg = ExperimentConfig.from_dict(dict(BASE))
    reports, failures = run_vanishing_full(cfg)
    assert failures == []
    assert len(reports) == 2
    assert reports[0].to_json_dict() == GOLDEN_TRIAL0
    assert render_report(reports, "csv") == GOLDEN_CSV


def test_all_kinds_run_clean():
    for kind in ("w", "wtilde", "ug", "pg", "ph"):
        cfg = ExperimentConfig.from_dict(
            {"n": 4, "d": 3, "generator": {"kind": kind}, "trials": 2,
             "seed": 31, "t_order": 3})
        reports, failures = run_vanishing_full(cfg)
        assert failures == []
        for r in reports:
            assert r.hn_verdict
            assert len(r.vanishing_flags) == 3
            assert r.bound == Fraction(6)
            assert r.bound_respected
            if kind == "wtilde":
                # mixed degrees, so the homogeneous-only checks do not apply
                assert r.isotropy_pass is None
            else:
                assert r.isotropy_pass == {"derivative_ideal": True,
                                           "pd_on_q": True}


def test_degree_two_path():
    cfg = ExperimentConfig.from_dict(
        {"n": 4, "d": 2, "generator": {"kind": "w"}, "trials": 3, "seed": 5})
    reports, failures = run_vanishing_full(cfg)
    assert failures == []
    for r in reports:
        assert r.hn_verdict
        assert all(r.vanishing_flags)
        assert r.deg_t == 0
        assert r.bound == Fraction(2)
        assert r.bound_respected
        assert r.isotropy_pass == {"derivative_ideal": None, "pd_on_q": True}


def test_runs_are_deterministic():
    cfg = ExperimentConfig.from_dict(
        {"n": 4, "d": 3, "generator": {"kind": "w"}, "trials": 3, "seed": 42,
         "t_order": 3})
    first = render_report(run_vanishing_full(cfg)[0], "json")
    second = render_report(run_vanishing_full(cfg)[0], "json")
    assert first == second


def test_parallel_matches_serial():
    serial = ExperimentConfig.from_dict(
        {"n": 4, "d": 3, "generator": {"kind": "ph"}, "trials": 3, "seed": 13,
         "t_order": 3})
    parallel = ExperimentConfig.from_dict(
        {"n": 4, "d": 3, "generator": {"kind": "ph"}, "trials": 3, "seed": 13,
         "t_order": 3, "parallelism": 2})
    assert run_vanishing_full(serial) == run_vanishing_full(parallel)


def test_render_edge_cases():
    assert render_report([], "json") == "[]\n"
    header = ("provenance,hn_verdict,deg_t,bound,bound_respected,"
              "isotropy_derivative_ideal,isotropy_pd_on_q\n")
    assert render_report([], "csv") == header
    with pytest.raises(ValueError):
        render_report([], "xml")
    # None bound and None isotropy serialize as empty CSV cells
    r = VanishingReport(provenance={"kind": "w"}, hn_verdict=True,
                        vanishing_flags=[True], deg_t=0, bound=None,
                        bound_respected=True, isotropy_pass=None)
    lines = render_report([r], "csv").splitlines()
    assert lines[1] == '"{""kind"": ""w""}",true,true,0,,true,,'


def test_emit_and_load_roundtrip(tmp_path):
    cfg = ExperimentConfig.from_dict(dict(BASE))
    reports = run_vanishing_full(cfg)[0]
    path = tmp_path / "report.json"
    text = emit_report(reports, "json", str(path))
    assert path.read_text(encoding="utf-8") == text
    assert json.loads(text)[0] == GOLDEN_TRIAL0
    loaded = load_report_json(str(path))
    assert loaded == reports
    # extra keys are ignored and a missing key raises KeyError
    payload = json.loads(text)
    payload[0]["extra"] = 1
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert load_report_json(str(path)) == reports
    del payload[1]["deg_t"]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(KeyError):
        load_report_json(str(path))


def test_isotropy_check_direct():
    p = parse("(z1+i*z2)^3")
    results = isotropy_check(p, 3, 2)
    assert set(results) == {(label, m)
                            for label in ("sigma^2", "partial_1", "partial_2")
                            for m in (0, 1, 2)}
    assert all(results.values())
    with pytest.raises(ValueError):
        isotropy_check(parse("(z1+i*z2)^2"), 2, 1)
    with pytest.raises(ValueError):
        isotropy_check(parse("z1^3 + z1"), 3, 1)
    with pytest.raises(ValueError):
        isotropy_check(parse("z1^2*z2 + z2^3"), 3, 1)
    with pytest.raises(ValueError):
        isotropy_check(p, 3, -1)


def test_pd_qt_check_direct():
    assert pd_qt_check(parse("v1*(u2+i*v2)^2"), 3)
    assert pd_qt_check(parse("(z1+i*z2)^2"), 3)
    with pytest.raises(ValueError):
        pd_qt_check(parse("(z1+i*z2)^3"), 0)
    with pytest.raises(ValueError):
        pd_qt_check(parse("z1^3 + z1"), 2)
    with pytest.raises(ValueError):
        pd_qt_check(parse("z1^2*z2 + z2^3"), 2)


def _rebind_everywhere(monkeypatch, original, replacement):
    """Replace a function in every hesnil module that binds it."""
    for name, mod in list(sys.modules.items()):
        if name == "hesnil" or name.startswith("hesnil."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, replacement)


@pytest.mark.parametrize("config", [
    {"n": 4, "d": 3, "generator": {"kind": "ph"}, "seed": 7, "t_order": 4},
    {"n": 4, "d": 4, "generator": {"kind": "pg"}, "seed": 3, "t_order": 3},
    {"n": 4, "d": 4, "generator": {"kind": "pg"}, "seed": 3, "t_order": 6},
    # n above the window's top power: a verdict read off P^n would form P^6
    {"n": 6, "d": 3, "generator": {"kind": "ph"}, "seed": 1, "t_order": 3},
])
def test_trial_takes_one_hn_verdict_and_one_window(monkeypatch, config):
    cfg = ExperimentConfig.from_dict({**config, "trials": 1})
    p, _ = build_member(cfg.n, cfg.d, cfg.generator_kind, {}, cfg.seed * 1_000_003)
    depth = [0]
    hn_calls = []
    stray = []
    product_degrees = []
    squares = []

    def allowed(fn):
        def inner(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return inner

    # run_trial takes its verdict from _hn_slots, which the HN-only inverters also call
    counted_hn_slots = allowed(hesnil.inversion._hn_slots)

    def counting_hn_slots(q, t_order, z_cap=None):
        hn_calls.append(q)
        return counted_hn_slots(q, t_order, z_cap)

    laplacian_iter = hesnil.diffops.laplacian_iter

    def watched_laplacian_iter(q, k):
        if not depth[0] and k:
            stray.append(("laplacian_iter", k))
        return laplacian_iter(q, k)

    poly_mul = Poly.__mul__

    def watched_mul(a, b):
        if isinstance(b, Poly) and (a == p or b == p):
            degree = a.degree() + b.degree()
            if a == p and b == p:
                squares.append(degree)
            product_degrees.append(degree)
            if not depth[0]:
                stray.append(("power", degree))
        return poly_mul(a, b)

    _rebind_everywhere(monkeypatch, hesnil.inversion._hn_slots, counting_hn_slots)
    _rebind_everywhere(monkeypatch, laplacian_iter, watched_laplacian_iter)
    monkeypatch.setattr(Poly, "__mul__", watched_mul)
    monkeypatch.setattr(hesnil.vanishing, "_vanishing_flags",
                        allowed(hesnil.vanishing._vanishing_flags))

    report, failures = hesnil.vanishing.run_trial(cfg, 0)
    assert failures == [] and report.hn_verdict
    assert report.isotropy_pass == {"derivative_ideal": True, "pd_on_q": True}
    assert len(hn_calls) == 1 and hn_calls[0] == p
    assert stray == []
    # the window reaches P^{max(min(M,4),2)+1} and nothing forms a higher power: the
    # verdict and the flags past the window come from the Laplacian recurrence
    assert product_degrees and max(product_degrees) <= cfg.d * (max(min(cfg.t_order, 4), 2) + 1)
    assert len(squares) == 1

    # a non-HN verdict can only be a generator bug: the trial stops, tagged, before
    # forming any power of P
    monkeypatch.setattr(hesnil.vanishing, "_hn_slots", lambda q, t_order: None)
    product_degrees.clear()
    with pytest.raises(TheoremCheckError,
                       match=r"^trial 0 \(.*trial_seed \d+\), is_hn: generator produced a "
                             r"non-HN polynomial$"):
        hesnil.vanishing.run_trial(cfg, 0)
    assert product_degrees == []


@pytest.mark.parametrize("big_m", [2, 6])
@pytest.mark.parametrize("kind", hesnil.vanishing.GENERATOR_KINDS)
def test_one_chain_gives_the_verdict_route_and_the_window(kind, big_m):
    # n = 4 is above M = 2 and below M = 6; run_trial's one recurrence gives the
    # verdict, and one chain of powers the window: the closed form
    # Q_[m+1] = Delta^m P^{m+1} / (2^m m! (m+1)!)
    p, _ = build_member(4, 3, kind, {}, 11)
    window = hesnil.vanishing._vanishing_flags(p, big_m)
    assert window == [hesnil.diffops.laplacian_iter(p ** (m + 1), m).scale(
        Fraction(1, 2 ** m * factorial(m) * factorial(m + 1))) for m in range(big_m + 1)]
    slots = hesnil.inversion._hn_slots(p, max(big_m + 1, p.arity))
    assert (slots is not None) == is_hn(p).is_hn
    assert slots == list(invert_general(p, len(slots)).q.coeffs)


@pytest.mark.parametrize("top", [2, 4])
@pytest.mark.parametrize("kind", hesnil.vanishing.GENERATOR_KINDS)
def test_window_and_closed_form_inverters_share_one_producer(kind, top):
    # the window, invert_closed and qt_power at k = 1 all give Q_[1..top + 1]
    for n, d in ((4, 3), (4, 4)):
        p, _ = build_member(n, d, kind, {}, 23)
        window = hesnil.vanishing._vanishing_flags(p, top)
        assert window == list(hesnil.invert_closed(p, top + 1).q.coeffs)
        assert window == list(hesnil.qt_power(p, 1, top + 1).coeffs)
        assert window == hesnil.inversion._hn_slots(p, top + 1)[:top + 1]


def test_flag_cross_check_compares_every_flag(monkeypatch):
    # flags [False, False, False]: a wrong zero below the top one keeps deg_t at 3
    cfg = ExperimentConfig.from_dict(
        {"n": 6, "d": 3, "generator": {"kind": "ph"}, "trials": 1, "seed": 1, "t_order": 3})
    hn_slots = hesnil.vanishing._hn_slots

    def zeroes_q2(p, t_order):
        slots = hn_slots(p, t_order)
        return slots[:1] + [Poly.zero(p.arity)] + slots[2:]

    monkeypatch.setattr(hesnil.vanishing, "_hn_slots", zeroes_q2)
    report, failures = hesnil.vanishing.run_trial(cfg, 0)
    assert report.vanishing_flags == [False, False, False] and report.deg_t == 3
    assert len(failures) == 1
    assert "flag cross-check" in failures[0]
    assert "trial_seed 1000003" in failures[0]


def test_flag_cross_check_compares_values(monkeypatch):
    # a wrong but nonzero Q_[slot + 1] leaves every zero pattern as it was; at
    # t_order 6, flags 5 and 6 come from the recurrence and Q_[3] is still checked
    hn_slots = hesnil.vanishing._hn_slots
    for slot, big_m, flags in ((1, 3, [False, False, False]),
                               (2, 6, [False, False, False, True, True, True])):
        cfg = ExperimentConfig.from_dict(
            {"n": 6, "d": 3, "generator": {"kind": "ph"}, "trials": 1, "seed": 1,
             "t_order": big_m})

        def doubles_one_slot(p, t_order, slot=slot):
            slots = hn_slots(p, t_order)
            return slots[:slot] + [slots[slot].scale(2)] + slots[slot + 1:]

        monkeypatch.setattr(hesnil.vanishing, "_hn_slots", doubles_one_slot)
        report, failures = hesnil.vanishing.run_trial(cfg, 0)
        assert report.vanishing_flags == flags
        assert len(failures) == 1
        assert "flag cross-check" in failures[0] and f"at m = [{slot}]" in failures[0]
        assert "trial_seed 1000003" in failures[0]


@pytest.mark.parametrize("n, d, kind, seed, big_m", [
    *[(4, 3, kind, 31, 8) for kind in hesnil.vanishing.GENERATOR_KINDS],
    (4, 4, "pg", 3, 8),
    # trial seed 502001506: Q_[6] != 0, so flag 5 comes from the recurrence and is False
    (6, 3, "ph", 502, 12),
])
def test_recurrence_flags_match_the_full_brute_row(n, d, kind, seed, big_m):
    cfg = ExperimentConfig.from_dict(
        {"n": n, "d": d, "generator": {"kind": kind}, "trials": 1, "seed": seed,
         "t_order": big_m})
    report, failures = hesnil.vanishing.run_trial(cfg, 0)
    assert failures == [] and report.hn_verdict
    p, _ = build_member(n, d, kind, {}, seed * 1_000_003)
    row = laplacian_powers_table(p, big_m, (1,))[0]
    assert report.vanishing_flags == [w.is_zero() for w in row[1:]]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor and runs the map in-process."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("cpus, workers", [(8, 3), (2, 2), (None, None)])
def test_parallelism_is_capped(monkeypatch, cpus, workers):
    _RecordingPool.created = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(hesnil.vanishing.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(hesnil.vanishing, "run_trial",
                        lambda cfg, index: (index, [f"trial {index}"]))
    cfg = ExperimentConfig.from_dict({**BASE, "trials": 3, "parallelism": 64})
    reports, failures = run_vanishing_full(cfg)
    assert reports == [0, 1, 2]
    assert failures == ["trial 0", "trial 1", "trial 2"]
    # one CPU (or an unknown count) runs serially, without a pool
    assert _RecordingPool.created == ([] if workers is None else [workers])


def test_import_leaves_the_process_pool_unloaded():
    # only a run with workers > 1 imports the pool, and multiprocessing with it
    src = os.path.dirname(os.path.dirname(hesnil.vanishing.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, hesnil.vanishing; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
