"""Acceptance gate: ten criteria, one printed pass/fail line each.

Every comparison below is exact; there are no tolerances anywhere.
"""

import json
import time

import pytest
from fractions import Fraction

from click.testing import CliRunner

from hesnil import (
    alpha_bound,
    burgers_residual,
    compose_check,
    crit2_check,
    deg_t,
    exp_formula_check,
    gr,
    heat_residual,
    higher_dt_power_check,
    binomial_identity_check,
    invert_closed,
    invert_general,
    invert_hn,
    is_hn,
    isotropy_check,
    kfactorial_fD_identity,
    laplacian_product_expansion,
    leibniz_identity_check,
    pair_from_fixed_point,
    parse,
    pd_qt_check,
    power_flow_check,
    sample_isotropic,
    trace_powers,
)
from hesnil.cli import main as cli_main
from hesnil.nilpotency import laplacian_powers

import random

from conftest import random_poly


@pytest.fixture
def criterion(capsys):
    """Run one criterion body and print its pass/fail line uncaptured."""

    def run(num, label, body):
        def announce(outcome):
            with capsys.disabled():
                print(f"criterion {num:2d}: "
                      f"{'PASS' if outcome else 'FAIL'} - {label}", flush=True)

        try:
            body()
        except BaseException:
            announce(False)
            raise
        announce(True)

    return run


def test_criterion_01_inverter_agreement(hn_corpus, criterion):
    def body():
        start = time.monotonic()
        assert len(hn_corpus) >= 50
        for p in hn_corpus:
            assert p.arity <= 4 and p.degree() <= 4
            general = invert_general(p, 6)
            recurrence = invert_hn(p, 6)
            closed = invert_closed(p, 6)
            for m in range(1, 7):
                slot = general.q_slot(m)
                assert recurrence.q_slot(m) == slot
                assert closed.q_slot(m) == slot
        assert time.monotonic() - start < 300

    criterion(1, "three inverters agree termwise on the HN corpus", body)


def test_criterion_02_composition_oracle(hn_corpus, non_hn_corpus, criterion):
    def body():
        start = time.monotonic()
        assert len(non_hn_corpus) >= 50
        for p in hn_corpus + non_hn_corpus:
            cap = 6 * (max(p.degree(), 2) - 2) + 2
            pair = invert_general(p, 6, z_cap=cap)
            residuals = compose_check(p, pair, direction="fg", z_cap=cap)
            assert all(r.is_zero() for r in residuals)
        assert time.monotonic() - start < 600

    criterion(2, "F_t(G_t(z)) - z vanishes through t-order 6", body)


def test_criterion_03_criterion_biconditional(mixed_corpus, criterion):
    def body():
        assert len(mixed_corpus) >= 200
        for p in mixed_corpus:
            assert p.arity <= 3 and p.degree() <= 4
            report = is_hn(p)
            assert report.verdict_matrix == report.verdict_laplacian
            traces = trace_powers(p)
            laplacians = laplacian_powers(p)
            for k in range(1, p.arity + 1):
                lhs = all(t.is_zero() for t in traces[:k])
                rhs = all(v.is_zero() for v in laplacians[:k])
                assert lhs == rhs

    criterion(3, "trace and Laplacian criteria agree on every prefix", body)


def test_criterion_04_pde_residuals(hn_corpus, non_hn_corpus, criterion):
    def body():
        for p in non_hn_corpus:
            assert burgers_residual(invert_general(p, 4), form="gradient").is_zero()
        for p in hn_corpus:
            # each recurrence is its own form of the law written slot by
            # slot, so each pair is also held to the other form
            general, pair = invert_general(p, 4), invert_hn(p, 4)
            for form in ("gradient", "laplacian"):
                assert burgers_residual(general, form=form).is_zero()
                assert burgers_residual(pair, form=form).is_zero()
            cap = 16 if p.arity <= 2 else 12
            for s in (1, 2, gr(1, 1)):
                assert heat_residual(p, pair, s, cap).is_zero()
                lhs, rhs = exp_formula_check(p, pair, s, cap)
                assert lhs == rhs

    criterion(4, "Burgers, heat, and exponential-formula residuals vanish", body)


def test_criterion_05_worked_pair(criterion):
    def body():
        p = parse("v1*(u2+i*v2)^2")
        q2 = parse("1/2*(u2+i*v2)^4")
        oracle = pair_from_fixed_point(p, 4)
        for method in (invert_general, invert_hn, invert_closed):
            pair = method(p, 4)
            assert pair.q_slot(1) == p
            assert pair.q_slot(2) == q2
            assert pair.q_slot(3).is_zero()
            assert pair.q_slot(4).is_zero()
            assert pair.q == oracle.q
            assert deg_t(pair) == 1

    criterion(5, "worked pair Q_[2] = (u2+i*v2)^4/2 with deg_t = 1", body)


def test_criterion_06_trace_identity_families(criterion):
    def body():
        rng = random.Random(660)
        seen, seen_hn = 0, 0
        while seen < 30:
            orthogonal = seen % 2 == 0
            n = rng.choice((3, 4, 5))
            k = rng.randint(1, min(3, n // 2 if orthogonal else 3))
            d = rng.randint(2, 4)
            xi = sample_isotropic(n, k, rng.randrange(10 ** 6),
                                  pairwise_orthogonal=orthogonal)
            pairs = crit2_check(xi, d, 3)
            for lhs, rhs in pairs:
                assert lhs == rhs
            if orthogonal:
                # orthogonal families are HN, so the det A_P = 0 and
                # pairing power-sum consequences were verified inside
                seen_hn += 1
            seen += 1
        assert seen_hn >= 10

    criterion(6, "trace identity and HN consequences on isotropic sets", body)


def test_criterion_07_isotropy_theorems(hn_corpus, criterion):
    def body():
        checked_high, checked_two = 0, 0
        for p in hn_corpus:
            d = p.is_homogeneous()
            if d is None:
                continue
            if d >= 3:
                assert all(isotropy_check(p, d, 3).values())
                assert pd_qt_check(p, 3)
                checked_high += 1
            elif d == 2:
                assert pd_qt_check(p, 3)
                checked_two += 1
        assert checked_high >= 30
        assert checked_two >= 1

    criterion(7, "derivative ideal annihilates the vanishing window", body)


def test_criterion_08_bound_table(criterion):
    def body():
        table = {(2, 4): 0, (3, 4): 3, (4, 4): 12}
        for (n, d), expected in table.items():
            bound = alpha_bound(n, d)
            assert bound == Fraction(expected)
            assert bound == Fraction(3, 2) * (3 ** (n - 2) - 1)

    criterion(8, "bound table 0 / 3 / 12 at degree 4", body)


def test_criterion_09_identity_suites(hn_corpus, criterion):
    def body():
        rng = random.Random(990)
        for _ in range(8):
            arity = rng.randint(1, 3)
            f = random_poly(rng, arity, 3)
            g = random_poly(rng, arity, 3)
            for m in (1, 2, 3):
                lhs, rhs = leibniz_identity_check(random_poly(rng, arity, 2), m)
                assert lhs == rhs
            for l in (0, 1, 2):
                lhs, rhs = laplacian_product_expansion(g, f, l)
                assert lhs == rhs
        for _ in range(8):
            arity = rng.randint(1, 3)
            degree = rng.randint(1, 3)
            f = random_poly(rng, arity, degree, min_degree=degree)
            while f.is_zero():
                f = random_poly(rng, arity, degree, min_degree=degree)
            g = random_poly(rng, arity, 4)
            lhs, rhs = kfactorial_fD_identity(f, g)
            assert lhs == rhs
        for p in hn_corpus[:10]:
            for alpha, beta, m in ((1, 1, 0), (1, 2, 1), (2, 2, 2)):
                lhs, rhs = binomial_identity_check(p, alpha, beta, m)
                assert lhs == rhs
            pair = invert_general(p, 5)
            for k, m in ((0, 1), (1, 2), (2, 1)):
                lhs, rhs = power_flow_check(pair, k, m)
                assert lhs == rhs
            for k, l in ((1, 1), (2, 1), (1, 2)):
                lhs, rhs = higher_dt_power_check(pair, k, l)
                assert lhs == rhs

    criterion(9, "auxiliary identity suites hold on randomized inputs", body)


def test_criterion_10_cli_determinism(tmp_path, criterion):
    def body():
        cfg = {"n": 4, "d": 3, "generator": {"kind": "ph"}, "trials": 3,
               "seed": 2026, "t_order": 4}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg), encoding="utf-8")
        runner = CliRunner()
        first = runner.invoke(cli_main, ["vanishing", "--config", str(cfg_file)])
        second = runner.invoke(cli_main, ["vanishing", "--config", str(cfg_file)])
        assert first.exit_code == 0 and second.exit_code == 0
        assert first.stdout == second.stdout

        out_path = tmp_path / "report.csv"
        cfg_csv = {**cfg, "format": "csv", "out": str(out_path)}
        csv_file = tmp_path / "cfg_csv.json"
        csv_file.write_text(json.dumps(cfg_csv), encoding="utf-8")
        assert runner.invoke(cli_main,
                             ["vanishing", "--config", str(csv_file)]).exit_code == 0
        blob1 = out_path.read_bytes()
        assert runner.invoke(cli_main,
                             ["vanishing", "--config", str(csv_file)]).exit_code == 0
        assert out_path.read_bytes() == blob1

    criterion(10, "vanishing runs are byte-identical for a fixed config", body)
