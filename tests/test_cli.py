"""End-to-end checks of the four CLI commands."""

import json
import re
from fractions import Fraction

import pytest
from click.testing import CliRunner

import hesnil.cli
import hesnil.inversion
import hesnil.nilpotency
import hesnil.vanishing
from hesnil import (
    CriterionMismatchError,
    ExperimentConfig,
    GeneratorTheoremError,
    OrthogonalityViolation,
    TheoremCheckError,
    format_poly,
    invert_general,
    parse,
    render_report,
    run_vanishing_full,
)
from hesnil.cli import main
from hesnil.vanishing import MAX_T_ORDER

WORKED_TEXT = "v1*(u2+i*v2)^2"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_check_hn(tmp_path):
    runner = CliRunner()
    hn_file = write(tmp_path / "hn.txt", "(z1+i*z2)^3")
    result = runner.invoke(main, ["check-hn", hn_file])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["is_hn"] is True
    assert payload["arity"] == 2 and payload["degree"] == 3

    bad_file = write(tmp_path / "non_hn.txt", "z1^2*z2")
    payload = json.loads(runner.invoke(main, ["check-hn", bad_file]).stdout)
    assert payload["is_hn"] is False

    result = runner.invoke(main, ["check-hn", str(tmp_path / "missing.txt")])
    assert result.exit_code != 0


def test_invert_output(tmp_path):
    runner = CliRunner()
    poly_file = write(tmp_path / "p.txt", WORKED_TEXT)
    result = runner.invoke(main, ["invert", "--t-order", "4", poly_file])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    pair = invert_general(parse(WORKED_TEXT), 4)
    for m in range(1, 5):
        expected = format_poly(pair.q_slot(m), style="uv")
        assert lines[m - 1] == f"Q_[{m}] = {expected}"
    summary = json.loads("\n".join(lines[4:]))
    assert summary == {"method": "general", "t_order": 4, "deg_t": 1,
                       "first_vanishing_index": 3}

    for method, tag in (("hn", "hn_recurrence"), ("closed", "closed_form"),
                        ("fixed-point", "fixed_point")):
        out = runner.invoke(
            main, ["invert", "--method", method, "--t-order", "4", poly_file])
        assert out.exit_code == 0
        assert out.stdout.splitlines()[:4] == lines[:4]
        assert json.loads("\n".join(out.stdout.splitlines()[4:]))["method"] == tag


def test_invert_rejects_bad_input(tmp_path):
    runner = CliRunner()
    non_hn = write(tmp_path / "q.txt", "z1^2*z2")
    result = runner.invoke(main, ["invert", "--method", "hn", "--t-order", "3", non_hn])
    assert result.exit_code != 0
    assert "Error" in result.stderr

    low_order = write(tmp_path / "lin.txt", "z1 + z2")
    result = runner.invoke(main, ["invert", "--t-order", "3", low_order])
    assert result.exit_code != 0

    # the HN check still comes before the t_order check
    for t_order in ("3", "0"):
        result = runner.invoke(main, ["invert", "--method", "closed", "--t-order", t_order,
                                      non_hn])
        assert result.exit_code == 1
        assert result.stderr == "Error: invert_closed needs Hessian-nilpotent input\n"


def test_invert_refuses_t_order_past_max_t_order_before_any_work(tmp_path, monkeypatch):
    runner = CliRunner()
    poly_file = write(tmp_path / "p.txt", WORKED_TEXT)
    monkeypatch.setattr(hesnil.cli, "parse", lambda *args: pytest.fail("input was parsed"))
    for method in ("general", "hn", "closed", "fixed-point"):
        result = runner.invoke(main, ["invert", "--method", method, "--t-order",
                                      str(MAX_T_ORDER + 1), poly_file])
        assert result.exit_code == 1
        assert result.stderr == f"Error: --t-order must be at most MAX_T_ORDER = {MAX_T_ORDER}\n"
    monkeypatch.undo()
    # values below 1 keep the inverters' own message
    result = runner.invoke(main, ["invert", "--t-order", "0", poly_file])
    assert result.exit_code == 1 and result.stderr == "Error: t_order must be at least 1\n"
    result = runner.invoke(main, ["invert", "--method", "closed", "--t-order", "2", poly_file])
    assert result.exit_code == 0


def test_unreadable_input_and_negative_z_degree_exit_1(tmp_path):
    runner = CliRunner()
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"z1^2*z2\xff")
    for args in (["invert", "--t-order", "2", str(latin)],
                 ["check-hn", str(latin)],
                 ["vanishing", "--config", str(latin)]):
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert "Error:" in result.stderr and "not UTF-8 text" in result.stderr
        assert isinstance(result.exception, SystemExit)

    poly_file = write(tmp_path / "p.txt", WORKED_TEXT)
    for method in ("general", "hn", "closed", "fixed-point"):
        result = runner.invoke(main, ["invert", "--method", method, "--t-order", "3",
                                      "--z-degree", "-1", poly_file])
        assert result.exit_code == 1
        assert "Error: z-degree cap must be nonnegative, got -1" in result.stderr
        assert "Q_[1]" not in result.stdout


def test_oversized_product_exits_1_before_multiplying(tmp_path):
    # each power has 1771 terms, within MAX_POWER_TERMS; their product is refused
    poly_file = write(tmp_path / "big.txt", "(z1+z2+z3+z4)^20*(z5+z6+z7+z8)^20")
    result = CliRunner().invoke(main, ["check-hn", poly_file])
    assert result.exit_code == 1
    assert ("Error: a product of a 1771-term and a 1771-term factor has more than "
            "250000 term pairs") in result.stderr
    assert isinstance(result.exception, SystemExit)


def test_oversized_power_exits_1_before_expanding(tmp_path):
    runner = CliRunner()
    poly_file = write(tmp_path / "big.txt", "(z1+z2+z3)^2000")
    for args in (["check-hn", poly_file], ["invert", "--t-order", "2", poly_file]):
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert "Error: a 3-term base to the power 2000 can have more than" in result.stderr
        assert isinstance(result.exception, SystemExit)


def test_costly_power_exits_1_before_expanding(tmp_path):
    # 2000 terms, within MAX_POWER_TERMS, but coefficients near 2^1995: refused by its work
    poly_file = write(tmp_path / "big.txt", "(z1+z2)^1999")
    result = CliRunner().invoke(main, ["check-hn", poly_file])
    assert result.exit_code == 1
    assert "Error: a 2-term base to the power 1999 needs more than MAX_POWER_WORK" in result.stderr
    assert isinstance(result.exception, SystemExit)


def test_invert_z_degree_caps(tmp_path):
    runner = CliRunner()
    poly_file = write(tmp_path / "p.txt", "z1^2*z2 + z2^3")
    full = runner.invoke(main, ["invert", "--t-order", "3", poly_file])
    capped = runner.invoke(
        main, ["invert", "--t-order", "3", "--z-degree", "3", poly_file])
    assert capped.exit_code == 0
    assert capped.stdout != full.stdout


def test_generate(tmp_path):
    runner = CliRunner()
    args = ["generate", "--kind", "ph", "--n", "4", "--d", "3",
            "--seed", "7000021"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert parse(lines[0], arity=4) == parse(WORKED_TEXT)
    provenance = json.loads("\n".join(lines[1:]))
    assert provenance == {"kind": "ph", "trial": 0, "trial_seed": 7000021,
                          "n": 4, "d": 3, "map": ["z2^2", "0"]}
    assert runner.invoke(main, args).stdout == result.stdout

    bad = runner.invoke(main, ["generate", "--kind", "pg", "--n", "5",
                               "--d", "3", "--seed", "1"])
    assert bad.exit_code != 0

    # the paper's n=4, d=4 case builds with the default wtilde counts
    wtilde = runner.invoke(main, ["generate", "--kind", "wtilde", "--n", "4",
                                  "--d", "4", "--seed", "1"])
    assert wtilde.exit_code == 0


TAG = re.compile(r"trial (\d+) \((\w+), n=(\d+), d=(\d+), params (\{.*?\}), trial_seed (\d+)\)")


@pytest.mark.parametrize("kind,n,d,params", [
    ("w", 4, 3, {"count": 1}),
    ("wtilde", 4, 4, {"counts": [1, 0, 1]}),
    ("ug", 4, 3, {"k": 1}),
    ("pg", 4, 3, {}),
    ("ph", 6, 3, {}),
])
def test_failure_tag_rebuilds_the_member(monkeypatch, kind, n, d, params):
    cfg = ExperimentConfig.from_dict({"n": n, "d": d, "generator": {"kind": kind, "params": params},
                                      "trials": 2, "seed": 3, "t_order": 2})
    built = []
    build_member = hesnil.vanishing.build_member

    def recording(*args):
        member = build_member(*args)
        built.append(member[0])
        return member

    # a planted non-HN verdict stops the trial with a theorem-level error and its tag
    monkeypatch.setattr(hesnil.vanishing, "build_member", recording)
    monkeypatch.setattr(hesnil.vanishing, "_hn_slots", lambda p, t_order: None)
    with pytest.raises(TheoremCheckError) as raised:
        hesnil.vanishing.run_trial(cfg, 1)
    tag = TAG.search(str(raised.value))
    assert tag is not None, str(raised.value)
    index, tag_kind, tag_n, tag_d, tag_params, seed = tag.groups()
    assert (index, tag_kind, json.loads(tag_params)) == ("1", kind, params)
    result = CliRunner().invoke(main, ["generate", "--kind", tag_kind, "--n", tag_n, "--d", tag_d,
                                       "--params", tag_params, "--seed", seed])
    assert result.exit_code == 0, result.output
    assert parse(result.stdout.splitlines()[0], arity=n) == built[0]


@pytest.mark.parametrize("params,message", [
    ("nope", "--params is not valid JSON"),
    ("[1]", "generator params must be an object"),
    ('{"count": 9}', "w needs an integer count"),
    ('{"k": 1}', "unknown w params"),
])
def test_generate_rejects_bad_params(params, message):
    result = CliRunner().invoke(main, ["generate", "--kind", "w", "--n", "4", "--d", "3",
                                       "--params", params, "--seed", "1"])
    assert result.exit_code == 1
    assert f"Error: {message}" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("kind", ["w", "wtilde", "ug", "pg", "ph"])
@pytest.mark.parametrize("d", ["1", "0", "-3"])
def test_generate_rejects_degrees_below_two(kind, d):
    result = CliRunner().invoke(main, ["generate", "--kind", kind, "--n", "4", "--d", d,
                                       "--seed", "1"])
    assert result.exit_code == 1
    assert "Error: d must be an integer >= 2" in result.output
    assert "Traceback" not in result.output


def test_generate_refuses_n_past_max_n():
    result = CliRunner().invoke(main, ["generate", "--kind", "w", "--n", "1000000", "--d", "3",
                                       "--seed", "1"])
    assert result.exit_code == 1
    assert "Error: n must be at most MAX_N = 64" in result.output
    assert "Traceback" not in result.output


def test_d_past_max_d_exits_1_before_building(tmp_path):
    generate = ["generate", "--kind", "w", "--n", "4", "--d", "3000", "--params",
                '{"count": 1}', "--seed", "1"]
    config = {"n": 4, "d": 3000, "generator": {"kind": "w", "params": {"count": 1}},
              "trials": 1, "seed": 1}
    cfg_file = write(tmp_path / "cfg.json", json.dumps(config))
    for args in (generate, ["vanishing", "--config", cfg_file]):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1
        assert "Error: d must be at most MAX_D = 256" in result.output
        assert "Traceback" not in result.output


def test_doubled_members_past_the_bound_exit_1(tmp_path):
    for kind in ("ph", "pg"):
        config = {"n": 16, "d": 64, "generator": {"kind": kind}, "trials": 1, "seed": 1,
                  "t_order": 4}
        cfg_file = write(tmp_path / "cfg.json", json.dumps(config))
        for args in (["generate", "--kind", kind, "--n", "16", "--d", "64", "--seed", "1"],
                     ["vanishing", "--config", cfg_file]):
            result = CliRunner().invoke(main, args)
            assert result.exit_code == 1
            assert "more than MAX_DOUBLED_TERMS = 300000" in result.output
            assert "Traceback" not in result.output
    result = CliRunner().invoke(main, ["generate", "--kind", "w", "--n", "16", "--d", "64",
                                       "--seed", "1"])
    assert result.exit_code == 0, result.output


def test_vanishing_stdout_and_exit_zero(tmp_path):
    cfg_data = {"n": 4, "d": 3, "generator": {"kind": "ph"}, "trials": 2,
                "seed": 7, "t_order": 4}
    cfg_file = write(tmp_path / "cfg.json", json.dumps(cfg_data))
    runner = CliRunner()
    result = runner.invoke(main, ["vanishing", "--config", cfg_file])
    assert result.exit_code == 0
    expected = render_report(
        run_vanishing_full(ExperimentConfig.from_dict(cfg_data))[0], "json")
    assert result.stdout == expected
    again = runner.invoke(main, ["vanishing", "--config", cfg_file])
    assert again.stdout == result.stdout


def test_vanishing_writes_file(tmp_path):
    out_path = tmp_path / "report.csv"
    cfg_data = {"n": 4, "d": 3, "generator": {"kind": "w"}, "trials": 2,
                "seed": 3, "t_order": 3, "format": "csv",
                "out": str(out_path)}
    cfg_file = write(tmp_path / "cfg.json", json.dumps(cfg_data))
    result = CliRunner().invoke(main, ["vanishing", "--config", cfg_file])
    assert result.exit_code == 0
    assert f"wrote 2 report(s) to {out_path}" in result.stdout
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith("provenance,hn_verdict,m1,m2,m3,")
    assert text.count("\n") == 3


@pytest.mark.parametrize("where", ["missing/report.json", "."])
def test_unwritable_out_exits_1_naming_the_path(tmp_path, where):
    # a missing directory and a directory itself: an error line, not a traceback
    out_path = tmp_path / where
    cfg_data = {"n": 4, "d": 3, "generator": {"kind": "w"}, "trials": 1, "seed": 3,
                "t_order": 3, "out": str(out_path)}
    cfg_file = write(tmp_path / "cfg.json", json.dumps(cfg_data))
    result = CliRunner().invoke(main, ["vanishing", "--config", cfg_file])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("Error: ") and str(out_path) in result.stderr
    assert "Traceback" not in result.stderr and "wrote" not in result.stdout


GOLDEN_CONFIG = {"n": 4, "d": 3, "generator": {"kind": "ph"}, "trials": 2,
                 "seed": 7, "t_order": 4}


@pytest.mark.parametrize("error", [CriterionMismatchError, TheoremCheckError,
                                   GeneratorTheoremError])
def test_vanishing_theorem_failure_exits_2(tmp_path, monkeypatch, error):
    def broken_hn_slots(p, t_order):
        raise error("planted failure")

    monkeypatch.setattr(hesnil.vanishing, "_hn_slots", broken_hn_slots)
    cfg_file = write(tmp_path / "cfg.json", json.dumps(GOLDEN_CONFIG))
    result = CliRunner().invoke(main, ["vanishing", "--config", cfg_file])
    assert result.exit_code == 2
    assert result.stderr.startswith("theorem check failed: trial 0 (ph, ")
    assert TAG.search(result.stderr) is not None, result.stderr
    assert result.stderr.endswith(", is_hn: planted failure\n")
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_theorem_failures_share_one_base():
    assert issubclass(CriterionMismatchError, TheoremCheckError)
    assert issubclass(GeneratorTheoremError, TheoremCheckError)
    assert (TheoremCheckError is hesnil.vanishing.TheoremCheckError
            is hesnil.nilpotency.TheoremCheckError)


def _plant_non_nilpotent_jacobian(monkeypatch):
    construction = hesnil.vanishing.ph_construction
    monkeypatch.setattr(hesnil.vanishing, "ph_construction",
                        lambda h: (construction(h)[0], False))


def _plant_orthogonality_violation(monkeypatch):
    def broken(*args, **kwargs):
        raise OrthogonalityViolation("planted")

    monkeypatch.setattr(hesnil.vanishing, "sample_isotropic", broken)


@pytest.mark.parametrize("generator, plant, message", [
    ({"kind": "ph"}, _plant_non_nilpotent_jacobian,
     "triangular map produced a non-nilpotent Jacobian"),
    ({"kind": "w", "params": {"count": 1}}, _plant_orthogonality_violation, "planted"),
])
def test_member_build_failure_names_its_trial(tmp_path, monkeypatch, generator, plant,
                                              message):
    cfg_data = {"n": 4, "d": 3, "generator": generator, "trials": 2, "seed": 5, "t_order": 3}
    cfg_file = write(tmp_path / "cfg.json", json.dumps(cfg_data))
    with monkeypatch.context() as patch:
        plant(patch)
        result = CliRunner().invoke(main, ["vanishing", "--config", cfg_file])
    # a generator bug is a theorem-level failure, not a config error
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"build_member: {message}" in result.stderr
    tag = TAG.search(result.stderr)
    assert tag is not None, result.stderr
    index, kind, n, d, params, seed = tag.groups()
    assert (kind, json.loads(params)) == (generator["kind"], generator.get("params", {}))
    # the tag rebuilds the member that the unplanted trial builds
    report, _ = hesnil.vanishing.run_trial(ExperimentConfig.from_dict(cfg_data), int(index))
    rebuilt = CliRunner().invoke(main, ["generate", "--kind", kind, "--n", n, "--d", d,
                                        "--params", params, "--seed", seed])
    assert rebuilt.exit_code == 0, rebuilt.output
    provenance = json.loads("\n".join(rebuilt.stdout.splitlines()[1:]))
    assert provenance == {**report.provenance, "trial": 0}


def _plant_criterion_mismatch(monkeypatch):
    # a nonzero trace makes the matrix verdict disagree with the Laplacian one in
    # is_hn, and with the recurrence's Delta Q_[1] in the inverters' verdict
    for module in (hesnil.nilpotency, hesnil.inversion):
        monkeypatch.setattr(module, "trace_powers", lambda p, max_m=None: [p])


@pytest.mark.parametrize("args, plant", [
    (["generate", "--kind", "ph", "--n", "4", "--d", "3", "--seed", "7"],
     _plant_non_nilpotent_jacobian),
    (["generate", "--kind", "w", "--n", "4", "--d", "3", "--seed", "7"],
     _plant_orthogonality_violation),
    (["check-hn", "POLY"], _plant_criterion_mismatch),
    (["invert", "--method", "closed", "--t-order", "3", "POLY"], _plant_criterion_mismatch),
    (["invert", "--method", "hn", "--t-order", "3", "POLY"], _plant_criterion_mismatch),
])
def test_theorem_failure_exits_2_in_every_command(tmp_path, monkeypatch, args, plant):
    poly_file = write(tmp_path / "p.txt", WORKED_TEXT)
    plant(monkeypatch)
    result = CliRunner().invoke(main, [poly_file if a == "POLY" else a for a in args])
    # a planted bug is a theorem-level failure, not bad input
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("theorem check failed: ")
    assert "Traceback" not in result.output
    assert result.stdout == ""


def test_vanishing_missed_bound_exits_3(tmp_path, monkeypatch):
    # the golden members have Delta P^2 != 0, so a cutoff of 0 is missed at m=1
    monkeypatch.setattr(hesnil.vanishing, "alpha_bound", lambda n, d: Fraction(0))
    cfg_file = write(tmp_path / "cfg.json", json.dumps(GOLDEN_CONFIG))
    result = CliRunner().invoke(main, ["vanishing", "--config", cfg_file])
    assert result.exit_code == 3
    assert "vanishing beyond the bound failed in 2 trial(s)" in result.stderr
    assert [r["bound_respected"] for r in json.loads(result.stdout)] == [False, False]


def test_vanishing_config_errors(tmp_path):
    runner = CliRunner()
    not_json = write(tmp_path / "broken.json", "{nope")
    result = runner.invoke(main, ["vanishing", "--config", not_json])
    assert result.exit_code != 0
    assert "not valid JSON" in result.stderr

    unknown = write(tmp_path / "unknown.json",
                    json.dumps({"n": 4, "d": 3, "generator": {"kind": "w"},
                                "trials": 1, "seed": 0, "t_order": 3,
                                "wat": 1}))
    result = runner.invoke(main, ["vanishing", "--config", unknown])
    assert result.exit_code != 0
    assert "unknown config keys" in result.stderr

    bad_param = write(tmp_path / "bad_param.json",
                      json.dumps({"n": 4, "d": 3,
                                  "generator": {"kind": "w", "params": {"count": "2"}},
                                  "trials": 1, "seed": 0, "t_order": 3}))
    result = runner.invoke(main, ["vanishing", "--config", bad_param])
    assert result.exit_code == 1
    assert "Error: w needs an integer count" in result.stderr
    assert "Traceback" not in result.stderr


def test_help_lists_commands():
    result = CliRunner().invoke(main, ["--help"])
    assert result.exit_code == 0
    for name in ("check-hn", "invert", "generate", "vanishing"):
        assert name in result.stdout
