"""End-to-end tests of the command-line interface.

Each test drives the in-process entry point with an argv list; one
subprocess test confirms `python -m mtdirac` works as installed.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtdirac
from mtdirac import (
    BasisClass,
    BasisElement,
    MultiTimeSystem,
    Potential,
    PotentialTerm,
    make_builtin,
    parse,
    save_system,
    system_to_dict,
    tensor_element,
    zero_potential,
)
from mtdirac import cli, clifford, consistency, potential, solver, symmetry
from mtdirac.cli import EXIT_DOMAIN, EXIT_EXPECT, EXIT_OK, EXIT_SPEC, entry
from oracles import reference_curvature


def run_json(capsys, argv):
    """Run the CLI to stdout and return (exit code, parsed envelope)."""
    code = entry(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# verify-clifford
# ---------------------------------------------------------------------------

def test_verify_clifford_all_residuals_tiny(capsys):
    code, envelope = run_json(capsys, ["verify-clifford"])
    assert code == EXIT_OK
    report = envelope["report"]
    assert report["ok"] is True
    assert report["max_residual"] < 1e-12
    for name in ("dirac", "weyl"):
        assert report[name]["commutator_table_sup"] < 1e-12
        for residual in report[name]["identities"].values():
            assert residual < 1e-12


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_hoho_consistent_with_expectation(tmp_path):
    out = tmp_path / "hoho.json"
    code = entry(["check", "--builtin", "hoho",
                  "--expect", "consistent", "--out", str(out)])
    assert code == EXIT_OK
    envelope = read_json(out)
    assert envelope["command"] == "check"
    assert envelope["verdict"] == "CONSISTENT"
    report = envelope["report"]
    assert report["zeroth_sup"] < 1e-10
    assert max(report["deriv_coeff_sup"]) < 1e-10
    assert all(value < 1e-10 for value in report["cc"].values())


def test_check_example1_inconsistent_with_norm_eight(tmp_path):
    out = tmp_path / "ex1.json"
    code = entry(["check", "--builtin", "example1_vector",
                  "--expect", "inconsistent", "--out", str(out)])
    assert code == EXIT_OK
    report = read_json(out)["report"]
    assert report["verdict"] == "INCONSISTENT"
    assert abs(report["zeroth_sup"] - 8.0) < 1e-10


def test_check_free_all_residuals_zero(capsys):
    code, envelope = run_json(capsys, ["check", "--builtin", "free"])
    assert code == EXIT_OK
    report = envelope["report"]
    assert report["zeroth_sup"] == 0.0
    assert max(report["deriv_coeff_sup"]) == 0.0


def test_check_spacelike_region_and_params(capsys):
    code, envelope = run_json(capsys, [
        "check", "--builtin", "hoho", "--param", "C=1,0.2,0,0",
        "--param", "m1=2.0", "--region", "spacelike", "--nsamples", "30"])
    assert code == EXIT_OK
    assert envelope["verdict"] == "CONSISTENT"
    assert envelope["report"]["masses"] == [2.0, 1.0]
    assert envelope["report"]["region"] == "spacelike"
    assert envelope["config"]["region"] == "spacelike"


def test_check_and_cc_report_their_sampling_region(capsys):
    for command in ("check", "cc"):
        code, envelope = run_json(capsys, [command, "--builtin", "hoho"])
        assert code == EXIT_OK
        assert envelope["report"]["region"] == "all"
        assert envelope["report"]["nsamples"] == 100


def test_expectation_mismatch_exits_one(tmp_path):
    code = entry(["check", "--builtin", "hoho",
                  "--expect", "inconsistent", "--out",
                  str(tmp_path / "r.json")])
    assert code == EXIT_EXPECT


def test_any_matching_expectation_passes(tmp_path):
    code = entry(["check", "--builtin", "hoho",
                  "--expect", "inconsistent", "--expect", "consistent",
                  "--out", str(tmp_path / "r.json")])
    assert code == EXIT_OK


# ---------------------------------------------------------------------------
# error paths and exit codes
# ---------------------------------------------------------------------------

def test_unknown_builtin_exits_two(capsys):
    code = entry(["check", "--builtin", "nope"])
    assert code == EXIT_SPEC
    assert "unknown builtin" in capsys.readouterr().err


def test_parse_error_reports_position(capsys):
    code = entry(["check", "--builtin", "coefficient_form",
                  "--param", "W1=cos(x1_0 +,0,0,0"])
    assert code == EXIT_SPEC
    assert "position" in capsys.readouterr().err


def test_missing_source_exits_two(capsys):
    assert entry(["check"]) == EXIT_SPEC


def test_both_sources_exit_two(tmp_path, capsys):
    spec = tmp_path / "sys.json"
    save_system(make_builtin("free"), spec)
    code = entry(["check", "--spec", str(spec), "--builtin", "free"])
    assert code == EXIT_SPEC


def test_param_without_builtin_exits_two(tmp_path, capsys):
    spec = tmp_path / "sys.json"
    save_system(make_builtin("free"), spec)
    code = entry(["check", "--spec", str(spec), "--param", "m1=2"])
    assert code == EXIT_SPEC


def test_missing_spec_file_exits_two(tmp_path, capsys):
    code = entry(["check", "--spec", str(tmp_path / "absent.json")])
    assert code == EXIT_SPEC


def test_malformed_param_exits_two(capsys):
    code = entry(["check", "--builtin", "hoho", "--param", "no_equals"])
    assert code == EXIT_SPEC


@pytest.mark.parametrize("builtin,param", [
    ("hoho", "m1=x"), ("hoho", "m1=1,2,3,4"), ("hoho", "m1=1+2j"),
    ("hoho", "m1=nan"), ("hoho", "m2=inf"), ("hoho", "m1=true"),
    ("coulomb_like", "q=x"), ("coulomb_like", "q=inf"),
    ("coefficient_form", "hermitian=x"), ("hoho", "C=true,0,0,0"),
    ("coefficient_form", "W1=true,0,0,0"), ("example1_vector", "A=0,0,0,nan"),
])
def test_malformed_builtin_param_exits_two(capsys, builtin, param):
    code = entry(["check", "--builtin", builtin, "--param", param])
    assert code == EXIT_SPEC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert param.partition("=")[0] in captured.err


@pytest.mark.parametrize("builtin,name", [
    ("example1_vector", "A"), ("example1_vector", "B"), ("hoho", "C"),
    ("hoho", "c")] + [("coefficient_form", name)
                      for name in potential.FIELD_NAMES])
def test_single_expression_for_a_fourvector_exits_two(capsys, builtin, name):
    code = entry(["check", "--builtin", builtin, "--param", f"{name}=x2_0"])
    assert code == EXIT_SPEC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"mtdirac: error: {name} needs 4 components, "
                            "got 'x2_0'\n")


def _spec_with(edit):
    """coulomb_like's description (one term and one guard per particle),
    changed in place by edit."""
    data = system_to_dict(make_builtin("coulomb_like"))
    edit(data)
    return data


def _set_factor_mu(data):
    data["potentials"][0]["terms"][0]["factors"][0] = {"cls": "gamma",
                                                      "mu": "x"}


@pytest.mark.parametrize("edit", [
    lambda data: data.update(params={"a": [1, 2]}),
    lambda data: data.update(params={"a": {"re": "x"}}),
    lambda data: data.update(params=[1]),
    _set_factor_mu,
    lambda data: data["potentials"][0]["terms"][0].update(coeff=[1]),
    lambda data: data["potentials"][0]["terms"].append("term"),
    lambda data: data.update(masses="12"),
    lambda data: data.update(masses=[1.0]),
    lambda data: data.update(masses=[1.0, 1.0, 1.0]),
    lambda data: data["potentials"][0]["terms"][0].update(factors="ab"),
    lambda data: data["potentials"][0]["terms"][0].update(
        factors=[{"cls": "id"}]),
    lambda data: data.update(hermitian="false"),
    lambda data: data["potentials"][0]["guards"][0].update(threshold="nan"),
    lambda data: data["potentials"][0]["guards"][0].update(
        threshold=float("nan")),
    lambda data: data["potentials"][0]["guards"][0].update(threshold=-1.0),
    lambda data: data.update(N=2.7),
    lambda data: data.update(N=True),
    lambda data: data.update(N="2"),
    lambda data: data["potentials"][0].update(particle=1.9),
], ids=["param list", "param re text", "params list", "factor mu text",
        "coeff list", "term text", "masses text", "masses short",
        "masses long", "factors text", "factors short", "hermitian text",
        "threshold text", "threshold NaN", "threshold negative", "N float",
        "N bool", "N text", "particle float"])
def test_malformed_spec_exits_two(tmp_path, capsys, edit):
    spec = tmp_path / "sys.json"
    spec.write_text(json.dumps(_spec_with(edit)), encoding="utf-8")
    code = entry(["check", "--spec", str(spec)])
    assert code == EXIT_SPEC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


def _nested_json(tmp_path):
    spec = tmp_path / "nested.json"
    spec.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    return ["--spec", str(spec)]


def _not_utf8(tmp_path):
    spec = tmp_path / "latin1.json"
    spec.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    return ["--spec", str(spec)]


@pytest.mark.parametrize("source,message", [
    (_not_utf8, "can't decode byte 0xe9"),
    (_nested_json, "maximum recursion depth exceeded"),
    (lambda tmp_path: ["--builtin", "coefficient_form", "--param",
                       "W1=" + "(" * 400 + "x2_0" + ")" * 400 + ",0,0,0"],
     "nested more than 150 levels deep (at position 151)"),
    (lambda tmp_path: ["--builtin", "coefficient_form", "--param",
                       "W1=" + "+".join(["x2_0"] * 600) + ",0,0,0"],
     "nested more than 150 levels deep (at position 749)"),
], ids=["spec not utf-8", "spec json 100000 deep",
        "400 nested parentheses", "600-term sum"])
def test_input_too_deep_or_undecodable_exits_two(tmp_path, capsys, source,
                                                 message):
    code = entry(["check", *source(tmp_path)])
    assert code == EXIT_SPEC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mtdirac: error: ")
    assert captured.err.count("\n") == 1
    assert message in captured.err


def test_classify_on_the_deepest_quotient_chain_ends_in_its_verdict(capsys):
    """A 148-factor quotient chain is as deep as the parser accepts; its
    second derivatives share subtrees, so classify ends within seconds in
    the exit code a slow run gives, with no traceback."""
    chain = "/".join(["cos(x2_0*x1_3)"] * 148)
    assert entry(["classify", "--builtin", "coefficient_form", "--param",
                  f"E={chain},0,0,0", "--nsamples", "3"]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.err == ("mtdirac: error: non-finite residual in "
                            "poincare_residual(translation) at the sampled "
                            "configurations\n")


def test_reports_get_the_mode_of_a_plain_open(tmp_path):
    # mkstemp stages with mode 0o600; the written files must not keep it
    script = """if True:
        import os, stat, sys
        from mtdirac import make_builtin, save_system
        from mtdirac.cli import entry
        os.umask(0o022)
        entry(["verify-clifford", "--out", "vc.json"])
        entry(["simulate", "--builtin", "free", "--grid-n", "16",
               "--delta", "0.1", "--csv", "loop.csv", "--out", "sim.json"])
        save_system(make_builtin("free"), "free.json")
        open("plain.txt", "w").close()
        with open("kept.json", "w"):
            pass
        os.chmod("kept.json", 0o640)
        save_system(make_builtin("free"), "kept.json")
        for name in ("vc.json", "sim.json", "loop.csv", "free.json",
                     "plain.txt", "kept.json"):
            print(name, oct(stat.S_IMODE(os.stat(name).st_mode)))
    """
    src = str(Path(mtdirac.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    modes = dict(line.split() for line in done.stdout.splitlines())
    assert modes == {"vc.json": "0o644", "sim.json": "0o644",
                     "loop.csv": "0o644", "free.json": "0o644",
                     "plain.txt": "0o644", "kept.json": "0o640"}


def test_bad_expect_token_rejected():
    with pytest.raises(SystemExit) as excinfo:
        entry(["check", "--builtin", "hoho", "--expect", "bogus"])
    assert excinfo.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        entry(["--version"])
    assert excinfo.value.code == 0


@pytest.mark.parametrize("argv,code", [
    (["--help"], 0), (["--version"], 0), (["check", "--bogus"], EXIT_SPEC),
], ids=["help", "version", "usage error"])
def test_parser_exits_alike_before_and_after_it_is_cached(capsys, argv,
                                                         code):
    cli._build_parser.cache_clear()
    for _ in range(2):  # the first call builds the parser, the next reuses it
        with pytest.raises(SystemExit) as excinfo:
            entry(argv)
        assert excinfo.value.code == code
        assert cli._build_parser.cache_info().currsize == 1
    capsys.readouterr()


def test_successive_entries_share_no_parsed_state(capsys):
    code, first = run_json(capsys, [
        "check", "--builtin", "coefficient_form", "--param", "W1=x2_0,0,0,0",
        "--expect", "inconsistent"])
    assert code == EXIT_OK
    assert first["config"]["param"] == ["W1=x2_0,0,0,0"]
    assert first["config"]["expect"] == ["inconsistent"]
    code, second = run_json(capsys, ["check", "--builtin", "hoho"])
    assert code == EXIT_OK
    assert second["config"]["param"] == []
    assert second["config"]["expect"] is None
    assert second["config"]["builtin"] == "hoho"


def test_the_parser_is_built_on_first_use_not_at_import():
    script = "from mtdirac import cli; print(cli._build_parser.cache_info())"
    src = str(Path(mtdirac.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert "misses=0" in done.stdout


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------

def test_spec_file_round_trip(tmp_path):
    spec = tmp_path / "hoho.json"
    save_system(make_builtin("hoho", {"C": (1, 0, 0, 0), "c": (1, 0, 0, 0)}),
                spec)
    out = tmp_path / "report.json"
    code = entry(["check", "--spec", str(spec),
                  "--expect", "consistent", "--out", str(out)])
    assert code == EXIT_OK
    envelope = read_json(out)
    assert envelope["config"]["spec"] == str(spec)
    assert envelope["config"]["builtin"] is None


# ---------------------------------------------------------------------------
# cc
# ---------------------------------------------------------------------------

def test_cc_hoho_sixteen_families(capsys):
    code, envelope = run_json(capsys, ["cc", "--builtin", "hoho"])
    assert code == EXIT_OK
    report = envelope["report"]
    assert envelope["verdict"] == "CONSISTENT"
    assert sorted(report["cc"]) == sorted(f"cc{i}" for i in range(1, 17))
    assert report["sup"] < 1e-10


@pytest.mark.parametrize("argv", [
    ("--builtin", "hoho"),
    ("--builtin", "coefficient_form", "--region", "spacelike",
     "--param", "W1=x2_0,0,0,0", "--param", "W2=x1_0,0,0,0"),
], ids=["hoho", "gradient_pair"])
def test_cc_builds_the_coefficient_form_once(capsys, monkeypatch, argv):
    # cc's own form check builds it; check_consistency only tests membership
    calls = []
    for module in (mtdirac, potential, consistency, symmetry, cli):
        original = module.to_coefficient_form

        def counted(*args, original=original, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "to_coefficient_form", counted)
    code, envelope = run_json(capsys, ["cc", *argv])
    assert code == EXIT_OK
    assert len(envelope["report"]["cc"]) == 16
    assert len(calls) == 1


def test_cc_outside_the_form_fails_before_sampling(tmp_path, capsys,
                                                    monkeypatch):
    # a guard that trips at every sample cannot turn the form error into
    # exit 3: cc stops before it samples
    data = system_to_dict(make_builtin("example1_vector"))
    data["potentials"][0]["guards"] = [
        {"expr": "1", "threshold": 2.0, "description": "always"}]
    spec = tmp_path / "guarded.json"
    spec.write_text(json.dumps(data), encoding="utf-8")
    assert entry(["check", "--spec", str(spec)]) == EXIT_DOMAIN
    capsys.readouterr()
    drawn = []
    monkeypatch.setattr(cli, "sample_configs",
                        lambda *args: drawn.append(args))
    for argv in (["--builtin", "example1_vector"], ["--spec", str(spec)]):
        assert entry(["cc", *argv]) == EXIT_SPEC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("mtdirac: error: V_1 term acts on particle 2 "
                                "through alpha3\n")
    assert drawn == []


def test_cc_rejects_non_coefficient_form(tmp_path, capsys):
    structure = tensor_element(BasisElement(BasisClass.ALPHA, 1),
                               BasisElement(BasisClass.ALPHA, 1))
    system = MultiTimeSystem(
        name="alpha_pair", n_particles=2, masses=(1.0, 1.0),
        potentials=(Potential(1, 2, (PotentialTerm(structure, parse("1")),)),
                    zero_potential(2, 2)),
        hermitian=False)
    spec = tmp_path / "alpha_pair.json"
    save_system(system, spec)
    code = entry(["cc", "--spec", str(spec)])
    assert code == EXIT_SPEC


def _sector_repro(c_sign):
    """(argv, system) of B = cos(phi), C = c_sign i sin(phi) with
    phi = 2 (x2_0 - x1_0), Z2 = 1 and A = E = -1 cancelling the masses.
    With c_sign = "-" the product term B Z2 cancels the derivative term of
    C in cc7."""
    fields = {"B": "cos(2*(x2_0-x1_0))", "C": f"{c_sign}i*sin(2*(x2_0-x1_0))",
              "Z2": "1", "A": "-1", "E": "-1"}
    argv = ["--builtin", "coefficient_form"]
    for name, value in fields.items():
        argv += ["--param", f"{name}={value},0,0,0"]
    system = make_builtin("coefficient_form", {
        name: (value, 0, 0, 0) for name, value in fields.items()})
    return argv, system


def test_cc_and_check_agree_on_a_consistent_sector_system(capsys, dirac,
                                                          weyl):
    argv, system = _sector_repro("-")
    code, checked = run_json(capsys, ["check", *argv])
    assert code == EXIT_OK
    assert checked["verdict"] == "CONSISTENT"
    assert checked["report"]["zeroth_sup"] < 1e-12
    code, conditions = run_json(capsys, ["cc", *argv])
    assert code == EXIT_OK
    assert conditions["verdict"] == "CONSISTENT"
    for report in (checked["report"], conditions["report"]):
        assert max(report["cc"].values()) < 1e-12
    samples = np.random.default_rng(0).uniform(-2, 2, (50, 2, 4))
    for rep in (dirac, weyl):
        zeroth, first = reference_curvature(system, samples, rep)
        for operand in (zeroth, *first.values()):
            assert np.max(np.abs(operand)) <= 1e-14


def test_cc_and_check_give_one_verdict_near_tol(capsys):
    # E(1,2) holds one coefficient of modulus 5e-10: its Frobenius norm,
    # 4 x 5e-10, is above tol and its family sup is below; both commands
    # report check's verdict
    argv = ["--builtin", "coefficient_form", "--param",
            "W1=5e-10*x2_0,0,0,0"]
    code, checked = run_json(capsys, ["check", *argv])
    assert code == EXIT_OK
    assert checked["verdict"] == "INCONSISTENT"
    assert checked["report"]["zeroth_sup"] > 1e-9
    code, conditions = run_json(capsys, ["cc", *argv])
    assert code == EXIT_OK
    assert conditions["verdict"] == checked["verdict"]
    assert conditions["report"]["verdict"] == checked["verdict"]
    assert conditions["report"]["sup"] < 1e-9


def test_cc_sees_the_mirrored_sector_obstruction(capsys):
    code, envelope = run_json(capsys, ["cc", *_sector_repro("")[0]])
    assert code == EXIT_OK
    assert envelope["verdict"] == "INCONSISTENT"
    assert envelope["report"]["cc"]["cc7"] > 1


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_hoho_interacting(tmp_path):
    out = tmp_path / "classify.json"
    code = entry(["classify", "--builtin", "hoho",
                  "--expect", "interacting", "--out", str(out)])
    assert code == EXIT_OK
    report = read_json(out)["report"]
    assert report["verdict"] == "INTERACTING"
    assert abs(report["witness"] - 8.0) < 1e-9
    assert report["translation_sup"] < 1e-12
    assert report["f_sector"]["verdict"] == "GAUGE_REMOVABLE"
    exponential = report["exponential_form"]
    assert exponential["ode_B"] < 1e-9
    assert exponential["ode_D"] < 1e-9


def test_classify_gradient_pair_gauge_removable(tmp_path):
    out = tmp_path / "gauge.json"
    code = entry(["classify", "--builtin", "coefficient_form",
                  "--param", "W1=cos(x1_0 + x2_3),0,0,0",
                  "--param", "W2=0,0,0,cos(x1_0 + x2_3)",
                  "--expect", "gauge-removable", "--out", str(out)])
    assert code == EXIT_OK
    report = read_json(out)["report"]
    assert report["verdict"] == "GAUGE_REMOVABLE"
    assert report["gamma_sector_sup"] == 0.0
    assert report["witness"] is None
    # the in-sector coupling is not constant, so no exponential check
    assert report["exponential_form"] is None


def test_classify_undecided_fails_every_expectation(tmp_path):
    expect_all = [arg for token in cli.EXPECT_CHOICES
                  for arg in ("--expect", token)]
    code = entry(["classify", "--builtin", "coefficient_form",
                  "--param", "A=0,0,0,x2_3", *expect_all,
                  "--out", str(tmp_path / "r.json")])
    assert code == EXIT_EXPECT
    assert read_json(tmp_path / "r.json")["verdict"] == "UNDECIDED"


def test_verdicts_map_to_their_expect_tokens():
    verdicts = (consistency.VERDICT_CONSISTENT,
                consistency.VERDICT_INCONSISTENT, symmetry.INTERACTING,
                symmetry.GAUGE_REMOVABLE)
    assert tuple(map(cli._verdict_token, verdicts)) == cli.EXPECT_CHOICES
    assert cli._verdict_token(symmetry.UNDECIDED) not in cli.EXPECT_CHOICES


def test_classify_spec_named_hoho_without_hoho_params(tmp_path):
    # the name "hoho" does not select the witness: V_1 = 0.5 gamma0 x 1
    # has a gamma sector but commutes with V_2 = 0, so the witness is 0
    system = MultiTimeSystem(
        name="hoho", n_particles=2, masses=(1.0, 1.0),
        potentials=(Potential(1, 2, (PotentialTerm(
            tensor_element(BasisElement(BasisClass.GAMMA, 0),
                           BasisElement(BasisClass.ALPHA, 0)),  # alpha^0 = 1
            parse("0.5")),)), zero_potential(2)),
        hermitian=True)
    save_system(system, tmp_path / "hoho.json")
    out = tmp_path / "r.json"
    code = entry(["classify", "--spec", str(tmp_path / "hoho.json"),
                  "--out", str(out)])
    assert code == EXIT_OK
    report = read_json(out)["report"]
    assert report["verdict"] == "UNDECIDED"
    assert report["witness"] == 0.0


def test_classify_renamed_hoho_interacting(tmp_path):
    system = make_builtin("hoho")
    data = system_to_dict(system) | {"name": "exponential_pair"}
    (tmp_path / "pair.json").write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "r.json"
    code = entry(["classify", "--spec", str(tmp_path / "pair.json"),
                  "--expect", "interacting", "--out", str(out)])
    assert code == EXIT_OK
    report = read_json(out)["report"]
    assert report["system"] == "exponential_pair"
    assert report["verdict"] == "INTERACTING"
    assert report["witness"] == pytest.approx(8.0, abs=1e-9)


def test_classify_hoho_runs_the_exponential_form_twice(capsys, monkeypatch):
    # once on the probe grid for the verdict, once on the samples for the
    # report; the verdict's pass also establishes the witness's family, so
    # the witness is taken without re-checking it; the command imports it
    # from symmetry when it runs, so one patch there sees both calls
    calls = []
    original = symmetry.exponential_form_residual

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(symmetry, "exponential_form_residual", counted)
    code, _ = run_json(capsys, ["classify", "--builtin", "hoho"])
    assert code == EXIT_OK
    assert len(calls) == 2


@pytest.mark.parametrize("argv", [
    ("--builtin", "hoho"),
    ("--builtin", "coefficient_form",
     "--param", "W1=x2_0,0,0,0", "--param", "W2=x1_0,0,0,0"),
], ids=["hoho", "gradient_pair"])
def test_classify_builds_the_coefficient_form_once(capsys, monkeypatch, argv):
    # the gauge analysis builds it; the gamma-sector sup, the structure
    # test, the witness and the report's sample-set test reuse that set
    calls = []
    for module in (mtdirac, potential, consistency, symmetry, cli):
        original = module.to_coefficient_form

        def counted(*args, original=original, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "to_coefficient_form", counted)
    code, _ = run_json(capsys, ["classify", *argv])
    assert code == EXIT_OK
    assert len(calls) == 1


def test_classify_runs_the_guards_before_the_gamma_sector(tmp_path, capsys):
    # V_1 = gamma^0 x 1 / (x2_3 - x1_0) divides by zero on the probe grid's
    # diagonal; the gauge analysis's pass over the probes trips the guard
    # first, while check's samples stay clear of it
    spec = _particle1_spec(tmp_path, "1/(x2_3-x1_0)", guards=[
        {"expr": "x2_3-x1_0", "threshold": 1e-3}])
    assert entry(["check", "--spec", spec]) == EXIT_OK
    capsys.readouterr()
    assert entry(["classify", "--spec", spec]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("mtdirac: error: guard violated: "
                            "|x2_3 - x1_0| < 0.001\n")


def test_expression_rejected_for_constant_vector_builtin(capsys):
    code = entry(["check", "--builtin", "example1_vector",
                  "--param", "A=0,0,0,x2_3"])
    assert code == EXIT_SPEC
    assert "numeric" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# poincare
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["poincare", "--builtin", "hoho"],
    ["poincare", "--builtin", "coulomb_like"],
    ["classify", "--builtin", "hoho"],
    ["check", "--builtin", "hoho"],
    ["cc", "--builtin", "hoho"],
], ids=" ".join)
def test_verdict_commands_assemble_no_dense_matrices(argv, monkeypatch,
                                                     capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("dense matrices assembled")

    for module in (clifford, potential, consistency, solver):
        monkeypatch.setattr(module, "reconstruct", refuse)
    code, _ = run_json(capsys, argv)
    assert code == EXIT_OK


@pytest.mark.parametrize("argv", [
    ["poincare", "--builtin", "hoho"],
    ["classify", "--builtin", "hoho"],
], ids=" ".join)
def test_poincare_and_classify_build_no_representation(argv, monkeypatch,
                                                       capsys):
    def refuse():
        raise AssertionError("representation built")

    monkeypatch.setattr(cli, "build_dirac_rep", refuse)
    code, _ = run_json(capsys, argv)
    assert code == EXIT_OK


def test_poincare_sweep_hoho(capsys):
    code, envelope = run_json(
        capsys, ["poincare", "--builtin", "hoho", "--nsamples", "20"])
    assert code == EXIT_OK
    residuals = envelope["report"]["residuals"]
    expected_names = {"boost_x", "boost_y", "boost_z", "rotation_x",
                      "rotation_y", "rotation_z", "translation",
                      "boost_z_times_inverse"}
    assert set(residuals) == expected_names
    assert residuals["boost_z"] > 0.1
    assert residuals["translation"] < 1e-12
    assert residuals["rotation_z"] < 1e-12
    assert residuals["boost_z_times_inverse"] < 1e-12


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_path_series_csv(tmp_path):
    out = tmp_path / "paths.json"
    csv_path = tmp_path / "paths.csv"
    code = entry(["simulate", "--builtin", "hoho",
                  "--grid-n", "32", "--T", "0.2", "--dt", "0.1,0.05",
                  "--csv", str(csv_path), "--out", str(out)])
    assert code == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "dt,discrepancy,fitted_order"
    assert len(lines) == 3
    first = [float(cell) for cell in lines[1].split(",")]
    assert first[0] == 0.1
    report = read_json(out)["report"]
    assert report["experiment"] == "path-independence"
    assert report["grid"] == {"length": 20.0, "points": 32}
    assert report["fitted_order"] == pytest.approx(first[2])


def test_simulate_csv_leaves_an_undefined_fit_empty(tmp_path):
    """A fit the report gives as null is an empty cell, not `nan`."""
    out = tmp_path / "free.json"
    csv_path = tmp_path / "free.csv"
    code = entry(["simulate", "--builtin", "free", "--dt", "0.1,0.05",
                  "--T", "0.2", "--grid-n", "32",
                  "--csv", str(csv_path), "--out", str(out)])
    assert code == EXIT_OK
    assert read_json(out)["report"]["fitted_order"] is None
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "dt,discrepancy,fitted_order"
    for line, dt in zip(lines[1:], ("0.1", "0.05"), strict=True):
        cells = line.split(",")
        assert cells[0] == dt and float(cells[1]) >= 0 and cells[2] == ""
    assert "nan" not in csv_path.read_text()


def test_simulate_holonomy_series_csv(tmp_path):
    out = tmp_path / "holo.json"
    csv_path = tmp_path / "holo.csv"
    code = entry(["simulate", "--builtin", "example1_vector",
                  "--grid-n", "32", "--delta", "0.1,0.05",
                  "--csv", str(csv_path), "--out", str(out)])
    assert code == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "delta,deviation,deviation_per_delta2"
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    assert [row[0] for row in rows] == [0.1, 0.05]
    report = read_json(out)["report"]
    assert report["experiment"] == "loop-holonomy"
    assert report["curvature_norm"] == pytest.approx(2.0)
    # deviation / delta^2 approaches the curvature norm
    assert rows[-1][2] == pytest.approx(2.0, rel=0.1)


def test_simulate_free_loop_tiny(tmp_path):
    out = tmp_path / "free.json"
    code = entry(["simulate", "--builtin", "free", "--grid-n", "32",
                  "--delta", "0.05", "--out", str(out)])
    assert code == EXIT_OK
    rows = read_json(out)["report"]["rows"]
    assert rows[0]["deviation"] < 1e-9


def test_simulate_requires_exactly_one_series(capsys):
    assert entry(["simulate", "--builtin", "free"]) == EXIT_SPEC
    assert entry(["simulate", "--builtin", "free",
                  "--dt", "0.1", "--delta", "0.1"]) == EXIT_SPEC


def test_cc_runs_the_guards_as_check_does(tmp_path, capsys):
    data = system_to_dict(make_builtin("coefficient_form",
                                       {"W1": ("cos(x2_0)", 0, 0, 0)}))
    data["potentials"][0]["guards"] = [
        {"expr": "1", "threshold": 2.0, "description": "always"}]
    spec = tmp_path / "guarded.json"
    spec.write_text(json.dumps(data), encoding="utf-8")
    for command in ("check", "cc"):
        assert entry([command, "--spec", str(spec)]) == EXIT_DOMAIN, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "guard violated: |always| < 2.0" in captured.err


def test_out_of_memory_exits_two(capsys, monkeypatch):
    # the sampler stands in for an allocation that does not fit
    # (say, --nsamples 100000000000); nothing that large is attempted
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 5.82 TiB for an array")

    monkeypatch.setattr(cli, "sample_configs", exhausted)
    code = entry(["check", "--builtin", "hoho", "--nsamples", "100000000000"])
    assert code == EXIT_SPEC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("mtdirac: error: out of memory. Unable to "
                            "allocate 5.82 TiB for an array\n")


def test_spacelike_sampling_failure_exits_two(capsys, monkeypatch):
    # twenty particles stand in for a system with no spacelike draw
    def crowded(n_samples, rng, n_particles, region):
        return potential.sample_configs(1, rng, 20, region)

    monkeypatch.setattr(cli, "sample_configs", crowded)
    code = entry(["check", "--builtin", "hoho", "--region", "spacelike"])
    assert code == EXIT_SPEC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mtdirac: error: no spacelike "
                                   "configuration of 20 particles")


def test_simulate_guard_violation_exits_three(capsys):
    code = entry(["simulate", "--builtin", "coulomb_like",
                  "--grid-n", "32", "--delta", "0.05"])
    assert code == EXIT_DOMAIN
    assert "guard" in capsys.readouterr().err


_SINGULAR_DERIVATIVE = ["simulate", "--builtin", "coefficient_form",
                        "--param", "W1=0,0,0,sqrt((x1_3 - x2_3)*(x1_3 - x2_3))",
                        "--grid-n", "32"]


def test_curvature_norm_evaluation_error_exits_three(tmp_path, capsys):
    """|z_1 - z_2|'s derivative divides by zero on the grid's diagonal:
    the holonomy run raises it from curvature_norm, after its loops, as
    the DSL's error with exit 3 and no traceback; the path-independence
    run of the same pair never differentiates V_k and exits 0."""
    code = entry([*_SINGULAR_DERIVATIVE, "--delta", "0.1,0.05"])
    captured = capsys.readouterr()
    assert code == EXIT_DOMAIN
    assert captured.out == ""
    assert captured.err == "mtdirac: error: division by zero\n"
    assert entry([*_SINGULAR_DERIVATIVE, "--dt", "0.1,0.05",
                  "--out", str(tmp_path / "paths.json")]) == EXIT_OK


def _particle1_spec(tmp_path, coefficient, guards=(), hermitian=False):
    data = system_to_dict(make_builtin("coefficient_form", {
        "A": (coefficient, 0, 0, 0), "hermitian": hermitian}))
    data["potentials"][0]["guards"] = list(guards)
    spec = tmp_path / "sys.json"
    spec.write_text(json.dumps(data), encoding="utf-8")
    return str(spec)


_LATE_GUARD = {"expr": "0.75 - x1_0", "threshold": 0.01}


@pytest.mark.parametrize("coefficient, guards, hermitian, T, code, text", [
    # V_1^2 overflows at the fifth midpoint time, t_1 = 0.45
    ("exp(1000*x1_0)", (), False, "1", EXIT_DOMAIN,
     "exp(-i dt V_1 / 2) is not finite"),
    # the guard trips at the eighth midpoint time, t_1 = 0.75
    ("x1_0", (_LATE_GUARD,), False, "1", EXIT_DOMAIN, "guard violated"),
    ("x1_0", (_LATE_GUARD,), False, "0.7", EXIT_OK, ""),
    # the defect is 0 at the first midpoint time and 0.8 at the second
    ("i*(x1_0 - 0.05)", (), True, "1", EXIT_SPEC,
     "declared hermitian but deviates"),
    # the first midpoint fails the hermiticity check; the fifth, t_1 =
    # 0.45, fails the finiteness of V_1, which each step checks first
    ("i*x1_0 + exp(2000*x1_0)", (), True, "0.5", EXIT_SPEC,
     "potential declared hermitian but deviates by 4.000e-01"),
], ids=["phase overflow", "guard", "guard never reached", "hermitian",
        "earliest failing step"])
def test_per_step_checks_fire_mid_leg(tmp_path, capsys, coefficient, guards,
                                      hermitian, T, code, text):
    spec = _particle1_spec(tmp_path, coefficient, guards, hermitian)
    assert entry(["simulate", "--spec", spec, "--grid-n", "32",
                  "--T", T, "--dt", "0.1"]) == code
    assert text in capsys.readouterr().err


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("series", [["--T", "0", "--dt", "0.1"],
                                    ["--delta", "0.05"]])
def test_simulate_rejects_other_than_two_particles(tmp_path, capsys, n,
                                                   series):
    spec = tmp_path / "sys.json"
    spec.write_text(json.dumps({"N": n, "masses": [1] * n,
                                "potentials": []}), encoding="utf-8")
    assert entry(["simulate", "--spec", str(spec), *series]) == EXIT_SPEC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exactly two particles" in captured.err


@pytest.mark.parametrize("argv, text", [
    (["--dt", "0.1,0.3", "--T", "0.6"], "exceeds the grid spacing"),
    (["--dt", "0.1,0.25", "--T", "0.6", "--grid-n", "32"],
     "not a whole number of steps"),
    (["--delta", "0.05,0.3"], "exceeds the grid spacing"),
    (["--delta", "0.08,-0.1"], "loop delta must be positive"),
    (["--delta", "0.08,1e-300"], "delta^2 underflows"),
], ids=["dt above spacing", "dt not dividing T", "delta above spacing",
        "delta not positive", "delta squared underflows"])
def test_bad_later_step_rejected_before_any_evolution(capsys, monkeypatch,
                                                      argv, text):
    calls = []

    def record(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver.np.fft, "fft",
                        record("fft", solver.np.fft.fft))
    monkeypatch.setattr(solver, "_potential_phase",
                        record("phase", solver._potential_phase))
    assert entry(["simulate", "--builtin", "hoho", *argv]) == EXIT_SPEC
    assert text in capsys.readouterr().err
    assert calls == []


def test_bad_dt_list_rejected():
    with pytest.raises(SystemExit) as excinfo:
        entry(["simulate", "--builtin", "free", "--dt", "0.1,squid"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# report envelope and determinism
# ---------------------------------------------------------------------------

def test_envelope_embeds_config_seed_and_version(tmp_path):
    out = tmp_path / "r.json"
    entry(["check", "--builtin", "hoho", "--seed", "11",
           "--nsamples", "25", "--tol", "1e-8", "--out", str(out)])
    envelope = read_json(out)
    assert envelope["seed"] == 11
    assert envelope["version"]
    config = envelope["config"]
    assert config["builtin"] == "hoho"
    assert config["nsamples"] == 25
    assert config["tol"] == 1e-8
    # output paths stay out of the echo so reruns are comparable
    assert "out" not in config
    assert "csv" not in config


def test_rerun_is_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        code = entry(["classify", "--builtin", "hoho",
                      "--seed", "42", "--out", str(out)])
        assert code == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_seed_changes_sampled_report(tmp_path):
    reports = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}.json"
        entry(["cc", "--builtin", "coefficient_form",
               "--param", "W1=cos(x2_3),0,0,0",
               "--seed", seed, "--out", str(out)])
        reports.append(read_json(out))
    sup1, sup2 = (r["report"]["sup"] for r in reports)
    assert sup1 != sup2
    assert reports[0]["seed"] == 1
    assert reports[1]["seed"] == 2


def test_out_directory_left_clean(tmp_path):
    out = tmp_path / "report.json"
    entry(["check", "--builtin", "free", "--out", str(out)])
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


@pytest.mark.parametrize("flag", ["--out", "--csv"])
@pytest.mark.parametrize("target, reason", [
    ("missing/report", "No such file or directory"),
    ("directory", "Is a directory"),
], ids=["missing directory", "directory"])
def test_unwritable_output_path_exits_two(tmp_path, capsys, flag, target,
                                          reason):
    # one error line naming the path given, not the staging file beside
    # it, and no staging file left behind
    (tmp_path / "directory").mkdir()
    path = str(tmp_path / target)
    argv = (["check", "--builtin", "hoho", "--nsamples", "5"]
            if flag == "--out" else
            ["simulate", "--builtin", "free", "--grid-n", "16",
             "--delta", "0.1"])
    assert entry([*argv, flag, path]) == EXIT_SPEC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"mtdirac: error: cannot write {path!r}: {reason}"]
    assert [p.name for p in tmp_path.rglob("*")] == ["directory"]


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_output_to_a_fifo_is_written_in_place(tmp_path, flag):
    """A target that exists and is not a regular file is written through,
    never replaced by a staged file: a FIFO stays a FIFO, its reader gets
    the output, and nothing else is left beside it."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # a reader first, so that the writer's open does not wait for one
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        argv = (["check", "--builtin", "free", "--nsamples", "5"]
                if flag == "--out" else
                ["simulate", "--builtin", "free", "--grid-n", "16",
                 "--delta", "0.1"])
        assert entry([*argv, flag, str(fifo)]) == EXIT_OK
        received = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]
    if flag == "--out":
        assert json.loads(received)["report"]["zeroth_sup"] == 0.0
    else:
        assert received.splitlines()[0] == \
            "delta,deviation,deviation_per_delta2"


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_output_through_a_symlink_replaces_its_target(tmp_path, flag):
    """A symlinked target stays a symlink: the file it names, in another
    directory, is replaced atomically by the output, and nothing is left
    beside either."""
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "target"
    target.write_text("old\n")
    link = tmp_path / "link"
    link.symlink_to(target)
    argv = (["check", "--builtin", "free", "--nsamples", "5"]
            if flag == "--out" else
            ["simulate", "--builtin", "free", "--grid-n", "16",
             "--delta", "0.1"])
    assert entry([*argv, flag, str(link)]) == EXIT_OK
    assert link.is_symlink() and os.readlink(link) == str(target)
    written = target.read_text()
    if flag == "--out":
        assert json.loads(written)["report"]["zeroth_sup"] == 0.0
    else:
        assert written.splitlines()[0] == \
            "delta,deviation,deviation_per_delta2"
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "data", "link", "target"]


def test_python_dash_m_runs(tmp_path):
    src = str(Path(mtdirac.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "mtdirac", "check", "--builtin", "free"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=False)
    assert result.returncode == 0
    envelope = json.loads(result.stdout)
    assert envelope["report"]["zeroth_sup"] == 0.0


@pytest.mark.parametrize("argv", [
    ["--builtin", "hoho", "--dt", "0.1,0.05,0.025", "--T", "0.5"],
    ["--builtin", "example1_vector", "--delta", "0.08,0.04,0.02"],
], ids=["path independence", "loop holonomy"])
def test_simulate_stdout_does_not_depend_on_blas_threads(argv):
    """The time-only simulate reports are byte-identical with one BLAS
    thread and with two: no sum the report reads is split by thread."""
    src = str(Path(mtdirac.__file__).resolve().parents[1])
    outputs = [subprocess.run(
        [sys.executable, "-m", "mtdirac", "simulate", *argv],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
        capture_output=True, check=False) for threads in ("1", "2")]
    assert [done.returncode for done in outputs] == [0, 0]
    assert outputs[0].stdout == outputs[1].stdout
    assert json.loads(outputs[0].stdout)["report"]["rows"]


# ---------------------------------------------------------------------------
# non-finite numbers and flag validation
# ---------------------------------------------------------------------------

def _reject_constant(token):
    raise ValueError(f"non-finite value {token} in report")


def strict_json(text):
    """Parse a report as strict JSON: NaN and Infinity raise ValueError."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.mark.parametrize("argv", [
    ["simulate", "--builtin", "coefficient_form",
     "--param", "E=exp(100*x1_3),0,0,0", "--grid-n", "32",
     "--delta", "0.1,0.05"],
    ["check", "--builtin", "coefficient_form",
     "--param", "W1=exp(1000*x2_0),0,0,0", "--expect", "consistent"],
    ["cc", "--builtin", "coefficient_form",
     "--param", "W1=exp(1000*x2_0),0,0,0"],
    ["check", "--builtin", "coefficient_form", "--param", "A=1e200^2,0,0,0"],
    # kappa^2 overflows in the free kernel on so fine a grid
    ["simulate", "--builtin", "free", "--grid-n", "16", "--box-L", "1.6e-154",
     "--dt", "1e-156", "--T", "1e-156"],
    # a mass squares past the float range in the free step's gamma0 weight
    ["simulate", "--builtin", "hoho", "--param", "m1=1e200",
     "--delta", "0.1", "--grid-n", "16"],
    ["simulate", "--builtin", "hoho", "--param", "m2=1e200",
     "--dt", "0.1", "--T", "0.1", "--grid-n", "16"],
], ids=["simulate", "check", "cc", "check overflowing power",
        "simulate overflowing free kernel", "simulate --delta overflowing mass",
        "simulate --dt overflowing mass"])
def test_non_finite_numbers_exit_three_without_warnings(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = entry(argv)
    assert code == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err or "non-finite" in captured.err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_nonpositive_nsamples_is_usage_error(count):
    with pytest.raises(SystemExit) as excinfo:
        entry(["check", "--builtin", "hoho", "--nsamples", count])
    assert excinfo.value.code == EXIT_SPEC


@pytest.mark.parametrize("argv,residual", [
    (["classify", "--nsamples", "5"], "integrability_sup"),
    (["poincare"], "poincare_residual(boost(1,0,0);chi=0.5)"),
], ids=["classify", "poincare"])
def test_non_finite_residual_is_named(capsys, argv, residual):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = entry([*argv, "--builtin", "coefficient_form",
                      "--param", "W1=exp(1000*x2_0),0,0,0"])
    assert code == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"non-finite residual in {residual}" in captured.err



def test_a_non_finite_translation_residual_is_named(capsys):
    # classify sweeps five translations, all named "translation"; the
    # first of them overflows at seed 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = entry(["classify", "--builtin", "coefficient_form",
                      "--param", "A=x2_0^400,0,0,0"])
    assert code == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("non-finite residual in poincare_residual(translation)"
            in captured.err)

@pytest.mark.parametrize("params,residual", [
    (["A=exp(800*x1_0),0,0,0"], "gamma_sector_sup"),
    (["Y2=1e200,0,0,0", "A=exp(300*x1_0),0,0,0"], "ode_A"),
    (["Y2=0,0,0,1e308"], "zeroth_sup"),
], ids=["gamma_sector", "exponential_form", "removable_f_sector"])
def test_non_finite_grid_sup_names_the_probe_grid(capsys, params, residual):
    argv = ["classify", "--builtin", "coefficient_form"]
    for param in params:
        argv += ["--param", param]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = entry(argv)
    assert code == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"non-finite residual in {residual}" in captured.err
    assert captured.err.rstrip().endswith("at the probe grid")


def test_non_finite_report_value_exits_three(capsys, monkeypatch):
    # the serialisation backstop, for a value no residual guard caught
    monkeypatch.setitem(cli._HANDLERS, "poincare",
                        lambda args: ({"residuals": {"x": np.inf}}, None))
    code = entry(["poincare", "--builtin", "hoho"])
    assert code == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not strict JSON" in captured.err


@pytest.mark.parametrize("argv", [
    ["check", "--builtin", "hoho", "--seed", "-1"],
    ["check", "--builtin", "hoho", "--tol", "nan"],
    ["check", "--builtin", "hoho", "--tol", "0"],
    ["simulate", "--builtin", "free", "--grid-n", "16", "--dt", "0.1,nan"],
    ["simulate", "--builtin", "free", "--grid-n", "16", "--dt", "0.1",
     "--T", "nan"],
    ["simulate", "--builtin", "free", "--grid-n", "16", "--dt", "0.1",
     "--box-L", "inf"],
    # delta^2 underflows to zero or a subnormal: no deviation / delta^2
    ["simulate", "--builtin", "free", "--grid-n", "16", "--delta", "1e-300"],
    ["simulate", "--builtin", "free", "--grid-n", "16", "--delta", "1e-160"],
])
def test_out_of_range_flags_exit_two(argv):
    assert _exit_code(argv) == (EXIT_SPEC, None)


@pytest.mark.parametrize("box", ["1e308", "1e-300"])
def test_initial_state_without_finite_norm_exits_two(capsys, box):
    # spacing^2 overflows or underflows: the state cannot be normalised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = entry(["simulate", "--builtin", "example1_vector",
                      "--delta", "0.1", "--grid-n", "16", "--box-L", box])
    assert code == EXIT_SPEC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mtdirac: error: initial state norm")
    assert captured.err.count("\n") == 1


def test_undefined_fit_is_reported_as_null(capsys):
    code = entry(["simulate", "--builtin", "free", "--grid-n", "16",
                  "--dt", "0.25"])
    assert code == EXIT_OK
    envelope = strict_json(capsys.readouterr().out)
    assert envelope["report"]["fitted_order"] is None


def _exit_code(argv):
    """Exit code of one in-process run, output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = entry(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code, None
    return code, sink.getvalue() if code == EXIT_OK else None


def _assert_documented_exit(argv, code, text):
    expected = {EXIT_OK, EXIT_SPEC, EXIT_DOMAIN}
    if "--expect" in argv:
        expected.add(EXIT_EXPECT)
    assert code in expected, argv
    if text is not None:
        strict_json(text)


_NUMBERS = ["0", "-1", "1e-300", "1e-9", "0.05", "0.1", "0.25", "0.5",
            "2", "1e300", "nan", "inf", "-inf", "x"]


@settings(max_examples=25, deadline=None)
@given(nsamples=st.sampled_from(["-3", "0", "1", "2", "7", "x"]),
       tol=st.sampled_from(_NUMBERS),
       builtin=st.sampled_from(["free", "hoho", "example1_vector",
                                "coulomb_like"]),
       expect=st.sampled_from([None, "consistent", "inconsistent"]),
       param=st.one_of(st.none(), st.tuples(
           st.sampled_from(["m1", "m2", "q"]),
           st.sampled_from([*_NUMBERS, "1,2,3,4", "1+2j"])).map("=".join)))
def test_check_exit_codes_are_documented(nsamples, tol, builtin, expect,
                                         param):
    argv = ["check", "--builtin", builtin, "--nsamples", nsamples,
            "--tol", tol]
    if expect is not None:
        argv += ["--expect", expect]
    if param is not None:
        argv += ["--param", param]
    _assert_documented_exit(argv, *_exit_code(argv))


_STEPS = st.lists(st.sampled_from(["-0.1", "0", "0.05", "0.1", "0.25",
                                   "2", "nan", "inf", "x"]),
                  min_size=1, max_size=2).map(",".join)


@settings(max_examples=25, deadline=None)
@given(grid_n=st.integers(-2, 32).map(str),
       series=st.sampled_from(["--dt", "--delta"]),
       steps=_STEPS,
       builtin=st.sampled_from(["free", "hoho"]))
def test_simulate_exit_codes_are_documented(grid_n, series, steps, builtin):
    argv = ["simulate", "--builtin", builtin, "--grid-n", grid_n,
            series, steps]
    _assert_documented_exit(argv, *_exit_code(argv))
