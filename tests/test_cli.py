"""End-to-end tests of the command-line interface.

Each test drives the in-process entry point with an argv list; one
subprocess test confirms `python -m mtdirac` works as installed.
"""
from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from mtdirac import cli
from mtdirac.cli import EXIT_DOMAIN, EXIT_EXPECT, EXIT_OK, EXIT_SPEC, entry


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


def test_bad_expect_token_rejected():
    with pytest.raises(SystemExit) as excinfo:
        entry(["check", "--builtin", "hoho", "--expect", "bogus"])
    assert excinfo.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        entry(["--version"])
    assert excinfo.value.code == 0


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
    code = entry(["classify", "--builtin", "coefficient_form",
                  "--param", "A=0,0,0,x2_3",
                  "--expect", "interacting", "--expect", "gauge-removable",
                  "--out", str(tmp_path / "r.json")])
    assert code == EXIT_EXPECT
    assert read_json(tmp_path / "r.json")["verdict"] == "UNDECIDED"


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


def test_expression_rejected_for_constant_vector_builtin(capsys):
    code = entry(["check", "--builtin", "example1_vector",
                  "--param", "A=0,0,0,x2_3"])
    assert code == EXIT_SPEC
    assert "numeric" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# poincare
# ---------------------------------------------------------------------------

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


def test_simulate_guard_violation_exits_three(capsys):
    code = entry(["simulate", "--builtin", "coulomb_like",
                  "--grid-n", "32", "--delta", "0.05"])
    assert code == EXIT_DOMAIN
    assert "guard" in capsys.readouterr().err


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


def test_python_dash_m_runs(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "mtdirac", "check", "--builtin", "free"],
        capture_output=True, text=True, check=False)
    assert result.returncode == 0
    envelope = json.loads(result.stdout)
    assert envelope["report"]["zeroth_sup"] == 0.0


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
], ids=["simulate", "check", "cc", "check overflowing power"])
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
    (["classify", "--nsamples", "5"], "poincare_residual(translation)"),
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
])
def test_out_of_range_flags_exit_two(argv):
    assert _exit_code(argv) == (EXIT_SPEC, None)


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
       builtin=st.sampled_from(["free", "hoho", "example1_vector"]),
       expect=st.sampled_from([None, "consistent", "inconsistent"]))
def test_check_exit_codes_are_documented(nsamples, tol, builtin, expect):
    argv = ["check", "--builtin", builtin, "--nsamples", nsamples,
            "--tol", tol]
    if expect is not None:
        argv += ["--expect", expect]
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
