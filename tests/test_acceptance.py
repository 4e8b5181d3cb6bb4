"""End-to-end acceptance checks of the package's headline guarantees.

Each test verifies one advertised property at its stated tolerance and
prints a single PASS/FAIL line (visible with pytest -s, or on failure).
Runtime budgets are asserted where a guarantee includes one.
"""
from __future__ import annotations

import json
import time

import numpy as np

from mtdirac import (
    BasisClass,
    BasisElement,
    Grid,
    MultiTimeSystem,
    Potential,
    PotentialTerm,
    VERDICT_CONSISTENT,
    basis16,
    build_dirac_rep,
    build_weyl_rep,
    cc_residuals,
    check_consistency,
    classify_gauge,
    commutator_table,
    curvature_norm,
    decompose,
    derivative_coefficient_matrices,
    exponential_form_residual,
    holonomy_series,
    interaction_witness_hoho,
    loop_holonomy,
    make_boost,
    make_builtin,
    make_translation,
    poincare_residual,
    product_state,
    reconstruct,
    sample_configs,
    tensor_element,
    to_coefficient_form,
    verify_clifford,
    zeroth_order_residual,
)
from mtdirac.cli import EXIT_OK, entry
from mtdirac.clifford import GAMMA5_ELEMENT, IDENTITY_ELEMENT
from mtdirac.dsl import Const


def verdict_line(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {label}{suffix}")


# ---------------------------------------------------------------------------
# 1. Algebra identities and the commutator table
# ---------------------------------------------------------------------------

def test_clifford_identities_and_commutator_table():
    start = time.perf_counter()
    worst = 0.0
    for build in (build_dirac_rep, build_weyl_rep):
        rep = build()
        worst = max(worst, *verify_clifford(rep).values())
        worst = max(worst, *(residual for _, _, residual
                             in commutator_table(rep)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    verdict_line("clifford identities + commutator table < 1e-12",
                 ok, f"worst {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-12
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. Basis completeness: decompose/reconstruct and the Gram matrix
# ---------------------------------------------------------------------------

def test_basis_completeness(dirac, rng):
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        matrix = rng.standard_normal((16, 16)) + 1j * rng.standard_normal(
            (16, 16))
        rebuilt = reconstruct(decompose(matrix, 2, dirac), 2, dirac)
        worst = max(worst, float(np.max(np.abs(rebuilt - matrix))))
    basis = dirac.basis.reshape(16, 4, 4)
    gram = np.einsum("iab,jab->ij", basis.conj(), basis)
    gram_err = float(np.max(np.abs(gram - 4.0 * np.eye(16))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and gram_err < 1e-12 and elapsed < 1.0
    verdict_line("basis round-trip < 1e-12 and Gram = 4*I", ok,
                 f"round-trip {worst:.2e}, gram {gram_err:.2e}, "
                 f"{elapsed:.2f}s")
    assert worst < 1e-12
    assert gram_err < 1e-12
    assert len(basis16(dirac)) == 16
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 3. The exponential pair checks out consistent in both regions
# ---------------------------------------------------------------------------

def test_exponential_pair_consistent_both_regions(tmp_path):
    start = time.perf_counter()
    worst = 0.0
    for region in ("all", "spacelike"):
        out = tmp_path / f"hoho_{region}.json"
        code = entry(["check", "--builtin", "hoho",
                      "--param", "C=1,0,0,0", "--param", "c=1,0,0,0",
                      "--param", "m1=1", "--param", "m2=1",
                      "--region", region, "--nsamples", "100",
                      "--expect", "consistent", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())["report"]
        worst = max(worst, report["zeroth_sup"],
                    *report["deriv_coeff_sup"], *report["cc"].values())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    verdict_line("exponential pair consistent in both regions < 1e-10",
                 ok, f"worst {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 4. The constant vector coupling is inconsistent with the exact norm
# ---------------------------------------------------------------------------

def test_vector_coupling_inconsistent_with_exact_norm(tmp_path, dirac):
    out = tmp_path / "example1.json"
    code = entry(["check", "--builtin", "example1_vector",
                  "--expect", "inconsistent", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())["report"]
    # oracle: the obstruction is the constant matrix 2 m2 gamma2^3
    m2 = 1.0
    oracle = 2.0 * m2 * np.kron(np.eye(4), dirac.gammas[3])
    oracle_norm = float(np.linalg.norm(oracle))
    error = abs(report["zeroth_sup"] - oracle_norm)
    ok = error < 1e-10 and report["verdict"] == "INCONSISTENT"
    verdict_line("vector coupling inconsistent, residual norm = 8",
                 ok, f"norm {report['zeroth_sup']:.12f}, oracle "
                     f"{oracle_norm:.1f}")
    assert oracle_norm == 8.0
    assert error < 1e-10
    assert report["verdict"] == "INCONSISTENT"


# ---------------------------------------------------------------------------
# 5. Sharpness of the gamma5-span condition on cross factors
# ---------------------------------------------------------------------------

_ALL_ELEMENTS = tuple(BasisElement(cls, mu)
                      for cls in BasisClass for mu in range(4))
_OUTSIDE_ELEMENTS = tuple(e for e in _ALL_ELEMENTS
                          if e not in (IDENTITY_ELEMENT, GAMMA5_ELEMENT))


def _random_span_system(rng, outside: bool) -> MultiTimeSystem:
    """Random constant pair; cross factors in span{1, gamma5} unless
    outside, in which case one term leaves the span with weight >= 0.1."""
    def passing_terms(particle: int):
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            own = _ALL_ELEMENTS[rng.integers(len(_ALL_ELEMENTS))]
            cross = (IDENTITY_ELEMENT, GAMMA5_ELEMENT)[rng.integers(2)]
            factors = (own, cross) if particle == 1 else (cross, own)
            coefficient = Const(complex(rng.standard_normal(),
                                        rng.standard_normal()))
            terms.append(PotentialTerm(tensor_element(*factors), coefficient))
        return terms

    terms_1 = passing_terms(1)
    terms_2 = passing_terms(2)
    if outside:
        bad = _OUTSIDE_ELEMENTS[rng.integers(len(_OUTSIDE_ELEMENTS))]
        weight = Const(complex(rng.uniform(0.1, 1.0)))
        if rng.integers(2):
            terms_1.append(PotentialTerm(
                tensor_element(_ALL_ELEMENTS[rng.integers(16)], bad), weight))
        else:
            terms_2.append(PotentialTerm(
                tensor_element(bad, _ALL_ELEMENTS[rng.integers(16)]), weight))
    return MultiTimeSystem(
        name="random_span", n_particles=2, masses=(1.0, 1.0),
        potentials=(Potential(1, 2, tuple(terms_1)),
                    Potential(2, 2, tuple(terms_2))),
        hermitian=False)


def test_gamma5_span_condition_is_sharp(dirac, rng):
    start = time.perf_counter()
    samples = sample_configs(5, rng)

    def deriv_sup(system: MultiTimeSystem) -> float:
        matrices = derivative_coefficient_matrices(system, samples, dirac)
        return max(float(np.max(np.linalg.norm(batch, axis=(-2, -1))))
                   for batch in matrices.values())

    passing_worst = max(deriv_sup(_random_span_system(rng, outside=False))
                        for _ in range(50))
    failing_best = min(deriv_sup(_random_span_system(rng, outside=True))
                       for _ in range(50))
    elapsed = time.perf_counter() - start
    ok = passing_worst < 1e-12 and failing_best >= 0.1 and elapsed < 10.0
    verdict_line("span{1, gamma5} cross factors pass, others fail >= 0.1",
                 ok, f"pass worst {passing_worst:.2e}, fail best "
                     f"{failing_best:.2f}, {elapsed:.1f}s")
    assert passing_worst < 1e-12
    assert failing_best >= 0.1
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 6. Matrix verdict equals the scalar condition verdict
# ---------------------------------------------------------------------------

_FIELD_NAMES_16 = ("W1", "X1", "Y1", "Z1", "A", "B", "C", "D",
                   "W2", "X2", "Y2", "Z2", "E", "F", "G", "H")
_SOURCES = ("0.7", "x1_0", "x2_3", "cos(x1_0)", "sin(x2_0)",
            "0.4*x1_3", "cos(x1_0 + x2_3)")


def _random_coefficient_params(rng) -> dict:
    kind = rng.integers(4)
    if kind == 0:
        return {}  # free
    if kind == 1:  # single constant alpha-sector coupling
        name = ("Y2", "X1")[rng.integers(2)]
        vector = [0.0] * 4
        vector[int(rng.integers(4))] = float(rng.uniform(0.2, 1.0))
        return {name: tuple(vector)}
    if kind == 2:  # matched gradient pair
        return {"W1": ("cos(x1_0 + x2_3)", 0, 0, 0),
                "W2": (0, 0, 0, "cos(x1_0 + x2_3)")}
    params: dict = {}
    for _ in range(int(rng.integers(2, 5))):
        name = _FIELD_NAMES_16[rng.integers(16)]
        vector = list(params.get(name, (0, 0, 0, 0)))
        vector[int(rng.integers(4))] = _SOURCES[rng.integers(len(_SOURCES))]
        params[name] = tuple(vector)
    return params


def test_matrix_and_scalar_verdicts_agree(rng):
    tol = 1e-9
    agreements = 0
    for _ in range(20):
        system = make_builtin("coefficient_form",
                              _random_coefficient_params(rng))
        samples = sample_configs(25, rng)
        report = check_consistency(system, samples, tol=tol)
        scalar_ok = max(report.cc.values()) < tol
        matrix_ok = report.verdict == VERDICT_CONSISTENT
        assert matrix_ok == scalar_ok
        agreements += 1
    hoho = make_builtin("hoho")
    hoho_cc = cc_residuals(to_coefficient_form(hoho), hoho.masses,
                           sample_configs(100, rng))
    hoho_worst = max(hoho_cc.values())
    ok = agreements == 20 and hoho_worst < 1e-10
    verdict_line("matrix verdict == scalar-condition verdict on 20 systems",
                 ok, f"agreements {agreements}/20, hoho cc "
                     f"{hoho_worst:.2e}")
    assert hoho_worst < 1e-10


# ---------------------------------------------------------------------------
# 7. Gauge recovery on the probe grid and the interaction witness
# ---------------------------------------------------------------------------

def test_gauge_recovery_and_interaction_witness():
    source = "cos(x1_0 + x2_3)"
    system = make_builtin("coefficient_form",
                          {"W1": (source, 0, 0, 0),
                           "W2": (0, 0, 0, source)})
    report = classify_gauge(system)
    recovered = report.gauge_components["unit"]
    values = np.linspace(-1.0, 1.0, 9)
    expected = (np.sin(values[:, None] + values[None, :])
                - np.sin(values)[:, None] - np.sin(values)[None, :])
    # Phi(b) = 0 exactly, so the closed form needs no constant shift
    recovery_err = float(np.max(np.abs(recovered - expected)))

    witness = interaction_witness_hoho(make_builtin("hoho"))
    ok = (report.verdict == "GAUGE_REMOVABLE" and recovery_err < 1e-12
          and witness >= 0.5)
    verdict_line("gradient recovery < 1e-12 on 9x9 grid; witness >= 0.5",
                 ok, f"recovery {recovery_err:.2e}, witness {witness:.1f}")
    assert report.verdict == "GAUGE_REMOVABLE"
    assert recovered.shape == (9, 9)
    assert recovery_err < 1e-12
    assert witness >= 0.5


# ---------------------------------------------------------------------------
# 8. Second-order coefficient ODEs: exponential pair vs polynomial
# ---------------------------------------------------------------------------

def test_second_order_ode_form(rng):
    samples = sample_configs(40, rng)
    hoho = make_builtin("hoho")
    residuals = exponential_form_residual(
        to_coefficient_form(hoho), hoho.masses, samples)
    hoho_worst = max(residuals["ode_B"], residuals["ode_D"])

    polynomial = make_builtin("coefficient_form",
                              {"B": ("x2_0^2", 0, 0, 0)})
    poly_res = exponential_form_residual(
        to_coefficient_form(polynomial), polynomial.masses, samples)
    ok = hoho_worst < 1e-9 and poly_res["ode_B"] >= 1.0
    verdict_line("exponential pair obeys the coefficient ODE; "
                 "polynomial fails >= 1",
                 ok, f"hoho {hoho_worst:.2e}, polynomial "
                     f"{poly_res['ode_B']:.1f}")
    assert hoho_worst < 1e-9
    assert poly_res["ode_B"] >= 1.0


# ---------------------------------------------------------------------------
# 9. Boost covariance breaks while translations hold exactly
# ---------------------------------------------------------------------------

def test_boost_breaks_translation_holds(rng):
    system = make_builtin("hoho")
    samples = sample_configs(30, rng)
    boost = make_boost((0.0, 0.0, 1.0), 0.5)
    [boost_residual] = poincare_residual(system, [boost], samples)
    translation_worst = max(poincare_residual(
        system, [make_translation(offset)
                 for offset in rng.uniform(-2.0, 2.0, size=(10, 4))],
        samples))
    ok = boost_residual > 0.1 and translation_worst < 1e-12
    verdict_line("z-boost residual > 0.1; 10 translations < 1e-12",
                 ok, f"boost {boost_residual:.2f}, translations "
                     f"{translation_worst:.2e}")
    assert boost_residual > 0.1
    assert translation_worst < 1e-12


# ---------------------------------------------------------------------------
# 10. Loop holonomy matches the grid-evaluated curvature
# ---------------------------------------------------------------------------

def _grid_zeroth_norm(system: MultiTimeSystem, psi, dirac) -> float:
    """|| E psi || with the zeroth-order obstruction evaluated pointwise."""
    grid = psi.grid
    n = grid.points
    zs = grid.positions()
    coords = np.zeros((n * n, 2, 4))
    coords[:, 0, 3] = np.repeat(zs, n)
    coords[:, 1, 3] = np.tile(zs, n)
    obstruction = zeroth_order_residual(system, coords, dirac)
    image = np.einsum("sab,sb->sa", obstruction, psi.values.reshape(-1, 16))
    return float(np.sqrt(np.sum(np.abs(image) ** 2) * grid.spacing ** 2))


def test_loop_holonomy_against_curvature(dirac):
    start = time.perf_counter()
    grid = Grid(length=20.0, points=128)
    psi0 = product_state(grid)
    deltas = (0.08, 0.04, 0.02)

    free_dev = loop_holonomy(make_builtin("free"), psi0, 0.05)

    hoho_series = holonomy_series(make_builtin("hoho"), psi0, deltas)

    example1 = make_builtin("example1_vector")
    series = holonomy_series(example1, psi0, deltas)
    ratios = [row[2] for row in series.rows]
    oracle = _grid_zeroth_norm(example1, psi0, dirac)
    solver_reference = curvature_norm(example1, psi0)
    match = abs(ratios[-1] - oracle) / oracle
    cauchy = abs(ratios[-1] - ratios[-2]) / ratios[-1]
    elapsed = time.perf_counter() - start

    ok = (free_dev < 1e-9 and hoho_series.fitted_slope >= 0.5
          and match < 0.1 and cauchy < 0.1 and elapsed < 120.0)
    verdict_line("free loop < 1e-9; vanishing-curvature slope >= 0.5; "
                 "deviation/delta^2 matches ||F psi|| within 10%",
                 ok, f"free {free_dev:.1e}, slope "
                     f"{hoho_series.fitted_slope:.2f}, ratio "
                     f"{ratios[-1]:.3f} vs {oracle:.3f}, {elapsed:.0f}s")
    assert free_dev < 1e-9
    assert hoho_series.fitted_slope >= 0.5
    assert abs(oracle - solver_reference) < 1e-9
    assert match < 0.1
    assert cauchy < 0.1
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 11. Identical seeds give byte-identical reports
# ---------------------------------------------------------------------------

def test_reports_are_byte_deterministic(tmp_path):
    outputs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = entry(["check", "--builtin", "hoho", "--seed", "123",
                      "--nsamples", "60", "--out", str(out)])
        assert code == EXIT_OK
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    verdict_line("same seed twice -> byte-identical JSON", ok,
                 f"{len(outputs[0])} bytes")
    assert outputs[0] == outputs[1]
