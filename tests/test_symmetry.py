"""Tests for Poincare transforms, gauge classification, and structure probes."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

from mtdirac.clifford import MINKOWSKI_METRIC, decompose, embed, frobenius, realize
from mtdirac.consistency import (
    CoefficientFormError,
    check_consistency,
    to_coefficient_form,
)
from mtdirac.dsl import Const, Mul
from mtdirac.potential import (
    MultiTimeSystem,
    Potential,
    PotentialTerm,
    SpecError,
    make_builtin,
    sample_configs,
)
from mtdirac.symmetry import (
    GAUGE_REMOVABLE,
    INTERACTING,
    UNDECIDED,
    ConfigGrid,
    classify_gauge,
    classify_interaction,
    compose,
    exponential_form_residual,
    identity_transform,
    interaction_witness_hoho,
    inverse,
    make_boost,
    make_rotation,
    make_translation,
    poincare_residual,
    translation_residual,
)


# ---------------------------------------------------------------------------
# Poincare transforms
# ---------------------------------------------------------------------------

def test_boost_z_matrix_entries(dirac):
    chi = 0.5
    transform = make_boost((0, 0, 1), chi, dirac)
    lam = transform.lorentz
    assert np.allclose(lam[0, 0], np.cosh(chi))
    assert np.allclose(lam[3, 3], np.cosh(chi))
    assert np.allclose(lam[0, 3], np.sinh(chi))
    assert np.allclose(lam[3, 0], np.sinh(chi))
    assert np.allclose(lam[1:3, 1:3], np.eye(2))


def test_zero_rapidity_is_identity(dirac):
    transform = make_boost((1, 0, 0), 0.0, dirac)
    assert np.allclose(transform.lorentz, np.eye(4))
    assert np.allclose(transform.spinor, np.eye(4))


@pytest.mark.parametrize("axis,param", [
    ((0, 0, 1), 0.5),
    ((1, 0, 0), -0.8),
    ((1.0, 2.0, -1.0), 0.7),
])
def test_boost_preserves_metric(dirac, axis, param):
    lam = make_boost(axis, param, dirac).lorentz
    eta = MINKOWSKI_METRIC
    assert np.max(np.abs(lam.T @ eta @ lam - eta)) < 1e-12


@pytest.mark.parametrize("axis,angle", [
    ((0, 0, 1), np.pi / 3),
    ((1, 1, 0), 1.1),
    ((0, 1, 0), -2.0),
])
def test_rotation_preserves_metric(dirac, axis, angle):
    lam = make_rotation(axis, angle, dirac).lorentz
    eta = MINKOWSKI_METRIC
    assert np.max(np.abs(lam.T @ eta @ lam - eta)) < 1e-12


def test_rotation_turns_x_into_y(dirac):
    lam = make_rotation((0, 0, 1), np.pi / 2, dirac).lorentz
    assert np.allclose(lam @ np.array([0.0, 1.0, 0.0, 0.0]),
                       np.array([0.0, 0.0, 1.0, 0.0]), atol=1e-12)


def test_spinor_intertwines_vector_transform(dirac, weyl):
    for rep in (dirac, weyl):
        for transform in (make_boost((0, 0, 1), 0.5, rep),
                          make_rotation((0, 1, 0), 1.2, rep)):
            s = transform.spinor
            s_inv = np.linalg.inv(s)
            for mu in range(4):
                expected = sum(transform.lorentz[mu, nu] * rep.gamma(nu)
                               for nu in range(4))
                assert frobenius(s @ rep.gamma(mu) @ s_inv - expected) < 1e-10


def test_rotation_by_two_pi_flips_spinor_sign(dirac):
    transform = make_rotation((0, 0, 1), 2 * np.pi, dirac)
    assert np.max(np.abs(transform.lorentz - np.eye(4))) < 1e-12
    assert np.max(np.abs(transform.spinor + np.eye(4))) < 1e-12


def test_rotation_spinor_unitary_boost_spinor_hermitian(dirac):
    rotation = make_rotation((1, 0, 0), 0.9, dirac).spinor
    assert np.max(np.abs(rotation.conj().T @ rotation - np.eye(4))) < 1e-12
    boost = make_boost((0, 1, 0), 0.6, dirac).spinor
    assert np.max(np.abs(boost - boost.conj().T)) < 1e-12


def test_compose_and_inverse_cancel(dirac):
    transform = compose(make_boost((0, 0, 1), 0.5, dirac),
                        compose(make_rotation((1, 0, 0), 0.9, dirac),
                                make_translation((1.0, -2.0, 0.5, 3.0))))
    round_trip = compose(transform, inverse(transform))
    assert np.max(np.abs(round_trip.lorentz - np.eye(4))) < 1e-12
    assert np.max(np.abs(round_trip.spinor - np.eye(4))) < 1e-12
    assert np.max(np.abs(round_trip.translation)) < 1e-12
    assert np.max(np.abs(transform.spinor @ np.linalg.inv(transform.spinor)
                         - np.eye(4))) < 1e-12


def test_translation_applies_offset():
    transform = make_translation((1.0, 2.0, 3.0, 4.0))
    moved = transform.apply(np.zeros(4))
    assert np.allclose(moved, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        make_translation((1.0, 2.0))


def test_zero_axis_rejected(dirac):
    with pytest.raises(ValueError):
        make_boost((0, 0, 0), 0.5, dirac)


# ---------------------------------------------------------------------------
# Covariance residuals
# ---------------------------------------------------------------------------

def test_identity_transform_residual_zero(dirac, rng):
    system = make_builtin("example1_vector")
    samples = sample_configs(10, rng)
    assert poincare_residual(system, identity_transform(), samples, dirac) == 0.0


def test_free_system_invariant(dirac, rng):
    system = make_builtin("free")
    samples = sample_configs(10, rng)
    for transform in (make_boost((0, 0, 1), 0.5, dirac),
                      make_rotation((0, 1, 0), 1.0, dirac),
                      make_translation((0.3, 1.0, -2.0, 0.7))):
        assert poincare_residual(system, transform, samples, dirac) == 0.0


def test_constant_scalar_potential_invariant(dirac, rng):
    system = make_builtin("coefficient_form",
                          {"W1": (0.7, 0, 0, 0), "name": "scalar_shift"})
    samples = sample_configs(10, rng)
    transform = compose(make_boost((1, 0, 0), 0.4, dirac),
                        make_rotation((0, 0, 1), 0.8, dirac))
    assert poincare_residual(system, transform, samples, dirac) < 1e-12


def test_hoho_translation_invariant(dirac, rng):
    system = make_builtin("hoho")
    samples = sample_configs(20, rng)
    for _ in range(10):
        offset = rng.uniform(-3, 3, size=4)
        assert translation_residual(system, offset, samples, dirac) < 1e-12


def test_external_field_not_translation_invariant(dirac, rng):
    system = make_builtin("coefficient_form",
                          {"W1": ("cos(x1_0)", 0, 0, 0), "name": "external"})
    samples = sample_configs(20, rng)
    assert translation_residual(system, (1.0, 0, 0, 0), samples, dirac) > 0.1


def test_hoho_breaks_boost_covariance(dirac, rng):
    system = make_builtin("hoho")
    samples = sample_configs(30, rng)
    transform = make_boost((0, 0, 1), 0.5, dirac)
    assert poincare_residual(system, transform, samples, dirac) > 0.1


@pytest.mark.parametrize("name,params", [
    ("hoho", {"c": (1.0, 0.3, 0, -0.5)}),
    ("coulomb_like", {}),
    ("example1_vector", {}),
])
def test_stacked_residual_is_max_of_single_configurations(name, params,
                                                          dirac, rng):
    system = make_builtin(name, params)
    samples = sample_configs(12, rng)
    transform = compose(make_boost((0.2, 0, 1), 0.5, dirac),
                        make_translation((0.1, -0.4, 0.3, 0.2)))
    stacked = poincare_residual(system, transform, samples, dirac)
    singles = [poincare_residual(system, transform, samples[i:i + 1], dirac)
               for i in range(len(samples))]
    assert stacked == max(singles)
    assert stacked > 0.1


# ---------------------------------------------------------------------------
# Interaction witness
# ---------------------------------------------------------------------------

def test_witness_default_value(dirac):
    system = make_builtin("hoho")
    value = interaction_witness_hoho(system, dirac)
    assert abs(value - 8.0) < 1e-9
    assert value >= 0.5


def test_witness_constant_over_separations(dirac):
    system = make_builtin("hoho")
    relatives = [(0, 0, 0, 0), (0.3, 0, 0, 0), (-1.2, 0.4, 0.0, 2.0)]
    value = interaction_witness_hoho(system, dirac, relatives)
    assert abs(value - 8.0) < 1e-9


def test_witness_scales_linearly_in_c(dirac):
    system = make_builtin("hoho", {"c": (0.5, 0, 0, 0)})
    assert abs(interaction_witness_hoho(system, dirac) - 4.0) < 1e-9


@pytest.mark.parametrize("params", [
    {"C": (1.0, 0.5j, 0, 2j), "c": (1.0, 0.25, -0.5, 0.75)},
    {"C": (2.5, 0, 0, 0)},
    {"C": (1, 0.2, 0, 0), "m1": 2},
])
def test_witness_is_product_of_coupling_norms(params, dirac, weyl):
    # ||(c.alpha_2) 2i gamma5_1 (C.gamma_1) U||_F for a unitary U is
    # 2 * ||c.alpha||_F * ||C.gamma||_F = 2 * 2|c| * 2|C|
    system = make_builtin("hoho", params)
    expected = 8 * (np.linalg.norm(params.get("C", (1, 0, 0, 0)))
                    * np.linalg.norm(params.get("c", (1, 0, 0, 0))))
    relatives = [(0, 0, 0, 0), (0.3, -0.2, 0.5, 1.1)]
    for rep in (dirac, weyl):
        value = interaction_witness_hoho(system, rep, relatives)
        assert abs(value - expected) < 1e-12


def test_witness_rep_independent(dirac, weyl):
    system = make_builtin("hoho", {"C": (1.0, 0.5j, 0, 0)})
    assert np.isclose(interaction_witness_hoho(system, dirac),
                      interaction_witness_hoho(system, weyl), atol=1e-10)


def test_witness_rejects_other_systems(dirac):
    with pytest.raises(SpecError):
        interaction_witness_hoho(make_builtin("free"), dirac)


# ---------------------------------------------------------------------------
# Exponential-family coefficient ODEs
# ---------------------------------------------------------------------------

def test_exponential_form_hoho_satisfies_odes(rng):
    system = make_builtin(
        "hoho", {"C": (1.3, 0.4j, -0.2j, 0.9j), "c": (0.8, -0.3, 0.1, 0.5)})
    coefficients = to_coefficient_form(system)
    samples = sample_configs(40, rng)
    residuals = exponential_form_residual(coefficients, system.masses, samples)
    assert set(residuals) == {f"ode_{name}" for name in "ABCDEFGH"} | {
        "branch_1", "branch_2"}
    for key, value in residuals.items():
        assert value < 1e-12, key


def test_exponential_form_zero_gamma_fields_pass(rng):
    system = make_builtin("coefficient_form",
                          {"Y2": (0.7, 0, 0, 0), "name": "alpha_only"})
    residuals = exponential_form_residual(
        to_coefficient_form(system), system.masses, sample_configs(5, rng))
    for key in ("ode_B", "ode_C", "ode_D", "ode_F", "ode_G", "ode_H"):
        assert residuals[key] == 0.0


def test_exponential_form_polynomial_counterexample(rng):
    system = make_builtin("coefficient_form",
                          {"B": ("x2_0^2", 0, 0, 0), "name": "polynomial"})
    residuals = exponential_form_residual(
        to_coefficient_form(system), system.masses, sample_configs(10, rng))
    assert residuals["ode_B"] == pytest.approx(2.0, abs=1e-12)
    assert residuals["ode_C"] == 0.0


def test_exponential_form_requires_constant_alpha_fields(rng):
    system = make_builtin("coefficient_form",
                          {"W1": ("x1_0", 0, 0, 0), "name": "drifting"})
    with pytest.raises(CoefficientFormError):
        exponential_form_residual(
            to_coefficient_form(system), system.masses, sample_configs(5, rng))


def test_branch_residuals_detect_nonparallel_fields(rng):
    samples = sample_configs(5, rng)
    system = make_builtin("coefficient_form", {
        "Y2": (1.0, 0, 0, 0), "Z2": (0, 1.0, 0, 0), "name": "branch2"})
    residuals = exponential_form_residual(
        to_coefficient_form(system), system.masses, samples)
    assert residuals["branch_2"] == pytest.approx(1.0)
    system = make_builtin("coefficient_form", {
        "X1": (1.0, 0, 0, 0), "Z1": (0, 0.5, 0, 0), "name": "branch1"})
    residuals = exponential_form_residual(
        to_coefficient_form(system), system.masses, samples)
    assert residuals["branch_1"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Gauge classification
# ---------------------------------------------------------------------------

def _gradient_pair():
    return make_builtin("coefficient_form", {
        "W1": ("cos(x1_0 + x2_3)", 0, 0, 0),
        "W2": (0, 0, 0, "cos(x1_0 + x2_3)"),
        "name": "gradient_pair"})


@pytest.fixture(scope="module")
def gradient_report(dirac):
    return classify_gauge(_gradient_pair(), dirac)


def test_gradient_pair_is_gauge_removable(gradient_report):
    assert gradient_report.verdict == GAUGE_REMOVABLE
    assert gradient_report.integrability_sup < 1e-12
    assert gradient_report.triangle_sup < 1e-4
    assert gradient_report.gradient_match_sup < 2e-2


def test_gradient_pair_recovers_phase_function(gradient_report):
    values = np.asarray(ConfigGrid().values)
    total = values[:, None] + values[None, :]
    expected = (np.sin(total) - np.sin(values)[:, None]
                - np.sin(values)[None, :])
    recovered = gradient_report.gauge_components["unit"]
    assert np.max(np.abs(recovered.imag)) < 1e-12
    drift = recovered.real - expected
    assert np.max(np.abs(drift - drift.mean())) < 1e-5
    for sector in ("gamma5_1", "gamma5_2", "gamma5_12"):
        assert np.max(np.abs(gradient_report.gauge_components[sector])) < 1e-12


@pytest.mark.parametrize("sector,fields", [
    ("unit", ("W1", "W2")),
    ("gamma5_2", ("X1", "X2")),
    ("gamma5_1", ("Y1", "Y2")),
    ("gamma5_12", ("Z1", "Z2")),
])
def test_gradient_pair_lands_in_its_gamma5_sector(sector, fields, dirac):
    # a sector is the gamma5 content of both factors; a gradient split
    # across two sectors would fail the cross-curl condition
    field1, field2 = fields
    system = make_builtin("coefficient_form", {
        field1: ("cos(x1_0 + x2_3)", 0, 0, 0),
        field2: (0, 0, 0, "cos(x1_0 + x2_3)")})
    report = classify_gauge(system, dirac)
    assert report.verdict == GAUGE_REMOVABLE
    assert set(report.gauge_components) == {
        "unit", "gamma5_1", "gamma5_2", "gamma5_12"}
    for label, component in report.gauge_components.items():
        assert (np.max(np.abs(component)) > 0.1) == (label == sector)


def test_zero_fields_gauge_removable(dirac):
    report = classify_gauge(make_builtin("free"), dirac)
    assert report.verdict == GAUGE_REMOVABLE
    assert np.max(np.abs(report.gauge_components["unit"])) == 0.0


def test_hoho_f_sector_gauge_removable(dirac):
    report = classify_gauge(make_builtin("hoho"), dirac)
    assert report.verdict == GAUGE_REMOVABLE
    assert report.integrability_sup == 0.0
    assert np.max(np.abs(report.gauge_components["gamma5_1"])) < 1e-12


def test_cross_curl_violation_is_interacting(dirac):
    system = make_builtin("coefficient_form",
                          {"W1": ("cos(x2_3)", 0, 0, 0), "name": "crossed"})
    report = classify_gauge(system, dirac)
    assert report.verdict == INTERACTING
    assert report.cross_curl_sup == pytest.approx(np.sin(1.0), abs=1e-10)


def test_marginal_violation_is_undecided(dirac):
    system = make_builtin("coefficient_form", {
        "W1": ("0.000000005*cos(x2_3)", 0, 0, 0), "name": "marginal"})
    report = classify_gauge(system, dirac)
    assert report.verdict == UNDECIDED
    assert 1e-9 <= report.integrability_sup < 1e-8


def test_locality_defect_detected(dirac):
    # in-particle curl of f_1 depends on particle 2: not removable
    system = make_builtin("coefficient_form", {
        "W1": (0, "x1_2 * x2_3", 0, 0), "name": "twisted"})
    report = classify_gauge(system, dirac)
    assert report.locality_sup == pytest.approx(1.0, abs=1e-10)
    assert report.verdict == INTERACTING


def test_accepts_coefficient_set_directly(dirac):
    report = classify_gauge(to_coefficient_form(_gradient_pair()), dirac)
    assert report.verdict == GAUGE_REMOVABLE


def test_constant_shift_leaves_gauge_analysis_unchanged(dirac, gradient_report):
    system = make_builtin("coefficient_form", {
        "W1": ("cos(x1_0 + x2_3) + 0.7", 0, 0, 0),
        "W2": (0, 0, 0, "cos(x1_0 + x2_3) - 0.3"),
        "name": "gradient_pair_shifted"})
    report = classify_gauge(system, dirac)
    assert report.verdict == GAUGE_REMOVABLE
    assert np.max(np.abs(report.gauge_components["unit"]
                         - gradient_report.gauge_components["unit"])) < 1e-12


def test_report_dict_shape(gradient_report):
    data = gradient_report.as_dict()
    assert data["verdict"] == GAUGE_REMOVABLE
    for key in ("integrability_sup", "cross_curl_sup", "locality_sup",
                "triangle_sup", "gradient_match_sup", "tol", "fd_tol"):
        assert isinstance(data[key], float)
    assert "gauge_components" not in data


# ---------------------------------------------------------------------------
# Combined classification
# ---------------------------------------------------------------------------

def test_classify_hoho_interacting(dirac):
    report = classify_interaction(make_builtin("hoho"), dirac)
    assert report.verdict == INTERACTING
    assert report.gauge.verdict == GAUGE_REMOVABLE
    assert report.witness == pytest.approx(8.0, abs=1e-9)
    assert report.gamma_sector_sup > 0.9


def test_classify_gradient_pair_removable(dirac):
    report = classify_interaction(_gradient_pair(), dirac)
    assert report.verdict == GAUGE_REMOVABLE
    assert report.gamma_sector_sup == 0.0
    assert report.witness is None


def test_classify_unknown_gamma_sector_undecided(dirac):
    system = make_builtin("coefficient_form",
                          {"A": (0, 0, 0, "x2_3"), "name": "gamma_mystery"})
    report = classify_interaction(system, dirac)
    assert report.verdict == UNDECIDED
    assert report.gamma_sector_sup == pytest.approx(1.0)


def test_classify_skips_witness_outside_exponential_family(dirac):
    # the witness would be ||[0.5 gamma5_1, m1 gamma0_1]|| > 0, but
    # d_{2,0}^2 A_3 = 0 != 4 (Z2_0^2 - Y2_0^2) A_3 = -x2_3 rules the pair
    # out of the exponential family
    system = make_builtin("coefficient_form",
                          {"A": (0, 0, 0, "x2_3"), "Y2": (0.5, 0, 0, 0)})
    report = classify_interaction(system, dirac)
    assert report.verdict == UNDECIDED
    assert report.witness is None
    assert interaction_witness_hoho(system, dirac) > 1.0


def test_classify_verdicts_rep_independent(dirac, weyl):
    for system in (make_builtin("hoho"), _gradient_pair()):
        report_d = classify_interaction(system, dirac)
        report_w = classify_interaction(system, weyl)
        assert report_d.verdict == report_w.verdict
        assert np.isclose(report_d.gamma_sector_sup, report_w.gamma_sector_sup)


def test_classification_report_dict(dirac):
    data = classify_interaction(make_builtin("hoho"), dirac).as_dict()
    assert data["verdict"] == INTERACTING
    assert data["f_sector"]["verdict"] == GAUGE_REMOVABLE
    assert data["witness"] == pytest.approx(8.0)


# ---------------------------------------------------------------------------
# Constant-gauge covariance of the consistency verdict
# ---------------------------------------------------------------------------

def _conjugate_system(system: MultiTimeSystem, theta: float, rep) -> MultiTimeSystem:
    """Gauge by the constant unitary U = u (x) u, u = exp(i theta gamma5),
    absorbing the rotated mass terms into the potentials."""
    u = expm(1j * theta * rep.gamma5)
    big_u = np.kron(u, u)
    big_u_inv = np.linalg.inv(big_u)
    potentials = []
    for k in (1, 2):
        original = system.potential(k)
        terms = []
        for term in original.terms:
            matrix = big_u @ realize(term.structure, rep) @ big_u_inv
            for element, value in decompose(matrix, 2, rep).items():
                if abs(value) > 1e-14:
                    terms.append(PotentialTerm(
                        element, Mul(Const(value), term.coefficient)))
        mass_matrix = system.mass(k) * embed(rep.gamma(0), k, 2)
        shift = big_u @ mass_matrix @ big_u_inv - mass_matrix
        for element, value in decompose(shift, 2, rep).items():
            if abs(value) > 1e-14:
                terms.append(PotentialTerm(element, Const(value)))
        potentials.append(Potential(k, 2, tuple(terms)))
    return MultiTimeSystem(
        name=system.name + "_gauged", n_particles=2, masses=system.masses,
        potentials=tuple(potentials), hermitian=False)


@pytest.mark.parametrize("name", ["hoho", "example1_vector"])
def test_constant_gauge_preserves_consistency_verdict(dirac, rng, name):
    system = make_builtin(name)
    gauged = _conjugate_system(system, 0.4, dirac)
    samples = sample_configs(20, rng)
    report = check_consistency(system, dirac, samples=samples, include_cc=False)
    gauged_report = check_consistency(gauged, dirac, samples=samples,
                                      include_cc=False)
    assert report.verdict == gauged_report.verdict
    assert np.isclose(report.zeroth_sup, gauged_report.zeroth_sup, atol=1e-9)
    assert np.allclose(report.deriv_coeff_sup, gauged_report.deriv_coeff_sup,
                       atol=1e-9)
