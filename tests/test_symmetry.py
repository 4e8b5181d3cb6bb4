"""Tests for Poincare transforms, gauge classification, and structure probes."""

from __future__ import annotations

from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from mtdirac.clifford import (
    MINKOWSKI_METRIC,
    decompose,
    embed,
    frobenius,
    realize,
)
from mtdirac.consistency import (
    CoefficientFormError,
    check_consistency,
    to_coefficient_form,
)
from mtdirac.dsl import BinOp, Const
from mtdirac.potential import (
    FIELD_NAMES,
    DomainError,
    Guard,
    MultiTimeSystem,
    Potential,
    PotentialTerm,
    SpecError,
    evaluate_potential,
    make_builtin,
    sample_configs,
    stack_coords,
    system_from_dict,
)
from mtdirac.symmetry import (
    GAUGE_REMOVABLE,
    INTERACTING,
    UNDECIDED,
    ConfigGrid,
    PoincareTransform,
    classify_gauge,
    classify_interaction,
    compose,
    exponential_form_residual,
    interaction_witness_hoho,
    inverse,
    make_boost,
    make_rotation,
    make_translation,
    poincare_residual,
)
from oracles import (
    conjugate_rep,
    lift_matrix,
    reference_cross_curl,
    reference_lorentz_lift,
    reference_matrix_cross_curl,
    reference_exponential_form,
    reference_locality,
    reference_poincare_residual,
    reference_poincare_sweep,
)


# ---------------------------------------------------------------------------
# Poincare transforms
# ---------------------------------------------------------------------------

def test_boost_z_matrix_entries():
    chi = 0.5
    transform = make_boost((0, 0, 1), chi)
    lam = transform.lorentz
    assert np.allclose(lam[0, 0], np.cosh(chi))
    assert np.allclose(lam[3, 3], np.cosh(chi))
    assert np.allclose(lam[0, 3], np.sinh(chi))
    assert np.allclose(lam[3, 0], np.sinh(chi))
    assert np.allclose(lam[1:3, 1:3], np.eye(2))


def test_zero_rapidity_is_identity(dirac):
    transform = make_boost((1, 0, 0), 0.0)
    assert np.allclose(transform.lorentz, np.eye(4))
    assert np.allclose(lift_matrix(transform.spinor, dirac), np.eye(4))


@pytest.mark.parametrize("axis,param", [
    ((0, 0, 1), 0.5),
    ((1, 0, 0), -0.8),
    ((1.0, 2.0, -1.0), 0.7),
])
def test_boost_preserves_metric(axis, param):
    lam = make_boost(axis, param).lorentz
    eta = MINKOWSKI_METRIC
    assert np.max(np.abs(lam.T @ eta @ lam - eta)) < 1e-12


@pytest.mark.parametrize("axis,angle", [
    ((0, 0, 1), np.pi / 3),
    ((1, 1, 0), 1.1),
    ((0, 1, 0), -2.0),
])
def test_rotation_preserves_metric(axis, angle):
    lam = make_rotation(axis, angle).lorentz
    eta = MINKOWSKI_METRIC
    assert np.max(np.abs(lam.T @ eta @ lam - eta)) < 1e-12


def test_rotation_turns_x_into_y():
    lam = make_rotation((0, 0, 1), np.pi / 2).lorentz
    assert np.allclose(lam @ np.array([0.0, 1.0, 0.0, 0.0]),
                       np.array([0.0, 0.0, 1.0, 0.0]), atol=1e-12)


def test_spinor_intertwines_vector_transform(dirac, weyl):
    for rep in (dirac, weyl):
        for transform in (make_boost((0, 0, 1), 0.5),
                          make_rotation((0, 1, 0), 1.2)):
            s = lift_matrix(transform.spinor, rep)
            s_inv = np.linalg.inv(s)
            for mu in range(4):
                expected = sum(transform.lorentz[mu, nu] * rep.gammas[nu]
                               for nu in range(4))
                assert frobenius(s @ rep.gammas[mu] @ s_inv - expected) < 1e-10


def test_rotation_by_two_pi_flips_spinor_sign(dirac):
    transform = make_rotation((0, 0, 1), 2 * np.pi)
    assert np.max(np.abs(transform.lorentz - np.eye(4))) < 1e-12
    assert np.max(np.abs(lift_matrix(transform.spinor, dirac) + np.eye(4))) \
        < 1e-12


def test_rotation_spinor_unitary_boost_spinor_hermitian(dirac):
    rotation = lift_matrix(make_rotation((1, 0, 0), 0.9).spinor, dirac)
    assert np.max(np.abs(rotation.conj().T @ rotation - np.eye(4))) < 1e-12
    boost = lift_matrix(make_boost((0, 1, 0), 0.6).spinor, dirac)
    assert np.max(np.abs(boost - boost.conj().T)) < 1e-12


def test_compose_and_inverse_cancel(dirac):
    transform = compose(make_boost((0, 0, 1), 0.5),
                        compose(make_rotation((1, 0, 0), 0.9),
                                make_translation((1.0, -2.0, 0.5, 3.0))))
    round_trip = compose(transform, inverse(transform))
    assert np.max(np.abs(round_trip.lorentz - np.eye(4))) < 1e-12
    assert np.max(np.abs(lift_matrix(round_trip.spinor, dirac)
                         - np.eye(4))) < 1e-12
    assert np.max(np.abs(round_trip.translation)) < 1e-12
    s = lift_matrix(transform.spinor, dirac)
    assert np.max(np.abs(s @ np.linalg.inv(s) - np.eye(4))) < 1e-12


def test_translation_applies_offset():
    transform = make_translation((1.0, 2.0, 3.0, 4.0))
    moved = transform.apply(np.zeros(4))
    assert np.allclose(moved, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        make_translation((1.0, 2.0))


def test_zero_axis_rejected():
    with pytest.raises(ValueError):
        make_boost((0, 0, 0), 0.5)


@pytest.mark.parametrize("make", [make_boost, make_rotation])
@pytest.mark.parametrize("axis,unit", [
    ((np.nan, 0, 0), None),
    ((1e200, 1e200, 0), (1, 1, 0)),
    ((1e-200, 0, 0), (1, 0, 0)),
    ((1, 2), None),
], ids=["nan", "huge", "tiny", "two components"])
def test_axis_validated_and_scaled(make, axis, unit):
    if unit is None:
        with pytest.raises(ValueError, match="axis must be 3 finite"):
            make(axis, 0.5)
    else:
        expected = make(unit, 0.5)
        transform = make(axis, 0.5)
        assert transform.name == expected.name
        assert np.max(np.abs(transform.lorentz - expected.lorentz)) < 1e-15
        assert np.max(np.abs(transform.spinor - expected.spinor)) < 1e-15


def _intertwining_defect(lam: np.ndarray, s: np.ndarray, rep) -> float:
    """max over mu of ||S gamma^mu S^-1 - Lambda^mu_nu gamma^nu||_F, with
    the exact inverse gamma0 S^dag gamma0 of a Lorentz lift; np.linalg.inv
    would lose about log10(cosh(rapidity)) digits of a boost's."""
    s_inv = rep.gammas[0] @ s.conj().T @ rep.gammas[0]
    return max(frobenius(s @ rep.gammas[mu] @ s_inv - sum(
        lam[mu, nu] * rep.gammas[nu] for nu in range(4))) for mu in range(4))


_RAPIDITIES = (-4.0, -1.3, 0.0, 0.25, 2.0, 4.0)
_ANGLES = (0.0, 0.7, -2.2, np.pi, 2 * np.pi, -np.pi)


@pytest.mark.parametrize("rapidity", _RAPIDITIES)
def test_closed_form_boost_matches_expm(dirac, weyl, rng, rapidity):
    eta = MINKOWSKI_METRIC
    tol = 1e-12 * np.cosh(rapidity)
    for rep in (dirac, weyl):
        for axis in [(0, 0, 1), *rng.normal(size=(4, 3))]:
            transform = make_boost(axis, rapidity)
            lorentz, spinor = reference_lorentz_lift("boost", axis, rapidity,
                                                     rep)
            lam = transform.lorentz
            assert np.max(np.abs(lam - lorentz)) <= tol
            assert np.max(np.abs(lift_matrix(transform.spinor, rep)
                                 - spinor)) <= tol
            assert np.max(np.abs(lam.T @ eta @ lam - eta)) <= 1e-12
            assert _intertwining_defect(lam, lift_matrix(
                transform.spinor, rep), rep) <= 1e-12 * np.linalg.norm(lam)


@pytest.mark.parametrize("angle", _ANGLES)
def test_closed_form_rotation_matches_expm(dirac, weyl, rng, angle):
    eta = MINKOWSKI_METRIC
    for rep in (dirac, weyl):
        for axis in [(1, 0, 0), *rng.normal(size=(4, 3))]:
            transform = make_rotation(axis, angle)
            lorentz, spinor = reference_lorentz_lift("rotation", axis, angle,
                                                     rep)
            lam = transform.lorentz
            assert np.max(np.abs(lam - lorentz)) <= 1e-12
            assert np.max(np.abs(lift_matrix(transform.spinor, rep)
                                 - spinor)) <= 1e-12
            assert _intertwining_defect(lam, lift_matrix(
                transform.spinor, rep), rep) <= 1e-12 * np.linalg.norm(lam)
            assert np.max(np.abs(lam.T @ eta @ lam - eta)) <= 1e-12
            assert np.max(np.abs(lam.T @ lam - np.eye(4))) <= 1e-12
            assert abs(np.linalg.det(lam) - 1.0) <= 1e-12


@pytest.mark.parametrize("which", ["dirac", "weyl", "unitary conjugate"])
def test_lift_coefficients_realize_reference_lift(which, dirac, weyl, rng):
    u, _ = np.linalg.qr(rng.normal(size=(4, 4))
                        + 1j * rng.normal(size=(4, 4)))
    rep = {"dirac": dirac, "weyl": weyl,
           "unitary conjugate": conjugate_rep(dirac, u)}[which]
    axis = (0.3, -1.2, 0.8)
    for kind, make, parameter in (("boost", make_boost, 1.3),
                                  ("rotation", make_rotation, -2.1)):
        transform = make(axis, parameter)
        lorentz, spinor = reference_lorentz_lift(kind, axis, parameter, rep)
        assert np.max(np.abs(transform.lorentz - lorentz)) <= 1e-12
        assert np.max(np.abs(lift_matrix(transform.spinor, rep)
                             - spinor)) <= 1e-12


@pytest.mark.parametrize("rapidity", [np.nan, np.inf, -np.inf, 711.0, -1e4])
def test_boost_rejects_nonfinite_rapidity(rapidity):
    with pytest.raises(ValueError, match="rapidity"):
        make_boost((0, 0, 1), rapidity)


@pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
def test_rotation_rejects_nonfinite_angle(angle):
    with pytest.raises(ValueError, match="angle"):
        make_rotation((0, 0, 1), angle)


@pytest.mark.parametrize("rapidity", [8.0, -8.0, 15.0, -15.0, 30.0, -30.0])
def test_large_rapidity_boost_lifts(dirac, weyl, rng, rapidity):
    eta = MINKOWSKI_METRIC
    for rep in (dirac, weyl):
        for axis in [(0, 0, 1), *rng.normal(size=(3, 3))]:
            transform = make_boost(axis, rapidity)
            lam, s = transform.lorentz, lift_matrix(transform.spinor, rep)
            assert (np.max(np.abs(lam.T @ eta @ lam - eta))
                    <= 1e-12 * np.cosh(rapidity) ** 2)
            s_inv = rep.gammas[0] @ s.conj().T @ rep.gammas[0]
            assert (np.linalg.norm(s @ s_inv - np.eye(4))
                    <= 1e-12 * np.linalg.norm(s) ** 2)
            tol = 1e-12 * np.linalg.norm(lam)
            assert _intertwining_defect(lam, s, rep) <= tol
            # the opposite sign lifts the opposite boost
            wrong = lift_matrix(make_boost(axis, -rapidity).spinor, rep)
            assert _intertwining_defect(lam, wrong, rep) > tol
            # the oracle's expm of the 4x4 generator drifts to 2.5e-12
            # relative at |rapidity| 30, so only the lifts are compared
            _, spinor = reference_lorentz_lift("boost", axis, rapidity, rep)
            assert (np.max(np.abs(s - spinor))
                    <= 1e-12 * np.cosh(rapidity / 2))


# ---------------------------------------------------------------------------
# Covariance residuals
# ---------------------------------------------------------------------------

def test_identity_transform_residual_zero(rng):
    system = make_builtin("example1_vector")
    samples = sample_configs(10, rng)
    identity = make_translation(np.zeros(4))
    assert poincare_residual(system, [identity], samples) == [0.0]


def test_free_system_invariant(rng):
    system = make_builtin("free")
    samples = sample_configs(10, rng)
    sweep = (make_boost((0, 0, 1), 0.5), make_rotation((0, 1, 0), 1.0),
             make_translation((0.3, 1.0, -2.0, 0.7)))
    assert poincare_residual(system, sweep, samples) == [0.0, 0.0, 0.0]


def test_constant_scalar_potential_invariant(rng):
    system = make_builtin("coefficient_form",
                          {"W1": (0.7, 0, 0, 0), "name": "scalar_shift"})
    samples = sample_configs(10, rng)
    transform = compose(make_boost((1, 0, 0), 0.4),
                        make_rotation((0, 0, 1), 0.8))
    [residual] = poincare_residual(system, [transform], samples)
    assert residual < 1e-12


def test_hoho_translation_invariant(rng):
    system = make_builtin("hoho")
    samples = sample_configs(20, rng)
    sweep = [make_translation(offset)
             for offset in rng.uniform(-3, 3, size=(10, 4))]
    assert max(poincare_residual(system, sweep, samples)) < 1e-12


def test_external_field_not_translation_invariant(rng):
    system = make_builtin("coefficient_form",
                          {"W1": ("cos(x1_0)", 0, 0, 0), "name": "external"})
    samples = sample_configs(20, rng)
    [residual] = poincare_residual(
        system, [make_translation((1.0, 0, 0, 0))], samples)
    assert residual > 0.1


def test_hoho_breaks_boost_covariance(rng):
    system = make_builtin("hoho")
    samples = sample_configs(30, rng)
    [residual] = poincare_residual(system, [make_boost((0, 0, 1), 0.5)],
                                   samples)
    assert residual > 0.1


@pytest.mark.parametrize("name,params", [
    ("hoho", {"c": (1.0, 0.3, 0, -0.5)}),
    ("coulomb_like", {}),
    ("example1_vector", {}),
])
def test_stacked_residual_is_max_of_single_configurations(name, params, rng):
    system = make_builtin(name, params)
    samples = sample_configs(12, rng)
    transform = compose(make_boost((0.2, 0, 1), 0.5),
                        make_translation((0.1, -0.4, 0.3, 0.2)))
    [stacked] = poincare_residual(system, [transform], samples)
    singles = [poincare_residual(system, [transform], samples[i:i + 1])[0]
               for i in range(len(samples))]
    assert stacked == max(singles)
    assert stacked > 0.1


@pytest.mark.parametrize("shape", [(0, 2, 4), (3, 0, 2, 4)])
def test_empty_sample_stack_raises_spec_error(shape):
    # a sup over no configuration is no residual, not 0.0
    system, empty = make_builtin("hoho"), np.empty(shape)
    with pytest.raises(SpecError, match="holds no configuration"):
        check_consistency(system, empty)
    with pytest.raises(SpecError, match="holds no configuration"):
        exponential_form_residual(to_coefficient_form(system),
                                  system.masses, empty)
    for sweep in ([make_translation((0.1, 0, 0, 0))],
                  [make_boost((0, 0, 1), 0.5), make_rotation((1, 0, 0), 1)]):
        with pytest.raises(SpecError, match="holds no configuration"):
            poincare_residual(system, sweep, empty)


def test_non_finite_spinor_lift_raises_domain_error(rng):
    transform = PoincareTransform("broken", np.eye(4),
                                  np.full(16, np.nan), np.zeros(4))
    with pytest.raises(DomainError, match=r"broken\) at the transform's "
                       "spinor lift"):
        poincare_residual(make_builtin("hoho"), [transform],
                          sample_configs(5, rng))


def _cli_and_composite_transforms(rng):
    """The poincare command's eight transforms and general-axis composites."""
    boost_z = make_boost((0, 0, 1), 0.5)
    transforms = [make_boost((1, 0, 0), 0.5),
                  make_boost((0, 1, 0), 0.5), boost_z,
                  *(make_rotation(axis, np.pi / 3)
                    for axis in ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
                  make_translation((0.4, -0.3, 0.2, 0.7)),
                  compose(boost_z, inverse(boost_z))]
    for _ in range(2):
        axes = rng.normal(size=(2, 3))
        transforms.append(compose(
            make_boost(axes[0], rng.uniform(-1.5, 1.5)),
            compose(make_rotation(axes[1], rng.uniform(-np.pi, np.pi)),
                    make_translation(rng.uniform(-1, 1, size=4)))))
    return transforms


_THREE_PARTICLES = {
    "N": 3, "masses": [1.0, 0.5, 2.0],
    "potentials": [
        {"particle": 1, "terms": [
            {"factors": [{"cls": "gamma", "mu": 0}, {"cls": "alpha", "mu": 2},
                         {"cls": "id"}],
             "coeff": "cos(x2_0 - x1_0) + x3_1"},
            {"factors": [{"cls": "id"}, {"cls": "g5gamma", "mu": 3},
                         {"cls": "g5alpha", "mu": 1}],
             "coeff": "0.3*x1_2*x2_3"}]},
        {"particle": 3, "terms": [
            {"factors": [{"cls": "alpha", "mu": 1}, {"cls": "id"},
                         {"cls": "gamma", "mu": 2}],
             "coeff": "exp(-(x1_3 - x3_3)^2)"}]},
    ],
}


@pytest.mark.parametrize("system", [
    make_builtin("free"),
    make_builtin("hoho"),
    make_builtin("hoho", {"c": (1, 0.3, 0, -0.5)}),
    make_builtin("example1_vector"),
    make_builtin("coulomb_like"),
    make_builtin("coefficient_form", {"W1": ("x2_0*cos(x1_3)", 0.2, 0,
                                              "x1_1 - x2_2"),
                                      "B": (0, "sin(x1_0 + x2_0)", 0, 0.4)}),
    system_from_dict(_THREE_PARTICLES),
], ids=["free", "hoho", "hoho_c", "example1_vector", "coulomb_like",
        "coefficient_form", "three_particles"])
def test_field_residual_matches_dense_oracle(system, dirac, weyl, rng):
    samples = sample_configs(15, rng, system.n_particles)
    for rep in (dirac, weyl):
        transforms = _cli_and_composite_transforms(rng)
        sweep = poincare_residual(system, transforms, samples)
        for transform, got in zip(transforms, sweep, strict=True):
            oracle = reference_poincare_residual(system, transform, samples,
                                                 rep)
            assert abs(got - oracle) <= 1e-12 * max(1.0, oracle), \
                transform.name


_SWEEP_SYSTEMS = {
    "hoho": make_builtin("hoho"),
    "coulomb_like": make_builtin("coulomb_like"),
    "example1_vector": make_builtin("example1_vector"),
    "coefficient_form": make_builtin("coefficient_form", {
        "W1": ("cos(x2_0 - x1_3)", 0.3, "x1_1*x2_2", 0),
        "E": ("exp(0.5*(x1_0 - x2_3))", 0, 0.2, "sin(x2_1)")}),
    "three_particles": system_from_dict(_THREE_PARTICLES),
}


@pytest.mark.parametrize("name", list(_SWEEP_SYSTEMS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweep_equals_one_transform_at_a_time(name, seed):
    # exact: every transform's sup comes from the same per-element numbers
    rng = np.random.default_rng(seed)
    system = _SWEEP_SYSTEMS[name]
    samples = sample_configs(17, rng, system.n_particles)
    transforms = _cli_and_composite_transforms(rng)
    sweep = poincare_residual(system, transforms, samples)
    assert sweep == reference_poincare_sweep(system, transforms, samples)
    assert sweep == [poincare_residual(system, [transform], samples)[0]
                     for transform in transforms]


def _nan_lift(name: str) -> PoincareTransform:
    return PoincareTransform(name, np.eye(4), np.full(16, np.nan),
                             np.zeros(4))


def test_sweep_raises_the_earliest_transforms_error(rng):
    ok = make_boost((0, 0, 1), 0.5)
    sweep = [ok, _nan_lift("broken"), ok, _nan_lift("broken2")]
    with pytest.raises(DomainError, match=r"in poincare_residual\(broken\) "
                       "at the transform's spinor lift"):
        poincare_residual(make_builtin("hoho"), sweep, sample_configs(5, rng))


def test_sweep_error_order_follows_the_transforms(rng):
    # pulled back by a 1e-9 spatial scale, every pair sits closer than the
    # coulomb_like guard's 1e-6
    collapse = PoincareTransform("collapse", np.diag([1.0, 1e9, 1e9, 1e9]),
                                 np.eye(16, dtype=complex)[0], np.zeros(4))
    system, samples = make_builtin("coulomb_like"), sample_configs(5, rng)
    ok = make_translation((0.1, 0.2, 0.3, 0.4))
    with pytest.raises(DomainError, match=r"poincare_residual\(broken\)"):
        poincare_residual(system, [ok, _nan_lift("broken"), collapse],
                          samples)
    with pytest.raises(DomainError, match="interparticle distance"):
        poincare_residual(system, [ok, collapse, _nan_lift("broken")],
                          samples)


# ---------------------------------------------------------------------------
# Interaction witness
# ---------------------------------------------------------------------------

def test_witness_default_value():
    system = make_builtin("hoho")
    value = interaction_witness_hoho(system)
    assert abs(value - 8.0) < 1e-9
    assert value >= 0.5


def _dense_witness(system, relative, rep) -> float:
    """||[V_2, V_1 + m_1 gamma0_1]||_F at x_1 = 0, x_2 = relative, from
    the assembled matrices."""
    coords = stack_coords(np.array([(0.0, 0.0, 0.0, 0.0), relative]))
    v_1 = (evaluate_potential(system.potential(1), coords, rep)
           + system.mass(1) * embed(rep.gammas[0], 1, 2))
    v_2 = evaluate_potential(system.potential(2), coords, rep)
    return frobenius(v_2 @ v_1 - v_1 @ v_2)


_SEPARATIONS = [(0, 0, 0, 0), (0.3, 0, 0, 0), (-1.2, 0.4, 0.0, 2.0)]


def test_witness_constant_over_separations(dirac):
    # the coincident configuration the witness takes loses nothing: on hoho
    # the commutator has the same norm at every separation
    system = make_builtin("hoho")
    assert abs(interaction_witness_hoho(system) - 8.0) < 1e-9
    for relative in _SEPARATIONS:
        assert abs(_dense_witness(system, relative, dirac) - 8.0) < 1e-9


def test_witness_scales_linearly_in_c():
    system = make_builtin("hoho", {"c": (0.5, 0, 0, 0)})
    assert abs(interaction_witness_hoho(system) - 4.0) < 1e-9


@pytest.mark.parametrize("params", [
    {"C": (1.0, 0.5j, 0, 2j), "c": (1.0, 0.25, -0.5, 0.75)},
    {"C": (2.5, 0, 0, 0)},
    {"C": (1, 0.2, 0, 0), "m1": 2},
])
def test_witness_is_product_of_coupling_norms(params):
    # ||(c.alpha_2) 2i gamma5_1 (C.gamma_1) U||_F for a unitary U is
    # 2 * ||c.alpha||_F * ||C.gamma||_F = 2 * 2|c| * 2|C|
    system = make_builtin("hoho", params)
    expected = 8 * (np.linalg.norm(params.get("C", (1, 0, 0, 0)))
                    * np.linalg.norm(params.get("c", (1, 0, 0, 0))))
    assert abs(interaction_witness_hoho(system) - expected) < 1e-12


def test_witness_rep_independent(weyl):
    # the table's witness is the norm of the commutator of Weyl matrices
    system = make_builtin("hoho", {"C": (1.0, 0.5j, 0, 0),
                                   "c": (1.0, 0.25, -0.5, 0.75)})
    for relative in _SEPARATIONS:
        assert np.isclose(interaction_witness_hoho(system),
                          _dense_witness(system, relative, weyl), atol=1e-10)


def test_witness_rejects_other_systems():
    with pytest.raises(SpecError):
        interaction_witness_hoho(make_builtin("free"))


def test_witness_rejects_a_non_constant_alpha_sector():
    system = make_builtin("coefficient_form", {"W1": ("x2_0", 0, 0, 0),
                                               "A": (1, 0, 0, 0)})
    with pytest.raises(SpecError, match="exponential family"):
        interaction_witness_hoho(system)


def test_witness_raises_domain_error_when_not_finite():
    # A overflows at x2_0 = 0, where the witness is taken
    system = make_builtin("coefficient_form", {
        "A": ("exp(1000*(x2_0+1))", 0, 0, 0), "Y2": (0.5, 0, 0, 0)})
    with pytest.raises(DomainError, match="interaction_witness"):
        interaction_witness_hoho(system)


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


def _random_exponential_form(rng) -> MultiTimeSystem:
    """Constant alpha-sector fields and random gamma-sector fields."""
    def component():
        k, mu, nu = rng.integers(1, 3), rng.integers(0, 4), rng.integers(0, 4)
        a, b = rng.normal(size=2)
        return rng.choice([f"{a:.3f}*exp({b:.3f}*x{k}_{mu})",
                           f"sin(x1_{mu} - {b:.3f}*x2_{nu})",
                           f"x{k}_{mu}^2 - x{3 - k}_{nu}", f"{a:.3f}", "0"])
    params = {name: tuple(component() for _ in range(4)) for name in "ABDEH"}
    params |= {name: tuple(round(v, 3) for v in rng.normal(size=4))
               for name in ("Y2", "Z2", "X1", "Z1")}
    return make_builtin("coefficient_form", params)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_exponential_form_equals_the_per_index_loop(seed):
    # exact: one max over each stacked (4, 4, ...) defect array
    rng = np.random.default_rng(seed)
    hoho = make_builtin(
        "hoho", {"C": (1.3, 0.4j, -0.2j, 0.9j), "c": (0.8, -0.3, 0.1, 0.5)})
    for system in (make_builtin("hoho"), hoho, _random_exponential_form(rng)):
        coefficients = to_coefficient_form(system)
        for configs in (ConfigGrid().configs(), sample_configs(100, rng)):
            got = exponential_form_residual(coefficients, system.masses,
                                            configs)
            expected = reference_exponential_form(coefficients,
                                                  system.masses, configs)
            assert {key: got[key] for key in expected} == expected


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
def gradient_report():
    return classify_gauge(_gradient_pair())


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
    # Phi(b) = 0 exactly, so the closed form needs no constant shift
    assert np.max(np.abs(recovered.real - expected)) < 1e-12
    for sector in ("gamma5_1", "gamma5_2", "gamma5_12"):
        assert np.max(np.abs(gradient_report.gauge_components[sector])) < 1e-12


# exact gauges in x2_0, which the default grid holds at 0 and the gradient
# check moves
_EXACT_GAUGES = {
    "cos": {"W1": ("cos(x1_0 + x2_0)", 0, 0, 0),
            "W2": ("cos(x1_0 + x2_0)", 0, 0, 0)},
    "exp": {"W1": ("exp(x2_0)", 0, 0, 0), "W2": ("x1_0*exp(x2_0)", 0, 0, 0)},
}


@pytest.mark.parametrize("name", sorted(_EXACT_GAUGES))
def test_exact_gauge_checks_read_round_off(name):
    report = classify_gauge(
        make_builtin("coefficient_form", _EXACT_GAUGES[name]))
    assert report.verdict == GAUGE_REMOVABLE
    assert report.triangle_sup <= 1e-12
    assert report.gradient_match_sup <= 1e-12


def _sin_sum_phase(x):
    """Phi of the cos pair: sin(x1_0 + x2_0) - sin(x1_0) - sin(x2_0)."""
    a, t = x[..., 0, 0], x[..., 1, 0]
    return np.sin(a + t) - np.sin(a) - np.sin(t)


def _crossed_phase(x):
    """Phi of W1 = cos(x2_3): x1_0 (sin(x2_3)/x2_3 - 1), 0 at x2_3 = 0."""
    return x[..., 0, 0] * (np.sinc(x[..., 1, 3] / np.pi) - 1)


@pytest.mark.parametrize("params,axes,phase", [
    (_EXACT_GAUGES["cos"], ((1, 0), (2, 3)), _sin_sum_phase),
    (_EXACT_GAUGES["cos"], ((1, 0), (2, 0)), _sin_sum_phase),
    ({"W1": ("cos(x2_3)", 0, 0, 0)}, ((1, 0), (2, 3)), _crossed_phase),
], ids=["cos pair", "cos pair on time axes", "crossed"])
def test_gauge_components_match_closed_forms(params, axes, phase):
    grid = ConfigGrid(axes=axes)
    report = classify_gauge(make_builtin("coefficient_form", params),
                            grid=grid)
    recovered = report.gauge_components["unit"]
    assert np.max(np.abs(recovered - phase(grid.configs()))) < 1e-12
    for sector in ("gamma5_1", "gamma5_2", "gamma5_12"):
        assert np.max(np.abs(report.gauge_components[sector])) == 0.0


def test_gauge_components_match_mpmath_quadrature():
    # no closed form: Phi(x) = int_0^1 h(s x) . x ds by tanh-sinh quadrature,
    # on the default grid, which moves a = x1_0 and z = x2_3 away from b = 0
    system = make_builtin("coefficient_form", {
        "W1": ("exp(0.5*x2_3)*cos(x1_0*x2_3)", 0, 0, 0),
        "W2": (0, 0, 0, "(1 + 0.5*i)*sin(x1_0 - x2_3)^2")})

    def f1(a, z):
        return mpmath.exp(z / 2) * mpmath.cos(a * z)

    def f2(a, z):
        return (1 + 0.5j) * mpmath.sin(a - z) ** 2

    def phase(a, z):
        return complex(mpmath.quad(
            lambda s: (f1(s * a, s * z) - f1(s * a, 0)) * a
            + (f2(s * a, s * z) - f2(0, s * z)) * z, [0, 1]))

    configs = ConfigGrid().configs()
    expected = np.vectorize(phase)(configs[..., 0, 0], configs[..., 1, 3])
    report = classify_gauge(system)
    assert report.verdict == INTERACTING
    assert np.max(np.abs(report.gauge_components["unit"] - expected)) < 1e-12


@pytest.mark.parametrize("sector,fields", [
    ("unit", ("W1", "W2")),
    ("gamma5_2", ("X1", "X2")),
    ("gamma5_1", ("Y1", "Y2")),
    ("gamma5_12", ("Z1", "Z2")),
])
def test_gradient_pair_lands_in_its_gamma5_sector(sector, fields):
    # a sector is the gamma5 content of both factors; a gradient split
    # across two sectors would fail the cross-curl condition
    field1, field2 = fields
    system = make_builtin("coefficient_form", {
        field1: ("cos(x1_0 + x2_3)", 0, 0, 0),
        field2: (0, 0, 0, "cos(x1_0 + x2_3)")})
    report = classify_gauge(system)
    assert report.verdict == GAUGE_REMOVABLE
    assert set(report.gauge_components) == {
        "unit", "gamma5_1", "gamma5_2", "gamma5_12"}
    for label, component in report.gauge_components.items():
        assert (np.max(np.abs(component)) > 0.1) == (label == sector)


def test_zero_fields_gauge_removable():
    report = classify_gauge(make_builtin("free"))
    assert report.verdict == GAUGE_REMOVABLE
    assert np.max(np.abs(report.gauge_components["unit"])) == 0.0


def test_hoho_f_sector_gauge_removable():
    report = classify_gauge(make_builtin("hoho"))
    assert report.verdict == GAUGE_REMOVABLE
    assert report.integrability_sup == 0.0
    assert np.max(np.abs(report.gauge_components["gamma5_1"])) < 1e-12


def test_cross_curl_violation_is_interacting():
    system = make_builtin("coefficient_form",
                          {"W1": ("cos(x2_3)", 0, 0, 0), "name": "crossed"})
    report = classify_gauge(system)
    assert report.verdict == INTERACTING
    assert report.cross_curl_sup == pytest.approx(np.sin(1.0), abs=1e-10)


def test_cross_curl_off_the_grid_plane_is_interacting():
    # the grid moves x1_0 and x2_3 only; the cross curl -sin(x2_0) vanishes
    # on its plane, so only the probes off it see the obstruction
    system = make_builtin("coefficient_form", {"W1": ("cos(x2_0)", 0, 0, 0)})
    samples = sample_configs(100, np.random.default_rng(0))
    assert check_consistency(system, samples).verdict == "INCONSISTENT"
    report = classify_gauge(system)
    assert report.verdict == INTERACTING
    probes = ConfigGrid().probes()
    assert report.cross_curl_sup == np.max(np.abs(np.sin(probes[:, 1, 0])))
    assert report.cross_curl_sup > 0.5
    assert classify_interaction(system).verdict == INTERACTING


def test_probes_are_the_grid_then_a_fixed_box_sample():
    grid = ConfigGrid(values=(-0.5, 0.0, 2.0),
                      base=((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, -1.0, 0.0)))
    probes = grid.probes()
    assert probes.shape == (9 + 64, 2, 4)
    assert np.array_equal(probes[:9], grid.configs().reshape(-1, 2, 4))
    offsets = probes[9:] - grid.base_array()
    assert np.all((offsets >= -0.5) & (offsets <= 2.0))
    assert np.all(np.ptp(probes[9:], axis=0) > 1.0)  # all eight coordinates
    assert np.array_equal(probes, grid.probes())


_ALPHA_FIELDS = ("W1", "X1", "Y1", "Z1", "W2", "X2", "Y2", "Z2")


def _random_field(rng, count: int) -> tuple:
    """count random components amp cos(k1 x1_a + k2 x2_b + phase), each
    depending on both particles; the amplitude is complex."""
    out: list = [0] * 4
    for mu in rng.choice(4, count, replace=False):
        re, im = rng.uniform(0.5, 1.0, 2) * rng.choice([-1, 1], 2)
        (k1, k2), (a, b) = rng.uniform(-1, 1, 2), rng.integers(4, size=2)
        out[mu] = (f"(({re:.3f}) + ({im:.3f})*i)*cos(({k1:.3f})*x1_{a}"
                   f" + ({k2:.3f})*x2_{b} + ({rng.uniform(-3, 3):.3f}))")
    return tuple(out)


@pytest.mark.parametrize("rep_name", ["dirac", "weyl"])
def test_cross_curl_matches_reference_on_random_systems(request, rng,
                                                        rep_name):
    """The cross curls read off E(1,2) equal the derivatives written out,
    at the same probes, and the traces of the derivative matrices in
    either representation.

    Every alpha field depends on both particles; every other system adds
    gamma fields and masses, which never reach cc1..cc4.  The fixture's
    seed draws the same systems for both representations.
    """
    rep = request.getfixturevalue(rep_name)
    grid = ConfigGrid(values=(-0.8, 0.1, 0.9))
    for index in range(20):
        params = {name: _random_field(rng, 2) for name in _ALPHA_FIELDS}
        if index % 2:
            params |= {name: _random_field(rng, 1) for name in FIELD_NAMES
                       if name not in _ALPHA_FIELDS}
            params |= {"m1": rng.uniform(0.5, 2.0), "m2": rng.uniform(0.5, 2.0)}
        system = make_builtin("coefficient_form", params)
        report = classify_gauge(system, grid=grid)
        expected = reference_cross_curl(to_coefficient_form(system),
                                        grid.probes())
        assert expected >= 0.1, index
        assert report.cross_curl_sup == expected, index
        assert reference_matrix_cross_curl(system, grid.probes(), rep) \
            == pytest.approx(expected, rel=1e-12), index


def test_gauge_analysis_runs_the_guards():
    system = _gradient_pair()
    guarded = replace(system, potentials=(
        replace(system.potential(1), guards=(Guard(Const(1.0), 2.0, "one"),)),
        system.potential(2)))
    with pytest.raises(DomainError, match="guard violated"):
        classify_gauge(guarded)


def test_marginal_violation_is_undecided():
    system = make_builtin("coefficient_form", {
        "W1": ("0.000000005*cos(x2_3)", 0, 0, 0), "name": "marginal"})
    report = classify_gauge(system)
    assert report.verdict == UNDECIDED
    assert 1e-9 <= report.integrability_sup < 1e-8


@pytest.mark.parametrize("params", [
    {"W1": (0, "x1_2 * x2_3", 0, 0)},
    {"W1": ("cos(x2_0)", "x1_2*sin(x2_1)", 0, 0),
     "Z2": (0, "3*x1_0*x2_3", 0, 0)},
    {"X1": ("exp(x1_1*x2_2)", 0, "x1_0*x2_0^2", 0)},
], ids=["twisted", "mixed", "exponential"])
def test_locality_sup_equals_the_running_maximum(params):
    system = make_builtin("coefficient_form", params)
    report = classify_gauge(system)
    assert report.locality_sup == reference_locality(
        report.coefficients, ConfigGrid().probes())


def test_locality_defect_detected():
    # in-particle curl of f_1 depends on particle 2: not removable
    system = make_builtin("coefficient_form", {
        "W1": (0, "x1_2 * x2_3", 0, 0), "name": "twisted"})
    report = classify_gauge(system)
    assert report.locality_sup == pytest.approx(1.0, abs=1e-10)
    assert report.verdict == INTERACTING


def test_constant_shift_leaves_gauge_analysis_unchanged(gradient_report):
    system = make_builtin("coefficient_form", {
        "W1": ("cos(x1_0 + x2_3) + 0.7", 0, 0, 0),
        "W2": (0, 0, 0, "cos(x1_0 + x2_3) - 0.3"),
        "name": "gradient_pair_shifted"})
    report = classify_gauge(system)
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
    assert "coefficients" not in data


# ---------------------------------------------------------------------------
# Combined classification
# ---------------------------------------------------------------------------

def test_classify_hoho_interacting():
    report = classify_interaction(make_builtin("hoho"))
    assert report.verdict == INTERACTING
    assert report.gauge.verdict == GAUGE_REMOVABLE
    assert report.witness == pytest.approx(8.0, abs=1e-9)
    assert report.gamma_sector_sup > 0.9


def test_classify_gradient_pair_removable():
    report = classify_interaction(_gradient_pair())
    assert report.verdict == GAUGE_REMOVABLE
    assert report.gamma_sector_sup == 0.0
    assert report.witness is None


def test_classify_unknown_gamma_sector_undecided():
    system = make_builtin("coefficient_form",
                          {"A": (0, 0, 0, "x2_3"), "name": "gamma_mystery"})
    report = classify_interaction(system)
    assert report.verdict == UNDECIDED
    assert report.gamma_sector_sup == pytest.approx(1.0)


def test_classify_with_a_non_constant_alpha_sector_is_undecided():
    # the gamma sector is present, but W1 = x2_0 puts the pair outside the
    # exponential family, whose ODEs need constant alpha-sector fields
    system = make_builtin("coefficient_form", {"W1": ("x2_0", 0, 0, 0),
                                               "A": (1, 0, 0, 0)})
    report = classify_interaction(system)
    assert report.verdict == UNDECIDED
    assert report.witness is None


@pytest.mark.parametrize("params,verdict", [
    ({"Y2": (0, 0, 0, 1)}, INTERACTING),
    ({"X1": (0, 0, 0, 1)}, INTERACTING),
    ({"Y2": (0, 0, 0, 1), "m1": 0.0}, GAUGE_REMOVABLE),
], ids=["Y2", "X1", "Y2 massless"])
def test_a_gamma5_sector_mass_obstruction_is_interacting(params, verdict):
    """A constant gamma5_j-sector field of V_k has no curl, so its f-sector
    reads GAUGE_REMOVABLE; but unless m_j = 0, m_j [gamma0_j, V_k] puts it
    in E(1,2)'s cc6 or cc10: the pair is inconsistent, so no pure gauge."""
    system = make_builtin("coefficient_form", params)
    report = classify_interaction(system)
    assert report.gauge.verdict == GAUGE_REMOVABLE
    assert report.gamma_sector_sup == 0.0
    assert report.verdict == verdict
    check = check_consistency(system, ConfigGrid().probes())
    assert (check.verdict == "CONSISTENT") == (verdict == GAUGE_REMOVABLE)


def test_classify_skips_witness_outside_exponential_family():
    # the witness would be ||[0.5 gamma5_1, m1 gamma0_1]|| > 0, but
    # d_{2,0}^2 A_3 = 0 != 4 (Z2_0^2 - Y2_0^2) A_3 = -x2_3 rules the pair
    # out of the exponential family
    system = make_builtin("coefficient_form",
                          {"A": (0, 0, 0, "x2_3"), "Y2": (0.5, 0, 0, 0)})
    report = classify_interaction(system)
    assert report.verdict == UNDECIDED
    assert report.witness is None
    assert interaction_witness_hoho(system) > 1.0


@pytest.mark.parametrize("system", [
    make_builtin("free"), make_builtin("hoho"),
    make_builtin("coefficient_form"), _gradient_pair(),
    make_builtin("coefficient_form", {"W1": ("x2_0", 0, 0, 0),
                                      "W2": ("x1_0", 0, 0, 0)}),
    make_builtin("coefficient_form", {"W1": ("cos(x2_0)", 0, 0, 0)}),
], ids=["free", "hoho", "coefficient_form", "gradient_pair",
        "linear_gradient_pair", "cos_W1"])
def test_classify_interaction_hands_on_the_gauge_report(system):
    # classify_interaction runs classify_gauge first and keeps its report
    gauge = classify_interaction(system).gauge
    alone = classify_gauge(system)
    assert gauge.as_dict() == alone.as_dict()
    assert gauge.gauge_components.keys() == alone.gauge_components.keys()
    for label, component in alone.gauge_components.items():
        assert np.array_equal(gauge.gauge_components[label], component)


def test_classification_report_dict():
    data = classify_interaction(make_builtin("hoho")).as_dict()
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
                        element, BinOp("*", Const(value), term.coefficient)))
        mass_matrix = system.mass(k) * embed(rep.gammas[0], k, 2)
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
    report = check_consistency(system, samples)
    gauged_report = check_consistency(gauged, samples)
    assert report.verdict == gauged_report.verdict
    assert np.isclose(report.zeroth_sup, gauged_report.zeroth_sup, atol=1e-9)
    assert np.allclose(report.deriv_coeff_sup, gauged_report.deriv_coeff_sup,
                       atol=1e-9)
