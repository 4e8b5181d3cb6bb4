"""Tests for the line-model propagator and its experiments."""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg

from mtdirac import solver
from mtdirac.clifford import (
    IDENTITY_ELEMENT,
    BasisClass,
    BasisElement,
    realize,
    tensor_element,
)
from mtdirac.dsl import Const
from mtdirac.potential import (
    DomainError,
    MultiTimeSystem,
    Potential,
    PotentialTerm,
    SpecError,
    make_builtin,
    zero_potential,
)
from mtdirac.solver import (
    Grid,
    HolonomyResult,
    Leg,
    WaveFunction,
    apply_curvature,
    curvature_norm,
    evolve_path,
    gaussian_profile,
    holonomy_series,
    loop_holonomy,
    path_independence_experiment,
    product_state,
    spacelike_mask,
    step,
)
from oracles import reference_step


@pytest.fixture(scope="module")
def grid():
    return Grid()


@pytest.fixture()
def psi0(grid):
    return product_state(grid)


# ---------------------------------------------------------------------------
# Grid and states
# ---------------------------------------------------------------------------

def test_grid_geometry(grid):
    assert grid.spacing == pytest.approx(20.0 / 128)
    zs = grid.positions()
    assert zs.shape == (128,)
    assert zs[64] == 0.0
    assert zs[0] == pytest.approx(-10.0)
    kappa = grid.momenta()
    assert kappa[0] == 0.0
    assert np.max(kappa) == pytest.approx(np.pi / grid.spacing, rel=0.05)


def test_grid_validation():
    with pytest.raises(SpecError):
        Grid(points=8)
    with pytest.raises(SpecError):
        Grid(length=-1.0)


def test_product_state_normalized(grid, psi0):
    assert psi0.values.shape == (128, 128, 16)
    assert psi0.norm() == pytest.approx(1.0, abs=1e-12)
    assert psi0.times == (0.0, 0.0)


def test_product_state_layout(grid):
    s1 = np.array([0.0, 1.0, 0.0, 0.0])
    s2 = np.array([0.0, 0.0, 1.0, 0.0])
    psi = product_state(grid, spinor1=s1, spinor2=s2)
    g = gaussian_profile(grid)
    # spin index is s = 4 s1 + s2
    expected_spin = np.kron(s1, s2)
    assert expected_spin[4 * 1 + 2] == 1.0
    i, j = 70, 60
    ratio = psi.values[i, j, 6] / (g[i] * g[j])
    scaled = psi.values / ratio
    assert np.allclose(scaled[i, j], expected_spin * g[i] * g[j], atol=1e-12)


def test_product_state_rejects_bad_spinor(grid):
    with pytest.raises(SpecError):
        product_state(grid, spinor1=np.ones(3))


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------

def test_zero_dt_is_identity(grid, psi0, dirac):
    system = make_builtin("hoho")
    out = step(psi0, 1, 0.0, system, dirac)
    assert out.times == psi0.times
    assert np.array_equal(out.values, psi0.values)
    assert out.values is not psi0.values


def test_oversized_dt_rejected(grid, psi0, dirac):
    system = make_builtin("free")
    with pytest.raises(SpecError):
        step(psi0, 1, 0.2, system, dirac)


def test_massless_packet_translates_at_light_speed(grid, dirac):
    system = make_builtin("free", {"m1": 0.0, "m2": 0.0})
    right_mover = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
    psi = product_state(grid, spinor1=right_mover)
    for _ in range(5):
        psi = step(psi, 1, 0.1, system, dirac)
    assert psi.times == (pytest.approx(0.5), 0.0)
    expected = product_state(grid, spinor1=right_mover, centers=(0.5, 0.0))
    assert np.max(np.abs(psi.values - expected.values)) < 1e-8


def test_massive_packet_disperses_not_translates(grid, dirac):
    system = make_builtin("free")
    right_mover = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
    psi = product_state(grid, spinor1=right_mover)
    for _ in range(5):
        psi = step(psi, 1, 0.1, system, dirac)
    shifted = product_state(grid, spinor1=right_mover, centers=(0.5, 0.0))
    assert psi.distance(shifted) > 1e-2


def test_step_advances_only_one_time(grid, psi0, dirac):
    system = make_builtin("hoho")
    out = step(psi0, 2, 0.1, system, dirac)
    assert out.times == (0.0, pytest.approx(0.1))


def test_norm_conserved_over_100_steps(grid, psi0, dirac):
    system = make_builtin("hoho")
    psi = psi0
    for i in range(100):
        psi = step(psi, 1 + i % 2, 0.05, system, dirac)
    assert abs(psi.norm() - 1.0) < 1e-10


def test_norm_conserved_with_space_dependent_potential(grid, psi0, dirac):
    system = make_builtin("hoho", {"c": (1.0, 0.0, 0.0, 0.5)})
    psi = step(psi0, 1, 0.1, system, dirac)
    psi = step(psi, 2, 0.1, system, dirac)
    assert abs(psi.norm() - 1.0) < 1e-10


def test_backward_step_inverts_forward(grid, psi0, dirac):
    system = make_builtin("hoho")
    there = step(psi0, 1, 0.1, system, dirac)
    back = step(there, 1, -0.1, system, dirac)
    assert back.times == (pytest.approx(0.0, abs=1e-15), 0.0)
    assert back.distance(psi0) < 1e-12


def test_declared_hermitian_violation_rejected(grid, psi0, dirac):
    system = make_builtin("coefficient_form", {
        "W1": ("i", 0, 0, 0), "hermitian": True, "name": "fake_hermitian"})
    with pytest.raises(SpecError, match="hermitian"):
        step(psi0, 1, 0.1, system, dirac)


def test_coulomb_singularity_raises_domain_error(grid, psi0, dirac):
    system = make_builtin("coulomb_like")
    with pytest.raises(DomainError):
        step(psi0, 1, 0.1, system, dirac)


def test_grid_antihermitian_coefficient_rejected(grid, psi0, dirac):
    system = make_builtin("coefficient_form", {
        "W1": (0, 0, 0, "i*cos(x1_3 - x2_3)"), "hermitian": True})
    with pytest.raises(SpecError, match="hermitian"):
        step(psi0, 1, 0.1, system, dirac)


def test_non_finite_potential_raises_domain_error(grid, psi0, dirac):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        system = make_builtin("coefficient_form",
                              {"E": ("exp(100*x1_3)", 0, 0, 0)})
        with pytest.raises(DomainError, match="not finite"):
            step(psi0, 2, 0.1, system, dirac)
        # a finite potential whose exponential overflows
        system = make_builtin("coefficient_form",
                              {"E": ("1e4*i*x1_3", 0, 0, 0)})
        with pytest.raises(DomainError, match="not finite"):
            step(psi0, 2, 0.1, system, dirac)


_SINGLE_ELEMENTS = [BasisElement(cls, mu) for cls in BasisClass
                    for mu in range(4)]


@pytest.mark.parametrize("particle", [1, 2])
def test_closed_form_phase_matches_expm(particle, dirac):
    """Every pair of single-particle elements, commuting or not."""
    rng = np.random.default_rng(7)
    grid = Grid(points=16)

    def on_particle(element):
        factors = [IDENTITY_ELEMENT, IDENTITY_ELEMENT]
        factors[particle - 1] = element
        return tensor_element(*factors)

    for first, second in itertools.combinations_with_replacement(
            _SINGLE_ELEMENTS, 2):
        weights = rng.normal(size=2) + 1j * rng.normal(size=2)
        terms = tuple(PotentialTerm(on_particle(element), Const(weight))
                      for element, weight in zip((first, second), weights))
        potentials = [zero_potential(1), zero_potential(2)]
        potentials[particle - 1] = Potential(particle, 2, terms)
        system = MultiTimeSystem("pair", 2, (1.0, 1.0), tuple(potentials),
                                 hermitian=False)
        phase = solver._potential_phase(system, particle, (0.0, 0.0), 0.1,
                                        grid, dirac)
        v = sum(weight * realize(term.structure, dirac)
                for weight, term in zip(weights, terms))
        expected = scipy.linalg.expm(-0.05j * v)
        assert np.max(np.abs(phase - expected)) <= 1e-13, (first, second)


@pytest.mark.parametrize("argv", [
    ("hoho", {"c": (1.0, 0.0, 0.0, 0.5)}),
    ("coefficient_form", {"W1": (0, 0, 0, "0.5*cos(x1_3 - x2_3)"),
                          "E": ("0.5*sin(x1_3 + x2_3)", 0, 0, 0)}),
], ids=["hoho", "coefficient_form"])
def test_grid_phase_workloads_take_closed_form(argv, dirac, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense phase used")

    monkeypatch.setattr(solver.np.linalg, "eigh", refuse)
    monkeypatch.setattr(solver.scipy.linalg, "expm", refuse)
    system = make_builtin(*argv)
    psi = product_state(Grid(points=64))
    for particle in (1, 2, 1, 2):
        psi = step(psi, particle, 0.05, system, dirac)
    assert abs(psi.norm() - 1.0) < 1e-10


_ORACLE_SYSTEMS = {
    "time-only hermitian phase": ("hoho", {}),
    "grid hermitian phase": ("hoho", {"c": (1.0, 0.0, 0.0, 0.5)}),
    # V_2 varies over the grid unevenly in z_1 and z_2
    "grid hermitian phase on V_2": ("coefficient_form", {
        "E": ("0.5*sin(x1_3 + 2*x2_3)", 0, 0, 0), "hermitian": True}),
    "grid expm phase": ("coefficient_form", {
        "W1": (0, 0, 0, "0.5*cos(x1_3 - x2_3)"),
        "E": ("0.5*sin(x1_3 + 2*x2_3)", 0, 0, 0)}),
    # alpha3 x 1 and alpha3 x gamma5 commute: two classes, both on the grid
    "two commuting classes": ("coefficient_form", {
        "W1": (0, 0, 0, "0.5*cos(x1_3 - x2_3)"),
        "X1": (0, 0, 0, "0.2*cos(x2_3)")}),
    # gamma0 x 1 anticommutes with both: not a union of cliques
    "dense phase, not a union of cliques": ("coefficient_form", {
        "W1": (0, 0, 0, "0.5*cos(x1_3 - x2_3)"),
        "X1": (0, 0, 0, "0.2*cos(x2_3)"),
        "A": ("0.3*sin(x1_3)", 0, 0, 0)}),
    "non-hermitian grid phase": ("hoho", {
        "C": (1.0, 0.3, 0.0, 0.0), "c": (1.0, 0.0, 0.0, 0.5)}),
    "zero potential": ("free", {}),
}


@pytest.mark.parametrize("dt", [0.1, -0.1])
@pytest.mark.parametrize("particle", [1, 2])
@pytest.mark.parametrize("label", sorted(_ORACLE_SYSTEMS))
def test_step_matches_einsum_reference(label, particle, dt, dirac):
    name, params = _ORACLE_SYSTEMS[label]
    system = make_builtin(name, params)
    small = Grid(points=16)
    psi = product_state(small, spinor1=(0.6, 0.2j, -0.5, 0.3),
                        spinor2=(0.1, 0.7, 0.4j, -0.2),
                        momenta=(0.8, -0.5), times=(0.3, -0.2))
    out = step(psi, particle, dt, system, dirac)
    expected = reference_step(psi, particle, dt, system, dirac)
    deviation = np.sqrt(np.sum(np.abs(out.values - expected) ** 2)) \
        * small.spacing
    assert deviation <= 1e-13


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

def test_empty_path_returns_state(grid, psi0, dirac):
    assert evolve_path(psi0, [], make_builtin("free"), dirac) is psi0


def test_leg_validation():
    with pytest.raises(SpecError):
        Leg(3, 1.0, 0.1)
    with pytest.raises(SpecError):
        Leg(1, -1.0, 0.1)
    with pytest.raises(SpecError):
        Leg(1, 1.0, -0.1)
    with pytest.raises(SpecError):
        Leg(1, 1.0, 0.1, direction=0)
    with pytest.raises(SpecError):
        Leg(1, 0.35, 0.1).steps()
    assert Leg(1, 0.5, 0.1).steps() == 5
    assert Leg(1, 0.0, 0.1).steps() == 0


def test_free_orders_commute(grid, psi0, dirac):
    result = path_independence_experiment(
        make_builtin("free"), psi0, 0.2, [0.1, 0.05], dirac)
    for _, discrepancy in result.rows:
        assert discrepancy < 1e-10


def test_consistent_system_discrepancy_is_splitting_error(grid, psi0, dirac):
    result = path_independence_experiment(
        make_builtin("hoho"), psi0, 0.5, [0.1, 0.05, 0.025], dirac)
    discrepancies = [row[1] for row in result.rows]
    assert discrepancies[0] > discrepancies[-1]
    assert result.fitted_order >= 1.8


def test_inconsistent_system_discrepancy_saturates(grid, psi0, dirac):
    result = path_independence_experiment(
        make_builtin("example1_vector"), psi0, 1.0, [0.1, 0.05], dirac)
    discrepancies = [row[1] for row in result.rows]
    assert all(d > 1e-3 for d in discrepancies)
    assert abs(discrepancies[0] - discrepancies[1]) < 0.2 * discrepancies[1]
    assert result.fitted_order < 0.5


# ---------------------------------------------------------------------------
# Holonomy and the curvature oracle
# ---------------------------------------------------------------------------

def test_free_loop_holonomy_negligible(grid, psi0, dirac):
    assert loop_holonomy(make_builtin("free"), psi0, 0.05, dirac) < 1e-9


def test_curvature_norm_example1(grid, psi0, dirac):
    # F = 2 m2 gamma3 on particle 2, and gamma3 is norm-preserving
    assert curvature_norm(
        make_builtin("example1_vector"), psi0, dirac) == pytest.approx(2.0)
    assert curvature_norm(
        make_builtin("example1_vector", {"m2": 2.5}), psi0,
        dirac) == pytest.approx(5.0)


def test_curvature_vanishes_for_consistent_systems(grid, psi0, dirac):
    assert curvature_norm(make_builtin("free"), psi0, dirac) == 0.0
    assert curvature_norm(make_builtin("hoho"), psi0, dirac) < 1e-10


def test_holonomy_matches_grid_curvature(grid, psi0, dirac):
    system = make_builtin("example1_vector")
    reference = curvature_norm(system, psi0, dirac)
    result = holonomy_series(system, psi0, [0.08, 0.04, 0.02], dirac)
    ratios = [row[2] for row in result.rows]
    assert abs(ratios[-1] - reference) < 0.1 * reference
    assert abs(ratios[-1] - ratios[-2]) < 0.1 * ratios[-1]


def test_consistent_loop_deviation_superquadratic(grid, psi0, dirac):
    result = holonomy_series(
        make_builtin("hoho"), psi0, [0.08, 0.04, 0.02], dirac)
    assert result.fitted_slope >= 0.5  # deviation itself decays >= 2.5
    deviations = [row[1] for row in result.rows]
    slope = np.polyfit(np.log([0.08, 0.04, 0.02]), np.log(deviations), 1)[0]
    assert slope >= 2.5


def test_holonomy_stable_under_grid_refinement(dirac):
    system = make_builtin("example1_vector")
    ratios = []
    for n in (128, 256):
        fine = Grid(points=n)
        psi = product_state(fine)
        deviation = loop_holonomy(system, psi, 0.04, dirac)
        ratios.append(deviation / 0.04 ** 2)
    assert abs(ratios[0] - ratios[1]) < 0.05 * ratios[1]


def test_apply_curvature_uses_first_order_parts(grid, psi0, dirac):
    # V_1 = alpha2^1 does not commute with alpha2^3, so the curvature
    # picks up a d/dz_2 term on top of its constant part.
    from mtdirac.clifford import reconstruct
    from mtdirac.consistency import curvature_operator

    system = make_builtin("example1_vector", {"A": (0, 1.0, 0, 0)})
    image = apply_curvature(system, psi0, dirac)
    assert image.shape == (128, 128, 16)
    operator = curvature_operator(
        system, np.array([[0.0, 0, 0, 0], [0.0, 0, 0, 0]]), dirac)
    first = reconstruct(operator.first[(2, 3)], 2, dirac)
    assert np.max(np.abs(first)) > 1.0
    zeroth_only = np.einsum("ij,...j->...i",
                            reconstruct(operator.zeroth, 2, dirac), psi0.values)
    assert np.max(np.abs(image - zeroth_only)) > 0.01


def test_fitted_slope_handles_degenerate_rows():
    result = HolonomyResult(((0.1, 0.0, 0.0), (0.05, 0.0, 0.0)))
    assert np.isnan(result.fitted_slope)
    repeated = HolonomyResult(((0.1, 1e-3, 0.1), (0.1, 2e-3, 0.2)))
    assert np.isnan(repeated.fitted_slope)


# ---------------------------------------------------------------------------
# Spacelike mask
# ---------------------------------------------------------------------------

def test_spacelike_mask_equal_times(grid):
    mask = spacelike_mask(grid, 0.3, 0.3)
    assert mask.shape == (128, 128)
    assert not mask.diagonal().any()
    assert mask.sum() == 128 * 128 - 128
    assert np.array_equal(mask, mask.T)


def test_spacelike_mask_large_time_gap_empty(grid):
    mask = spacelike_mask(grid, 11.0, 0.0)
    assert not mask.any()


def test_masked_norm_partitions_full_norm(grid, psi0):
    mask = spacelike_mask(grid, 0.5, 0.0)
    part = psi0.norm(mask) ** 2 + psi0.norm(~mask) ** 2
    assert part == pytest.approx(psi0.norm() ** 2, abs=1e-12)
    assert psi0.norm(mask) < psi0.norm()
