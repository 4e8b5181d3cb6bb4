"""Tests for the line-model propagator and its experiments."""

from __future__ import annotations

import collections
import itertools
import json
import resource
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mtdirac import solver
from mtdirac.cli import EXIT_OK, entry
from mtdirac.clifford import (
    IDENTITY_ELEMENT,
    BasisClass,
    BasisElement,
    realize,
    tensor_element,
)
from mtdirac.dsl import Const, parse
from mtdirac.potential import (
    DomainError,
    Guard,
    MultiTimeSystem,
    Potential,
    PotentialTerm,
    SpecError,
    make_builtin,
    zero_potential,
)
from mtdirac.solver import (
    Grid,
    Leg,
    WaveFunction,
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
from oracles import (
    curvature_image,
    product_values,
    reference_add_terms,
    reference_kernel,
    reference_step,
)


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


@pytest.mark.parametrize("points", [32.5, 64.0, 1e9, True, np.bool_(True),
                                    np.float64(64), "64", None])
def test_grid_points_must_be_an_integer(points):
    """A points that is not an integer is a SpecError when the grid is
    made, before any array of that size could be: never numpy's
    ValueError from momenta(), nor a float grid of 1e9 points."""
    with pytest.raises(SpecError, match="not an integer"):
        Grid(20.0, points)


def test_grid_points_may_be_a_numpy_integer():
    grid = Grid(20.0, np.int64(16))
    assert grid.momenta().shape == grid.positions().shape == (16,)


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


@pytest.mark.parametrize("grid, spinor1", [
    (Grid(), np.zeros(4)),
    (Grid(), (np.nan, 0, 0, 0)),
    (Grid(), (1e200, 0, 0, 0)),
    (Grid(length=1e308, points=16), None),  # spacing^2 overflows
    (Grid(length=1e-300, points=16), None),  # spacing^2 underflows
], ids=["zero spinor", "nan spinor", "huge spinor", "huge box", "tiny box"])
def test_product_state_rejects_norm_not_finite_positive(grid, spinor1):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpecError, match="finite and positive"):
            product_state(grid, spinor1=spinor1)


_SPINORS = st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                        allow_infinity=False),
                    min_size=4, max_size=4).filter(
    lambda s: np.linalg.norm(s) > 0.1)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(spinor1=_SPINORS, spinor2=_SPINORS, width=st.floats(0.5, 2.0),
       centers=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       momenta=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
def test_product_state_matches_the_formed_product(spinor1, spinor2, width,
                                                  centers, momenta):
    """A product state's rows, read block by block from its pairs, match
    the formed (g_1 x g_2) x (s_1 x s_2) / ||.|| of the oracle in
    position space, and its fft2 in Fourier space, to 1e-15 of their
    max; its norm is 1 to 1e-14, and component (a, b) of s_1 x s_2 is
    spin index 4 a + b."""
    grid = Grid(points=48)
    psi = product_state(grid, spinor1=spinor1, spinor2=spinor2, width=width,
                        centers=centers, momenta=momenta)
    expected = product_values(grid, spinor1, spinor2, width, centers, momenta)
    for spectral, reference in ((False, expected),
                                (True, np.fft.fft2(expected, axes=(0, 1)))):
        rows = np.concatenate([psi._rows(spectral, rows)
                               for rows in solver._row_blocks(grid.points)])
        assert np.max(np.abs(rows - reference)) <= 1e-15 * np.max(
            np.abs(reference))
    assert abs(psi.norm() - 1) <= 1e-14
    profile = np.multiply.outer(*(gaussian_profile(grid, width, c, p)
                                  for c, p in zip(centers, momenta)))
    scale = np.sqrt(np.sum(np.abs(profile) ** 2)) * grid.spacing * (
        np.linalg.norm(spinor1) * np.linalg.norm(spinor2))
    for a, b in itertools.product(range(4), repeat=2):
        column = profile * spinor1[a] * spinor2[b] / scale
        assert np.allclose(psi.values[..., 4 * a + b], column, rtol=0,
                           atol=1e-14)


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------

def test_zero_dt_is_identity(grid, psi0):
    system = make_builtin("hoho")
    out = step(psi0, 1, 0.0, system)
    assert out.times == psi0.times
    assert np.array_equal(out.values, psi0.values)
    assert out.values is not psi0.values


def test_oversized_dt_rejected(grid, psi0):
    system = make_builtin("free")
    with pytest.raises(SpecError):
        step(psi0, 1, 0.2, system)


def test_step_of_a_third_particle_rejected(grid, psi0):
    with pytest.raises(SpecError, match="particle must be 1 or 2"):
        step(psi0, 3, 0.1, make_builtin("free"))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_step_is_malformed_input(grid, psi0, value):
    """A non-finite dt or delta is refused before any step, as the same
    value is by path_independence_experiment."""
    system = make_builtin("hoho")
    with pytest.raises(SpecError, match="not finite"):
        step(psi0, 1, value, system)
    with pytest.raises(SpecError, match="not finite"):
        holonomy_series(system, psi0, [value])
    with pytest.raises(SpecError):
        path_independence_experiment(system, psi0, 0.5, [value])


def test_massless_packet_translates_at_light_speed(grid):
    system = make_builtin("free", {"m1": 0.0, "m2": 0.0})
    right_mover = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
    psi = product_state(grid, spinor1=right_mover)
    for _ in range(5):
        psi = step(psi, 1, 0.1, system)
    assert psi.times == (pytest.approx(0.5), 0.0)
    expected = product_state(grid, spinor1=right_mover, centers=(0.5, 0.0))
    assert np.max(np.abs(psi.values - expected.values)) < 1e-8


def test_massive_packet_disperses_not_translates(grid):
    system = make_builtin("free")
    right_mover = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
    psi = product_state(grid, spinor1=right_mover)
    for _ in range(5):
        psi = step(psi, 1, 0.1, system)
    shifted = product_state(grid, spinor1=right_mover, centers=(0.5, 0.0))
    assert psi.distance(shifted) > 1e-2


def test_step_advances_only_one_time(grid, psi0):
    system = make_builtin("hoho")
    out = step(psi0, 2, 0.1, system)
    assert out.times == (0.0, pytest.approx(0.1))


def test_norm_conserved_over_100_steps(grid, psi0):
    system = make_builtin("hoho")
    psi = psi0
    for i in range(100):
        psi = step(psi, 1 + i % 2, 0.05, system)
    assert abs(psi.norm() - 1.0) < 1e-10


def test_norm_conserved_with_space_dependent_potential(grid, psi0):
    system = make_builtin("hoho", {"c": (1.0, 0.0, 0.0, 0.5)})
    psi = step(psi0, 1, 0.1, system)
    psi = step(psi, 2, 0.1, system)
    assert abs(psi.norm() - 1.0) < 1e-10


def test_backward_step_inverts_forward(grid, psi0):
    system = make_builtin("hoho")
    there = step(psi0, 1, 0.1, system)
    back = step(there, 1, -0.1, system)
    assert back.times == (pytest.approx(0.0, abs=1e-15), 0.0)
    assert back.distance(psi0) < 1e-12


def test_declared_hermitian_violation_rejected(grid, psi0):
    system = make_builtin("coefficient_form", {
        "W1": ("i", 0, 0, 0), "hermitian": True, "name": "fake_hermitian"})
    with pytest.raises(SpecError, match="hermitian"):
        step(psi0, 1, 0.1, system)


def test_coulomb_singularity_raises_domain_error(grid, psi0):
    system = make_builtin("coulomb_like")
    with pytest.raises(DomainError):
        step(psi0, 1, 0.1, system)


def test_grid_antihermitian_coefficient_rejected(grid, psi0):
    system = make_builtin("coefficient_form", {
        "W1": (0, 0, 0, "i*cos(x1_3 - x2_3)"), "hermitian": True})
    with pytest.raises(SpecError, match="hermitian"):
        step(psi0, 1, 0.1, system)


def test_non_finite_potential_raises_domain_error(grid, psi0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        system = make_builtin("coefficient_form",
                              {"E": ("exp(100*x1_3)", 0, 0, 0)})
        with pytest.raises(DomainError, match="not finite"):
            step(psi0, 2, 0.1, system)
        # a finite potential whose exponential overflows
        system = make_builtin("coefficient_form",
                              {"E": ("1e4*i*x1_3", 0, 0, 0)})
        with pytest.raises(DomainError, match="not finite"):
            step(psi0, 2, 0.1, system)


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
        phase = solver._multiply_out(solver._potential_phase(
            system, particle, (0.0, 0.0), 0.1, grid))
        v = sum(weight * realize(term.structure, dirac)
                for weight, term in zip(weights, terms))
        expected = scipy.linalg.expm(-0.05j * v)
        assert np.max(np.abs(phase - expected)) <= 1e-13, (first, second)


@pytest.mark.parametrize("argv", [
    ("hoho", {"c": (1.0, 0.0, 0.0, 0.5)}),
    ("coefficient_form", {"W1": (0, 0, 0, "0.5*cos(x1_3 - x2_3)"),
                          "E": ("0.5*sin(x1_3 + x2_3)", 0, 0, 0)}),
], ids=["hoho", "coefficient_form"])
def test_grid_phase_workloads_take_closed_form(argv, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense phase used")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    system = make_builtin(*argv)
    psi = product_state(Grid(points=64))
    for particle in (1, 2, 1, 2):
        psi = step(psi, particle, 0.05, system)
    assert abs(psi.norm() - 1.0) < 1e-10


# time-only coefficients whose structures do not split into classes
_DENSE_TIME_ONLY = {"W1": (0, 0, 0, "0.5*cos(x1_0 - x2_0)"),
                    "X1": (0, 0, 0, "0.2*cos(x2_0)"),
                    "A": ("0.3*sin(x1_0)", 0, 0, 0)}

_ORACLE_SYSTEMS = {
    "time-only hermitian phase": ("hoho", {}),
    "grid hermitian phase": ("hoho", {"c": (1.0, 0.0, 0.0, 0.5)}),
    # V_2 varies over the grid unevenly in z_1 and z_2
    "grid hermitian phase on V_2": ("coefficient_form", {
        "E": ("0.5*sin(x1_3 + 2*x2_3)", 0, 0, 0), "hermitian": True}),
    # one structure per potential: the closed form, never expm
    "closed-form non-hermitian grid phase": ("coefficient_form", {
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
    "dense hermitian phase": ("coefficient_form", {
        "W1": (0, 0, 0, "0.5*cos(x1_3 - x2_3)"),
        "X1": (0, 0, 0, "0.2*cos(x2_3)"),
        "A": ("0.3*sin(x1_3)", 0, 0, 0), "hermitian": True}),
    "dense time-only phase": ("coefficient_form", _DENSE_TIME_ONLY),
    "dense time-only hermitian phase": ("coefficient_form", {
        **_DENSE_TIME_ONLY, "hermitian": True}),
    "non-hermitian grid phase": ("hoho", {
        "C": (1.0, 0.3, 0.0, 0.0), "c": (1.0, 0.0, 0.0, 0.5)}),
    "zero potential": ("free", {}),
    # the free kernel at m = 0 (kappa = 0 takes sinc(0)) and a different
    # mass on each particle
    "massless and unequal masses": ("free", {"m1": 0, "m2": 2.5}),
    # alpha3 x 1 and alpha3 x gamma5 depending only on the times: each
    # time-only phase is the product of two class factors
    "time-only two commuting classes": ("coefficient_form", {
        "W1": (0, 0, 0, "0.5*cos(x1_0 - x2_0)"),
        "X1": (0, 0, 0, "0.2*cos(x2_0)")}),
    # every structure on one particle: V_1's classes {1}, {alpha1 x 1,
    # gamma0 x 1} and {1 x gamma5} lie on neither, particle 1 and particle
    # 2, V_2's {1 x alpha2} and {gamma5 x 1} on 2 and 1
    "time-only one-particle classes on both particles": ("coefficient_form", {
        "W1": ("0.3*cos(x1_0)", "0.2*sin(x2_0)", 0, 0),
        "A": ("0.4*cos(x1_0 - x2_0)", 0, 0, 0),
        "X1": ("0.25*sin(x1_0 + x2_0)", 0, 0, 0),
        "W2": (0, 0, "0.5*cos(x1_0 - x2_0)", 0),
        "Y2": ("0.3*cos(x2_0)", 0, 0, 0), "hermitian": True}),
    # a time-only run on V_1 next to grid steps on V_2: the state goes from
    # the joint Fourier space back to position space inside a path
    "time-only V_1, grid V_2": ("coefficient_form", {
        "W1": (0, 0, 0, "0.5*cos(x1_0 + x2_0)"),
        "E": ("0.5*sin(x1_3 + 2*x2_3)", 0, 0, 0), "hermitian": True}),
}


def _oracle_state() -> WaveFunction:
    return product_state(Grid(points=16), spinor1=(0.6, 0.2j, -0.5, 0.3),
                         spinor2=(0.1, 0.7, 0.4j, -0.2),
                         momenta=(0.8, -0.5), times=(0.3, -0.2))


def _reference_path(psi, legs, system, rep) -> WaveFunction:
    """psi after chained reference steps along (particle, dt, count) legs."""
    for particle, dt, count in legs:
        for _ in range(count):
            values = reference_step(psi, particle, dt, system, rep)
            times = list(psi.times)
            times[particle - 1] += dt
            psi = WaveFunction(psi.grid, tuple(times), values)
    return psi


def test_dense_phase_oracle_system_reaches_expm(monkeypatch):
    calls = []
    expm = scipy.linalg.expm

    def counted(*args, **kwargs):
        calls.append(args)
        return expm(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    name, params = _ORACLE_SYSTEMS["dense phase, not a union of cliques"]
    step(product_state(Grid(points=16)), 1, 0.1, make_builtin(name, params))
    assert len(calls) >= 1


@pytest.mark.parametrize("dt", [0.1, -0.1])
@pytest.mark.parametrize("particle", [1, 2])
@pytest.mark.parametrize("label", sorted(_ORACLE_SYSTEMS))
def test_step_matches_einsum_reference(label, particle, dt, dirac):
    name, params = _ORACLE_SYSTEMS[label]
    system = make_builtin(name, params)
    psi = _oracle_state()
    out = step(psi, particle, dt, system)
    expected = reference_step(psi, particle, dt, system, dirac)
    deviation = np.sqrt(np.sum(np.abs(out.values - expected) ** 2)) \
        * psi.grid.spacing
    assert deviation <= 1e-13


def _free_class(particle: int, mass: float, dt: float):
    """(cos, terms) of the free step's one class, as a leg forms it."""
    hamiltonian = solver.field_sum(
        (Grid().momenta(), solver.unit_field(solver._ALPHA3, particle, 2)),
        (mass, solver.unit_field(solver._GAMMA0, particle, 2)))
    [free] = solver._class_factors(hamiltonian, [list(hamiltonian)], dt,
                                   "dt H")
    return free


@pytest.mark.parametrize("masses", [(1.0, 1.0), (0.0, 0.0), (0.0, 2.5)])
@pytest.mark.parametrize("dt", [0.1, -0.1])
@pytest.mark.parametrize("particle", [1, 2])
@pytest.mark.parametrize("hermitian", [True, False])
def test_class_matrix_matches_phase_free_phase(hermitian, particle, dt,
                                               masses):
    """A time-only kernel formed as one GEMM over the conjugated basis
    P{I, alpha3_k, gamma0_k}P is phase @ free @ phase to 1e-14 relative."""
    rng = np.random.default_rng(
        [hermitian, particle, dt > 0, int(10 * masses[1])])
    phase = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    if hermitian:
        phase = phase + phase.conj().T
    cos, terms = _free_class(particle, masses[particle - 1], dt)
    got = solver._class_matrix(*solver._class_basis(cos, terms), phase)
    want = reference_kernel(phase, (cos, terms))
    assert got.shape == want.shape == (Grid().points, 16, 16)
    scale = np.linalg.norm(want, axis=(-2, -1))
    assert np.all(np.linalg.norm(got - want, axis=(-2, -1)) <= 1e-14 * scale)


def test_class_matrix_without_a_phase_is_the_outer_sum_kernel():
    """The free kernel alone matches the outer sums entry for entry: its
    basis entries are 0, +-1 and +-i, so every product is exact."""
    cos, terms = _free_class(1, 1.5, 0.1)
    want = reference_kernel(np.eye(16), (cos, terms))
    assert np.array_equal(
        solver._class_matrix(*solver._class_basis(cos, terms)), want)


def _random_field(rng, count: int, shape: tuple) -> dict:
    """count distinct two-particle structures with complex weights."""
    elements = rng.choice(len(_SINGLE_ELEMENTS) ** 2, count, replace=False)
    return {tensor_element(*(_SINGLE_ELEMENTS[i] for i in
                             divmod(e, len(_SINGLE_ELEMENTS)))):
            rng.normal(size=shape) + 1j * rng.normal(size=shape)
            for e in elements}


@pytest.mark.parametrize("zero_start", [True, False])
@pytest.mark.parametrize("shape", [(), (16, 1), (1, 16), (16, 16)])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_add_terms_matches_out_of_place_reference(count, shape, zero_start):
    """In-place accumulation through one scratch product is bit for bit
    the term-by-term formula, from a zero start or not."""
    rng = np.random.default_rng(count + 10 * len(shape) + sum(shape))
    values = rng.normal(size=(16, 16, 16)) + 1j * rng.normal(size=(16, 16, 16))
    start = (np.zeros_like(values) if zero_start else
             rng.normal(size=values.shape) + 1j * rng.normal(size=values.shape))
    field = _random_field(rng, count, shape)
    expected = reference_add_terms(start, field, values)
    out = solver._add_terms(start.copy(), field, values)
    assert out.tobytes() == expected.tobytes()


def test_add_terms_holds_one_scratch_product():
    """A 3-term field at n = 64 holds one (n, n, 16) buffer beyond its
    arguments, not two temporaries per term."""
    rng = np.random.default_rng(3)
    shape = (64, 64, 16)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    out = np.zeros_like(values)
    field = _random_field(rng, 3, (64, 64))
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        solver._add_terms(out, field, values)
        held = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert held <= 1.25 * values.nbytes


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

def test_empty_path_returns_state(grid, psi0):
    assert evolve_path(psi0, [], make_builtin("free")) is psi0


def test_zero_step_leg_between_legs_is_skipped(grid, psi0):
    system = make_builtin("hoho")
    out = evolve_path(psi0, [Leg(2, 0.2, 0.1), Leg(1, 0.0, 0.1),
                             Leg(2, 0.1, 0.1, -1)], system)
    assert out.times == (0.0, pytest.approx(0.1))
    without = evolve_path(psi0, [Leg(2, 0.2, 0.1), Leg(2, 0.1, 0.1, -1)],
                          system)
    assert np.array_equal(out.values, without.values)


def test_empty_dt_list_rejected(grid, psi0):
    with pytest.raises(SpecError, match="dt_list must not be empty"):
        path_independence_experiment(make_builtin("hoho"), psi0, 0.5, [])


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("particle", [1, 2])
@pytest.mark.parametrize("label", sorted(_ORACLE_SYSTEMS))
def test_leg_matches_chained_reference_steps(label, particle, direction,
                                             dirac):
    """A fused leg is the same Strang steps: time-only, grid and mixed."""
    name, params = _ORACLE_SYSTEMS[label]
    system = make_builtin(name, params)
    psi = _oracle_state()
    out = evolve_path(psi, [Leg(particle, 0.6, 0.1, direction)], system)
    expected = _reference_path(psi, [(particle, direction * 0.1, 6)], system,
                               dirac)
    assert out.times == expected.times
    assert out.distance(expected) <= 1e-13


@pytest.mark.parametrize("label", sorted(_ORACLE_SYSTEMS))
def test_experiments_match_chained_reference_steps(label, dirac):
    """Discrepancies and deviations taken in the joint Fourier space match
    distances between position-space reference chains: both orders, both
    particles and both signs, to 1e-13 relative to ||psi0|| = 1."""
    name, params = _ORACLE_SYSTEMS[label]
    system = make_builtin(name, params)
    psi = _oracle_state()
    result = path_independence_experiment(system, psi, 0.4, [0.2, 0.1])
    for dt, discrepancy in result.rows:
        count = round(0.4 / dt)
        forward, reverse = (
            _reference_path(psi, [(k, dt, count) for k in order], system,
                            dirac) for order in ((1, 2), (2, 1)))
        assert abs(discrepancy - forward.distance(reverse)) <= 1e-13
    loops = holonomy_series(system, psi, [0.2, 0.1])
    for delta, deviation, _ in loops.rows:
        back = _reference_path(psi, [(1, delta, 1), (2, delta, 1),
                                     (1, -delta, 1), (2, -delta, 1)],
                               system, dirac)
        assert abs(deviation - back.distance(psi)) <= 1e-13


@pytest.mark.parametrize("label", sorted(_ORACLE_SYSTEMS))
def test_solver_never_writes_into_the_callers_values(label):
    """psi0.values stay bit for bit after every entry point, and an
    experiment run twice on the same psi0 gives the same rows."""
    system = make_builtin(*_ORACLE_SYSTEMS[label])
    psi = _oracle_state()
    pristine = psi.values.tobytes()
    calls = [
        lambda: step(psi, 1, 0.1, system),
        lambda: step(psi, 2, -0.1, system),
        lambda: evolve_path(psi, [Leg(1, 0.2, 0.1), Leg(2, 0.2, 0.1, -1)],
                            system),
        lambda: path_independence_experiment(system, psi, 0.2,
                                             [0.1, 0.05]).rows,
        lambda: holonomy_series(system, psi, [0.2, 0.1]).rows,
        lambda: curvature_norm(system, psi),
    ]
    for call in calls:
        first = call()
        assert psi.values.tobytes() == pristine
        if isinstance(first, tuple):
            assert call() == first


def test_hoho_path_matches_chained_steps(grid, psi0):
    system = make_builtin("hoho")
    fused = evolve_path(psi0, [Leg(1, 0.5, 0.025), Leg(2, 0.5, 0.025)],
                        system)
    chained = psi0
    for particle in (1, 2):
        for _ in range(20):
            chained = step(chained, particle, 0.025, system)
    assert fused.times == chained.times
    assert fused.distance(chained) <= 1e-13


def test_alternating_time_only_and_grid_legs_match_chained_steps():
    """With a spatial c, hoho's V_1 varies over the grid and V_2 is
    constant, so the path alternates grid and time-only legs."""
    system = make_builtin("hoho", {"c": (1.0, 0.0, 0.0, 0.5)})
    assert solver._on_grid(system.potential(1))
    assert not solver._on_grid(system.potential(2))
    psi = product_state(Grid(points=16), spinor1=(0.6, 0.2j, -0.5, 0.3),
                        momenta=(0.8, -0.5))
    path = [Leg(1, 0.3, 0.1), Leg(2, 0.7, 0.1), Leg(1, 0.4, 0.1, -1),
            Leg(2, 0.2, 0.1, -1)]
    fused = evolve_path(psi, path, system)
    chained = psi
    for leg in path:
        for _ in range(leg.steps()):
            chained = step(chained, leg.particle, leg.direction * leg.dt,
                           system)
    assert fused.times == chained.times
    assert fused.distance(chained) <= 1e-13
    assert fused.distance(psi) > 0.1


def _counted(monkeypatch, module, names,
             counts=lambda *args, **kwargs: True) -> collections.Counter:
    """Count calls of module's functions by name, in place, those whose
    arguments `counts` accepts."""
    calls = collections.Counter()
    for name in names:
        def counting(*args, _name=name, _original=getattr(module, name),
                     **kwargs):
            calls[_name] += counts(*args, **kwargs)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return calls


def test_time_only_legs_take_no_single_steps(monkeypatch):
    """One phase evaluation per time-only leg whose V_k is not zero, and no
    `step` calls, in both experiments: two orders of two legs per dt, four
    legs a loop; example1_vector's V_2 is zero, so half its legs build no
    phase."""
    calls = _counted(monkeypatch, solver, ["step", "_potential_phase"])
    assert entry(["simulate", "--builtin", "hoho",
                  "--dt", "0.1,0.05,0.025"]) == EXIT_OK
    assert calls == {"_potential_phase": 4 * 3}
    calls.clear()
    assert entry(["simulate", "--builtin", "example1_vector",
                  "--delta", "0.08,0.04,0.02"]) == EXIT_OK
    assert calls == {"_potential_phase": 2 * 3}


@pytest.mark.parametrize("name, particle", [("hoho", 2), ("free", 1)])
def test_constant_leg_by_repeated_squaring_matches_chained_steps(
        name, particle, dirac, monkeypatch):
    """hoho's V_2 is constant and free's V_1 zero, so a 20-step leg on a
    state holding its values raises one kernel to the 20th power by
    repeated squaring: it matches 20 chained steps and 20 chained
    reference steps to 1e-13 on ||psi0|| = 1, in both directions."""
    system = make_builtin(name)
    product = _oracle_state()
    psi = WaveFunction(product.grid, product.times, product.values.copy())
    calls = _counted(monkeypatch, np.linalg, ["matrix_power"])
    for dt in (0.05, -0.05):
        calls.clear()
        fused = evolve_path(psi, [Leg(particle, 1.0, 0.05, round(dt / 0.05))],
                            system)
        assert calls == {"matrix_power": 1}
        chained = psi
        for _ in range(20):
            chained = step(chained, particle, dt, system)
        expected = _reference_path(psi, [(particle, dt, 20)], system, dirac)
        assert fused.times == chained.times == expected.times
        assert fused.distance(chained) <= 1e-13
        assert fused.distance(expected) <= 1e-13
        assert fused.distance(psi) > 0.1


def _formed_copy(psi: WaveFunction) -> WaveFunction:
    """A state holding psi's formed Fourier values and no factors."""
    return WaveFunction._holding(psi.grid, psi.times,
                                 [None, psi._view()._space(True)])


# alpha2 x gamma5 and gamma5 x alpha2 act on both particles, so their legs
# take the array route; alpha2 is antisymmetric, so neither particle's
# P K P is symmetric and a transposed kernel in a GEMM shows
_ENTANGLING = ("coefficient_form", {"X1": (0, 0, "0.5*cos(x1_0 - x2_0)", 0),
                                    "Y2": (0, 0, "0.4*sin(x1_0 + x2_0)", 0),
                                    "hermitian": True})
# alpha2 x 1 and 1 x alpha2: each on one particle, the spin-product route
_ONE_PARTICLE = ("coefficient_form", {"W1": (0, 0, "0.5*cos(x1_0 - x2_0)", 0),
                                      "W2": (0, 0, "0.4*sin(x1_0 + x2_0)", 0),
                                      "hermitian": True})


@pytest.mark.parametrize("particle", [1, 2])
def test_an_entangling_product_state_leg_applies_its_kernels_product(
        particle, dirac, monkeypatch):
    """On a product state a 20-step time-only leg whose V_k acts on both
    particles (a kernel per step) chains its 16x16 kernels and applies
    their product once per mode, to Fourier values formed from the
    state's fields into an array of the leg's own, none kept on psi.
    It matches the leg on the formed state to 1e-14 and 20 chained
    reference steps to 1e-13, both ways."""
    system = make_builtin(*_ENTANGLING)
    psi = _oracle_state()
    formed = _formed_copy(psi)
    squarings = _counted(monkeypatch, np.linalg, ["matrix_power"])
    kernels = _counted(monkeypatch, solver, ["_apply_kernel"])
    for direction in (1, -1):
        squarings.clear()
        kernels.clear()
        path = [Leg(particle, 1.0, 0.05, direction)]
        fused = evolve_path(psi, path, system)
        assert not squarings and kernels == {"_apply_kernel": 1}
        assert psi._known[1] is None
        assert fused._fields is None and fused._known[0] is None
        reference = evolve_path(formed, path, system)
        expected = _reference_path(psi, [(particle, direction * 0.05, 20)],
                                   system, dirac)
        assert fused.times == reference.times == expected.times
        assert fused.distance(reference) <= 1e-14
        assert fused.distance(expected) <= 1e-13
        assert fused.distance(psi) > 0.1


@pytest.mark.parametrize("name, particle", [
    ("hoho", 1), ("hoho", 2), ("free", 1), ("one-particle alpha2", 1),
    ("one-particle alpha2", 2)])
def test_product_state_leg_takes_the_spinor_chain(name, particle, dirac,
                                                  monkeypatch):
    """On a product state a 20-step time-only leg whose V_k acts on one
    particle per structure (hoho's V_1 with a kernel per step, its
    constant V_2, free's zero V_1, alpha2 on either particle) applies
    each 4x4 kernel to particle k's (n, 4) Fourier spinor field and
    leaves a spin product: no 16x16 kernel, no repeated squaring and no
    per-mode matmul over the grid.  It matches the leg on the formed
    state to 1e-14 and 20 chained reference steps to 1e-13, both ways."""
    system = (make_builtin(*_ONE_PARTICLE) if name == "one-particle alpha2"
              else make_builtin(name))
    psi = _oracle_state()
    formed = _formed_copy(psi)
    squarings = _counted(monkeypatch, np.linalg, ["matrix_power"])
    kernels = _counted(monkeypatch, solver, ["_apply_kernel"])
    wide = _counted(monkeypatch, solver, ["_class_matrix"],
                    lambda weights, basis, *args: basis.shape[-1] == 16)
    for direction in (1, -1):
        for counter in (squarings, kernels, wide):
            counter.clear()
        path = [Leg(particle, 1.0, 0.05, direction)]
        fused = evolve_path(psi, path, system)
        assert not +squarings and not +kernels and not +wide
        assert psi._known[1] is None
        assert [solver._field(u).shape for u in fused._fields[1]] == [
            (16, 4)] * 2
        assert fused._known == [None, None]
        reference = evolve_path(formed, path, system)
        expected = _reference_path(psi, [(particle, direction * 0.05, 20)],
                                   system, dirac)
        assert fused.times == reference.times == expected.times
        assert fused.distance(reference) <= 1e-14
        assert fused.distance(expected) <= 1e-13
        assert fused.distance(psi) > 0.1


_TWO_LEG_SYSTEMS = {
    "hoho": ("hoho", {}),
    "example1_vector": ("example1_vector", {}),
    # V_1 varies over the grid: the second leg forms u_2 x g^_1 first
    "hoho, grid V_1": ("hoho", {"c": (1.0, 0.0, 0.0, 0.5)}),
    "one-particle alpha2 on both": _ONE_PARTICLE,
    "time-only alpha2 on both": _ENTANGLING,  # alpha2 x gamma5, gamma5 x alpha2
}


@pytest.mark.parametrize("particles", [(1, 2), (2, 1), (1, 1), (2, 2)])
@pytest.mark.parametrize("label", sorted(_TWO_LEG_SYSTEMS))
def test_two_leg_paths_from_factors_match_the_formed_state(label, particles):
    """A second leg reads what the first left: a spin product's fields,
    or the array an entangling leg formed from them, which a later
    time-only leg writes in place, and a grid leg starts from the formed
    state; each path matches the path on the formed state to 1e-14."""
    system = make_builtin(*_TWO_LEG_SYSTEMS[label])
    psi = _oracle_state()
    path = [Leg(particles[0], 0.3, 0.1), Leg(particles[1], 0.2, 0.1, -1)]
    from_factors = evolve_path(psi, path, system)
    reference = evolve_path(_formed_copy(psi), path, system)
    assert psi._known[1] is None
    assert from_factors.times == reference.times
    assert from_factors.distance(reference) <= 1e-14
    assert from_factors.distance(psi) > 0.01


def test_a_two_leg_time_only_path_forms_one_state_array():
    """At n = 128 a product state's two entangling time-only legs, one per
    particle, form one (n, n, 16) array: the first leg forms psi^ from
    the fields into an array of its own, and the second writes it in
    place.  The legs hold (n, 16, 16) kernel stacks, an eighth of a state
    each: within 2 states (1.65 measured for both orders of this pair),
    and the caller's product state is left holding no array."""
    system = make_builtin(*_ENTANGLING)
    state_bytes = 128 ** 2 * 16 * 16
    psi = product_state(Grid(points=128))
    for particles in ((1, 2), (2, 1)):
        path = [Leg(particles[0], 0.5, 0.05), Leg(particles[1], 0.5, 0.05)]

        def run():
            evolve_path(psi, path, system)
        run()  # warm
        assert _traced_peak(run) <= 2 * state_bytes
        assert psi._known == [None, None]


@pytest.mark.parametrize("particle", [1, 2])
@pytest.mark.parametrize("name", ["hoho", "free"])
def test_first_leg_from_factors_matches_the_formed_state(name, particle,
                                                         monkeypatch):
    """A time-only leg on a product state reads its fields, with no
    per-mode matmul over the grid, and matches the same leg on a copy
    holding the formed psi0^ to 1e-14."""
    system = make_builtin(name)
    psi = product_state(Grid(points=32), spinor1=(0.6, 0.2j, -0.5, 0.3),
                        spinor2=(0.1, 0.7, 0.4j, -0.2), centers=(0.7, -1.1),
                        momenta=(0.8, -0.5), times=(0.3, -0.2))
    formed = _formed_copy(psi)
    path = [Leg(particle, 0.3, 0.1)]
    calls = _counted(monkeypatch, solver, ["_apply_kernel"])
    from_factors = evolve_path(psi, path, system)
    assert not calls and psi._known == [None, None]
    reference = evolve_path(formed, path, system)
    assert calls == {"_apply_kernel": 1}
    assert from_factors.times == reference.times
    assert from_factors._known[0] is None and reference._known[0] is None
    assert from_factors.distance(reference) <= 1e-14
    assert from_factors.distance(psi) > 0.01


@pytest.mark.parametrize("points", [48, 96])
def test_rows_are_slices_of_the_formed_spaces(points):
    """Rows read from a product state's (profile, spinor) pairs, block by
    block, equal the formed spaces' rows bit for bit, the last block (a
    partial one at these sizes) included, and no space is formed to read
    them."""
    blocks = solver._row_blocks(points)
    assert [rows.stop - rows.start for rows in blocks[-2:]] != [
        blocks[0].stop] * 2  # the last block is partial
    psi = product_state(Grid(points=points), spinor1=(0.6, 0.2j, -0.5, 0.3),
                        centers=(0.7, -1.1), momenta=(0.8, -0.5))
    formed = psi._view()
    for spectral in (False, True):
        whole = formed._space(spectral)
        read = [psi._rows(spectral, rows) for rows in blocks]
        assert psi._known == [None, None]
        for rows, block in zip(blocks, read):
            assert block.tobytes() == whole[rows].tobytes()
        assert np.concatenate(read).tobytes() == whole.tobytes()


def _entangled_states(points: int, system) -> list[WaveFunction]:
    """States an entangling time-only path leaves, Fourier arrays formed
    from a product state's fields: after a leg on k, and after legs on k
    and then on j, for k = 1 and 2."""
    psi = product_state(Grid(points=points), spinor1=(0.6, 0.2j, -0.5, 0.3),
                        spinor2=(0.1, 0.7, 0.4j, -0.2), centers=(0.7, -1.1),
                        momenta=(0.8, -0.5), times=(0.3, -0.2))
    states = []
    for k in (1, 2):
        first = [Leg(k, 0.2, 0.1)]
        states += [evolve_path(psi, first, system), evolve_path(
            psi, first + [Leg(3 - k, 0.3, 0.1, -1)], system)]
    assert all(s._fields is None and s._known[0] is None for s in states)
    assert psi._known == [None, None]
    return states


def test_leg_factored_states_passed_back_are_never_written():
    """A state an entangling time-only path left keeps the bytes of its
    Fourier array, and of the position space formed from it, through
    time-only, grid and mixed paths, single steps and both experiments
    taken from it, each experiment run twice alike: on the first pass the
    state holds its Fourier array alone, on the second both spaces."""
    _assert_never_written(_entangled_states(32, make_builtin(*_ENTANGLING)),
                          lambda s: ())


def _assert_never_written(states, factors) -> None:
    """Each state keeps the bytes of its factors(state) and of each space
    formed from them through time-only (both routes), grid and mixed
    paths, single steps and both experiments taken from it, each
    experiment run twice alike, on a pass with factors alone and one
    with both spaces formed as well."""
    systems = [make_builtin(*_ENTANGLING), make_builtin("hoho"),
               make_builtin("hoho", {"c": (1.0, 0.0, 0.0, 0.5)})]
    paths = [[Leg(1, 0.2, 0.1)], [Leg(2, 0.2, 0.1, -1)],
             [Leg(1, 0.2, 0.1), Leg(2, 0.1, 0.1), Leg(1, 0.1, 0.1, -1)]]

    def held(state):
        return [np.asarray(a).tobytes() for a in itertools.chain.from_iterable(
            f if isinstance(f, tuple) else [f] for f in factors(state))] + [
            None if a is None else a.tobytes() for a in state._known]
    for _ in range(2):
        before = [held(s) for s in states]
        for state in states:
            for system in systems:
                for path in paths:
                    evolve_path(state, path, system)
                step(step(state, 1, 0.05, system), 2, -0.05, system)
                step(state, 2, 0.05, system)
                for experiment in (
                        lambda: path_independence_experiment(
                            system, state, 0.6, [0.1, 0.05]).rows,
                        lambda: holonomy_series(system, state,
                                                [0.1, 0.05]).rows):
                    assert experiment() == experiment()
        for state, pristine in zip(states, before):
            assert all(b is None or a == b
                       for a, b in zip(held(state), pristine))
            state._space(False), state._space(True)  # both, for the next pass


def _spin_product_states(points: int) -> list[WaveFunction]:
    """Spin products a time-only path leaves: after a leg on k alone and
    after legs on k and then on j, for k = 1 and 2, with alpha2 on each
    particle's own spinor, and after hoho's leg on 2, whose V_2 touches
    particle 1's field only by a constant, g^_1 x s_1."""
    psi = product_state(Grid(points=points), spinor1=(0.6, 0.2j, -0.5, 0.3),
                        spinor2=(0.1, 0.7, 0.4j, -0.2), centers=(0.7, -1.1),
                        momenta=(0.8, -0.5), times=(0.3, -0.2))
    system, states = make_builtin(*_ONE_PARTICLE), []
    for k in (1, 2):
        first = [Leg(k, 0.2, 0.1)]
        states += [evolve_path(psi, first, system), evolve_path(
            psi, first + [Leg(3 - k, 0.3, 0.1, -1)], system)]
    states.append(evolve_path(psi, [Leg(2, 0.2, 0.1)], make_builtin("hoho")))
    assert [[type(f) for f in s._fields[1]] for s in states] == [
        [np.ndarray, tuple], [np.ndarray] * 2, [tuple, np.ndarray],
        [np.ndarray] * 2, [tuple, np.ndarray]]
    return states


@pytest.mark.parametrize("points", [48, 96])
def test_rows_of_spin_products_are_slices_of_the_formed_spaces(points):
    """Rows of either space read from a spin product's (n, 4) fields,
    block by block, equal its formed space's rows bit for bit, the
    partial last block included, and no space is formed to read them;
    distances between spin products, and to psi0, equal those between
    copies holding their formed Fourier values to 1e-14."""
    states = _spin_product_states(points)
    blocks = solver._row_blocks(points)
    for state in states:
        for spectral in (True, False):
            read = [state._rows(spectral, rows) for rows in blocks]
            assert state._known == [None, None]
            whole = state._view()._space(spectral)
            for rows, block in zip(blocks, read):
                assert block.tobytes() == whole[rows].tobytes()
    psi0 = product_state(Grid(points=points), spinor1=(0.6, 0.2j, -0.5, 0.3),
                         spinor2=(0.1, 0.7, 0.4j, -0.2), centers=(0.7, -1.1),
                         momenta=(0.8, -0.5), times=(0.3, -0.2))
    states.append(psi0)
    pairs = list(itertools.combinations(range(len(states)), 2))
    factored = [states[a].distance(states[b]) for a, b in pairs]
    assert all(s._known == [None, None] for s in states)
    copies = [WaveFunction._holding(s.grid, s.times, [None, s._space(True)])
              for s in states]
    formed = [copies[a].distance(copies[b]) for a, b in pairs]
    assert np.allclose(factored, formed, rtol=0, atol=1e-14)
    assert min(factored) > 0.01


def test_spin_products_passed_back_are_never_written():
    """A spin product keeps the bytes of its fields, and of each space
    formed from them, through every path and experiment taken from it."""
    _assert_never_written(_spin_product_states(32),
                          lambda s: s._pair(False) + s._pair(True))


@pytest.mark.parametrize("particle", [1, 2])
def test_an_entangling_leg_splits_a_spin_product_with_a_pair(particle):
    """After hoho's leg on 2, particle 1's field is still g^_1 x s_1; an
    entangling leg on either particle forms the Fourier values from the
    fields into an array of its own, the spin product left holding no
    array.  Both match the path on the formed state to 1e-14."""
    psi = _spin_product_states(16)[-1]
    system = make_builtin(*_ENTANGLING)
    out = evolve_path(psi, [Leg(particle, 0.3, 0.1)], system)
    reference = evolve_path(_formed_copy(psi), [Leg(particle, 0.3, 0.1)],
                            system)
    assert out._fields is None and out._known[1] is not None
    assert psi._known == [None, None]
    assert out.distance(reference) <= 1e-14
    assert out.distance(psi) > 0.01


def test_a_grid_phase_loop_series_forms_psi0_once(monkeypatch):
    """The grid-phase coefficient_form loop series forms psi0's position
    values once, for its first grid leg, from its (profile, spinor)
    pairs; the curvature norm then reads those pairs and forms no
    (n, n, 16) array of psi0."""
    builds = []
    rows_of = WaveFunction._rows

    def counting(self, spectral, rows):
        from_factors = (self._known[spectral] is None
                        and self._fields is not None)
        block = rows_of(self, spectral, rows)
        if from_factors and block.shape == (64, 64, 16):
            builds.append(spectral)
        return block
    monkeypatch.setattr(WaveFunction, "_rows", counting)
    assert entry(["simulate", "--builtin", "coefficient_form",
                  "--param", "W1=0,0,0,0.5*cos(x1_3 - x2_3)",
                  "--param", "E=0.5*sin(x1_3 + x2_3),0,0,0",
                  "--grid-n", "64", "--delta", "0.2,0.1,0.05"]) == EXIT_OK
    assert len(builds) <= 1


def _particle1_system(coefficient: str, structure=None, guards=(),
                      hermitian: bool = False) -> MultiTimeSystem:
    """V_1 = coefficient on structure (gamma0 x 1), V_2 = 0."""
    if structure is None:
        structure = tensor_element(BasisElement(BasisClass.GAMMA, 0),
                                   IDENTITY_ELEMENT)
    v1 = Potential(1, 2, (PotentialTerm(structure, parse(coefficient)),),
                   tuple(Guard(parse(expr), threshold)
                         for expr, threshold in guards))
    return MultiTimeSystem("particle1", 2, (1.0, 1.0),
                           (v1, zero_potential(2)), hermitian)


# label: (system, particle, start times, phases that vanish, builder)
_BATCHED_PHASE_CASES = {
    "class product": (lambda: make_builtin("hoho"), 1, (0.3, -0.2), 0,
                      "_multiply_out"),
    "dense hermitian": (lambda: make_builtin("coefficient_form", {
        **_DENSE_TIME_ONLY, "hermitian": True}), 1, (0.3, -0.2), 0,
                   "_dense_phase"),
    "dense expm": (lambda: make_builtin("coefficient_form",
                                        _DENSE_TIME_ONLY), 1, (0.3, -0.2), 0,
                   "_dense_phase"),
    # sin(0) at the first midpoint time, t_1 = 0.05
    "vanishing at one midpoint": (lambda: _particle1_system(
        "sin(10*(x1_0 - 0.05))*x2_0", tensor_element(
            BasisElement(BasisClass.GAMMA, 0),
            BasisElement(BasisClass.ALPHA, 3))), 1, (0.0, 0.3), 1,
        "_multiply_out"),
    "constant": (lambda: make_builtin("hoho"), 2, (0.3, -0.2), 0,
                 "_multiply_out"),
    "other particle's time only": (lambda: make_builtin(
        "coefficient_form", {"W1": (0, 0, 0, "0.5*cos(x2_0)")}), 1,
        (0.3, -0.2), 0, "_multiply_out"),
}


@pytest.mark.parametrize("dt", [0.1, -0.1])
@pytest.mark.parametrize("label", sorted(_BATCHED_PHASE_CASES))
def test_batched_phases_equal_single_midpoint_phases(label, dt,
                                                     monkeypatch):
    """Each step's slice of a leg's one evaluation is bit for bit the
    phase of that step's midpoint alone; exactly I where V_k vanishes."""
    build, particle, start, vanishing, builder = _BATCHED_PHASE_CASES[label]
    system, grid, count = build(), Grid(points=16), 6
    times, starts = list(start), []
    for _ in range(count):
        starts.append(times[particle - 1])
        times[particle - 1] += dt
    stack = list(start)
    stack[particle - 1] = np.reshape(starts, (-1, 1, 1))
    calls = _counted(monkeypatch, solver, [builder])
    batched = solver._multiply_out(solver._potential_phase(
        system, particle, stack, dt, grid)).reshape(-1, 16, 16)
    assert calls == {builder: 1}
    constant = label in ("constant", "other particle's time only")
    assert len(batched) == (1 if constant else count)
    identity = [np.array_equal(phase, np.eye(16))
                and not np.signbit(phase.view(float)).any()
                for phase in batched]
    assert sum(identity) == (vanishing if dt > 0 else 0)
    for s, t in enumerate(starts):
        single = list(start)
        single[particle - 1] = t
        expected = solver._multiply_out(solver._potential_phase(
            system, particle, single, dt, grid))
        assert np.array_equal(batched[0 if constant else s], expected)


def test_a_leg_through_a_vanishing_step_matches_chained_steps():
    """V_1 vanishes at the first midpoint, where the fused leg takes
    P = I, and V_2 is zero, so the second leg takes the free kernel."""
    system = _BATCHED_PHASE_CASES["vanishing at one midpoint"][0]()
    psi = product_state(Grid(points=32), spinor1=(0.6, 0.2j, -0.5, 0.3),
                        momenta=(0.8, -0.5), times=(0.0, 0.3))
    path = [Leg(1, 0.6, 0.1), Leg(2, 0.2, 0.1)]
    fused = evolve_path(psi, path, system)
    chained = psi
    for leg in path:
        for _ in range(leg.steps()):
            chained = step(chained, leg.particle, leg.dt, system)
    assert fused.times == chained.times
    assert fused.distance(chained) <= 1e-13
    assert fused.distance(psi) > 0.1


_LATE_GUARD = [("x1_0 - 0.25", 1e-3)]  # trips at the third midpoint time


@pytest.mark.parametrize("system, error, text", [
    # step 1 fails the hermiticity check, step 5 the finiteness of V_1
    (_particle1_system("i*x1_0 + exp(2000*x1_0)", hermitian=True),
     SpecError, "declared hermitian but deviates by 4.000e-01"),
    # step 1 fails the hermiticity check, step 3 divides by zero
    (_particle1_system("i*x1_0 + 1/(x1_0 - 0.25)", hermitian=True),
     SpecError, "declared hermitian but deviates by 4.000e-01"),
    # step 2 overflows V_1, step 3 trips the guard
    (_particle1_system("exp(5000*x1_0)", guards=_LATE_GUARD),
     DomainError, "potential V_1 is not finite"),
    # step 2's class factor cosh(750) overflows, step 3 trips the guard
    (_particle1_system("1e5*i*x1_0", guards=_LATE_GUARD),
     DomainError, "exp(-i dt V_1 / 2) is not finite"),
], ids=["hermitian before finite", "hermitian before division",
        "finite before guard", "class factor before guard"])
def test_a_leg_raises_its_earliest_failing_steps_error(system, error, text):
    """The error is the one the first failing step raises on its own,
    though a later step fails a check that runs earlier in each step."""
    psi = product_state(Grid(points=16))
    with pytest.raises(error) as fused:
        evolve_path(psi, [Leg(1, 0.6, 0.1)], system)
    with pytest.raises(error) as chained:
        for _ in range(6):
            psi = step(psi, 1, 0.1, system)
    assert str(fused.value) == str(chained.value)
    assert text in str(fused.value)


def test_a_guard_on_z_makes_a_leg_a_grid_leg(dirac):
    """A time-only V_1 with a guard over z_1 - z_2 takes grid steps, so the
    guard is never evaluated on a (count, n, n) stack."""
    structure = tensor_element(BasisElement(BasisClass.ALPHA, 3),
                               IDENTITY_ELEMENT)
    system = _particle1_system("0.5*cos(x1_0 - x2_0)", structure,
                               [("x1_3 - x2_3 + 100", 1e-6)], True)
    assert solver._on_grid(system.potential(1))
    psi = _oracle_state()
    out = evolve_path(psi, [Leg(1, 0.3, 0.1)], system)
    expected = _reference_path(psi, [(1, 0.1, 3)], system, dirac)
    assert out.distance(expected) <= 1e-13
    tripping = _particle1_system("0.5*cos(x1_0 - x2_0)", structure,
                                 [("x1_3 - x2_3", 1e-6)], True)
    with pytest.raises(DomainError, match="guard violated"):
        evolve_path(psi, [Leg(1, 0.3, 0.1)], tripping)


def _traced_peak(call) -> int:
    """Peak bytes held while call() runs, what it allocates included."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()


def test_leg_memory_does_not_grow_with_its_steps():
    """At n = 128 no leg holds a stack over its steps.  A grid leg runs
    every step in the same workspace buffers, so a 2-step leg peaks
    within one (n, n, 16) state of a 1-step one (0.41 measured; 1.0 when
    each step allocated its arrays) and a 40-step one within 10% of a
    2-step one.  A 200-step time-only leg holds no array of n^2 * count
    bytes more than a 1-step one."""
    def peak(system, count):
        return _traced_peak(lambda: evolve_path(
            product_state(Grid(points=128)), [Leg(1, count * 0.01, 0.01)],
            system))

    state_bytes = 128 ** 2 * 16 * 16
    grid_system = make_builtin("hoho", {"c": (1.0, 0.0, 0.0, 0.5)})
    one, two = peak(grid_system, 1), peak(grid_system, 2)
    assert two - one <= 1.05 * state_bytes
    assert peak(grid_system, 40) <= 1.1 * two
    time_only = make_builtin("hoho")
    assert peak(time_only, 200) - peak(time_only, 1) < 128 ** 2 * 200


def test_time_only_experiments_hold_one_array_per_state():
    """At n = 128 a time-only path-independence run holds at most one
    (n, n, 16) array per order, and distances read blocks of rows, psi0's
    from its factors, so neither psi0 nor psi0^ is formed; its warmed
    peak stays within 2.79 states (0.04 measured with both orders left
    spin products, 0.65 with (n, 16, 16) products, 2.54 when each order
    wrote its array, 3.66 when psi0^ was formed, 5.53 when every leg and
    distance allocated a full array).  A loop series holds one loop
    state, and the curvature norm after it reads psi0's factors: within
    1.45 states (0.04 measured; 0.63 when it read psi0's rows and F
    psi0's a block at a time, 1.39 before spin products, 3.01 when both
    formed psi0 whole)."""
    state_bytes = 128 ** 2 * 16 * 16
    hoho, vector = make_builtin("hoho"), make_builtin("example1_vector")

    def orders():
        path_independence_experiment(hoho, product_state(Grid(points=128)),
                                     0.5, [0.1, 0.05, 0.025])

    def loops():
        psi = product_state(Grid(points=128))
        holonomy_series(vector, psi, [0.08, 0.04, 0.02])
        curvature_norm(vector, psi)

    for run, states in ((orders, 2.79), (loops, 1.45)):
        run()  # warm: parse and compile caches are not the run's
        assert _traced_peak(run) <= states * state_bytes


def test_an_entangling_time_only_experiment_holds_one_array_per_order():
    """At n = 128 a time-only path-independence run of a pair whose
    potentials act on both particles forms one (n, n, 16) array per
    order, from psi0's fields, and writes it in place through the second
    leg; the distance reads both a block of rows at a time.  Its warmed
    peak stays within 3 states (2.68 measured), and psi0 is left holding
    no array."""
    system = make_builtin(*_ENTANGLING)
    psi0 = product_state(Grid(20, 128))

    def orders():
        path_independence_experiment(system, psi0, 0.5, [0.1, 0.05, 0.025])
    orders()  # warm
    assert _traced_peak(orders) <= 3 * 128 ** 2 * 16 * 16
    assert psi0._known == [None, None]


def test_one_particle_experiments_hold_no_array_and_no_kernel_stack():
    """At n = 128 a time-only hoho path-independence run and an
    example1_vector loop series keep spin products: each leg holds one
    (n, 4, 4) kernel at a time and distances read the (n, 4) fields
    alone, so neither run forms an (n, n, 16) array or an (n, 16, 16)
    kernel stack, an eighth of a state.  Warmed peaks stay below such a
    stack (0.15 and 0.09 MiB measured against 0.5 MiB; 2.59 and 5.58 MiB
    when the legs kept (n, 16, 16) products and the loops formed
    arrays)."""
    hoho, vector = make_builtin("hoho"), make_builtin("example1_vector")

    def orders():
        path_independence_experiment(hoho, product_state(Grid(20, 128)),
                                     0.5, [0.1, 0.05, 0.025])

    def loops():
        holonomy_series(vector, product_state(Grid(points=128)),
                        [0.08, 0.04, 0.02])
    for run in (orders, loops):
        run()  # warm
        assert _traced_peak(run) < 128 * 16 * 16 * 16


@pytest.mark.parametrize("label", ["hoho"])
def test_norm_of_a_factored_state_forms_no_space(label):
    """At n = 128, after legs on t_1 and t_2, the norm of a spin product
    (hoho) is its fields' norms' product: it forms no space (both were
    formed and kept, at a 12.5 MiB peak, when the norm read position
    rows), the peak stays below one state, and the norm equals the
    formed state's to 1e-14 relative."""
    system = make_builtin(label)
    psi = evolve_path(product_state(Grid(points=128)),
                      [Leg(1, 0.5, 0.05), Leg(2, 0.5, 0.05)], system)
    norms = []
    assert _traced_peak(lambda: norms.append(psi.norm())) < 128 ** 2 * 256
    assert psi._known == [None, None]
    formed = WaveFunction(psi.grid, psi.times, psi._view().values)
    assert abs(norms[0] - formed.norm()) <= 1e-14 * formed.norm()


def _minor_faults(call) -> int:
    """Minor page faults of this process while call() runs: each page it
    touches for the first time, those of a fresh allocation included."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def test_grid_leg_steps_fault_in_no_fresh_pages():
    """At n = 128, where a state is 1,024 pages, each step of a grid leg
    beyond the second adds fewer than 100 minor page faults: the steps
    run in the workspace's buffers and allocate no (n, n, 16) array (994
    a step when each step allocated its phase, scratch and FFT outputs)."""
    system = make_builtin("hoho", {"c": (1.0, 0.0, 0.0, 0.5)})
    psi = product_state(Grid(points=128))

    def leg(count):
        return lambda: evolve_path(psi, [Leg(1, count * 0.01, 0.01)], system)
    for count in (2, 12):
        leg(count)()  # warm: psi's values, the parse and compile caches
    few, many = _minor_faults(leg(2)), _minor_faults(leg(12))
    assert (many - few) / 10 < 100


def test_grid_phase_loops_fault_in_at_most_two_states_each():
    """At n = 128 each loop of a grid-phase holonomy series beyond the
    first adds fewer than 2,048 minor page faults, two states' pages: one
    workspace serves every loop, and a loop allocates its end state (5,673
    a loop when every step allocated its arrays)."""
    system = make_builtin("coefficient_form", {  # the benchmark's loops
        "W1": (0, 0, 0, "0.5*cos(x1_3 - x2_3)"),
        "E": ("0.5*sin(x1_3 + x2_3)", 0, 0, 0)})
    psi = product_state(Grid(points=128))

    def series(loops):
        return lambda: holonomy_series(system, psi, [0.1] * loops)
    for loops in (1, 6):
        series(loops)()  # warm
    one, six = _minor_faults(series(1)), _minor_faults(series(6))
    assert (six - one) / 5 < 2048


def test_time_only_orders_fault_in_no_fresh_pages():
    """At n = 128 each dt of a time-only path-independence run beyond the
    first adds fewer than 100 minor page faults: neither order writes an
    (n, n, 16) array (2,284 a dt when each order wrote a fresh one)."""
    system = make_builtin("hoho")
    psi = product_state(Grid(20, 128))

    def run(dts):
        return lambda: path_independence_experiment(system, psi, 0.5, dts)
    for dts in ([0.05], [0.05] * 6):
        run(dts)()  # warm
    one, six = _minor_faults(run([0.05])), _minor_faults(run([0.05] * 6))
    assert (six - one) / 5 < 100


@pytest.mark.parametrize("label", ["grid hermitian phase",
                                   "two commuting classes",
                                   "dense phase, not a union of cliques"])
def test_grid_steps_take_at_most_four_fresh_buffers(label, monkeypatch):
    """Whether its phase is one class, a chain of two or dense matrices, a
    10-step grid leg allocates at most four (n, n, 16) buffers (three
    measured), and a loop series one more for each loop after the first,
    the one its end state leaves with."""
    system = make_builtin(*_ORACLE_SYSTEMS[label])
    fresh, take = [], solver._Workspace.take

    def counting(self, shape):
        fresh.append(not self)
        return take(self, shape)
    monkeypatch.setattr(solver._Workspace, "take", counting)
    evolve_path(_oracle_state(), [Leg(1, 1.0, 0.1)], system)
    assert 0 < sum(fresh) <= 4
    fresh.clear()
    holonomy_series(system, _oracle_state(), [0.2, 0.1, 0.05, 0.025])
    assert sum(fresh) <= 4 + 3


def test_grid_legs_write_into_no_state_they_were_given():
    """Chained grid and time-only steps, a path from one of their states
    and both experiments from others leave every earlier state's bytes
    as they were, and each experiment run twice returns equal rows: a leg
    writes only arrays its own call made."""
    system = make_builtin("hoho", {"c": (1.0, 0.0, 0.0, 0.5)})
    states = [product_state(Grid(points=32), spinor1=(0.6, 0.2j, -0.5, 0.3),
                            momenta=(0.8, -0.5))]
    for s in range(6):
        states.append(step(states[-1], 1 + s % 2, 0.05, system))
    held = [state._space(False).tobytes() for state in states]
    evolve_path(states[3], [Leg(1, 0.2, 0.1), Leg(2, 0.2, 0.1, -1),
                            Leg(1, 0.1, 0.1)], system)
    for experiment in (
            lambda: path_independence_experiment(system, states[2], 0.2,
                                                 [0.1, 0.05]).rows,
            lambda: holonomy_series(system, states[5], [0.1, 0.05]).rows):
        assert experiment() == experiment()
    assert [state._space(False).tobytes() for state in states] == held


_TRANSFORMS = ["fft", "ifft", "fft2", "ifft2"]


def _state_transforms(monkeypatch) -> collections.Counter:
    """Count transforms of (n, n, 16) arrays by name; those of a product
    state's length-n factors do not count."""
    return _counted(monkeypatch, np.fft, _TRANSFORMS,
                    lambda values, *args, **kwargs: np.ndim(values) == 3)


def test_time_only_experiments_transform_no_state(monkeypatch):
    """psi0^ comes from its factors' FFTs and distances by Parseval, so a
    time-only experiment transforms no (n, n, 16) array."""
    psi = product_state(Grid(points=32))
    calls = _state_transforms(monkeypatch)
    path_independence_experiment(make_builtin("hoho"), psi, 0.5,
                                 [0.1, 0.05, 0.025])
    holonomy_series(make_builtin("example1_vector"), psi, [0.08, 0.04, 0.02])
    assert not +calls


def test_chained_time_only_steps_stay_in_fourier_space(monkeypatch):
    """Ten alternating hoho steps from a product state transform no
    (n, n, 16) array, and reading the last state's values transforms
    none either: it takes two 1-D inverse FFTs, of the (n, 4) fields."""
    psi = product_state(Grid(points=128))
    system = make_builtin("hoho")
    calls = _state_transforms(monkeypatch)
    fields = _counted(monkeypatch, np.fft, _TRANSFORMS,
                      lambda values, *args, **kwargs: np.ndim(values) == 2)
    for s in range(10):
        psi = step(psi, 1 + s % 2, 0.05, system)
    assert not +calls and not +fields
    assert psi.values.shape == (128, 128, 16)
    assert not +calls
    assert +fields == {"ifft": 2}


@pytest.mark.parametrize("label", sorted(_ORACLE_SYSTEMS))
def test_chained_steps_match_chained_reference_steps(label, dirac):
    """Each step starts from the state the last one left, in Fourier space
    after a time-only step: values match the reference to 1e-13 on
    ||psi0|| = 1, both particles and both signs."""
    system = make_builtin(*_ORACLE_SYSTEMS[label])
    psi = _oracle_state()
    legs = [(1, 0.1, 1), (2, 0.1, 1), (1, -0.1, 1), (2, 0.1, 1),
            (2, -0.1, 1), (1, 0.1, 1)]
    out = psi
    for particle, dt, _ in legs:
        out = step(out, particle, dt, system)
    expected = _reference_path(psi, legs, system, dirac)
    assert out.times == expected.times
    assert np.sqrt(np.sum(np.abs(out.values - expected.values) ** 2)) \
        * psi.grid.spacing <= 1e-13


def test_distance_in_fourier_space_is_the_position_distance(monkeypatch):
    """Between two states held in Fourier space alone, distance takes no
    transform (Parseval) and equals the distance of position copies."""
    system = make_builtin("hoho")
    psi = _oracle_state()
    a, b = step(psi, 1, 0.1, system), step(psi, 2, -0.1, system)
    assert a._known[0] is None and b._known[0] is None  # Fourier alone
    calls = _counted(monkeypatch, np.fft, _TRANSFORMS)
    spectral = a.distance(b)
    assert not calls
    copies = [WaveFunction(s.grid, s.times, s.values) for s in (a, b)]
    assert spectral > 0.01
    assert abs(spectral - copies[0].distance(copies[1])) <= 1e-13


def test_state_arrays_are_read_only():
    """Every array a state holds or returns refuses writes, in either
    space, and the constructor leaves the caller's array writable."""
    grid_system = make_builtin("hoho", {"c": (1.0, 0.0, 0.0, 0.5)})
    psi = product_state(Grid(points=16))
    states = [psi, step(psi, 1, 0.1, make_builtin("hoho")),
              step(psi, 1, 0.1, grid_system), step(psi, 1, 0.0, grid_system),
              evolve_path(psi, [Leg(1, 0.2, 0.1), Leg(2, 0.2, 0.1)],
                          grid_system)]
    for state in states:
        for spectral in (False, True):
            with pytest.raises(ValueError, match="read-only"):
                state._space(spectral)[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            state.values[0, 0, 0] = 1.0
    values = np.zeros((16, 16, 16), complex)
    WaveFunction(Grid(points=16), (0.0, 0.0), values)
    assert values.flags.writeable


def test_legs_in_place_write_into_no_state_they_were_given():
    """A Fourier-only state from an earlier step and a product psi0 keep
    the bytes of every space they hold through a two-leg path, ten chained
    steps and both experiments, and each experiment run twice returns
    equal rows: on the first pass the earlier state holds Fourier values
    alone, on the second both spaces."""
    system = make_builtin("hoho")
    psi0 = product_state(Grid(points=32), spinor1=(0.6, 0.2j, -0.5, 0.3),
                         momenta=(0.8, -0.5))
    earlier = step(psi0, 1, 0.1, system)
    assert earlier._known[0] is None
    for _ in range(2):
        held = [[None if a is None else a.tobytes() for a in psi._known]
                for psi in (psi0, earlier)]
        for psi in (psi0, earlier):
            evolve_path(psi, [Leg(1, 0.2, 0.1), Leg(2, 0.3, 0.1, -1)],
                        system)
            chained = psi
            for s in range(10):
                chained = step(chained, 1 + s % 2, 0.05, system)
            for experiment in (
                    lambda: path_independence_experiment(
                        system, psi, 0.2, [0.1, 0.05]).rows,
                    lambda: holonomy_series(system, psi, [0.2, 0.1]).rows):
                assert experiment() == experiment()
        for psi, before in zip((psi0, earlier), held):
            for array, pristine in zip(psi._known, before):
                assert pristine is None or array.tobytes() == pristine
            psi._space(False), psi._space(True)  # both, for the next pass


def test_grid_phase_experiments_take_two_transforms_per_step(monkeypatch):
    system = make_builtin(*_ORACLE_SYSTEMS["closed-form non-hermitian grid "
                                          "phase"])
    psi = product_state(Grid(points=32))
    calls = _counted(monkeypatch, np.fft, _TRANSFORMS)
    path_independence_experiment(system, psi, 0.2, [0.1, 0.05])
    steps = 2 * 2 * (2 + 4)  # two orders, two legs, T/dt steps each
    assert calls == {"fft": steps, "ifft": steps}
    calls.clear()
    holonomy_series(system, psi, [0.2, 0.1, 0.05])
    assert calls == {"fft": 4 * 3, "ifft": 4 * 3}


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


def test_free_orders_commute(grid, psi0):
    result = path_independence_experiment(
        make_builtin("free"), psi0, 0.2, [0.1, 0.05])
    for _, discrepancy in result.rows:
        assert discrepancy < 1e-10


def test_fits_of_round_off_rows_are_null(grid, psi0):
    """The free pair's distances are a few eps: no order or slope is fit."""
    system = make_builtin("free")
    paths = path_independence_experiment(system, psi0, 0.5,
                                         [0.1, 0.05, 0.025])
    loops = holonomy_series(system, psi0, [0.08, 0.04, 0.02])
    distances = [row[1] for row in paths.rows + loops.rows]
    assert max(distances) <= solver._ROUNDOFF * psi0.norm()
    assert paths.as_dict()["fitted_order"] is None
    assert loops.as_dict()["fitted_slope"] is None
    # one row above the round-off bound is enough for a fit
    deltas, deviations, ratios = (0.1, 0.05), (1e-3, 1e-16), (0.1, 4e-14)
    assert np.isfinite(solver._fitted_loglog_slope(deltas, ratios,
                                                   deviations, 1e-14))
    assert np.isnan(solver._fitted_loglog_slope(deltas, ratios, deviations,
                                                1e-3))


def test_consistent_system_discrepancy_is_splitting_error(grid, psi0):
    result = path_independence_experiment(
        make_builtin("hoho"), psi0, 0.5, [0.1, 0.05, 0.025])
    discrepancies = [row[1] for row in result.rows]
    assert discrepancies[0] > discrepancies[-1]
    assert result.fitted_order >= 1.8


def test_inconsistent_system_discrepancy_saturates(grid, psi0):
    result = path_independence_experiment(
        make_builtin("example1_vector"), psi0, 1.0, [0.1, 0.05])
    discrepancies = [row[1] for row in result.rows]
    assert all(d > 1e-3 for d in discrepancies)
    assert abs(discrepancies[0] - discrepancies[1]) < 0.2 * discrepancies[1]
    assert result.fitted_order < 0.5


# ---------------------------------------------------------------------------
# Holonomy and the curvature oracle
# ---------------------------------------------------------------------------

def _generic_product(points: int) -> WaveFunction:
    return product_state(Grid(points=points), spinor1=(0.6, 0.2j, -0.5, 0.3),
                         spinor2=(0.1, 0.7, 0.4j, -0.2), centers=(0.7, -1.1),
                         momenta=(0.8, -0.5), times=(0.3, -0.2))


def _formed(psi: WaveFunction) -> WaveFunction:
    """A copy of a product state holding its position values only."""
    return WaveFunction(psi.grid, psi.times, psi._view().values)


def test_free_loop_holonomy_negligible(grid, psi0):
    assert loop_holonomy(make_builtin("free"), psi0, 0.05) < 1e-9


def test_curvature_norm_example1(grid, psi0):
    # F = 2 m2 gamma3 on particle 2, and gamma3 is norm-preserving
    assert curvature_norm(
        make_builtin("example1_vector"), psi0) == pytest.approx(2.0)
    assert curvature_norm(make_builtin("example1_vector", {"m2": 2.5}),
                          psi0) == pytest.approx(5.0)


def test_curvature_vanishes_for_consistent_systems(grid, psi0):
    assert curvature_norm(make_builtin("free"), psi0) == 0.0
    assert curvature_norm(make_builtin("free"), _generic_product(48)) == 0.0
    assert curvature_norm(make_builtin("hoho"), psi0) < 1e-10


def test_holonomy_matches_grid_curvature(grid, psi0):
    system = make_builtin("example1_vector")
    reference = curvature_norm(system, psi0)
    result = holonomy_series(system, psi0, [0.08, 0.04, 0.02])
    ratios = [row[2] for row in result.rows]
    assert abs(ratios[-1] - reference) < 0.1 * reference
    assert abs(ratios[-1] - ratios[-2]) < 0.1 * ratios[-1]


def test_consistent_loop_deviation_superquadratic(grid, psi0):
    result = holonomy_series(
        make_builtin("hoho"), psi0, [0.08, 0.04, 0.02])
    assert result.fitted_slope >= 0.5  # deviation itself decays >= 2.5
    deviations = [row[1] for row in result.rows]
    slope = np.polyfit(np.log([0.08, 0.04, 0.02]), np.log(deviations), 1)[0]
    assert slope >= 2.5


def test_holonomy_stable_under_grid_refinement():
    system = make_builtin("example1_vector")
    ratios = []
    for n in (128, 256):
        fine = Grid(points=n)
        psi = product_state(fine)
        deviation = loop_holonomy(system, psi, 0.04)
        ratios.append(deviation / 0.04 ** 2)
    assert abs(ratios[0] - ratios[1]) < 0.05 * ratios[1]


def test_apply_curvature_uses_first_order_parts(grid, psi0, dirac):
    # V_1 = alpha2^1 does not commute with alpha2^3, so the curvature
    # picks up a d/dz_2 term on top of its constant part: the dense
    # oracle's F psi0 differs from its zeroth part's, and curvature_norm
    # reads the whole image's norm.
    from mtdirac.clifford import reconstruct
    from mtdirac.consistency import curvature_operator

    system = make_builtin("example1_vector", {"A": (0, 1.0, 0, 0)})
    image = curvature_image(system, psi0)
    assert image.shape == (128, 128, 16)
    operator = curvature_operator(
        system, np.array([[0.0, 0, 0, 0], [0.0, 0, 0, 0]]))
    first = reconstruct(operator.first[(2, 3)], 2, dirac)
    assert np.max(np.abs(first)) > 1.0
    zeroth_only = np.einsum("ij,...j->...i",
                            reconstruct(operator.zeroth, 2, dirac), psi0.values)
    assert np.max(np.abs(image - zeroth_only)) > 0.01
    whole = np.sqrt(np.sum(np.abs(image) ** 2)) * grid.spacing
    assert abs(curvature_norm(system, psi0) - whole) <= 1e-14 * whole


def test_curvature_from_factors_matches_the_formed_state(dirac):
    """F psi0 from a product state's pairs, its z-derivatives taken on
    g_1 and g_2 alone (_line_parts), matches the dense oracle's F applied
    to psi0's formed values, whose derivatives are taken whole: with
    d/dz_1 and d/dz_2 parts both present, to 1e-13 on ||psi0|| = 1; and
    curvature_norm reads the whole image's norm, forming neither space
    of psi0."""
    from mtdirac.clifford import reconstruct

    system = make_builtin("example1_vector", {"A": (0, 1.0, 0, 0),
                                              "B": (0, 0, 1.0, 0)})
    psi = product_state(Grid(points=48), spinor1=(0.6, 0.2j, -0.5, 0.3),
                        spinor2=(0.1, 0.7, 0.4j, -0.2), centers=(0.7, -1.1),
                        momenta=(0.8, -0.5))
    reference = curvature_image(system, psi)
    parts = solver._line_parts(system, psi)
    assert len(parts) == 3  # psi and both d psi / d z_k
    image = sum(np.einsum("ij,xyj->xyi", reconstruct(field, 2, dirac),
                          np.einsum("x,y,a,b->xyab", a, b, s1, s2).reshape(
                              48, 48, 16))
                for field, ((a, s1), (b, s2)) in parts)
    spacing = psi.grid.spacing
    assert np.sqrt(np.sum(np.abs(image - reference) ** 2)) * spacing <= 1e-13
    whole = np.sqrt(np.sum(np.abs(reference) ** 2)) * spacing
    assert whole > 1.0
    assert abs(curvature_norm(system, psi) - whole) <= 1e-13 * whole
    assert psi._known == [None, None]


# label: (system, relative tolerance, or None for an absolute 1e-15)
_PRODUCT_CURVATURE_CASES = {
    "zeroth part only": (lambda: make_builtin("example1_vector"), 1e-14),
    "both d/dz_k parts": (lambda: make_builtin("example1_vector", {
        "A": (0, 1.0, 0, 0), "B": (0, 0, 1.0, 0)}), 1e-14),
    "F varies over the grid": (lambda: make_builtin("coefficient_form", {
        "W1": (0, 0, 0, "0.5*cos(x1_3 - x2_3)"),
        "E": ("0.5*sin(x1_3 + x2_3)", 0, 0, 0)}), 1e-14),
    "consistent, round-off": (lambda: make_builtin(
        "hoho", {"c": (1.0, 0.0, 0.0, 0.5)}), None),
}


@pytest.mark.parametrize("case", list(_PRODUCT_CURVATURE_CASES))
def test_curvature_norm_of_a_product_reads_its_factors(case):
    """On a product state with generic spinors, centers and momenta,
    ||F psi|| from the pairs matches the norm of the dense oracle's F psi,
    formed whole, and forms neither space of psi."""
    build, rtol = _PRODUCT_CURVATURE_CASES[case]
    system, psi = build(), _generic_product(48)
    reference = np.sqrt(np.sum(np.abs(curvature_image(system, psi)) ** 2)) \
        * psi.grid.spacing
    value = curvature_norm(system, psi)
    assert psi._known == [None, None]
    if rtol is None:
        assert reference < 1e-15 and abs(value - reference) <= 1e-15
    else:
        assert reference > 0.1
        assert abs(value - reference) <= rtol * reference


def test_curvature_norm_takes_a_product_state():
    """A state holding only (n, n, 16) values, and a spin product one of
    whose fields is an (n, 4) array, as hoho's leg on particle 2 leaves
    psi0, are not product states: curvature_norm raises SpecError."""
    hoho, psi0 = make_builtin("hoho"), _generic_product(32)
    evolved = evolve_path(psi0, [Leg(2, 0.2, 0.1)], hoho)
    assert [isinstance(f, tuple) for f in evolved._pair(False)] \
        == [True, False]
    for state in (_formed(psi0), evolved):
        with pytest.raises(SpecError, match="product state"):
            curvature_norm(hoho, state)


def test_curvature_norm_of_a_product_forms_no_image():
    """At n = 128 on example1_vector the product path holds (T, rows, n)
    fields a block at a time: its warmed peak stays below 0.5 MiB
    (0.16 MiB measured; 2.5 MiB when F psi's rows were formed)."""
    system, psi = make_builtin("example1_vector"), product_state(
        Grid(points=128))
    curvature_norm(system, psi)  # warm: parse and compile caches
    assert _traced_peak(lambda: curvature_norm(system, psi)) < 2 ** 19


def test_curvature_is_evaluated_once_where_no_potential_reads_z(monkeypatch):
    """A pair whose coefficients and guards do not refer to z evaluates F
    at one (2, 4) configuration; any z, even in a guard of a V_k that is
    zero, evaluates it on the grid's (n, n, 2, 4) stack, so the guard
    runs where it ran before."""
    shapes = []

    def recording(system, coords, **kwargs):
        shapes.append(np.shape(coords))
        return curvature_operator(system, coords, **kwargs)

    curvature_operator = solver.curvature_operator
    monkeypatch.setattr(solver, "curvature_operator", recording)
    psi = product_state(Grid(points=32))
    for name in ("example1_vector", "hoho"):
        curvature_norm(make_builtin(name), psi)
    assert shapes == [(2, 4)] * 2
    shapes.clear()
    curvature_norm(make_builtin("hoho", {"c": (1.0, 0.0, 0.0, 0.5)}), psi)
    assert shapes == [(32, 32, 2, 4)]
    guarded = _particle1_system("x1_0")
    guarded = MultiTimeSystem("guarded", 2, (1.0, 1.0), (
        guarded.potential(1), Potential(2, 2, (), (Guard(parse("x2_3 - 2.5"),
                                                         0.01),))), False)
    shapes.clear()
    with pytest.raises(DomainError, match="guard violated"):
        curvature_norm(guarded, psi)
    assert shapes == [(32, 32, 2, 4)]


def test_loop_reference_is_the_line_models_own_curvature(capsys):
    """hoho's phi = 2 c.(x2 - x1) varies along x^1 when c_1 != 0, which the
    line model does not see.  The loop series' reference is the line
    model's own F, its derivatives along t and z alone: ||F psi0|| reads
    2 c_1 = 0.6 to 1e-12 relative (the full F reads 0), the value
    deviation / delta^2 approaches."""
    assert entry(["simulate", "--builtin", "hoho", "--param", "c=1,0.3,0,0",
                  "--delta", "0.08,0.04,0.02", "--grid-n", "32"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["curvature_norm"] == pytest.approx(0.6, rel=1e-12, abs=0)
    ratios = [row["deviation_per_delta2"] for row in report["rows"]]
    assert 0.59 < ratios[0] < ratios[1] < ratios[2] < 0.6


def test_fitted_slope_handles_degenerate_rows():
    zero = solver._fitted_loglog_slope((0.1, 0.05), (0.0, 0.0), (0.0, 0.0),
                                       0.0)
    assert np.isnan(zero)
    repeated = solver._fitted_loglog_slope((0.1, 0.1), (0.1, 0.2),
                                           (1e-3, 2e-3), 0.0)
    assert np.isnan(repeated)


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
