"""Tests for the line-model propagator and its experiments."""

from __future__ import annotations

import collections
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

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
from oracles import reference_add_terms, reference_kernel, reference_step


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
        [phase] = solver._potential_phase(system, particle, (0.0, 0.0),
                                          0.1, grid, True)
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
    got = solver._class_matrix(cos, terms, phase)
    want = reference_kernel(phase, (cos, terms))
    assert got.shape == want.shape == (Grid().points, 16, 16)
    scale = np.linalg.norm(want, axis=(-2, -1))
    assert np.all(np.linalg.norm(got - want, axis=(-2, -1)) <= 1e-14 * scale)


def test_class_matrix_without_a_phase_is_the_outer_sum_kernel():
    """The free kernel alone matches the outer sums entry for entry: its
    basis entries are 0, +-1 and +-i, so every product is exact."""
    cos, terms = _free_class(1, 1.5, 0.1)
    want = reference_kernel(np.eye(16), (cos, terms))
    assert np.array_equal(solver._class_matrix(cos, terms), want)


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
    the term-by-term formula, from a zero start (apply_curvature's) or not."""
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
        lambda: apply_curvature(system, psi),
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


def _counted(monkeypatch, module, names) -> collections.Counter:
    """Count calls of module's functions by name, in place."""
    calls = collections.Counter()
    for name in names:
        def counting(*args, _name=name, _original=getattr(module, name),
                     **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return calls


def test_time_only_legs_take_no_single_steps(monkeypatch):
    """One phase evaluation per time-only leg, and no `step` calls, in
    both experiments: two orders of two legs per dt, four legs a loop."""
    calls = _counted(monkeypatch, solver, ["step", "_potential_phase"])
    assert entry(["simulate", "--builtin", "hoho",
                  "--dt", "0.1,0.05,0.025"]) == EXIT_OK
    assert calls == {"_potential_phase": 4 * 3}
    calls.clear()
    assert entry(["simulate", "--builtin", "example1_vector",
                  "--delta", "0.08,0.04,0.02"]) == EXIT_OK
    assert calls == {"_potential_phase": 4 * 3}


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
    phase of that step's midpoint alone; None where V_k vanishes."""
    build, particle, start, vanishing, builder = _BATCHED_PHASE_CASES[label]
    system, grid, count = build(), Grid(points=16), 6
    times, starts = list(start), []
    for _ in range(count):
        starts.append(times[particle - 1])
        times[particle - 1] += dt
    stack = list(start)
    stack[particle - 1] = np.reshape(starts, (-1, 1, 1))
    calls = _counted(monkeypatch, solver, [builder])
    batched = solver._potential_phase(system, particle, stack, dt, grid,
                                      True)
    assert calls == {builder: 1}
    assert len(batched) == count
    assert sum(phase is None for phase in batched) == (vanishing if dt > 0
                                                        else 0)
    if label in ("constant", "other particle's time only"):
        assert all(phase is batched[0] for phase in batched)
    for phase, t in zip(batched, starts):
        single = list(start)
        single[particle - 1] = t
        [expected] = solver._potential_phase(system, particle, single, dt,
                                             grid, True)
        assert (phase is None if expected is None
                else np.array_equal(phase, expected))


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
    """At n = 128 no leg holds a stack over its steps.  A grid step holds
    its input state while it runs, so a grid leg of two steps or more
    holds one (n, n, 16) state more than a 1-step leg and a 40-step one
    peaks within 10% of a 2-step one.  A 200-step time-only leg holds no
    array of n^2 * count bytes more than a 1-step one."""
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


_TRANSFORMS = ["fft", "ifft", "fft2", "ifft2"]


def test_time_only_experiments_transform_psi0_once(monkeypatch):
    psi = product_state(Grid(points=32))
    calls = _counted(monkeypatch, np.fft, _TRANSFORMS)
    path_independence_experiment(make_builtin("hoho"), psi, 0.5,
                                 [0.1, 0.05, 0.025])
    assert calls == {"fft2": 1}
    calls.clear()
    holonomy_series(make_builtin("example1_vector"), psi, [0.08, 0.04, 0.02])
    assert calls == {"fft2": 1}


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
    rows = ((0.1, 1e-3, 0.1), (0.05, 1e-16, 4e-14))
    assert np.isfinite(HolonomyResult(rows, 1e-14).fitted_slope)
    assert np.isnan(HolonomyResult(rows, 1e-3).fitted_slope)


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
    # picks up a d/dz_2 term on top of its constant part.
    from mtdirac.clifford import reconstruct
    from mtdirac.consistency import curvature_operator

    system = make_builtin("example1_vector", {"A": (0, 1.0, 0, 0)})
    image = apply_curvature(system, psi0)
    assert image.shape == (128, 128, 16)
    operator = curvature_operator(
        system, np.array([[0.0, 0, 0, 0], [0.0, 0, 0, 0]]))
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
