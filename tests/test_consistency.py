import warnings

import numpy as np
import pytest

from mtdirac import consistency, potential
from mtdirac.clifford import (
    GAMMA5_ELEMENT,
    IDENTITY_ELEMENT,
    BasisClass,
    BasisElement,
    basis16,
    build_weyl_rep,
    embed,
    field_norm,
    frobenius,
    realize,
    reconstruct,
    tensor_element,
)
from mtdirac.consistency import (
    VERDICT_CONSISTENT,
    VERDICT_INCONSISTENT,
    CoefficientFormError,
    cc_residuals,
    check_consistency,
    curvature_operator,
    derivative_coefficient_matrices,
    to_coefficient_form,
    zeroth_order_residual,
)
from mtdirac.dsl import Const, evaluate, parse
from mtdirac.potential import (
    BUILTIN_SYSTEMS,
    FIELD_NAMES,
    DomainError,
    MultiTimeSystem,
    Potential,
    PotentialTerm,
    Region,
    coefficient_set_to_system,
    evaluate_potential,
    make_builtin,
    sample_configs,
    zero_potential,
)
from mtdirac.solver import Grid, _grid_coords
from oracles import reference_cc, reference_curvature
from test_solver import _ORACLE_SYSTEMS


def random_config(rng):
    return rng.uniform(-2.0, 2.0, size=(2, 4))


# ---------------------------------------------------------------------------
# Zeroth-order residual
# ---------------------------------------------------------------------------

def test_free_system_has_no_residual(dirac, rng):
    system = make_builtin("free")
    coords = random_config(rng)
    assert frobenius(zeroth_order_residual(system, coords, dirac)) == 0


def test_example1_vector_residual_closed_form(dirac, rng):
    """V_1 = alpha_2^3, V_2 = 0 leaves exactly m_2 [gamma0_2, alpha_2^3]
    = 2 m_2 gamma_2^3, of Frobenius norm 8."""
    system = make_builtin("example1_vector")
    coords = random_config(rng)
    residual = zeroth_order_residual(system, coords, dirac)
    expected = 2.0 * embed(dirac.gammas[3], 2, 2)
    assert frobenius(residual - expected) < 1e-13
    assert abs(frobenius(residual) - 8.0) < 1e-10


def test_residual_scales_with_mass(dirac, rng):
    system = make_builtin("example1_vector", {"m2": 2.5})
    residual = zeroth_order_residual(system, random_config(rng), dirac)
    assert abs(frobenius(residual) - 20.0) < 1e-10


def test_residual_antisymmetric_in_pair_order(dirac, rng):
    # an inconsistent pair, so the residual is visibly nonzero
    system = make_builtin("coefficient_form", {"W1": ("cos(x2_0)", 0, 0, 0)})
    coords = random_config(rng)
    forward = zeroth_order_residual(system, coords, dirac, j=1, k=2)
    backward = zeroth_order_residual(system, coords, dirac, j=2, k=1)
    assert frobenius(forward + backward) < 1e-13
    assert frobenius(forward) > 0.1


def test_residual_batch_matches_loop(dirac, rng):
    system = make_builtin("coefficient_form",
                          {"A": ("cos(x2_0 - x1_0)", 0, 0, 0),
                           "Y2": (0.5, 0, 0, 0)})
    samples = np.array([random_config(rng) for _ in range(7)])
    batch = zeroth_order_residual(system, samples, dirac)
    assert batch.shape == (7, 16, 16)
    for i in range(7):
        single = zeroth_order_residual(system, samples[i], dirac)
        assert frobenius(batch[i] - single) < 1e-13


def test_non_finite_potential_reaches_no_verdict():
    # exp(1000 x1_0) overflows on about half the samples.  It multiplies
    # gamma0 x 1, which commutes with every structure it meets, and the
    # alpha3 on particle 2 keeps the pair outside the coefficient form, so
    # no cc sup catches it either.
    v_1 = Potential(1, 2, (
        PotentialTerm(tensor_element(BasisElement(BasisClass.GAMMA, 0),
                                     IDENTITY_ELEMENT),
                      parse("exp(1000*x1_0)")),
        PotentialTerm(tensor_element(IDENTITY_ELEMENT,
                                     BasisElement(BasisClass.ALPHA, 3)),
                      Const(1.0 + 0j))))
    system = MultiTimeSystem("overflow", 2, (1.0, 1.0),
                             (v_1, zero_potential(2)), hermitian=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="non-finite residual"):
            check_consistency(system,
                              sample_configs(50, np.random.default_rng(0)))


# ---------------------------------------------------------------------------
# Derivative coefficients
# ---------------------------------------------------------------------------

def test_example1_vector_derivative_coefficients(dirac, rng):
    system = make_builtin("example1_vector")
    coords = random_config(rng)
    matrices = derivative_coefficient_matrices(system, coords, dirac)
    # V_2 = 0: nothing obstructs particle 1's spatial derivatives
    for a in (1, 2, 3):
        assert frobenius(matrices[(1, a)]) == 0
    # [alpha^1, alpha^3] = -2i gamma5 alpha^2 on particle 2
    expected = -2j * embed(dirac.gamma5 @ dirac.alphas[2], 2, 2)
    assert frobenius(matrices[(2, 1)] - expected) < 1e-13
    expected = 2j * embed(dirac.gamma5 @ dirac.alphas[1], 2, 2)
    assert frobenius(matrices[(2, 2)] - expected) < 1e-13
    assert frobenius(matrices[(2, 3)]) == 0


def test_hoho_derivative_coefficients_vanish(dirac, rng):
    system = make_builtin("hoho", {"C": (1.0, 0.5j, 0, 2j),
                                   "c": (1.0, 0.25, -0.5, 0.75)})
    coords = random_config(rng)
    matrices = derivative_coefficient_matrices(system, coords, dirac)
    for value in matrices.values():
        assert frobenius(value) < 1e-13


# ---------------------------------------------------------------------------
# Commutant property: which V_2 structures obstruct nothing
# ---------------------------------------------------------------------------

def _random_sector_potential(rng, commuting: bool):
    elements = [element for element, _ in basis16(build_weyl_rep())]
    if commuting:
        first = [IDENTITY_ELEMENT, GAMMA5_ELEMENT]
    else:
        first = [e for e in elements
                 if e not in (IDENTITY_ELEMENT, GAMMA5_ELEMENT)]
    terms = []
    for _ in range(3):
        e1 = first[rng.integers(len(first))]
        e2 = elements[rng.integers(len(elements))]
        coeff = complex(*rng.uniform(-1, 1, 2))
        if not commuting and abs(coeff) < 0.1:
            coeff = 0.1 + coeff / abs(coeff) if coeff != 0 else 0.5
        terms.append(PotentialTerm(tensor_element(e1, e2), Const(coeff)))
    return MultiTimeSystem(
        name="structure_probe", n_particles=2, masses=(1.0, 1.0),
        potentials=(Potential(1, 2, ()), Potential(2, 2, tuple(terms))),
        hermitian=False)


def test_identity_gamma5_sector_never_obstructs(dirac, rng):
    for _ in range(10):
        system = _random_sector_potential(rng, commuting=True)
        coords = random_config(rng)
        matrices = derivative_coefficient_matrices(system, coords, dirac)
        worst = max(frobenius(m) for m in matrices.values())
        assert worst < 1e-12


def test_other_sectors_obstruct(dirac, rng):
    for _ in range(10):
        system = _random_sector_potential(rng, commuting=False)
        coords = random_config(rng)
        matrices = derivative_coefficient_matrices(system, coords, dirac)
        worst = max(frobenius(m) for m in matrices.values())
        assert worst >= 0.1


# ---------------------------------------------------------------------------
# Coefficient form
# ---------------------------------------------------------------------------

def test_hoho_coefficient_fields(dirac, rng):
    system = make_builtin("hoho")
    cs = to_coefficient_form(system)
    coords = random_config(rng)
    phase = 2 * (coords[1, 0] - coords[0, 0])
    assert abs(evaluate(cs.A[0], coords) - (np.cos(phase) - 1.0)) < 1e-12
    assert abs(evaluate(cs.B[0], coords) - (-1j * np.sin(phase))) < 1e-12
    assert abs(evaluate(cs.Y2[0], coords) - 1.0) < 1e-12
    for name in ("W1", "X1", "Y1", "Z1", "C", "D",
                 "W2", "X2", "Z2", "E", "F", "G", "H"):
        for component in cs.field(name):
            assert evaluate(component, coords) == 0
    for mu in (1, 2, 3):
        assert evaluate(cs.A[mu], coords) == 0
        assert evaluate(cs.B[mu], coords) == 0
        assert evaluate(cs.Y2[mu], coords) == 0


def test_example1_vector_is_not_coefficient_form():
    with pytest.raises(CoefficientFormError):
        to_coefficient_form(make_builtin("example1_vector"))


def test_coefficient_form_requires_two_particles():
    system = MultiTimeSystem(
        name="single", n_particles=1, masses=(1.0,),
        potentials=(Potential(1, 1, ()),), hermitian=True)
    with pytest.raises(CoefficientFormError):
        to_coefficient_form(system)


def _mirrored_alpha_pair():
    # V_2 acts on particle 1 through alpha1: outside the form from particle 2
    structure = tensor_element(BasisElement(BasisClass.ALPHA, 1),
                               BasisElement(BasisClass.GAMMA, 0))
    return MultiTimeSystem(
        name="mirrored", n_particles=2, masses=(1.0, 1.0),
        potentials=(Potential(1, 2, ()),
                    Potential(2, 2, (PotentialTerm(structure, parse("1")),))),
        hermitian=False)


@pytest.mark.parametrize("system", [
    make_builtin("free"), make_builtin("hoho"), make_builtin("coulomb_like"),
    make_builtin("example1_vector"), _mirrored_alpha_pair(),
    make_builtin("coefficient_form", {"Z2": (0, "x1_0", 0, 0),
                                      "H": ("x2_3", 0, 0, 1)}),
    MultiTimeSystem(name="single", n_particles=1, masses=(1.0,),
                    potentials=(Potential(1, 1, ()),), hermitian=True),
], ids=lambda system: system.name)
def test_form_membership_is_what_to_coefficient_form_accepts(system):
    # check_consistency attaches cc by this test, without building the form
    try:
        to_coefficient_form(system)
    except CoefficientFormError:
        accepted = False
    else:
        accepted = True
    assert potential._in_coefficient_form(system) is accepted


@pytest.mark.parametrize("name,params", [
    ("free", None),
    ("hoho", {"C": (2.0, 1j, 0, 0.5j), "c": (1.0, 0, 0.25, 0)}),
    ("coefficient_form", {"W1": ("cos(x1_0)", 0, 0, "x1_3^2"),
                          "G": (0, "exp(x2_2 - x1_2)", 0, 0)}),
])
def test_coefficient_form_roundtrip(name, params, dirac, rng):
    system = make_builtin(name, params)
    rebuilt = coefficient_set_to_system(
        to_coefficient_form(system), masses=system.masses)
    for _ in range(5):
        coords = random_config(rng)
        for k in (1, 2):
            a = evaluate_potential(system.potential(k), coords, dirac)
            b = evaluate_potential(rebuilt.potential(k), coords, dirac)
            assert frobenius(a - b) < 1e-10


def test_repeated_structures_accumulate(dirac, rng):
    identity = tensor_element(IDENTITY_ELEMENT, IDENTITY_ELEMENT)
    system = MultiTimeSystem(
        name="doubled", n_particles=2, masses=(1.0, 1.0),
        potentials=(
            Potential(1, 2, (PotentialTerm(identity, Const(1.0 + 0j)),
                             PotentialTerm(identity, Const(2.0 + 0j)))),
            Potential(2, 2, ()),
        ),
        hermitian=True)
    cs = to_coefficient_form(system)
    assert evaluate(cs.W1[0], np.zeros((2, 4))) == 3.0


# ---------------------------------------------------------------------------
# Scalar compatibility conditions
# ---------------------------------------------------------------------------

def test_hoho_satisfies_all_scalar_conditions(rng):
    system = make_builtin("hoho", {"C": (1.5, 0.5j, 0, 0),
                                   "c": (1.0, 0, 0, -0.5)})
    cs = to_coefficient_form(system)
    samples = sample_configs(50, rng)
    residuals = cc_residuals(cs, system.masses, samples)
    assert set(residuals) == {f"cc{i}" for i in range(1, 17)}
    assert max(residuals.values()) < 1e-10


def test_external_fields_satisfy_conditions(rng):
    system = make_builtin("coefficient_form",
                          {"W1": ("cos(x1_0)", "x1_1^2", 0, 0),
                           "W2": (0, 0, "sin(x2_2)", 0)})
    cs = to_coefficient_form(system)
    samples = sample_configs(50, rng)
    assert max(cc_residuals(cs, system.masses, samples).values()) < 1e-12


def test_cross_field_violates_cc1(rng):
    system = make_builtin("coefficient_form", {"W1": ("cos(x2_0)", 0, 0, 0)})
    cs = to_coefficient_form(system)
    samples = sample_configs(50, rng)
    residuals = cc_residuals(cs, system.masses, samples)
    assert residuals["cc1"] > 0.5
    for name, value in residuals.items():
        if name != "cc1":
            assert value < 1e-12


def test_mass_shift_enters_cc16(rng):
    """A static D field against the shifted E field: cc16 picks up
    m1 m2 through the A/E time components even with A = E = 0."""
    system = make_builtin("coefficient_form", {"H": (0.5, 0, 0, 0)})
    cs = to_coefficient_form(system)
    samples = sample_configs(10, rng)
    residuals = cc_residuals(cs, system.masses, samples)
    # cc16 at mu=0, nu any: (m1 + A_0) H_nu - D_mu (m2 + E_nu) = m1 * H_0
    assert abs(residuals["cc16"] - 0.5) < 1e-12


def _wave(rng) -> str:
    """amp cos(k1.x1 + k2.x2 + phase): depends on all eight coordinates.

    The amplitude is complex: with real fields every product term is real
    and every derivative term imaginary, so a wrong relative sign between
    them would not change any |residual|.
    """
    re, im = rng.uniform(0.5, 1.0, 2) * rng.choice([-1, 1], 2)
    phase = rng.uniform(-np.pi, np.pi)
    waves = [f"({k:.3f})*x{particle}_{mu}"
             for particle in (1, 2) for mu, k in
             enumerate(rng.uniform(-1.0, 1.0, 4))]
    return (f"(({re:.3f}) + ({im:.3f})*i)"
            f"*cos({' + '.join(waves)} + ({phase:.3f}))")


def test_cc_residuals_match_reference_on_random_systems(rng):
    """Every family read off E(1,2) agrees with the field-by-field formulas
    on systems where all sixteen fields depend on both particles."""
    for _ in range(10):
        system = make_builtin("coefficient_form", {
            name: tuple(_wave(rng) for _ in range(4))
            for name in FIELD_NAMES} | {"m1": rng.uniform(0.5, 2.0),
                                        "m2": rng.uniform(0.5, 2.0)})
        cs = to_coefficient_form(system)
        samples = sample_configs(20, rng)
        residuals = cc_residuals(cs, system.masses, samples)
        expected = reference_cc(cs, system.masses, samples)
        assert residuals.keys() == expected.keys()
        for name, value in expected.items():
            assert value >= 0.1, name
            assert abs(residuals[name] - value) <= 1e-12 * value, name


def test_verdicts_agree_between_matrix_and_scalar_paths(rng):
    cases = [
        ("coefficient_form", {"W1": ("cos(x1_0)", 0, 0, 0),
                              "X2": (0, "x2_3^2", 0, 0)}, True),
        ("hoho", None, True),
        ("free", None, True),
        ("coefficient_form", {"W1": ("cos(x2_0)", 0, 0, 0)}, False),
        ("coefficient_form", {"A": ("x2_3", 0, 0, 0)}, False),
        ("coefficient_form", {"H": (0.5, 0, 0, 0)}, False),
    ]
    samples = sample_configs(40, rng)
    for name, params, expect_consistent in cases:
        system = make_builtin(name, params)
        report = check_consistency(system, samples)
        matrix_ok = report.verdict == VERDICT_CONSISTENT
        scalar_ok = max(report.cc.values()) < report.tol
        assert matrix_ok == scalar_ok == expect_consistent, (name, params)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_check_consistency_hoho_both_regions(rng):
    system = make_builtin("hoho")
    for region in (Region.ALL, Region.SPACELIKE):
        report = check_consistency(
            system, sample_configs(100, rng, region=region))
        assert report.verdict == VERDICT_CONSISTENT
        assert max(report.deriv_coeff_sup) < 1e-12
        assert report.zeroth_sup < 1e-10
        assert max(report.cc.values()) < 1e-10
        assert report.nsamples == 100


def test_check_consistency_example1_vector(rng):
    report = check_consistency(make_builtin("example1_vector"),
                               sample_configs(100, rng))
    assert report.verdict == VERDICT_INCONSISTENT
    assert report.cc is None
    assert abs(report.zeroth_sup - 8.0) < 1e-10
    assert abs(report.deriv_coeff_sup[3] - 8.0) < 1e-10  # (j=2, a=1)
    assert abs(report.deriv_coeff_sup[4] - 8.0) < 1e-10  # (j=2, a=2)
    assert report.deriv_coeff_sup[5] < 1e-13             # (j=2, a=3)
    assert report.pair == (1, 2)


def test_check_consistency_rejects_wrong_particle_count(rng):
    system = MultiTimeSystem(
        name="single", n_particles=1, masses=(1.0,),
        potentials=(Potential(1, 1, ()),), hermitian=True)
    with pytest.raises(Exception):
        check_consistency(system, sample_configs(10, rng, 1))


def test_check_consistency_deterministic_with_samples(rng):
    system = make_builtin("hoho", {"c": (1, 0, 0, 0.5)})
    samples = sample_configs(30, rng)
    first = check_consistency(system, samples)
    second = check_consistency(system, samples)
    assert first == second
    assert first.as_dict() == second.as_dict()


def test_check_consistency_runs_each_guard_set_once(monkeypatch, rng):
    # one guard pass for V_1 and one for V_2, however many parts of F_12
    # read a potential: the eight derivatives d_{2,mu} V_1, d_{1,mu} V_2
    # share their guards and the stack, so they run none
    calls = []
    check_guards = potential.check_guards
    monkeypatch.setattr(potential, "check_guards",
                        lambda *args: calls.append(args) or check_guards(*args))
    check_consistency(make_builtin("hoho"), sample_configs(20, rng))
    assert len(calls) == 2


def test_coulomb_like_guard_trips_on_a_coincident_sample(rng):
    samples = sample_configs(20, rng)
    samples[7, 1, 1:] = samples[7, 0, 1:]  # equal spatial coordinates
    with pytest.raises(DomainError, match=r"^guard violated: "
                       r"\|interparticle distance\| < 1e-06$"):
        check_consistency(make_builtin("coulomb_like"), samples)


@pytest.mark.parametrize("name", BUILTIN_SYSTEMS)
def test_check_sups_are_the_curvature_norms(name, rng):
    system = make_builtin(name)
    samples = sample_configs(30, rng)
    report = check_consistency(system, samples)
    curvature = curvature_operator(system, samples)
    assert report.zeroth_sup == np.max(field_norm(curvature.zeroth, 2))
    assert report.deriv_coeff_sup == tuple(
        np.max(field_norm(curvature.first[(j, a)], 2))
        for j in (1, 2) for a in (1, 2, 3))


def test_report_dict_shape(rng):
    report = check_consistency(make_builtin("free"), sample_configs(100, rng))
    data = report.as_dict()
    assert data["pair"] == [1, 2]
    assert len(data["deriv_coeff_sup"]) == 6
    assert isinstance(data["zeroth_sup"], float)
    assert set(data["cc"]) == {f"cc{i}" for i in range(1, 17)}
    assert data["verdict"] == VERDICT_CONSISTENT
    # the sampling region is the caller's: the CLI reports it
    assert set(data) == {"pair", "deriv_coeff_sup", "zeroth_sup", "cc",
                         "verdict", "tol", "nsamples"}


def test_weyl_representation_agrees(weyl, rng):
    # the table's sups equal the Frobenius norms of the curvature expanded
    # as Weyl matrices: F_12's zeroth part is i E(1,2), its first-order
    # parts are -+[alpha^a_j, V_k]
    samples = sample_configs(30, rng)
    for name, params in [("hoho", {"C": (1, 0.5j, 0, 0)}),
                         ("example1_vector", None)]:
        system = make_builtin(name, params)
        report = check_consistency(system, samples)
        zeroth, first = reference_curvature(system, samples, weyl)
        np.testing.assert_allclose(report.zeroth_sup, _sup_frobenius(zeroth),
                                   atol=1e-10)
        np.testing.assert_allclose(
            report.deriv_coeff_sup,
            [_sup_frobenius(first[(j, a)]) for j in (1, 2) for a in (1, 2, 3)],
            atol=1e-10)


# ---------------------------------------------------------------------------
# Curvature operator
# ---------------------------------------------------------------------------

def _sup_frobenius(matrices):
    return float(np.max(np.linalg.norm(matrices, axis=(-2, -1))))


def _matrices(operand, coords, rep):
    """A curvature part's operator field as matrices over the stack."""
    return reconstruct(operand, 2, rep, np.shape(coords)[:-2])


@pytest.mark.parametrize("name,params", [
    ("hoho", {"C": (1.0, 0.5j, 0, 2j), "c": (1.0, 0.25, -0.5, 0.75)}),
    ("example1_vector", {"A": (0, 1, 0, 1), "B": (0, 0, 0.5, 0)}),
    ("coefficient_form", {"A": ("cos(x2_0 - x1_0)", 0, 0, "x2_3*x1_0"),
                          "Y2": (0.5, 0, 0, "sin(x1_3)")}),
    *(pytest.param(name, {}, id=f"builtin {name}")
      for name in BUILTIN_SYSTEMS),
    *(pytest.param(*system, id=f"solver oracle: {label}")
      for label, system in _ORACLE_SYSTEMS.items()),
])
def test_curvature_decomposition_matches_residuals(name, params, dirac, weyl,
                                                   rng):
    system = make_builtin(name, params)
    grid = Grid(points=16)
    grid_stack = _grid_coords(grid, 0.3, -0.2)
    # half a spacing apart, so no grid point has coincident particles
    grid_stack[..., 1, 3] += grid.spacing / 2
    for coords in [random_config(rng) for _ in range(5)] + [grid_stack]:
        curvature = curvature_operator(system, coords)
        for rep in (dirac, weyl):
            zeroth, first = reference_curvature(system, coords, rep)
            assert _sup_frobenius(
                _matrices(curvature.zeroth, coords, rep) - zeroth) < 1e-12
            assert curvature.first.keys() == first.keys()
            for key, matrices in first.items():
                assert _sup_frobenius(_matrices(curvature.first[key], coords,
                                                rep) - matrices) < 1e-12


@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_zeroth_part_alone_is_the_full_builders(name, rng):
    """E(1,2) taken without the first-order parts is the same field, bit
    for bit: classify_gauge reads it so at its probes."""
    system = make_builtin(name)
    coords = np.stack([random_config(rng) for _ in range(7)])
    first, zeroth = consistency._curvature_parts(system, coords)
    none, alone = consistency._curvature_parts(system, coords, first=False)
    assert len(first) == 6 and none == {}
    assert alone.keys() == zeroth.keys()
    for structure, value in zeroth.items():
        assert np.asarray(alone[structure]).tobytes() == \
            np.asarray(value).tobytes()


def test_curvature_vanishes_for_consistent_systems(dirac, rng):
    system = make_builtin("hoho", {"c": (1.0, 0, 0.5, 0)})
    coords = random_config(rng)
    curvature = curvature_operator(system, coords)
    assert frobenius(_matrices(curvature.zeroth, coords, dirac)) < 1e-10
    assert all(frobenius(_matrices(m, coords, dirac)) < 1e-12
               for m in curvature.first.values())
