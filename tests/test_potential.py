import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from mtdirac.clifford import (
    BasisClass,
    BasisElement,
    GAMMA5_ELEMENT,
    IDENTITY_ELEMENT,
    embed,
    frobenius,
    realize,
    tensor_element,
)
from mtdirac.dsl import Const, DslParseError, parse, to_source
from mtdirac.potential import (
    COEFFICIENT_FIELDS_1,
    COEFFICIENT_FIELDS_2,
    DomainError,
    Guard,
    MultiTimeSystem,
    Potential,
    PotentialTerm,
    Region,
    SpecError,
    differentiate_potential,
    evaluate_potential,
    hermiticity_residual,
    is_spacelike,
    make_builtin,
    sample_configs,
    system_from_dict,
    system_to_dict,
    load_system,
    save_system,
    zero_potential,
)
from oracles import fd_matrix_partial


def random_config(rng):
    return rng.uniform(-2.0, 2.0, size=(2, 4))


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------

def test_free_system_is_zero(dirac, rng):
    system = make_builtin("free")
    coords = random_config(rng)
    for k in (1, 2):
        matrix = evaluate_potential(system.potential(k), coords, dirac)
        assert frobenius(matrix) == 0
    assert system.hermitian
    assert system.masses == (1.0, 1.0)


def test_example1_vector_default_is_alpha3_on_particle_2(dirac, rng):
    system = make_builtin("example1_vector")
    coords = random_config(rng)
    matrix = evaluate_potential(system.potential(1), coords, dirac)
    expected = embed(dirac.alpha(3), 2, 2)
    assert frobenius(matrix - expected) < 1e-14
    assert frobenius(evaluate_potential(system.potential(2), coords, dirac)) == 0
    assert system.hermitian


def test_example1_vector_custom_vectors(dirac, rng):
    system = make_builtin("example1_vector",
                          {"A": (1, 0, 0, 2), "B": (0, 1j, 0, 0)})
    coords = random_config(rng)
    v1 = evaluate_potential(system.potential(1), coords, dirac)
    v2 = evaluate_potential(system.potential(2), coords, dirac)
    assert frobenius(v1 - (np.eye(16) + 2 * embed(dirac.alpha(3), 2, 2))) < 1e-14
    assert frobenius(v2 - 1j * embed(dirac.alpha(1), 1, 2)) < 1e-14
    assert not system.hermitian


def hoho_closed_form(coords, rep, big_c, small_c, m1):
    """Independent evaluation of the exponential-form pair potential."""
    phase = 2 * sum(small_c[mu] * (coords[1][mu] - coords[0][mu])
                    for mu in range(4))
    rotor = expm(1j * phase * rep.gamma5)
    matrix = sum(big_c[mu] * rep.gamma(mu) for mu in range(4)) @ rotor
    return np.kron(matrix - m1 * rep.gamma(0), np.eye(4))


def test_hoho_matches_exponential_closed_form(dirac, rng):
    big_c = (1.0, 0.5j, -0.25j, 2j)
    small_c = (1.0, 0.25, -0.5, 0.75)
    system = make_builtin("hoho", {"C": big_c, "c": small_c})
    for _ in range(10):
        coords = random_config(rng)
        v1 = evaluate_potential(system.potential(1), coords, dirac)
        expected = hoho_closed_form(coords, dirac, big_c, small_c, 1.0)
        assert frobenius(v1 - expected) < 1e-12


def test_hoho_second_potential_is_constant(dirac, rng):
    system = make_builtin("hoho")
    coords = random_config(rng)
    v2 = evaluate_potential(system.potential(2), coords, dirac)
    expected = np.kron(dirac.gamma5, np.eye(4))
    assert frobenius(v2 - expected) < 1e-14


def test_hoho_default_is_hermitian(dirac, rng):
    system = make_builtin("hoho")
    assert system.hermitian
    configs = np.array([random_config(rng) for _ in range(10)])
    assert hermiticity_residual(system, configs, dirac) < 1e-12


def test_hoho_complex_time_component_breaks_hermiticity(dirac, rng):
    system = make_builtin("hoho", {"C": (1j, 0, 0, 0)})
    assert not system.hermitian
    configs = np.array([random_config(rng) for _ in range(5)])
    assert hermiticity_residual(system, configs, dirac) > 0.1


def test_hoho_imaginary_spatial_components_stay_hermitian(dirac, rng):
    system = make_builtin("hoho", {"C": (2.0, 0.5j, 0, 1j), "c": (1, 0, 0, 0.5)})
    assert system.hermitian
    configs = np.array([random_config(rng) for _ in range(10)])
    assert hermiticity_residual(system, configs, dirac) < 1e-12


def test_hermiticity_residual_rejects_non_finite_potential(dirac, rng):
    # exp(1000 x2_0) overflows on about half the samples; the sup over
    # them must not drop the NaN of inf - conj(inf)
    system = make_builtin("coefficient_form",
                          {"W1": ("exp(1000*x2_0)", 0, 0, 0)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="hermiticity_residual"):
            hermiticity_residual(system, sample_configs(50, rng), dirac)


@pytest.mark.parametrize("field_name", COEFFICIENT_FIELDS_1)
def test_coefficient_form_particle1_structures(field_name, dirac, rng):
    cls, sector = {
        "W1": (BasisClass.ALPHA, IDENTITY_ELEMENT),
        "Y1": (BasisClass.G5ALPHA, IDENTITY_ELEMENT),
        "A": (BasisClass.GAMMA, IDENTITY_ELEMENT),
        "B": (BasisClass.G5GAMMA, IDENTITY_ELEMENT),
        "X1": (BasisClass.ALPHA, GAMMA5_ELEMENT),
        "Z1": (BasisClass.G5ALPHA, GAMMA5_ELEMENT),
        "C": (BasisClass.GAMMA, GAMMA5_ELEMENT),
        "D": (BasisClass.G5GAMMA, GAMMA5_ELEMENT),
    }[field_name]
    system = make_builtin("coefficient_form", {field_name: (0, 0, 1.5, 0)})
    coords = random_config(rng)
    matrix = evaluate_potential(system.potential(1), coords, dirac)
    expected = 1.5 * realize(
        tensor_element(BasisElement(cls, 2), sector), dirac)
    assert frobenius(matrix - expected) < 1e-14
    assert not evaluate_potential(system.potential(2), coords, dirac).any()


@pytest.mark.parametrize("field_name", COEFFICIENT_FIELDS_2)
def test_coefficient_form_particle2_structures(field_name, dirac, rng):
    cls, sector = {
        "W2": (BasisClass.ALPHA, IDENTITY_ELEMENT),
        "X2": (BasisClass.G5ALPHA, IDENTITY_ELEMENT),
        "E": (BasisClass.GAMMA, IDENTITY_ELEMENT),
        "F": (BasisClass.G5GAMMA, IDENTITY_ELEMENT),
        "Y2": (BasisClass.ALPHA, GAMMA5_ELEMENT),
        "Z2": (BasisClass.G5ALPHA, GAMMA5_ELEMENT),
        "G": (BasisClass.GAMMA, GAMMA5_ELEMENT),
        "H": (BasisClass.G5GAMMA, GAMMA5_ELEMENT),
    }[field_name]
    system = make_builtin("coefficient_form", {field_name: (0, 1, 0, 0)})
    coords = random_config(rng)
    matrix = evaluate_potential(system.potential(2), coords, dirac)
    expected = realize(tensor_element(sector, BasisElement(cls, 1)), dirac)
    assert frobenius(matrix - expected) < 1e-14


def test_coefficient_form_accepts_expressions(dirac):
    system = make_builtin("coefficient_form",
                          {"W1": ("cos(x1_0 + x2_3)", 0, 0, 0)})
    coords = np.zeros((2, 4))
    coords[0, 0] = 0.3
    coords[1, 3] = 0.4
    matrix = evaluate_potential(system.potential(1), coords, dirac)
    assert frobenius(matrix - np.cos(0.7) * np.eye(16)) < 1e-12


def test_coefficient_form_strings_can_reference_masses(dirac):
    system = make_builtin("coefficient_form",
                          {"A": ("-m1", 0, 0, 0), "m1": 2.5})
    coords = np.zeros((2, 4))
    matrix = evaluate_potential(system.potential(1), coords, dirac)
    assert frobenius(matrix + 2.5 * embed(dirac.gamma(0), 1, 2)) < 1e-12


def test_hoho_equals_its_coefficient_form(dirac, rng):
    """The exponential pair written out through the generic constructor."""
    direct = make_builtin("hoho")
    rebuilt = make_builtin("coefficient_form", {
        "A": ("cos(2*(x2_0 - x1_0)) - m1", 0, 0, 0),
        "B": ("-i*sin(2*(x2_0 - x1_0))", 0, 0, 0),
        "Y2": (1, 0, 0, 0),
    })
    for _ in range(5):
        coords = random_config(rng)
        for k in (1, 2):
            a = evaluate_potential(direct.potential(k), coords, dirac)
            b = evaluate_potential(rebuilt.potential(k), coords, dirac)
            assert frobenius(a - b) < 1e-12


def test_coulomb_like_diverges_at_coincidence(dirac):
    system = make_builtin("coulomb_like")
    coords = np.zeros((2, 4))
    coords[0, 0], coords[1, 0] = 0.5, -0.5
    with pytest.raises(DomainError):
        evaluate_potential(system.potential(1), coords, dirac)


def test_coulomb_like_value_away_from_coincidence(dirac):
    system = make_builtin("coulomb_like", {"q": 2.0})
    coords = np.zeros((2, 4))
    coords[1, 3] = 4.0
    matrix = evaluate_potential(system.potential(1), coords, dirac)
    assert frobenius(matrix - 0.5 * np.eye(16)) < 1e-12


def test_unknown_builtin_and_bad_params():
    with pytest.raises(SpecError):
        make_builtin("nope")
    with pytest.raises(SpecError):
        make_builtin("hoho", {"bogus": 1})
    with pytest.raises(SpecError):
        make_builtin("hoho", {"C": (1, 0, 0)})
    with pytest.raises(SpecError):
        make_builtin("example1_vector", {"A": 3})


# ---------------------------------------------------------------------------
# Evaluation mechanics
# ---------------------------------------------------------------------------

def test_evaluate_potential_broadcasts_grids(dirac):
    system = make_builtin("hoho", {"c": (1.0, 0, 0, 0.5)})
    z1 = np.linspace(-1, 1, 5)[:, None]
    z2 = np.linspace(-2, 2, 7)[None, :]
    coords = [[0.2, 0.0, 0.0, z1], [-0.1, 0.0, 0.0, z2]]
    stacked = evaluate_potential(system.potential(1), coords, dirac)
    assert stacked.shape == (5, 7, 16, 16)
    for a in range(5):
        for b in range(7):
            point = np.array([[0.2, 0, 0, float(z1[a, 0])],
                              [-0.1, 0, 0, float(z2[0, b])]])
            single = evaluate_potential(system.potential(1), point, dirac)
            assert frobenius(stacked[a, b] - single) < 1e-12


def test_differentiate_potential_matches_finite_difference(dirac, rng):
    system = make_builtin("hoho", {"c": (1.0, 0, 0, 0.5)})
    for k, mu in [(1, 0), (2, 0), (2, 3)]:
        deriv = differentiate_potential(system.potential(1), k, mu)
        coords = random_config(rng)
        symbolic = evaluate_potential(deriv, coords, dirac)
        numeric = fd_matrix_partial(
            lambda c: evaluate_potential(system.potential(1), c, dirac),
            coords, k, mu)
        assert frobenius(symbolic - numeric) < 1e-8


def test_differentiate_constant_potential_is_empty(dirac):
    system = make_builtin("example1_vector")
    deriv = differentiate_potential(system.potential(1), 1, 0)
    assert deriv.terms == ()
    assert deriv.is_zero()


def test_zero_potential_properties(dirac, rng):
    pot = zero_potential(2)
    assert pot.is_zero()
    matrix = evaluate_potential(pot, random_config(rng), dirac)
    assert matrix.shape == (16, 16)
    assert not matrix.any()


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

def test_is_spacelike_basic_cases():
    equal_times = np.array([[0.0, 0, 0, 0], [0.0, 0, 0, 1]])
    assert is_spacelike(equal_times)
    timelike = np.array([[3.0, 0, 0, 0], [0.0, 0, 0, 1]])
    assert not is_spacelike(timelike)
    lightlike = np.array([[1.0, 0, 0, 0], [0.0, 0, 0, 1]])
    assert not is_spacelike(lightlike)
    coincident = np.zeros((2, 4))
    assert not is_spacelike(coincident)


def test_sample_configs_all_region(rng):
    configs = sample_configs(50, rng, region=Region.ALL, box=2.0)
    assert configs.shape == (50, 2, 4)
    assert np.all(np.abs(configs) <= 2.0)


def test_sample_configs_spacelike_region(rng):
    configs = sample_configs(50, rng, region=Region.SPACELIKE, box=2.0)
    assert configs.shape == (50, 2, 4)
    assert all(is_spacelike(c) for c in configs)


def test_sample_configs_seeded_reproducibility():
    a = sample_configs(10, np.random.default_rng(3), region=Region.SPACELIKE)
    b = sample_configs(10, np.random.default_rng(3), region=Region.SPACELIKE)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,params", [
    ("free", None),
    ("example1_vector", {"A": (0, 1, 0, 0), "B": (0, 0, 0.5, 0)}),
    ("hoho", {"C": (2.0, 0.5j, 0, 0), "c": (1.0, 0, 0, 0.25)}),
    ("coefficient_form", {"W1": ("cos(x1_0 + x2_3)", 0, 0, 0),
                          "W2": (0, 0, 0, "cos(x1_0 + x2_3)")}),
])
def test_json_roundtrip_preserves_evaluation(name, params, dirac, rng):
    system = make_builtin(name, params)
    rebuilt = system_from_dict(system_to_dict(system))
    assert rebuilt.n_particles == system.n_particles
    assert rebuilt.masses == system.masses
    assert rebuilt.hermitian == system.hermitian
    for _ in range(5):
        coords = random_config(rng)
        for k in (1, 2):
            a = evaluate_potential(system.potential(k), coords, dirac)
            b = evaluate_potential(rebuilt.potential(k), coords, dirac)
            assert frobenius(a - b) < 1e-12


def test_file_roundtrip(tmp_path, dirac, rng):
    system = make_builtin("hoho")
    path = tmp_path / "system.json"
    save_system(system, path)
    rebuilt = load_system(path)
    coords = random_config(rng)
    a = evaluate_potential(system.potential(1), coords, dirac)
    b = evaluate_potential(rebuilt.potential(1), coords, dirac)
    assert frobenius(a - b) < 1e-12


def test_system_from_dict_with_declared_params(dirac):
    data = {
        "N": 2,
        "masses": [1.0, 1.0],
        "hermitian": False,
        "params": {"g": {"re": 0.0, "im": 2.0}},
        "potentials": [
            {"particle": 1,
             "terms": [{"factors": [{"cls": "gamma", "mu": 1}, {"cls": "id"}],
                        "coeff": "g*cos(x2_0 - x1_0)"}]},
            {"particle": 2, "terms": []},
        ],
    }
    system = system_from_dict(data)
    coords = np.zeros((2, 4))
    matrix = evaluate_potential(system.potential(1), coords, dirac)
    assert frobenius(matrix - 2j * embed(dirac.gamma(1), 1, 2)) < 1e-12


def test_system_from_dict_missing_potential_defaults_to_zero(dirac, rng):
    data = {"N": 2, "masses": [1.0, 2.0],
            "potentials": [{"particle": 1, "terms": []}]}
    system = system_from_dict(data)
    assert system.potential(2).is_zero()
    assert system.mass(2) == 2.0


@pytest.mark.parametrize("data", [
    {},
    {"N": 2, "masses": [1.0], "potentials": []},
    {"N": 0, "masses": [], "potentials": []},
    {"N": 2, "masses": [1, 1],
     "potentials": [{"particle": 1, "terms": [{"factors": "xx", "coeff": "1"}]}]},
    {"N": 2, "masses": [1, 1],
     "potentials": [{"particle": 1,
                     "terms": [{"factors": [{"cls": "weird"}, {"cls": "id"}],
                                "coeff": "1"}]}]},
    {"N": 2, "masses": [1, 1],
     "potentials": [{"particle": 1, "terms": []},
                    {"particle": 1, "terms": []}]},
])
def test_system_from_dict_rejects_malformed(data):
    with pytest.raises(SpecError):
        system_from_dict(data)


def test_system_from_dict_propagates_parse_position():
    data = {"N": 2, "masses": [1, 1],
            "potentials": [{"particle": 1,
                            "terms": [{"factors": [{"cls": "id"}, {"cls": "id"}],
                                       "coeff": "1 + * 2"}]}]}
    with pytest.raises(DslParseError) as err:
        system_from_dict(data)
    assert err.value.position == 4


def test_guards_survive_save_and_load(tmp_path, dirac):
    system = make_builtin("coulomb_like")
    path = tmp_path / "coulomb.json"
    save_system(system, path)
    assert [p.name for p in tmp_path.iterdir()] == ["coulomb.json"]
    rebuilt = load_system(path)
    for k in (1, 2):
        before, after = system.potential(k).guards, rebuilt.potential(k).guards
        assert len(after) == len(before) == 1
        assert to_source(after[0].expr) == to_source(before[0].expr)
        assert after[0].threshold == before[0].threshold
        assert after[0].description == before[0].description
    with pytest.raises(DomainError, match="interparticle distance"):
        evaluate_potential(rebuilt.potential(1), np.zeros((2, 4)), dirac)


@pytest.mark.parametrize("guard", [
    "x1_1", {"threshold": 1e-6}, {"expr": 3}, {"expr": "x1_1", "threshold": "low"},
])
def test_system_from_dict_rejects_malformed_guard(guard):
    data = {"N": 2, "masses": [1, 1],
            "potentials": [{"particle": 1, "terms": [], "guards": [guard]}]}
    with pytest.raises(SpecError):
        system_from_dict(data)
