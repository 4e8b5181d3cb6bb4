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
    FIELD_NAMES,
    DomainError,
    Guard,
    MultiTimeSystem,
    Potential,
    PotentialTerm,
    Region,
    SpecError,
    differentiate_potential,
    evaluate_potential,
    hermitian_defect,
    is_spacelike,
    make_builtin,
    operator_field,
    sample_configs,
    system_from_dict,
    system_to_dict,
    load_system,
    save_system,
    stack_coords,
    zero_potential,
)
from oracles import (
    fd_matrix_partial,
    reference_is_spacelike,
    reference_sample_spacelike,
)


def random_config(rng):
    return rng.uniform(-2.0, 2.0, size=(2, 4))


def hermiticity_sup(system, configs):
    """sup over configurations and particles of ||V_k - V_k^dagger||_F."""
    coords = stack_coords(configs)
    return max(np.max(hermitian_defect(operator_field(potential, coords),
                                       system.n_particles))
               for potential in system.potentials)


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
    expected = embed(dirac.alphas[3], 2, 2)
    assert frobenius(matrix - expected) < 1e-14
    assert frobenius(evaluate_potential(system.potential(2), coords, dirac)) == 0
    assert system.hermitian


def test_example1_vector_custom_vectors(dirac, rng):
    system = make_builtin("example1_vector",
                          {"A": (1, 0, 0, 2), "B": (0, 1j, 0, 0)})
    coords = random_config(rng)
    v1 = evaluate_potential(system.potential(1), coords, dirac)
    v2 = evaluate_potential(system.potential(2), coords, dirac)
    assert frobenius(v1 - (np.eye(16) + 2 * embed(dirac.alphas[3], 2, 2))) < 1e-14
    assert frobenius(v2 - 1j * embed(dirac.alphas[1], 1, 2)) < 1e-14
    assert not system.hermitian


def hoho_closed_form(coords, rep, big_c, small_c, m1):
    """Independent evaluation of the exponential-form pair potential."""
    phase = 2 * sum(small_c[mu] * (coords[1][mu] - coords[0][mu])
                    for mu in range(4))
    rotor = expm(1j * phase * rep.gamma5)
    matrix = sum(big_c[mu] * rep.gammas[mu] for mu in range(4)) @ rotor
    return np.kron(matrix - m1 * rep.gammas[0], np.eye(4))


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


def test_hoho_default_is_hermitian(rng):
    system = make_builtin("hoho")
    assert system.hermitian
    configs = np.array([random_config(rng) for _ in range(10)])
    assert hermiticity_sup(system, configs) < 1e-12


def test_hoho_complex_time_component_breaks_hermiticity(rng):
    system = make_builtin("hoho", {"C": (1j, 0, 0, 0)})
    assert not system.hermitian
    configs = np.array([random_config(rng) for _ in range(5)])
    assert hermiticity_sup(system, configs) > 0.1


def test_hoho_imaginary_spatial_components_stay_hermitian(rng):
    system = make_builtin("hoho", {"C": (2.0, 0.5j, 0, 1j), "c": (1, 0, 0, 0.5)})
    assert system.hermitian
    configs = np.array([random_config(rng) for _ in range(10)])
    assert hermiticity_sup(system, configs) < 1e-12


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
    assert frobenius(matrix + 2.5 * embed(dirac.gammas[0], 1, 2)) < 1e-12


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


#: every 4-vector parameter of the builtins: (builtin, parameter)
FOURVECTOR_PARAMS = ([("example1_vector", "A"), ("example1_vector", "B"),
                      ("hoho", "C"), ("hoho", "c")]
                     + [("coefficient_form", name) for name in FIELD_NAMES])


@pytest.mark.parametrize("text", ["1234", "x2_0", "1,0,0,0"])
@pytest.mark.parametrize("builtin,name", FOURVECTOR_PARAMS)
def test_fourvector_parameter_refuses_a_string(builtin, name, text):
    # a string is iterable, but its characters are no components: "1234"
    # is not (1, 2, 3, 4)
    with pytest.raises(SpecError,
                       match=rf"^{name} needs 4 components, got '{text}'$"):
        make_builtin(builtin, {name: text})


@pytest.mark.parametrize("builtin,name", FOURVECTOR_PARAMS)
def test_fourvector_parameter_takes_any_sequence_of_four(builtin, name):
    values = (0.5, 0, -1, 2)
    built = make_builtin(builtin, {name: values})
    assert make_builtin(builtin, {name: list(values)}) == built
    assert make_builtin(builtin, {name: np.array(values)}) == built


def test_fourvector_array_builds_the_default():
    assert make_builtin("hoho", {"C": np.array([1, 0, 0, 0])}) \
        == make_builtin("hoho")


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
    configs = sample_configs(50, rng, region=Region.ALL)
    assert configs.shape == (50, 2, 4)
    assert np.all(np.abs(configs) <= 2.0)


def test_sample_configs_spacelike_region(rng):
    configs = sample_configs(50, rng, region=Region.SPACELIKE)
    assert configs.shape == (50, 2, 4)
    assert all(is_spacelike(c) for c in configs)


def test_sample_configs_seeded_reproducibility():
    a = sample_configs(10, np.random.default_rng(3), region=Region.SPACELIKE)
    b = sample_configs(10, np.random.default_rng(3), region=Region.SPACELIKE)
    assert np.array_equal(a, b)


def test_sample_configs_without_a_spacelike_draw_is_a_spec_error(rng):
    # twenty particles in the box are never pairwise spacelike
    with pytest.raises(SpecError, match=r"20 particles in the box \[-2, 2\]"):
        sample_configs(1, rng, 20, Region.SPACELIKE)


def test_is_spacelike_masks_a_stack_as_it_tests_each_configuration():
    rng = np.random.default_rng(11)
    for n_particles in (1, 2, 3, 5):
        stack = rng.uniform(-2, 2, size=(6, 50, n_particles, 4))
        mask = is_spacelike(stack)
        assert mask.shape == (6, 50)
        assert mask.tolist() == [[reference_is_spacelike(c) for c in row]
                                 for row in stack]


@pytest.mark.parametrize("n_particles", [2, 3])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_are_not_spacelike(n_particles, value):
    # a NaN fails every comparison, so it must fail dt^2 < |dx|^2
    coords = np.arange(n_particles * 4, dtype=float).reshape(n_particles, 4)
    coords[:, 0] = 0.0  # equal times, distinct places: spacelike
    assert is_spacelike(coords) and reference_is_spacelike(coords)
    for index in np.ndindex(coords.shape):
        bad = coords.copy()
        bad[index] = value
        assert not is_spacelike(bad)
        assert not reference_is_spacelike(bad)
        assert is_spacelike(np.stack([coords, bad])).tolist() == [True, False]
    assert not is_spacelike(np.full((n_particles, 4), value))


@pytest.mark.parametrize("n_samples", [1, 2, 5])
@pytest.mark.parametrize("n_particles", [2, 3, 4])
def test_few_spacelike_samples_match_one_at_a_time_draws(n_particles,
                                                         n_samples):
    # blocks sized from the samples still wanted draw the same stream
    for seed in range(10, 30):
        got = sample_configs(n_samples, np.random.default_rng(seed),
                             n_particles, Region.SPACELIKE)
        want = reference_sample_spacelike(
            n_samples, np.random.default_rng(seed), n_particles)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n_samples", [1, 7, 2000])
@pytest.mark.parametrize("n_particles", [2, 3, 4])
def test_block_sampler_matches_one_at_a_time_draws(n_particles, n_samples):
    # bit for bit; where the generator is left afterwards is not specified
    for seed in range(5):
        got = sample_configs(n_samples, np.random.default_rng(seed),
                             n_particles, Region.SPACELIKE)
        want = reference_sample_spacelike(
            n_samples, np.random.default_rng(seed), n_particles)
        assert np.array_equal(got, want)


class _ScriptedRng:
    """Generator stand-in: candidate i (in draw order) is spacelike exactly
    when i is in `hits`; state is the count drawn."""

    def __init__(self, hits):
        self.hits = set(hits)
        self.state = 0
        self.sizes = []

    def uniform(self, low, high, size):
        self.sizes.append(size)
        *lead, n_particles, _ = size
        count = int(np.prod(lead))
        out = np.zeros((count, n_particles, 4))
        for i in range(count):
            if self.state + i in self.hits:  # equal times, unit spacing
                out[i, :, 1] = np.arange(n_particles)
        self.state += count
        return out.reshape(size)


@pytest.mark.parametrize("n_samples, hits, drawn, fails", [
    (1, [9999], 10000, False),   # 9,999 rejections, across two block ends
    (1, [10000], 10000, True),   # fails at the 10,000th rejection
    (1, [], 10000, True),
    (2, [0, 10000], 10001, False),
    (2, [0, 10001], 10001, True),
    (2, [4095, 14095], 14096, False),  # the streak begins at a block end
    (2, [4095, 14096], 14096, True),
    (3, [100, 200], 10201, True),
])
def test_rejection_streaks_span_blocks(n_samples, hits, drawn, fails):
    # the oracle runs last: drawn is its exact count of candidates taken
    for sampler in (
            lambda rng: sample_configs(n_samples, rng, 2, Region.SPACELIKE),
            lambda rng: reference_sample_spacelike(n_samples, rng, 2)):
        rng = _ScriptedRng(hits)
        if fails:
            with pytest.raises(SpecError):
                sampler(rng)
        else:
            assert sampler(rng).shape == (n_samples, 2, 4)
    assert rng.state == drawn


def test_spacelike_blocks_hold_a_bounded_number_of_pairs():
    # 20 particles make 190 pairs per candidate: the block shrinks to fit
    rng = _ScriptedRng([])
    with pytest.raises(SpecError, match="20 particles"):
        sample_configs(1, rng, 20, Region.SPACELIKE)
    assert max(np.prod(size[:-2]) for size in rng.sizes) * 190 <= 4096


def test_few_spacelike_samples_draw_a_small_block():
    rng = _ScriptedRng(range(0, 10000, 3))
    assert sample_configs(2, rng, 2, Region.SPACELIKE).shape == (2, 2, 4)
    assert max(np.prod(size[:-2]) for size in rng.sizes) == 64


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


@pytest.mark.parametrize("target, reason", [
    ("missing/system.json", "No such file or directory"),
    ("directory", "Is a directory"),
], ids=["missing directory", "directory"])
def test_save_system_errors_name_the_given_path(tmp_path, target, reason):
    """The OSError names the path given, never the staging file beside
    it, and no staging file is left behind."""
    (tmp_path / "directory").mkdir()
    path = str(tmp_path / target)
    with pytest.raises(OSError) as err:
        save_system(make_builtin("hoho"), path)
    assert str(err.value) == f"cannot write {path!r}: {reason}"
    assert ".tmp-mtdirac-" not in str(err.value)
    assert [p.name for p in tmp_path.rglob("*")] == ["directory"]


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
    assert frobenius(matrix - 2j * embed(dirac.gammas[1], 1, 2)) < 1e-12


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


SINGLE_PARTICLE_ELEMENTS = [BasisElement(cls, mu)
                            for cls in BasisClass for mu in range(4)]


@pytest.mark.parametrize("particle", [1, 2])
@pytest.mark.parametrize("element", SINGLE_PARTICLE_ELEMENTS,
                         ids=lambda element: element.label())
def test_every_factor_class_survives_a_spec_round_trip(element, particle):
    factors = [IDENTITY_ELEMENT, IDENTITY_ELEMENT]
    factors[particle - 1] = element
    structure = tensor_element(*factors)
    system = MultiTimeSystem(
        name="one term", n_particles=2, masses=(1.0, 1.0),
        potentials=(Potential(1, 2, (PotentialTerm(structure, Const(2j)),)),
                    zero_potential(2)),
        hermitian=False)
    rebuilt = system_from_dict(system_to_dict(system))
    assert rebuilt.potential(1).terms[0].structure == structure


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
