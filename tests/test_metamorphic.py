"""Metamorphic relations: changes of a system's description that must
leave its reports unchanged, or change them in a known way.

* Save and load: a builtin written by save_system and read back through
  --spec gives the same exit code, report, verdict and error message as
  --builtin.
* Particle relabelling: reversing the factor order of every structure,
  swapping x1 and x2 in every coefficient and guard and swapping the
  masses turns E(1,2) into -E(2,1) at the swapped configurations, so
  zeroth_sup is unchanged, deriv_coeff_sup's two halves trade places and
  each cc family takes the value of its transposed sector's family.
* Stack splitting: check_consistency evaluates each configuration of its
  stack on its own, so every sup of a stack is exactly the larger of the
  sups of its two halves.
* Pure gauge: adding d_1 theta to W1 and d_2 theta to W2 commutes with
  every coefficient-form structure of the other particle, and the mixed
  second derivatives it adds to E(1,2) cancel, so every sup moves by
  round-off only; the gauge alone classifies as GAUGE_REMOVABLE, and a
  gauge of theta = sin(sum_ij M_ij x1_i x2_j / 4) alone, whose mixed
  derivatives reach every pair of components, is also CONSISTENT.
* Translation: a system whose coefficients depend on x2 - x1 alone takes
  the same values at translated configurations, so its translation
  residual is round-off.
* Classify against check: a pure gauge is consistent, so a pair that
  classify_interaction calls GAUGE_REMOVABLE is CONSISTENT at its probes.
* Spin-free pairs (Petrat and Tumulka, J. Math. Phys. 55, 032302, 2014):
  with V_k = f_k 1 a pair is consistent exactly when it is a pure gauge
  of the two times plus fields of each particle's own coordinates, so
  check reads CONSISTENT exactly when classify reads GAUGE_REMOVABLE.
* Zero-valued slots: writing empty coefficient slots as zero-valued
  expressions that are not the literal zero (0*1, x1_0 - x1_0) leaves
  every classify report value unchanged, so the dense sweep over all
  slots is the oracle of classify's sparse one.
* Exponential form: a hoho pair that check finds consistent obeys every
  exponential_form_residual condition at the same samples.
* Holonomy against curvature: a square loop of side delta deviates from
  psi0 by delta^2 ||F psi0|| to leading order, so the solver's loops
  converge to the curvature builder's norm, and a pair whose steps act on
  separate particles returns psi0 to round-off.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtdirac.cli import _collect_params, entry
from mtdirac.clifford import IDENTITY_ELEMENT, tensor_element
from mtdirac.consistency import CC_SECTORS, check_consistency
from mtdirac.clifford import field_norm
from mtdirac.dsl import ZERO, BinOp, Call, Const, Coord, differentiate, \
    evaluate, to_source
from mtdirac.potential import (
    BUILTIN_SYSTEMS,
    COEFFICIENT_LAYOUT,
    FIELD_NAMES,
    CoefficientSet,
    MultiTimeSystem,
    Potential,
    PotentialTerm,
    Region,
    coefficient_set_to_system,
    make_builtin,
    operator_field,
    sample_configs,
    save_system,
    stack_coords,
    to_coefficient_form,
)
from mtdirac.solver import Grid, curvature_norm, holonomy_series, \
    product_state
from mtdirac.symmetry import GAUGE_REMOVABLE, PROBES, \
    classify_interaction, exponential_form_residual, make_translation, \
    poincare_residual

# label: (builtin name, --param NAME=VALUE pairs)
_BUILTINS = {
    "hoho": ("hoho", []),
    "hoho complex": ("hoho", ["C=1,0.5j,0,0", "c=0.3,0.1,0,0.2"]),
    "example1_vector": ("example1_vector", []),
    "free": ("free", []),
    "coulomb_like": ("coulomb_like", []),
    "coefficient_form": ("coefficient_form",
                         ["W1=x2_0,0,0,0", "W2=x1_0,0,0,0"]),
    "coefficient_form masses": ("coefficient_form",
                                ["W1=m1*x2_0,0,0,0", "E=0,m2*x1_3,0,0",
                                 "m1=2", "m2=0.5"]),
}

_COMMANDS = {
    "check": ["check", "--nsamples", "20"],
    "check spacelike": ["check", "--nsamples", "20", "--region",
                        "spacelike"],
    "cc": ["cc", "--nsamples", "20"],
    "classify": ["classify", "--nsamples", "5"],
    "poincare": ["poincare", "--nsamples", "10"],
    "simulate --dt": ["simulate", "--grid-n", "16", "--T", "0.1",
                      "--dt", "0.05,0.025"],
    "simulate --delta": ["simulate", "--grid-n", "16", "--delta", "0.1,0.05"],
}


def _run(argv: list[str]) -> tuple:
    """(exit code, report, verdict, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(argv)
    envelope = json.loads(out.getvalue()) if out.getvalue() else {}
    return (code, envelope.get("report"), envelope.get("verdict"),
            err.getvalue())


@pytest.mark.parametrize("label", sorted(_BUILTINS))
def test_saved_builtin_reports_like_the_builtin(label, tmp_path):
    name, params = _BUILTINS[label]
    spec = tmp_path / "system.json"
    save_system(make_builtin(name, _collect_params(params)), spec)
    source = ["--builtin", name] + [arg for pair in params
                                    for arg in ("--param", pair)]
    for command, argv in _COMMANDS.items():
        assert (_run(argv + ["--spec", str(spec)])
                == _run(argv + source)), command


def _swap_particles(node):
    """An expression tree with x1 and x2 exchanged."""
    if isinstance(node, Coord):
        return Coord(3 - node.k, node.mu)
    if not is_dataclass(node):
        return node
    return replace(node, **{f.name: _swap_particles(getattr(node, f.name))
                            for f in fields(node)})


def _relabelled(system: MultiTimeSystem) -> MultiTimeSystem:
    """The pair with particles 1 and 2 exchanged: V_1' is V_2 with its
    factors reversed and x1, x2 swapped, and likewise V_2'."""
    potentials = tuple(
        Potential(k, 2, tuple(
            PotentialTerm(tensor_element(*term.structure.factors[::-1]),
                          _swap_particles(term.coefficient))
            for term in old.terms), tuple(
            replace(guard, expr=_swap_particles(guard.expr))
            for guard in old.guards))
        for k, old in ((1, system.potential(2)), (2, system.potential(1))))
    return replace(system, masses=system.masses[::-1], potentials=potentials)


# cc family i -> the family of its transposed sector, (a, b) -> (b, a)
_TRANSPOSED = {i: i for i in (1, 4, 13, 16)} | {
    i: j for pair in [(2, 3), (5, 9), (6, 10), (7, 11), (8, 12), (14, 15)]
    for i, j in (pair, pair[::-1])}


@pytest.mark.parametrize("name, params", [
    ("hoho", {"m2": 0.5}),
    ("hoho", {"C": (1, 0.5j, 0, 0), "c": (0.3, 0.1, 0, 0.2), "m1": 2.0}),
    ("example1_vector", {}),
    ("coefficient_form", {"W1": ("x2_0", 0, 0, 0), "X1": (0, "x2_3", 0, 0),
                          "A": ("sin(x1_1 + x2_0)", 0, 0, 0),
                          "E": (0, 0, "x1_2*x2_3", 0), "m1": 2.0}),
    ("coulomb_like", {"m2": 1.5}),
])
def test_relabelling_particles_exchanges_the_residuals(name, params, rng):
    system = make_builtin(name, params)
    samples = sample_configs(50, rng)
    original = check_consistency(system, samples)
    swapped = check_consistency(_relabelled(system), samples[:, ::-1])
    assert swapped.zeroth_sup == original.zeroth_sup
    assert swapped.deriv_coeff_sup == (original.deriv_coeff_sup[3:]
                                       + original.deriv_coeff_sup[:3])
    assert all(CC_SECTORS[j - 1] == CC_SECTORS[i - 1][::-1]
               for i, j in _TRANSPOSED.items())
    assert (swapped.cc is None) == (original.cc is None)
    if original.cc is not None:
        assert swapped.cc == {f"cc{_TRANSPOSED[i]}": original.cc[f"cc{i}"]
                              for i in _TRANSPOSED}


# each builtin, with fields that vary over the configurations
_SPLIT_SYSTEMS = {name: {} for name in BUILTIN_SYSTEMS} | {
    "hoho": {"C": (1, 0.5j, 0, 0), "c": (0.3, 0.1, 0, 0.2)},
    "coefficient_form": {"W1": ("x2_0", 0, 0, 0), "X1": (0, "x2_3", 0, 0),
                         "A": ("sin(x1_1 + x2_0)", 0, 0, 0),
                         "E": (0, 0, "x1_2*x2_3", 0)},
}


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("name", _SPLIT_SYSTEMS)
def test_a_stack_reports_the_max_over_its_halves(name, region, rng):
    system = make_builtin(name, _SPLIT_SYSTEMS[name])
    samples = sample_configs(301, rng, region=region)
    whole, *halves = (check_consistency(system, stack)
                      for stack in (samples, samples[:137], samples[137:]))
    assert whole.zeroth_sup == max(half.zeroth_sup for half in halves)
    assert whole.deriv_coeff_sup == tuple(
        max(sups) for sups in zip(*(half.deriv_coeff_sup for half in halves)))
    if whole.cc is None:
        assert all(half.cc is None for half in halves)
    else:
        assert whole.cc == {key: max(half.cc[key] for half in halves)
                            for key in whole.cc}


def _linear_form(draw, particles=(1, 2), top=3) -> object:
    """a xJ_mu + b xK_nu + c for (J, K) = particles and mu, nu <= top; by
    default a form in both particles' coordinates."""
    a, b, c = (draw(st.floats(-1.5, 1.5)) for _ in range(3))
    mu, nu = draw(st.integers(0, top)), draw(st.integers(0, top))
    j, k = particles
    return BinOp("+", BinOp("+", BinOp("*", Const(a), Coord(j, mu)),
                            BinOp("*", Const(b), Coord(k, nu))), Const(c))


@st.composite
def _smooth_functions(draw, particles=(1, 2), top=3) -> object:
    """Sums of one to three products of one or two of sin, cos and exp of
    linear forms."""
    def factor():
        return Call(draw(st.sampled_from(["sin", "cos", "exp"])),
                    _linear_form(draw, particles, top))

    def monomial():
        if draw(st.booleans()):
            return factor()
        return BinOp("*", factor(), factor())

    expr = monomial()
    for _ in range(draw(st.integers(0, 2))):
        expr = BinOp("+", expr, monomial())
    return expr


_GAUGE_SAMPLES = sample_configs(200, np.random.default_rng(7))


def _with_gauge(coefficients: CoefficientSet, theta) -> CoefficientSet:
    """W1 += d_1 theta and W2 += d_2 theta, component by component."""
    return replace(coefficients, **{
        name: tuple(BinOp("+", w, differentiate(theta, k, mu))
                    for mu, w in enumerate(coefficients.field(name)))
        for name, k in (("W1", 1), ("W2", 2))})


def _sups(report) -> list[float]:
    return [report.zeroth_sup, *report.deriv_coeff_sup,
            *(report.cc[key] for key in sorted(report.cc))]


def _assert_gauge_invariant(system: MultiTimeSystem, theta) -> None:
    """Every sup of the gauged pair within 1e-12 max(1, the sup, the
    largest |d_{1,mu} d_{2,nu} theta| on the samples) of the pair's."""
    gauged = coefficient_set_to_system(
        _with_gauge(to_coefficient_form(system), theta), system.masses,
        hermitian=system.hermitian)
    coords = stack_coords(_GAUGE_SAMPLES)
    with np.errstate(all="ignore"):
        mixed = max(float(np.max(np.abs(evaluate(differentiate(
            differentiate(theta, 1, mu), 2, nu), coords))))
            for mu in range(4) for nu in range(4))
    before, after = (_sups(check_consistency(s, _GAUGE_SAMPLES))
                     for s in (system, gauged))
    assert len(before) == 1 + 6 + 16
    for base, moved in zip(before, after):
        assert abs(moved - base) <= 1e-12 * max(1.0, base, mixed)


@st.composite
def _coefficient_forms(draw, functions=_smooth_functions()) -> MultiTimeSystem:
    """A coefficient form with one to three fields, each component zero or
    a drawn function."""
    names = draw(st.lists(st.sampled_from(FIELD_NAMES), min_size=1,
                          max_size=3, unique=True))
    fields = {name: (ZERO,) * 4 for name in FIELD_NAMES} | {
        name: tuple(draw(functions) if draw(st.booleans())
                    else ZERO for _ in range(4)) for name in names}
    masses = (draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0)))
    return coefficient_set_to_system(CoefficientSet(**fields), masses)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(theta=_smooth_functions())
def test_a_pure_gauge_leaves_hoho_residuals(theta):
    _assert_gauge_invariant(make_builtin("hoho"), theta)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(system=_coefficient_forms(), theta=_smooth_functions())
def test_a_pure_gauge_leaves_coefficient_form_residuals(system, theta):
    _assert_gauge_invariant(system, theta)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(theta=_smooth_functions())
def test_a_pure_gauge_alone_is_gauge_removable(theta):
    empty = CoefficientSet(**{name: (ZERO,) * 4 for name in FIELD_NAMES})
    system = coefficient_set_to_system(_with_gauge(empty, theta))
    assert classify_interaction(system).verdict == GAUGE_REMOVABLE


def _bilinear_gauge(matrix) -> object:
    """sin(sum_ij M_ij x1_i x2_j / 4) for the 4x4 matrix M, row by row."""
    terms = [BinOp("*", BinOp("*", Const(complex(m)), Coord(1, i)),
                   Coord(2, j))
             for (i, j), m in np.ndenumerate(np.reshape(matrix, (4, 4)))]
    form = terms[0]
    for term in terms[1:]:
        form = BinOp("+", form, term)
    return Call("sin", BinOp("/", form, Const(4 + 0j)))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(matrix=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16))
def test_a_bilinear_pure_gauge_is_consistent_and_gauge_removable(matrix):
    empty = CoefficientSet(**{name: (ZERO,) * 4 for name in FIELD_NAMES})
    system = coefficient_set_to_system(
        _with_gauge(empty, _bilinear_gauge(matrix)))
    assert check_consistency(system, _GAUGE_SAMPLES).verdict == "CONSISTENT"
    assert classify_interaction(system).verdict == GAUGE_REMOVABLE


@st.composite
def _relative_functions(draw) -> object:
    """sin, cos or exp of a (x2_mu - x1_mu) + b (x2_nu - x1_nu) + c."""
    a, b, c = (draw(st.floats(-1.5, 1.5)) for _ in range(3))
    mu, nu = draw(st.integers(0, 3)), draw(st.integers(0, 3))

    def relative(weight, index):
        return BinOp("*", Const(weight),
                     BinOp("-", Coord(2, index), Coord(1, index)))

    form = BinOp("+", BinOp("+", relative(a, mu), relative(b, nu)), Const(c))
    return Call(draw(st.sampled_from(["sin", "cos", "exp"])), form)


_TRANSLATION_SAMPLES = sample_configs(100, np.random.default_rng(11))
_TRANSLATIONS = [make_translation(offset) for offset in
                 np.random.default_rng(12).uniform(-2, 2, size=(5, 4))]


def _translation_excess(system: MultiTimeSystem) -> float:
    """The largest translation residual over 1e-12 max(1, the largest
    |V_k| at the samples), in poincare_residual's norm."""
    scale = max(1.0, *(float(np.max(field_norm(operator_field(
        potential, stack_coords(_TRANSLATION_SAMPLES)), 2), initial=0.0))
        for potential in system.potentials))
    return max(poincare_residual(system, _TRANSLATIONS,
                                 _TRANSLATION_SAMPLES)) / (1e-12 * scale)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(system=_coefficient_forms(_relative_functions()))
def test_a_system_in_the_separation_is_translation_invariant(system):
    assert _translation_excess(system) <= 1


def test_a_system_in_the_sum_of_the_times_is_not_translation_invariant():
    system = make_builtin("coefficient_form",
                          {"W1": ("sin(x1_0 + x2_0)", 0, 0, 0)})
    assert _translation_excess(system) > 1


_ALPHA_FIELDS = ("W1", "X1", "Y1", "Z1", "W2", "X2", "Y2", "Z2")


@st.composite
def _gauges_with_constant_fields(draw) -> MultiTimeSystem:
    """A pure gauge or none, plus one or two alpha-sector fields with
    constant components: their curls vanish, so the f-sector reads them
    removable, while a gamma5_j sector meets m_j gamma0_j in E(1,2)."""
    names = draw(st.lists(st.sampled_from(_ALPHA_FIELDS), min_size=1,
                          max_size=2, unique=True))
    fields = {name: (ZERO,) * 4 for name in FIELD_NAMES} | {
        name: tuple(Const(complex(draw(st.sampled_from([0, 0, 1, -0.5]))))
                    for _ in range(4)) for name in names}
    coefficients = CoefficientSet(**fields)
    if draw(st.booleans()):
        coefficients = _with_gauge(coefficients, draw(_smooth_functions()))
    masses = tuple(draw(st.sampled_from([0.0, 1.0])) for _ in range(2))
    return coefficient_set_to_system(coefficients, masses)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(system=st.one_of(_gauges_with_constant_fields(), _coefficient_forms()))
def test_gauge_removable_is_consistent_at_the_probes(system):
    if classify_interaction(system).verdict == GAUGE_REMOVABLE:
        report = check_consistency(system, PROBES)
        assert report.verdict == "CONSISTENT"


@st.composite
def _sparse_forms_with_zero_slots(draw) -> tuple[list[str], list[str]]:
    """--param arguments of a coefficient form with one to three fields,
    each component zero, a constant or a drawn function, and the same
    arguments with about half of the empty slots written as zero-valued
    expressions that are not the literal zero: 0*1 in an alpha-sector
    slot, which keeps the sector constant, and xK_mu - xK_mu elsewhere."""
    names = draw(st.lists(st.sampled_from(FIELD_NAMES), min_size=1,
                          max_size=3, unique=True))
    values = st.one_of(st.sampled_from(["1", "-0.5", "0.3j"]),
                       _smooth_functions().map(to_source))
    sparse = {name: ["0"] * 4 for name in FIELD_NAMES} | {
        name: [draw(values) if draw(st.booleans()) else "0"
               for _ in range(4)] for name in names}
    empty = [(name, mu) for name, slots in sparse.items()
             for mu, slot in enumerate(slots) if slot == "0"]
    padded = {name: list(slots) for name, slots in sparse.items()}
    pads = draw(st.lists(st.booleans(), min_size=len(empty),
                         max_size=len(empty)).filter(any))
    for name, mu in (slot for slot, pad in zip(empty, pads) if pad):
        k, nu = draw(st.sampled_from((1, 2))), draw(st.integers(0, 3))
        padded[name][mu] = ("0*1" if name in _ALPHA_FIELDS
                            else f"x{k}_{nu} - x{k}_{nu}")
    masses = [f"m{k}={draw(st.sampled_from(['0', '1']))}" for k in (1, 2)]
    return tuple(masses + [f"{name}={','.join(slots)}"
                           for name, slots in fields.items()
                           if slots != ["0"] * 4]
                 for fields in (sparse, padded))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(pair=_sparse_forms_with_zero_slots())
@example(pair=(["W1=x2_0,0,0,0", "W2=x1_0,0,0,0"],
               ["W1=x2_0,0,0,0", "W2=x1_0,0,0,0", "X1=0*1,0,0,0",
                "Y2=0,0,0*1,0"]))
@example(pair=(["W1=x2_1,0,0,0"], ["W1=x2_1,0,0,0", "W2=0,0*1,0,0"]))
@example(pair=(["m1=1", "Y2=0.3,0,0,0"],
               ["m1=1", "Y2=0.3,0,0,0", "A=x2_0 - x2_0,0,0,0"]))
def test_zero_valued_slots_leave_the_classify_report(pair):
    sparse, padded = (_run(["classify", "--builtin", "coefficient_form",
                            "--nsamples", "5"]
                           + [arg for param in params
                              for arg in ("--param", param)])
                      for params in pair)
    assert padded == sparse


def _spin_free(f1, f2, masses) -> MultiTimeSystem:
    """V_k = f_k 1: W1_0 = f1 and W2_0 = f2, every other field zero."""
    fields = {name: (ZERO,) * 4 for name in FIELD_NAMES} | {
        "W1": (f1, ZERO, ZERO, ZERO), "W2": (f2, ZERO, ZERO, ZERO)}
    return coefficient_set_to_system(CoefficientSet(**fields), masses)


_MASSES = st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0))
_TIME_GAUGES = _smooth_functions(top=0)  # theta(x1_0, x2_0)
_SPIN_FREE_PAIRS = {
    "own particle": st.builds(_spin_free, _smooth_functions((1, 1)),
                              _smooth_functions((2, 2)), _MASSES),
    "pure gauge": st.builds(
        lambda theta, masses: _spin_free(differentiate(theta, 1, 0),
                                         differentiate(theta, 2, 0), masses),
        _TIME_GAUGES, _MASSES),
    "both particles": st.builds(_spin_free, _smooth_functions(),
                                _smooth_functions(), _MASSES),
}


@pytest.mark.parametrize("family", list(_SPIN_FREE_PAIRS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_spin_free_pair_is_consistent_exactly_when_gauge_removable(
        family, data):
    system = data.draw(_SPIN_FREE_PAIRS[family])
    report = check_consistency(system, PROBES)
    removable = classify_interaction(system).verdict == GAUGE_REMOVABLE
    assert (report.verdict == "CONSISTENT") == removable


_EXPONENTIAL_SAMPLES = sample_configs(50, np.random.default_rng(13))
_COMPLEX = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(big_c=st.tuples(*[_COMPLEX] * 4),
       small_c=st.tuples(*[st.floats(-1.0, 1.0)] * 4),
       masses=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)))
def test_a_consistent_hoho_pair_obeys_the_exponential_form(big_c, small_c,
                                                           masses):
    system = make_builtin("hoho", {"C": big_c, "c": small_c,
                                   "m1": masses[0], "m2": masses[1]})
    report = check_consistency(system, _EXPONENTIAL_SAMPLES)
    if report.verdict == "CONSISTENT":
        residual = exponential_form_residual(
            to_coefficient_form(system), system.masses, _EXPONENTIAL_SAMPLES)
        assert max(residual.values()) < report.tol


def _line_function(rng, readable) -> object:
    """One or two products of one or two sines or cosines of linear forms
    a xJ_mu + b xK_nu + c, (J, mu) and (K, nu) drawn from `readable`."""
    def factor():
        (j, mu), (k, nu) = (readable[i] for i in rng.integers(len(readable),
                                                              size=2))
        a, b, c = (Const(complex(v)) for v in rng.uniform(-1.5, 1.5, 3))
        form = BinOp("+", BinOp("+", BinOp("*", a, Coord(j, mu)),
                                BinOp("*", b, Coord(k, nu))), c)
        return Call(str(rng.choice(["sin", "cos"])), form)

    def monomial():
        return factor() if rng.random() < 0.5 else BinOp("*", factor(),
                                                         factor())
    return monomial() if rng.random() < 0.5 else BinOp("+", monomial(),
                                                       monomial())


def _line_system(rng) -> MultiTimeSystem:
    """One to three coefficient-form fields, each component zero or a drawn
    function of x_k0 and x_k3 alone: V_1's read the times only, so every
    loop starts with a time-only leg, and V_2's read z too.  In about a
    third of the draws the pair is separated: each field acts on its own
    particle's spin and reads its own particle's coordinates."""
    separated = rng.random() < 0.3
    names = [name for name, (_, _, other) in COEFFICIENT_LAYOUT.items()
             if not separated or other == IDENTITY_ELEMENT]
    fields = {name: (ZERO,) * 4 for name in FIELD_NAMES}
    for name in rng.choice(names, size=rng.integers(1, 4), replace=False):
        k = COEFFICIENT_LAYOUT[name][0]
        readable = [(j, mu) for j in ((k,) if separated else (1, 2))
                    for mu in ((0,) if k == 1 else (0, 3))]
        fields[str(name)] = tuple(_line_function(rng, readable)
                                  if rng.random() < 0.5 else ZERO
                                  for _ in range(4))
    return coefficient_set_to_system(CoefficientSet(**fields),
                                     tuple(rng.uniform(0.0, 2.0, 2)))


def test_loop_holonomy_tends_to_the_curvature_norm():
    """Ten drawn line systems from simulate's psi0 at n = 32 and delta =
    0.1, 0.05, 0.025.

    The loop's product is 1 - delta^2 F + O(delta^3) with F at the loop's
    corner, where curvature_norm evaluates it, so r(delta) = deviation /
    delta^2 = ||F psi0|| + a delta + O(delta^2), and a is in general not
    0.  Richardson's 2 r(delta / 2) - r(delta) cancels it: where
    ||F psi0|| >= 0.1 its relative error falls at least 3x per halving
    (4x asymptotically; 3.85-5.37x measured).  Where F is 0, as for a
    separated pair, the loop returns psi0 to round-off.  A coefficient
    form's first-order curvature parts vanish, so this checks F's
    zeroth-order part against the solver."""
    rng = np.random.default_rng(18)
    grid, deltas = Grid(points=32), [0.1, 0.05, 0.025]
    curved = flat = 0
    for _ in range(10):
        system = _line_system(rng)
        psi0 = product_state(grid)
        rows = holonomy_series(system, psi0, deltas).rows
        norm = curvature_norm(system, psi0)
        if norm == 0:
            flat += 1
            assert all(deviation <= 64 * np.finfo(float).eps
                       for _, deviation, _ in rows)
        elif norm >= 0.1:
            curved += 1
            ratios = [ratio for _, _, ratio in rows]
            errors = [abs(2 * half - whole - norm) / norm
                      for whole, half in zip(ratios, ratios[1:])]
            assert errors[0] >= 3 * errors[1], (norm, ratios)
    assert curved >= 5 and flat >= 1
