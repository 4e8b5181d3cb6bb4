import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mtdirac.dsl import (
    FUNCTIONS,
    Add,
    Call,
    Const,
    Coord,
    Div,
    DslEvaluationError,
    DslParseError,
    Mul,
    Neg,
    Param,
    Pow,
    Sub,
    differentiate,
    evaluate,
    is_constant,
    parse,
    to_source,
)
from oracles import fd_partial


def sample_coords(rng, n_particles=2):
    return rng.uniform(-2.0, 2.0, size=(n_particles, 4))


def test_parse_basic_arithmetic():
    assert evaluate(parse("2^10"), np.zeros((2, 4))) == 1024
    assert evaluate(parse("1 + 2*3"), np.zeros((2, 4))) == 7
    assert evaluate(parse("(1 + 2)*3"), np.zeros((2, 4))) == 9
    assert evaluate(parse("2 - 3 - 4"), np.zeros((2, 4))) == -5
    assert evaluate(parse("12/3/2"), np.zeros((2, 4))) == 2
    assert evaluate(parse("-2^2"), np.zeros((2, 4))) == -4


def test_parse_imaginary_unit():
    assert evaluate(parse("i*i"), np.zeros((2, 4))) == -1
    assert evaluate(parse("3 + 2*i"), np.zeros((2, 4))) == 3 + 2j


def test_coordinates_index_particle_and_component():
    coords = np.arange(8.0).reshape(2, 4)
    assert evaluate(parse("x1_0"), coords) == 0
    assert evaluate(parse("x1_3"), coords) == 3
    assert evaluate(parse("x2_0"), coords) == 4
    assert evaluate(parse("x2_3"), coords) == 7


def test_parameters_bind_at_parse_time():
    expr = parse("m*x1_1", params={"m": 2.5})
    coords = np.zeros((2, 4))
    coords[0, 1] = 4.0
    assert evaluate(expr, coords) == 10.0
    assert "m" in to_source(expr)


def test_function_evaluation_matches_numpy():
    rng = np.random.default_rng(7)
    coords = sample_coords(rng)
    relative = coords[1] - coords[0]
    expr = parse("cos(2*(x2_0 - x1_0)) + sin(x2_3 - x1_3)")
    expected = np.cos(2 * relative[0]) + np.sin(relative[3])
    assert abs(evaluate(expr, coords) - expected) < 1e-12


def test_sqrt_of_negative_real_is_positive_imaginary():
    coords = np.zeros((2, 4))
    coords[0, 0] = -4.0
    assert abs(evaluate(parse("sqrt(x1_0)"), coords) - 2j) < 1e-12


@pytest.mark.parametrize("source", ["sqrt(-x2_0)", "sqrt(-4)",
                                    "sqrt(16/x1_0)"])
def test_sqrt_of_negated_or_divided_real_is_positive_imaginary(source):
    # negation and complex division leave -0.0 as the imaginary part
    coords = np.zeros((2, 4))
    coords[0, 0], coords[1, 0] = -4.0, 4.0
    assert evaluate(parse(source), coords) == 2j


def test_evaluate_broadcasts_arrays():
    z1 = np.linspace(-1, 1, 5)[:, None]
    z2 = np.linspace(-2, 2, 7)[None, :]
    coords = [[0.0, 0.0, 0.0, z1], [0.0, 0.0, 0.0, z2]]
    out = evaluate(parse("cos(x1_3 - x2_3)"), coords)
    assert out.shape == (5, 7)
    assert np.allclose(out, np.cos(z1 - z2))


def test_division_by_zero_raises():
    coords = np.zeros((2, 4))
    with pytest.raises(DslEvaluationError):
        evaluate(parse("1/x1_0"), coords)
    grid = [[np.array([1.0, 0.0]), 0, 0, 0], [0, 0, 0, 0]]
    with pytest.raises(DslEvaluationError):
        evaluate(parse("1/x1_0"), grid)


@pytest.mark.parametrize("source,position", [
    ("x1_0 +", 6),
    ("(1 + 2", 6),
    ("x3_0", 0),
    ("x1_0 * foo", 7),
    ("exp 2", 4),
    ("x1_1^x2_2", 5),
    ("1 + ?", 4),
])
def test_parse_errors_carry_position(source, position):
    with pytest.raises(DslParseError) as err:
        parse(source, n_particles=2)
    assert err.value.position == position


def test_unknown_identifier_is_a_parse_error():
    with pytest.raises(DslParseError):
        parse("undeclared", params={})
    parse("declared", params={"declared": 1.0})


EXPRESSIONS = [
    "x1_0",
    "2.5",
    "i",
    "-x1_1^3",
    "x1_0^2 - x2_3",
    "x1_0*x2_0 + x1_1*x2_1",
    "cos(2*(x2_0 - x1_0))",
    "exp(x1_2 - x2_2)*sin(x1_0)",
    "sinh(x1_3)*cosh(x2_3)",
    "sqrt(4 + x1_0^2)",
    "(x1_0 - x2_0)/(4 + x1_1^2)",
    "1 - 2*i*x2_1 + (3 + 0.5*i)*x1_2^2",
]


@pytest.mark.parametrize("source", EXPRESSIONS)
def test_roundtrip_through_source(source, rng):
    expr = parse(source)
    printed = to_source(expr)
    reparsed = parse(printed)
    for _ in range(20):
        coords = sample_coords(rng)
        assert abs(evaluate(expr, coords) - evaluate(reparsed, coords)) < 1e-12


@pytest.mark.parametrize("source", EXPRESSIONS)
@pytest.mark.parametrize("k,mu", [(1, 0), (2, 3)])
def test_symbolic_derivative_matches_finite_difference(source, k, mu, rng):
    expr = parse(source)
    deriv = differentiate(expr, k, mu)
    for _ in range(5):
        coords = sample_coords(rng)
        numeric = fd_partial(lambda c: evaluate(expr, c), coords, k, mu)
        symbolic = evaluate(deriv, coords)
        assert abs(symbolic - numeric) < 1e-8


def test_second_derivatives_commute(rng):
    expr = parse("exp(x1_0*x2_3) + cos(x1_0^2 - x2_3)")
    forward = differentiate(differentiate(expr, 1, 0), 2, 3)
    backward = differentiate(differentiate(expr, 2, 3), 1, 0)
    for _ in range(10):
        coords = sample_coords(rng)
        assert abs(evaluate(forward, coords) - evaluate(backward, coords)) < 1e-10


def test_derivative_of_unrelated_coordinate_is_zero():
    expr = parse("cos(x1_0)*x1_2^2")
    assert differentiate(expr, 2, 1) == Const(0j)


def test_derivative_simplification_drops_zero_terms():
    expr = parse("x1_0*x2_0")
    deriv = differentiate(expr, 1, 0)
    assert deriv == Coord(2, 0)


def test_power_derivative():
    expr = parse("x1_1^3")
    deriv = differentiate(expr, 1, 1)
    coords = np.zeros((2, 4))
    coords[0, 1] = 2.0
    assert evaluate(deriv, coords) == 12.0


def test_sqrt_derivative_at_zero_raises():
    deriv = differentiate(parse("sqrt(x1_0)"), 1, 0)
    with pytest.raises(DslEvaluationError):
        evaluate(deriv, np.zeros((2, 4)))


def test_is_constant():
    assert is_constant(parse("3 + 2*i", params={}))
    assert is_constant(parse("exp(c)", params={"c": 2.0}))
    assert not is_constant(parse("x1_0"))
    assert not is_constant(parse("c*x2_2", params={"c": 1.0}))


def test_param_prints_by_name_but_evaluates_bound_value():
    expr = parse("c^2", params={"c": 3.0})
    assert to_source(expr) == "c^2"
    assert evaluate(expr, np.zeros((2, 4))) == 9.0


def test_negative_constant_roundtrip():
    expr = Mul(Const(-2.0 + 0j), Coord(1, 0))
    printed = to_source(expr)
    coords = np.ones((2, 4))
    assert evaluate(parse(printed), coords) == evaluate(expr, coords) == -2.0


def test_complex_constant_roundtrip():
    expr = Pow(Const(1 + 2j), 2)
    printed = to_source(expr)
    assert evaluate(parse(printed), np.zeros((2, 4))) == (1 + 2j) ** 2


# ---------------------------------------------------------------------------
# Property tests against sympy
# ---------------------------------------------------------------------------

_SYMBOLS = {(k, mu): sympy.Symbol(f"x{k}_{mu}", real=True)
            for k in (1, 2) for mu in range(4)}
_PARAMS = {"a": 0.75 + 0.5j, "b": -1.25 + 0j}

_LEAVES = st.one_of(
    st.sampled_from([Const(value) for value in
                     (0j, 1 + 0j, 2 + 0j, -1.5 + 0j, 0.5j, 0.25 - 0.75j)]),
    st.builds(Coord, st.sampled_from((1, 2)), st.integers(0, 3)),
    st.sampled_from([Param(name, value) for name, value in _PARAMS.items()]),
)


def _branches(children):
    return st.one_of(
        st.builds(Neg, children),
        *(st.builds(node, children, children)
          for node in (Add, Sub, Mul, Div)),
        st.builds(Pow, children, st.integers(0, 3)),
        st.builds(Call, st.sampled_from(FUNCTIONS), children))


# a function or operator at the root of every tree, over subtrees that
# are themselves mostly composite
_EXPRESSIONS = _branches(_branches(st.recursive(_LEAVES, _branches,
                                                max_leaves=4)))
_POINTS = st.lists(st.floats(-1.5, 1.5), min_size=8, max_size=8).map(
    lambda values: np.reshape(values, (2, 4)))


def _to_sympy(expr):
    match expr:
        case Const(value) | Param(_, value):
            return sympy.Float(value.real) + sympy.I * sympy.Float(value.imag)
        case Coord(k, mu):
            return _SYMBOLS[(k, mu)]
        case Neg(arg):
            return -_to_sympy(arg)
        case Add(left, right):
            return _to_sympy(left) + _to_sympy(right)
        case Sub(left, right):
            return _to_sympy(left) - _to_sympy(right)
        case Mul(left, right):
            return _to_sympy(left) * _to_sympy(right)
        case Div(left, right):
            return _to_sympy(left) / _to_sympy(right)
        case Pow(base, exponent):
            return _to_sympy(base) ** exponent
        case Call(func, arg):
            return getattr(sympy, func)(_to_sympy(arg))
    raise TypeError(expr)


def _children(expr):
    return [getattr(expr, name) for name in ("arg", "left", "right", "base")
            if hasattr(expr, name)]


def _coordinates(expr) -> set:
    if isinstance(expr, Coord):
        return {expr}
    return set().union(*map(_coordinates, _children(expr)))


def _well_conditioned(expr, coords) -> bool:
    """Every denominator and sqrt argument is away from its singularity."""
    match expr:
        case Div(_, right):
            if abs(evaluate(right, coords)) < 0.1:
                return False
        case Call("sqrt", arg):
            value = evaluate(arg, coords)
            # the branch cut: an argument only rounding off the negative
            # real axis may land on either side
            if abs(value) < 0.1 or (value.real < 0
                                    and 0 < abs(value.imag) < 1e-6):
                return False
    return all(_well_conditioned(child, coords) for child in _children(expr))


def _finite_value(expr, coords) -> complex:
    with np.errstate(all="ignore"):
        try:
            value = complex(evaluate(expr, coords))
        except DslEvaluationError:
            value = complex("nan")
    assume(np.isfinite(value) and abs(value) < 1e6)
    return value


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expr=_EXPRESSIONS, coords=_POINTS, data=st.data())
def test_differentiate_matches_sympy(expr, coords, data):
    direction = data.draw(st.sampled_from(
        sorted(_coordinates(expr), key=lambda c: (c.k, c.mu))
        or [Coord(1, 0)]))
    _finite_value(expr, coords)
    with np.errstate(all="ignore"):
        assume(_well_conditioned(expr, coords))
    got = _finite_value(differentiate(expr, direction.k, direction.mu), coords)
    symbolic = sympy.diff(_to_sympy(expr),
                          _SYMBOLS[(direction.k, direction.mu)])
    subs = {_SYMBOLS[(j, nu)]: float(coords[j - 1, nu])
            for j in (1, 2) for nu in range(4)}
    expected = complex(symbolic.evalf(subs=subs))
    assert abs(got - expected) <= 1e-8 * (1 + abs(expected))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expr=_EXPRESSIONS, coords=_POINTS)
def test_source_roundtrip_evaluates_identically(expr, coords):
    value = _finite_value(expr, coords)
    reparsed = parse(to_source(expr), params=_PARAMS)
    with np.errstate(all="ignore"):  # a finite value may pass through inf
        assert evaluate(reparsed, coords) == value
