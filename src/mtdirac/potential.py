"""Multi-time systems: matrix-valued potentials over configuration spacetime.

A system couples N Dirac particles, each with its own time.  Particle k
evolves under H_k = -i sum_a alpha^a_k d/dx_{k,a} + m_k gamma0_k + V_k,
where V_k is a sum of tensor-product spinor structures weighted by
scalar coefficient expressions of all N spacetime coordinates.  The
sixteen-field coefficient form of two-particle pairs is laid out once,
in COEFFICIENT_LAYOUT.
"""

from __future__ import annotations

import cmath
import enum
import json
import numbers
import os
import stat
import tempfile
from dataclasses import dataclass, make_dataclass
from typing import Mapping, Sequence

import numpy as np

from .clifford import (
    GAMMA5_ELEMENT,
    IDENTITY_ELEMENT,
    BasisClass,
    BasisElement,
    GammaRep,
    OperatorField,
    TensorBasisElement,
    field_norm,
    field_sum,
    on_particle,
    reconstruct,
    square_sign,
    tensor_element,
)
from .dsl import (
    ZERO,
    BinOp,
    Call,
    Const,
    Coord,
    Expr,
    Param,
    _add,
    differentiate,
    evaluate,
    is_zero,
    leaves,
    parse,
    to_source,
)


class DomainError(Exception):
    """Numerical-domain failure: a coefficient guard was violated."""


class SpecError(Exception):
    """Malformed system description."""


def _require_finite(sups: dict[str, float], where: str) -> None:
    """No verdict from non-finite sups: DomainError naming where they were."""
    bad = sorted(name for name, sup in sups.items() if not np.isfinite(sup))
    if bad:
        raise DomainError(
            f"non-finite residual in {', '.join(bad)} at {where}")


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Guard:
    """Evaluation precondition: |expr| must stay >= threshold."""

    expr: Expr
    threshold: float = 1e-6
    description: str = ""


@dataclass(frozen=True)
class PotentialTerm:
    structure: TensorBasisElement
    coefficient: Expr


@dataclass(frozen=True)
class Potential:
    """Matrix potential entering particle `particle`'s evolution equation."""

    particle: int
    n_particles: int
    terms: tuple[PotentialTerm, ...]
    guards: tuple[Guard, ...] = ()

    def __post_init__(self):
        if not 1 <= self.particle <= self.n_particles:
            raise SpecError(
                f"particle index {self.particle} outside 1..{self.n_particles}")
        for term in self.terms:
            if term.structure.n_particles != self.n_particles:
                raise SpecError("term structure has wrong particle count")

    def is_zero(self) -> bool:
        return all(is_zero(term.coefficient) for term in self.terms)


def zero_potential(particle: int, n_particles: int = 2) -> Potential:
    return Potential(particle, n_particles, ())


def check_guards(potential: Potential, coords) -> None:
    for guard in potential.guards:
        value = np.abs(np.asarray(evaluate(guard.expr, coords)))
        if np.any(value < guard.threshold):
            what = guard.description or to_source(guard.expr)
            raise DomainError(
                f"guard violated: |{what}| < {guard.threshold}")


def operator_field(potential: Potential, coords) -> OperatorField:
    """The potential's terms_field, after its guards have run."""
    check_guards(potential, coords)
    return terms_field(potential.terms, coords)


def terms_field(terms: Sequence[PotentialTerm], coords) -> OperatorField:
    """Potential terms as an operator field {structure: coefficient array}.

    Runs no guard.  Zero terms are dropped and the coefficients of a
    repeated structure are summed in term order, so the keys are the
    structures in order of first appearance; coords as evaluate_potential.
    """
    return field_sum(*(
        (1, {term.structure: np.asarray(evaluate(term.coefficient, coords))})
        for term in terms if not is_zero(term.coefficient)))


def evaluate_potential(potential: Potential, coords,
                       rep: GammaRep) -> np.ndarray:
    """Potential matrix at a configuration; coords indexed coords[k-1][mu].

    Coordinate entries may be arrays, in which case the result has the
    broadcast shape as leading axes followed by the (4^N, 4^N) matrix.
    """
    return reconstruct(operator_field(potential, coords),
                       potential.n_particles, rep)


def stack_coords(configs) -> list[list[np.ndarray]]:
    """coords[k-1][mu] of a configuration stack (..., N, 4); SpecError
    when the stack holds no configuration."""
    configs = np.asarray(configs, float)
    if configs.size == 0:
        raise SpecError("the configuration stack holds no configuration")
    return [[configs[..., k, mu] for mu in range(4)]
            for k in range(configs.shape[-2])]


def differentiate_potential(potential: Potential, k: int, mu: int) -> Potential:
    """Coefficient-wise partial derivative with respect to x_{k,mu}."""
    terms = []
    for term in potential.terms:
        derivative = differentiate(term.coefficient, k, mu)
        if not is_zero(derivative):
            terms.append(PotentialTerm(term.structure, derivative))
    return Potential(potential.particle, potential.n_particles, tuple(terms),
                     potential.guards)


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiTimeSystem:
    """N coupled single-time Dirac equations with potentials V_1..V_N."""

    name: str
    n_particles: int
    masses: tuple[float, ...]
    potentials: tuple[Potential, ...]
    hermitian: bool

    def __post_init__(self):
        if len(self.masses) != self.n_particles:
            raise SpecError("one mass per particle required")
        if len(self.potentials) != self.n_particles:
            raise SpecError("one potential per particle required")
        for k, potential in enumerate(self.potentials, start=1):
            if potential.particle != k:
                raise SpecError("potentials must be ordered by particle")
            if potential.n_particles != self.n_particles:
                raise SpecError("potential particle count mismatch")

    def potential(self, k: int) -> Potential:
        return self.potentials[k - 1]

    def mass(self, k: int) -> float:
        return self.masses[k - 1]


def hermitian_defect(potential: OperatorField, n_particles: int) -> np.ndarray:
    """Pointwise ||V - V^dagger||_F of an operator field V = sum_m a_m B_m.

    V - V^dag = sum_m (a_m - s_m conj(a_m)) B_m, as B_m^dag = s_m B_m.
    """
    defect = {structure: value - square_sign(structure) * np.conj(value)
              for structure, value in potential.items()}
    return field_norm(defect, n_particles)


# ---------------------------------------------------------------------------
# Sampling regions
# ---------------------------------------------------------------------------

class Region(enum.Enum):
    ALL = "all"
    SPACELIKE = "spacelike"


def is_spacelike(coords: np.ndarray) -> np.ndarray:
    """Mask (...) over a stack (..., N, 4): every pair dt^2 < |dx|^2 < inf,
    so a pair with a NaN or inf coordinate is not spacelike."""
    coords = np.asarray(coords, float)
    j, k = np.triu_indices(coords.shape[-2], 1)
    with np.errstate(invalid="ignore"):  # inf - inf
        d = np.square(coords[..., j, :] - coords[..., k, :])
    spatial = d[..., 1] + d[..., 2] + d[..., 3]
    return np.all((d[..., 0] < spatial) & (spatial < np.inf), axis=-1)


# the sampling box [-_BOX, _BOX]^(N*4), draws per sample, pairs per block
_BOX, _MAX_TRIES, _BLOCK_PAIRS = 2.0, 10000, 4096


def sample_configs(n_samples: int, rng: np.random.Generator,
                   n_particles: int = 2,
                   region: Region = Region.ALL) -> np.ndarray:
    """Draw configurations uniformly from [-2, 2]^(N*4).

    With region SPACELIKE, rejection-sample in blocks until every pair is
    spacelike separated, keeping the candidates in draw order, so the
    samples are those of drawing one at a time; SpecError when _MAX_TRIES
    draws in a row find none.
    """
    if region is Region.ALL:
        return rng.uniform(-_BOX, _BOX, size=(n_samples, n_particles, 4))
    cap = max(1, _BLOCK_PAIRS // max(1, n_particles * (n_particles - 1) // 2))
    out = np.empty((n_samples, n_particles, 4))
    filled, last = 0, -1  # last: the last acceptance, from the block start
    while filled < n_samples:
        size = min(cap, max(64, 2 * (n_samples - filled)))
        block = rng.uniform(-_BOX, _BOX, size=(size, n_particles, 4))
        hits = np.flatnonzero(is_spacelike(block))[:n_samples - filled]
        # size <= _MAX_TRIES: the block end fails only a carried-in streak
        starts = np.append(last, hits)
        if np.any(starts + _MAX_TRIES < np.append(hits, size)):
            raise SpecError(f"no spacelike configuration of {n_particles} "
                            f"particles in the box [-{_BOX:g}, {_BOX:g}]"
                            f"^({n_particles}*4) after {_MAX_TRIES} draws")
        out[filled:filled + hits.size] = block[hits]
        filled += hits.size
        last = starts[-1] - size
    return out


# ---------------------------------------------------------------------------
# Coefficient form
# ---------------------------------------------------------------------------

#: The coefficient-form layout, the one place it is written down: each of
#: the sixteen 4-component fields maps to (the particle whose potential it
#: enters, the class of that particle's factor, the other particle's
#: factor).  Component mu of the field multiplies the class element mu.
COEFFICIENT_LAYOUT = {
    "W1": (1, BasisClass.ALPHA, IDENTITY_ELEMENT),
    "X1": (1, BasisClass.ALPHA, GAMMA5_ELEMENT),
    "Y1": (1, BasisClass.G5ALPHA, IDENTITY_ELEMENT),
    "Z1": (1, BasisClass.G5ALPHA, GAMMA5_ELEMENT),
    "A": (1, BasisClass.GAMMA, IDENTITY_ELEMENT),
    "B": (1, BasisClass.G5GAMMA, IDENTITY_ELEMENT),
    "C": (1, BasisClass.GAMMA, GAMMA5_ELEMENT),
    "D": (1, BasisClass.G5GAMMA, GAMMA5_ELEMENT),
    "W2": (2, BasisClass.ALPHA, IDENTITY_ELEMENT),
    "X2": (2, BasisClass.G5ALPHA, IDENTITY_ELEMENT),
    "Y2": (2, BasisClass.ALPHA, GAMMA5_ELEMENT),
    "Z2": (2, BasisClass.G5ALPHA, GAMMA5_ELEMENT),
    "E": (2, BasisClass.GAMMA, IDENTITY_ELEMENT),
    "F": (2, BasisClass.G5GAMMA, IDENTITY_ELEMENT),
    "G": (2, BasisClass.GAMMA, GAMMA5_ELEMENT),
    "H": (2, BasisClass.G5GAMMA, GAMMA5_ELEMENT),
}
FIELD_NAMES = tuple(COEFFICIENT_LAYOUT)
_FIELD_BY_STRUCTURE = {structure: name
                       for name, structure in COEFFICIENT_LAYOUT.items()}


def coefficient_field(particle: int, cls: BasisClass,
                      other: BasisElement) -> str:
    """Name of the field with the given layout entry (inverse lookup)."""
    return _FIELD_BY_STRUCTURE[(particle, cls, other)]


class CoefficientFormError(Exception):
    """The potential pair does not satisfy the coefficient-form shape."""


def _named_field(self, name: str) -> tuple[Expr, ...]:
    if name not in COEFFICIENT_LAYOUT:
        raise KeyError(name)
    return getattr(self, name)


CoefficientSet = make_dataclass(
    "CoefficientSet",
    [(name, tuple[Expr, ...]) for name in COEFFICIENT_LAYOUT],
    namespace={"field": _named_field, "__module__": __name__, "__doc__": (
        "The sixteen 4-component coefficient fields of a two-particle pair, "
        "one attribute per COEFFICIENT_LAYOUT entry.  Mass shifts are not "
        "folded in; the compatibility conditions apply them.")},
    frozen=True)


def _field_of(particle: int, term: PotentialTerm) -> str | None:
    """The field a two-particle V_particle term enters, None if none."""
    factors = term.structure.factors
    return _FIELD_BY_STRUCTURE.get(
        (particle, factors[particle - 1].cls, factors[2 - particle]))


def to_coefficient_form(system: MultiTimeSystem) -> CoefficientSet:
    """Extract the sixteen coefficient fields of a two-particle pair.

    Requires every V_1 term to act on particle 2 only through 1 or
    gamma5, and every V_2 term to act on particle 1 only through 1 or
    gamma5; raises CoefficientFormError otherwise.
    """
    if system.n_particles != 2:
        raise CoefficientFormError("coefficient form requires two particles")
    fields: dict[str, list[Expr]] = {
        name: [Const(0j)] * 4 for name in FIELD_NAMES}
    for potential in system.potentials:
        j = potential.particle
        for term in potential.terms:
            name = _field_of(j, term)
            if name is None:
                raise CoefficientFormError(
                    f"V_{j} term acts on particle {3 - j} through "
                    f"{term.structure.factors[2 - j].label()}")
            mu = term.structure.factors[j - 1].mu
            fields[name][mu] = _add(fields[name][mu], term.coefficient)
    return CoefficientSet(**{name: tuple(values)
                             for name, values in fields.items()})


def _in_coefficient_form(system: MultiTimeSystem) -> bool:
    """Whether to_coefficient_form accepts the pair, without building it."""
    return system.n_particles == 2 and all(
        _field_of(pot.particle, term) is not None
        for pot in system.potentials for term in pot.terms)


def coefficient_set_to_system(coefficients: CoefficientSet,
                              masses: tuple[float, float] = (1.0, 1.0),
                              name: str = "coefficient_form",
                              hermitian: bool = False) -> MultiTimeSystem:
    """Rebuild the potential pair encoded by a coefficient set."""
    terms: dict[int, list[PotentialTerm]] = {1: [], 2: []}
    for field_name, (particle, cls, other) in COEFFICIENT_LAYOUT.items():
        for mu, expr in enumerate(coefficients.field(field_name)):
            if is_zero(expr):
                continue
            own = BasisElement(cls, mu)
            factors = (own, other) if particle == 1 else (other, own)
            terms[particle].append(
                PotentialTerm(tensor_element(*factors), expr))
    return MultiTimeSystem(
        name=name, n_particles=2, masses=masses,
        potentials=tuple(Potential(k, 2, tuple(terms[k])) for k in (1, 2)),
        hermitian=hermitian)


# ---------------------------------------------------------------------------
# Builtin systems
# ---------------------------------------------------------------------------

def _items(value, length: int, what: str) -> tuple:
    """The entries of a list input: a tuple, list, array or other iterable
    of `length` entries, but never a string, whose characters would pass
    for entries; SpecError naming `what` otherwise."""
    try:
        items = None if isinstance(value, str) else tuple(value)
    except TypeError:  # not iterable
        items = None
    if items is None or len(items) != length:
        raise SpecError(f"{what} needs {length} components, got {value!r}")
    return items


def _as_fourvector(value, name: str) -> tuple[complex, complex, complex, complex]:
    return tuple(_number(item, name) for item in _items(value, 4, name))


def _only_keys(params: Mapping, allowed: set[str], builtin: str) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise SpecError(
            f"unknown parameters for {builtin}: {sorted(unknown)}")


def _number(value, what: str) -> complex:
    """A finite numeric input value as complex; SpecError for anything
    else (text, lists and booleans included)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Number)
            or not cmath.isfinite(value)):
        raise SpecError(f"{what} must be numeric and finite, got {value!r}")
    return complex(value)


def _real(value, what: str) -> float:
    """A real finite input value; SpecError for anything else."""
    if not isinstance(value, numbers.Real):
        raise SpecError(f"{what} must be a real number, got {value!r}")
    return _number(value, what).real


def _integer(value, what: str) -> int:
    """A JSON integer; SpecError for anything else (booleans included)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{what} must be an integer, got {value!r}")
    return value


def _boolean(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise SpecError(f"{what} must be true or false, got {value!r}")
    return value


def _masses(params: Mapping) -> tuple[float, float]:
    return tuple(_real(params.get(name, 1.0), name) for name in ("m1", "m2"))


def build_free(params: Mapping | None = None) -> MultiTimeSystem:
    """Two non-interacting Dirac particles."""
    params = dict(params or {})
    _only_keys(params, {"m1", "m2"}, "free")
    masses = _masses(params)
    return MultiTimeSystem(
        name="free", n_particles=2, masses=masses,
        potentials=(zero_potential(1), zero_potential(2)),
        hermitian=True)


def build_example1_vector(params: Mapping | None = None) -> MultiTimeSystem:
    """Constant vector-type cross coupling: V_1 = A_mu alpha_2^mu,
    V_2 = B_mu alpha_1^mu.

    Generically inconsistent: the second equation's mass term fails to
    commute with the first equation's potential.
    """
    params = dict(params or {})
    _only_keys(params, {"A", "B", "m1", "m2"}, "example1_vector")
    vec_a = _as_fourvector(params.get("A", (0, 0, 0, 1)), "A")
    vec_b = _as_fourvector(params.get("B", (0, 0, 0, 0)), "B")
    masses = _masses(params)

    # alpha^mu of the other particle: outside the coefficient form
    terms_1, terms_2 = (
        tuple(PotentialTerm(
            on_particle(BasisElement(BasisClass.ALPHA, mu), other, 2),
            Const(vec[mu])) for mu in range(4) if vec[mu] != 0)
        for other, vec in ((2, vec_a), (1, vec_b)))
    hermitian = all(v.imag == 0 for v in vec_a + vec_b)
    return MultiTimeSystem(
        name="example1_vector", n_particles=2, masses=masses,
        potentials=(Potential(1, 2, terms_1), Potential(2, 2, terms_2)),
        hermitian=hermitian)


def _relative_phase(coeffs: Sequence[complex]) -> Expr:
    """2 * sum_mu c_mu (x2_mu - x1_mu) as an expression."""
    total = ZERO
    for mu, c in enumerate(coeffs):
        if c != 0:
            relative = BinOp("-", Coord(2, mu), Coord(1, mu))
            total = _add(total, BinOp("*", Const(2 * c), relative))
    return total


def build_hoho(params: Mapping | None = None) -> MultiTimeSystem:
    """Exactly consistent interacting pair built from a relative-coordinate
    exponential, in the coefficient form:

        A_mu = C_mu cos(phi) - m1 delta_mu0,   B_mu = -i C_mu sin(phi),
        Y2_nu = c_nu,                          phi = 2 c.(x2 - x1),

    that is V_1 = C_mu gamma1^mu cos(phi) - i C_mu gamma5_1 gamma1^mu
    sin(phi) - m1 gamma0_1 and V_2 = c_nu gamma5_1 alpha_2^nu.

    With real C_0, c and imaginary spatial C the potentials are
    hermitian; the defaults C = c = (1, 0, 0, 0) qualify.
    """
    params = dict(params or {})
    _only_keys(params, {"C", "c", "m1", "m2"}, "hoho")
    big_c = _as_fourvector(params.get("C", (1, 0, 0, 0)), "C")
    small_c = _as_fourvector(params.get("c", (1, 0, 0, 0)), "c")
    masses = _masses(params)

    phase = _relative_phase(small_c)
    cos_phase, sin_phase = Call("cos", phase), Call("sin", phase)
    field_a = [BinOp("*", Const(c), cos_phase) if c != 0 else ZERO
               for c in big_c]
    field_b = [BinOp("*", Const(-1j * c), sin_phase) if c != 0 else ZERO
               for c in big_c]
    field_a[0] = _add(field_a[0], Const(complex(-masses[0])))
    fields = {"A": tuple(field_a), "B": tuple(field_b),
              "Y2": tuple(map(Const, small_c))}
    hermitian = (big_c[0].imag == 0
                 and all(c.real == 0 for c in big_c[1:])
                 and all(c.imag == 0 for c in small_c))
    return coefficient_set_to_system(
        CoefficientSet(**{name: fields.get(name, (ZERO,) * 4)
                          for name in FIELD_NAMES}),
        masses, name="hoho", hermitian=hermitian)


def _coefficient(item, what: str, n_particles: int,
                 params: Mapping[str, complex]) -> Expr:
    """A coefficient input: coefficient-language source or a number."""
    if isinstance(item, str):
        return parse(item, n_particles, params)
    return Const(_number(item, what))


def _parse_field(value, name: str, params: Mapping[str, complex]) -> tuple[Expr, ...]:
    if value is None:
        return (Const(0j),) * 4
    return tuple(_coefficient(item, name, 2, params)
                 for item in _items(value, 4, name))


def build_coefficient_form(params: Mapping | None = None) -> MultiTimeSystem:
    """General N=2 potential pair with purely first-order couplings.

    Sixteen coefficient fields (each a 4-component family of scalar
    expressions in both coordinates) populate the tensor structures

        V_1 = [alpha1.W1 + g5 alpha1.Y1 + gamma1.A + g5 gamma1.B]       x 1
            + [alpha1.X1 + g5 alpha1.Z1 + gamma1.C + g5 gamma1.D]       x g5
        V_2 = 1  x [alpha2.W2 + g5 alpha2.X2 + gamma2.E + g5 gamma2.F]
            + g5 x [alpha2.Y2 + g5 alpha2.Z2 + gamma2.G + g5 gamma2.H]

    Field values are 4-sequences of numbers or coefficient-language
    strings.
    """
    params = dict(params or {})
    allowed = set(FIELD_NAMES) | {"m1", "m2", "hermitian", "name"}
    _only_keys(params, allowed, "coefficient_form")
    masses = _masses(params)
    dsl_params = {"m1": complex(masses[0]), "m2": complex(masses[1])}
    coefficients = CoefficientSet(**{
        name: _parse_field(params.get(name), name, dsl_params)
        for name in FIELD_NAMES})
    return coefficient_set_to_system(
        coefficients, masses,
        name=str(params.get("name", "coefficient_form")),
        hermitian=_boolean(params.get("hermitian", False), "hermitian"))


def build_coulomb_like(params: Mapping | None = None) -> MultiTimeSystem:
    """Scalar 1/r pair coupling; singular at coincident spatial points."""
    params = dict(params or {})
    _only_keys(params, {"q", "m1", "m2"}, "coulomb_like")
    charge = _number(params.get("q", 1.0), "q")
    masses = _masses(params)
    distance = parse(
        "sqrt((x1_1 - x2_1)^2 + (x1_2 - x2_2)^2 + (x1_3 - x2_3)^2)")
    coeff = BinOp("/", Const(charge), distance)
    guard = Guard(distance, 1e-6, "interparticle distance")
    identity = tensor_element(IDENTITY_ELEMENT, IDENTITY_ELEMENT)
    return MultiTimeSystem(
        name="coulomb_like", n_particles=2, masses=masses,
        potentials=(
            Potential(1, 2, (PotentialTerm(identity, coeff),), (guard,)),
            Potential(2, 2, (PotentialTerm(identity, coeff),), (guard,)),
        ),
        hermitian=charge.imag == 0)


BUILTIN_SYSTEMS = {
    "free": build_free,
    "example1_vector": build_example1_vector,
    "hoho": build_hoho,
    "coefficient_form": build_coefficient_form,
    "coulomb_like": build_coulomb_like,
}


def make_builtin(name: str, params: Mapping | None = None) -> MultiTimeSystem:
    try:
        factory = BUILTIN_SYSTEMS[name]
    except KeyError:
        raise SpecError(
            f"unknown builtin system {name!r}; available: "
            f"{sorted(BUILTIN_SYSTEMS)}") from None
    return factory(params)


# ---------------------------------------------------------------------------
# JSON system descriptions
# ---------------------------------------------------------------------------

def system_from_dict(data: Mapping) -> MultiTimeSystem:
    """Build a system from its JSON-object description."""
    try:
        n_particles = _integer(data["N"], "N")
        raw_masses = data["masses"]
        raw_potentials = list(data["potentials"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"malformed system description: {exc}") from exc
    if n_particles < 1:
        raise SpecError("N must be at least 1")
    masses = tuple(_real(m, "mass")
                   for m in _items(raw_masses, n_particles, "masses"))
    hermitian = _boolean(data.get("hermitian", False), "hermitian")

    raw_params = data.get("params", {})
    if not isinstance(raw_params, Mapping):
        raise SpecError("params must be an object")
    params: dict[str, complex] = {}
    for name, value in raw_params.items():
        if isinstance(value, Mapping):
            params[name] = complex(_real(value.get("re", 0.0), f"{name}.re"),
                                   _real(value.get("im", 0.0), f"{name}.im"))
        else:
            params[name] = _number(value, f"parameter {name}")

    potentials: dict[int, Potential] = {}
    for entry in raw_potentials:
        try:
            particle = _integer(entry["particle"], "particle")
            raw_terms = list(entry.get("terms", []))
            raw_guards = list(entry.get("guards", []))
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"malformed potential entry: {exc}") from exc
        if particle in potentials:
            raise SpecError(f"duplicate potential for particle {particle}")
        terms = []
        for raw in raw_terms:
            if not isinstance(raw, Mapping):
                raise SpecError("each term must be an object")
            elements = []
            for factor in _items(raw.get("factors"), n_particles, "factors"):
                if not isinstance(factor, Mapping):
                    raise SpecError("each factor must be an object")
                cls_name = str(factor.get("cls", "id"))
                if cls_name == "id":
                    elements.append(IDENTITY_ELEMENT)
                    continue
                try:
                    cls = BasisClass(cls_name)
                except ValueError:
                    raise SpecError(
                        f"unknown factor class {cls_name!r}") from None
                mu = factor.get("mu", 0)
                if isinstance(mu, bool) or mu not in range(4):
                    raise SpecError("factor component must be in 0..3")
                elements.append(BasisElement(cls, int(mu)))
            coeff = _coefficient(raw.get("coeff", "0"), "coeff",
                                 n_particles, params)
            terms.append(PotentialTerm(tensor_element(*elements), coeff))
        guards = []
        for raw in raw_guards:
            if not isinstance(raw, Mapping) or not isinstance(
                    raw.get("expr"), str):
                raise SpecError("each guard needs an expression string 'expr'")
            threshold = _real(raw.get("threshold", Guard.threshold),
                              "guard threshold")
            if threshold < 0:
                raise SpecError("guard threshold must be >= 0")
            guards.append(Guard(parse(raw["expr"], n_particles, params),
                                threshold, str(raw.get("description", ""))))
        potentials[particle] = Potential(particle, n_particles, tuple(terms),
                                         tuple(guards))

    ordered = tuple(
        potentials.get(k, zero_potential(k, n_particles))
        for k in range(1, n_particles + 1))
    return MultiTimeSystem(
        name=str(data.get("name", "custom")), n_particles=n_particles,
        masses=masses, potentials=ordered, hermitian=hermitian)


def system_to_dict(system: MultiTimeSystem) -> dict:
    """Serialize a system to its JSON-object description, with the params
    its expressions use; SpecError if a name is bound to two values."""
    potentials, params = [], {}
    for potential in system.potentials:
        exprs = [term.coefficient for term in potential.terms]
        for param in set().union(*map(leaves, exprs + [
                guard.expr for guard in potential.guards])):
            if (isinstance(param, Param) and params.setdefault(
                    param.name, param.value) != param.value):
                raise SpecError(f"parameter {param.name!r} is bound to "
                                "two values")
        terms = []
        for term in potential.terms:
            factors = []
            for element in term.structure.factors:
                if element == IDENTITY_ELEMENT:
                    factors.append({"cls": "id"})
                else:
                    factors.append(
                        {"cls": element.cls.value, "mu": element.mu})
            terms.append({"factors": factors,
                          "coeff": to_source(term.coefficient)})
        guards = [{"expr": to_source(guard.expr),
                   "threshold": guard.threshold,
                   "description": guard.description}
                  for guard in potential.guards]
        potentials.append({"particle": potential.particle, "terms": terms,
                           "guards": guards})
    return {
        "name": system.name,
        "N": system.n_particles,
        "masses": list(system.masses),
        "hermitian": system.hermitian,
        "params": {name: {"re": value.real, "im": value.imag}
                   for name, value in sorted(params.items())},
        "potentials": potentials,
    }


def load_system(path: str | os.PathLike) -> MultiTimeSystem:
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError,
                RecursionError) as exc:  # not UTF-8, or nested too deeply
            raise SpecError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, Mapping):
        raise SpecError("system description must be a JSON object")
    return system_from_dict(data)


def write_text_atomic(path: str | os.PathLike, text: str) -> None:
    """Atomic file write: stage to a temp file, then rename into place.

    The file gets the mode open(path, "w") would give it, not mkstemp's
    0o600: an existing file's mode, else 0o666 less the umask.  An
    existing target that is not a regular file (a FIFO, a device) is
    written in place, never replaced.  A symlink stays: what it names is
    written.  A failure leaves no staging file and raises an OSError
    naming path, not it.
    """
    try:
        target = os.path.realpath(path)
        try:
            mode = os.stat(target).st_mode
            if not stat.S_ISREG(mode):
                with open(target, "w", encoding="utf-8") as handle:
                    handle.write(text)
                return
            mode = stat.S_IMODE(mode)
        except FileNotFoundError:
            umask = os.umask(0o077)  # reading the umask means setting it
            os.umask(umask)
            mode = 0o666 & ~umask
        directory = os.path.dirname(target)
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-mtdirac-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                os.fchmod(handle.fileno(), mode)
                handle.write(text)
            os.replace(tmp_path, target)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {os.fspath(path)!r}: "
                      f"{exc.strerror or exc}") from None


def save_system(system: MultiTimeSystem, path: str | os.PathLike) -> None:
    write_text_atomic(
        path, json.dumps(system_to_dict(system), indent=2, sort_keys=True)
        + "\n")
