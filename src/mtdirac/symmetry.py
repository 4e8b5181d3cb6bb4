"""Spacetime symmetries and interaction classification.

Three services for two-particle multi-time systems:

* Poincare transforms (boosts, rotations, translations) with their
  spinor lifts, kept as 16 basis coefficients and multiplied through the
  product table alone, and sampled residuals measuring how far a
  potential pair is from covariant under each transform of a sweep,
  taken on operator fields through the matrix R with
  S B_m S^-1 = sum_n R[n, m] B_n, one stacked evaluation per sweep.

* A gauge classifier for the alpha-sector coefficient fields: decides
  whether the cross-particle part of the first-order couplings is the
  gradient of a shared phase function (hence removable), reconstructs
  that function by Gauss-Legendre line integrals, and cross-checks it
  by path independence and by its gradient, taken under the integral.

* Structure probes for the exponential interaction family: the
  second-order ODEs its gamma-sector coefficients must satisfy when
  the alpha-sector fields are constant, and a pointwise witness that
  certifies genuine interaction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

import numpy as np

from .clifford import (
    _ELEMENTS,
    EPSILON3,
    GAMMA5_ELEMENT,
    IDENTITY_ELEMENT,
    PRODUCT_INDEX,
    PRODUCT_PHASE,
    BasisClass,
    BasisElement,
    TensorBasisElement,
    field_commutator,
    field_norm,
    field_sum,
    tensor_element,
)
from .consistency import _cc_sups, _curvature_parts, _sup_norm
from .dsl import BinOp, DslEvaluationError, Expr, differentiate, evaluate, \
    is_constant, is_zero
from .potential import (
    COEFFICIENT_LAYOUT,
    CoefficientFormError,
    CoefficientSet,
    DomainError,
    MultiTimeSystem,
    SpecError,
    _require_finite,
    coefficient_field,
    operator_field,
    stack_coords,
    to_coefficient_form,
)

GAUGE_REMOVABLE = "GAUGE_REMOVABLE"
INTERACTING = "INTERACTING"
UNDECIDED = "UNDECIDED"


# ---------------------------------------------------------------------------
# Poincare transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PoincareTransform:
    """x -> Lambda x + a with spinor lift S gamma^mu S^-1 = Lambda^mu_nu gamma^nu,
    S = sum_m spinor[m] B_m over the flat index 4 * class + mu of B_m."""

    name: str
    lorentz: np.ndarray
    spinor: np.ndarray
    translation: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Transform coordinates; x has shape (..., 4)."""
        return np.asarray(x) @ self.lorentz.T + self.translation


def _unit(axis: Sequence[float]) -> np.ndarray:
    axis = np.asarray(axis, float)
    if axis.shape != (3,) or not np.all(np.isfinite(axis)) or not np.any(axis):
        raise ValueError("axis must be 3 finite components, not all zero, "
                         f"got {axis.tolist()}")
    axis = axis / np.max(np.abs(axis))  # so the norm cannot over/underflow
    return axis / np.linalg.norm(axis)


_ONE = np.eye(16, dtype=complex)[0]  # the identity B_0 as coefficients
# A Lorentz lift's exact inverse gamma0 S^dag gamma0 is _ADJOINT * conj(s):
# B_m^dag = phase[m, m] B_m, and gamma0 (flat index 8) B_m gamma0 = +-B_m
# as they commute or anticommute
_ADJOINT = np.diagonal(PRODUCT_PHASE) * np.where(
    PRODUCT_PHASE[8] == PRODUCT_PHASE[:, 8], 1, -1)


def _multiplication(s: np.ndarray, index: np.ndarray = PRODUCT_INDEX,
                    phase: np.ndarray = PRODUCT_PHASE) -> np.ndarray:
    """The 16x16 matrix of x -> s x on coefficient vectors; the transposed
    tables give x -> x s.  For each j, i -> index[i, j] is one-to-one."""
    out = np.zeros((16, 16), complex)
    out[index, np.arange(16)] = phase * np.asarray(s)[:, None]
    return out


def _conjugation(s: np.ndarray) -> np.ndarray:
    """The 16x16 R with S B_m S^-1 = sum_n R[n, m] B_n for a Lorentz lift S."""
    return _multiplication(s) @ _multiplication(
        _ADJOINT * np.conj(s), PRODUCT_INDEX.T, PRODUCT_PHASE.T)


def make_translation(offset: Sequence[float]) -> PoincareTransform:
    offset = np.asarray(offset, float)
    if offset.shape != (4,):
        raise ValueError("translation needs a 4-vector")
    return PoincareTransform("translation", np.eye(4), _ONE.copy(),
                             offset.copy())


def _finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def make_boost(axis: Sequence[float], rapidity: float) -> PoincareTransform:
    """Pure boost with the given rapidity along a spatial axis.

    The generator K has K^3 = K, so exp(chi K) = 1 + sinh(chi) K +
    (cosh(chi) - 1) K^2.  The lift is S = exp(-chi X / 2) with X = alpha_n
    = sum_a n_a alpha^a at flat indices 1..3, and alpha_n^2 = 1 gives
    S = cosh(chi/2) - sinh(chi/2) alpha_n.  Raises ValueError for a bad
    axis, a non-finite rapidity or one whose cosh overflows.
    """
    n = _unit(axis)
    rapidity = _finite("rapidity", rapidity)
    try:
        cosh, sinh = math.cosh(rapidity), math.sinh(rapidity)
    except OverflowError:
        raise ValueError(f"cosh of rapidity {rapidity:g} overflows") from None
    generator = np.zeros((4, 4))
    generator[0, 1:] = n
    generator[1:, 0] = n
    lorentz = np.eye(4) + sinh * generator + (cosh - 1) * generator @ generator
    spinor = math.cosh(0.5 * rapidity) * _ONE
    spinor[1:4] = -math.sinh(0.5 * rapidity) * n
    return PoincareTransform(f"boost({n[0]:g},{n[1]:g},{n[2]:g});chi={rapidity:g}",
                             lorentz, spinor, np.zeros(4))


def make_rotation(axis: Sequence[float], angle: float) -> PoincareTransform:
    """Spatial rotation by `angle` about a spatial axis.

    The generator J has J^3 = -J, so exp(theta J) = 1 + sin(theta) J +
    (1 - cos(theta)) J^2.  The lift is S = exp(-theta X / 2) with X =
    -i Sigma_n, Sigma_n = sum_a n_a gamma5 alpha^a at flat indices 5..7,
    and Sigma_n^2 = 1 gives S = cos(theta/2) + i sin(theta/2) Sigma_n.
    -S lifts the same Lambda (the double cover); the formula fixes the sign.
    Raises ValueError for a bad axis or a non-finite angle.
    """
    n = _unit(axis)
    angle = _finite("angle", angle)
    generator = np.zeros((4, 4))
    generator[1:, 1:] = -EPSILON3 @ n
    lorentz = (np.eye(4) + math.sin(angle) * generator
               + (1 - math.cos(angle)) * generator @ generator)
    spinor = math.cos(0.5 * angle) * _ONE
    spinor[5:8] = 1j * math.sin(0.5 * angle) * n
    return PoincareTransform(f"rotation({n[0]:g},{n[1]:g},{n[2]:g});theta={angle:g}",
                             lorentz, spinor, np.zeros(4))


def compose(outer: PoincareTransform,
            inner: PoincareTransform) -> PoincareTransform:
    """The transform x -> outer(inner(x))."""
    return PoincareTransform(
        f"{outer.name}*{inner.name}",
        outer.lorentz @ inner.lorentz,
        _multiplication(outer.spinor) @ inner.spinor,
        outer.translation + outer.lorentz @ inner.translation)


def inverse(transform: PoincareTransform) -> PoincareTransform:
    """x -> Lambda^-1 (x - a), lifted by the exact S^-1 = gamma0 S^dag gamma0.
    compose(b, inverse(b)) cancels entries of size cosh(eta)^2 for a boost
    of rapidity eta, losing ~2 log10(cosh eta) digits with any inverse of
    Lambda: at eta = 20 the exact g Lambda^T g leaves a Lorentz defect of
    8.5, np.linalg.inv 0.5; poincare_residual reads ~8."""
    lam_inv = np.linalg.inv(transform.lorentz)
    return PoincareTransform(
        f"inverse({transform.name})", lam_inv,
        _ADJOINT * np.conj(transform.spinor),
        -lam_inv @ transform.translation)


@np.errstate(all="ignore")
def poincare_residual(system: MultiTimeSystem,
                      transforms: Sequence[PoincareTransform],
                      samples: np.ndarray) -> list[float]:
    """Per transform, in order, the sup over samples and particles of

        || V_k(X) - (S x..x S) V_k(Lambda^-1(x_1 - a), ...) (S^-1 x..x S^-1) ||_F

    on operator fields: each factor B_m of the pulled-back field maps to
    sum_n R[n, m] B_n (_conjugation), over the entries of R above its
    round-off, and field_norm measures the difference.  Each potential is
    evaluated once at the samples and once at all pull-backs, stacked
    (T, S, N, 4); each transform conjugates its own slice.  Raises
    DomainError when a lift or a sup is not finite; on an error the
    transforms rerun one at a time, so the earliest one's error surfaces.
    """
    transforms = list(transforms)
    try:
        pulled_back = np.stack([inverse(t).apply(samples) for t in transforms])
        maps = []  # per transform B_m -> [(B_n, R[n, m])], column by column
        for transform in transforms:
            r = _conjugation(transform.spinor)
            cutoff = 16 * np.finfo(float).eps * np.max(np.abs(r))  # round-off
            _require_finite({f"poincare_residual({transform.name})": cutoff},
                            "the transform's spinor lift")
            maps.append({source: [] for source in _ELEMENTS})
            for m, n in zip(*np.nonzero(np.abs(r.T) > cutoff)):
                maps[-1][_ELEMENTS[m]].append((_ELEMENTS[n], r[n, m]))
        worst = np.zeros(len(transforms))
        for potential in system.potentials:
            here = operator_field(potential, stack_coords(samples))
            there = operator_field(potential, stack_coords(pulled_back))
            for t, images in enumerate(maps):
                conjugated = field_sum(*(
                    (math.prod(w for _, w in choice),
                     {TensorBasisElement(tuple(e for e, _ in choice)):
                      value[t] if np.ndim(value) else value})
                    for element, value in there.items()
                    for choice in product(*map(images.get, element.factors))))
                defect = field_sum((1, here), (-1, conjugated))
                worst[t] = np.maximum(worst[t], np.max(
                    field_norm(defect, system.n_particles), initial=0.0))
        _require_finite({f"poincare_residual({t.name})": sup for t, sup in
                         zip(transforms, worst)}, "the sampled configurations")
        return worst.tolist()
    except (DomainError, SpecError, DslEvaluationError):
        if len(transforms) > 1:  # the earliest transform's own error
            for transform in transforms:
                poincare_residual(system, [transform], samples)
        raise


# ---------------------------------------------------------------------------
# Exponential-family structure: coefficient ODEs
# ---------------------------------------------------------------------------

_GAMMA_FIELDS = tuple(
    name for name, (_, cls, _) in COEFFICIENT_LAYOUT.items()
    if cls in (BasisClass.GAMMA, BasisClass.G5GAMMA))
_ALPHA_FIELDS = tuple(
    name for name in COEFFICIENT_LAYOUT if name not in _GAMMA_FIELDS)


def _require_constant_alpha(coefficients: CoefficientSet) -> None:
    """CoefficientFormError unless every alpha-sector field is constant."""
    for name in _ALPHA_FIELDS:
        if not all(map(is_constant, coefficients.field(name))):
            raise CoefficientFormError(f"field {name} is not constant")


@np.errstate(all="ignore")
def exponential_form_residual(coefficients: CoefficientSet,
                              masses: tuple[float, float],
                              samples: np.ndarray, *,
                              where: str = "the sampled configurations"
                              ) -> dict[str, float]:
    """Second-order structure conditions for constant alpha-sector fields.

    When all of W, X, Y, Z are constant, every consistent pair has
    gamma-sector coefficients obeying

        d_{2,nu} d_{2,lam} P_mu = 4 (Z2_lam Z2_nu - Y2_lam Y2_nu) P_mu

    for P in {A + m1 delta_0, B, C, D}, the mirrored equations in the
    particle-1 derivatives for {E + m2 delta_0, F, G, H} driven by
    (X1, Z1), and the rank conditions Y2_nu Z2_lam = Y2_lam Z2_nu
    (branch_2) and X1_mu Z1_lam = X1_lam Z1_mu (branch_1).

    Each (field, mu) takes one max over its stacked (4, 4, ...) (nu, lam)
    defects.  Raises CoefficientFormError when an alpha-sector field is
    not constant, DomainError naming `where` when a residual is not finite.
    """
    _require_constant_alpha(coefficients)
    coords = stack_coords(samples)
    out: dict[str, float] = {}
    for particle, partner in ((1, 2), (2, 1)):
        # the partner's alpha-sector fields that carry gamma5 of `particle`
        y, z = ([evaluate(e, coords) for e in coefficients.field(
                    coefficient_field(partner, cls, GAMMA5_ELEMENT))]
                for cls in (BasisClass.ALPHA, BasisClass.G5ALPHA))
        factor = np.array([[4.0 * (z[lam] * z[nu] - y[lam] * y[nu])
                            for lam in range(4)] for nu in range(4)])
        for name in _GAMMA_FIELDS:
            owner, cls, other = COEFFICIENT_LAYOUT[name]
            if owner != particle:
                continue
            exprs = coefficients.field(name)
            is_mass_field = (cls, other) == (BasisClass.GAMMA, IDENTITY_ELEMENT)
            shift = masses[particle - 1] if is_mass_field else 0.0
            defects = []
            for mu in range(4):
                base_value = (evaluate(exprs[mu], coords)
                              + (shift if mu == 0 else 0.0))
                defect = np.multiply.outer(factor, base_value)
                for nu in range(4):
                    first = differentiate(exprs[mu], partner, nu)
                    for lam in range(4):
                        second = differentiate(first, partner, lam)
                        if not is_zero(second):  # the common zero is skipped
                            defect[nu, lam] = (evaluate(second, coords)
                                               - defect[nu, lam])
                defects.append(np.max(np.abs(defect)))
            out[f"ode_{name}"] = float(np.max(defects))
        out[f"branch_{partner}"] = float(np.max(
            [np.max(np.abs(y[a] * z[b] - y[b] * z[a]))
             for a in range(4) for b in range(4)]))
    _require_finite(out, where)
    return out


def interaction_witness_hoho(system: MultiTimeSystem) -> float:
    """Pointwise obstruction certifying that an exponential pair interacts.

    ||[V_2, V_1 + m_1 gamma0_1]||_F at the coincident configuration
    x_1 = x_2 = 0; on hoho it is ||(c . alpha_2) 2i gamma5_1 (C . gamma_1)
    exp(2i gamma5_1 c.x)||_F at any separation x, since the exponential
    is unitary.  A value bounded away from zero rules out gauge removal of
    the gamma-sector coupling.  Raises SpecError outside the exponential
    family (any non-constant alpha-sector field) or without a gamma
    sector, DomainError for a non-finite value.
    """
    try:
        coefficients = to_coefficient_form(system)
        _require_constant_alpha(coefficients)
    except CoefficientFormError as exc:
        raise SpecError("the interaction witness applies to the exponential "
                        f"family: {exc}") from None
    if all(is_zero(expr) for name in _GAMMA_FIELDS
           for expr in coefficients.field(name)):
        raise SpecError("the interaction witness needs a gamma sector")
    return _witness(system)


@np.errstate(all="ignore")
def _witness(system: MultiTimeSystem) -> float:
    """The witness's commutator norm, for a pair known to be in the family."""
    coords = stack_coords(np.zeros((2, 4)))
    mass_term = {tensor_element(BasisElement(BasisClass.GAMMA, 0),
                                IDENTITY_ELEMENT): 1.0}
    v_1 = field_sum((1, operator_field(system.potential(1), coords)),
                    (system.mass(1), mass_term))
    v_2 = operator_field(system.potential(2), coords)
    value = float(field_norm(field_commutator(v_2, v_1), 2))
    _require_finite({"interaction_witness": value},
                    "the coincident configuration")
    return value


# ---------------------------------------------------------------------------
# Gauge classification of the alpha-sector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfigGrid:
    """Rectangular probe grid varying two coordinates around a base point."""

    axes: tuple[tuple[int, int], tuple[int, int]] = ((1, 0), (2, 3))
    values: tuple[float, ...] = tuple(np.linspace(-1.0, 1.0, 9))
    base: tuple[tuple[float, ...], ...] = ((0.0, 0.0, 0.0, 0.0),
                                           (0.0, 0.0, 0.0, 0.0))

    def base_array(self) -> np.ndarray:
        return np.asarray(self.base, float)

    def configs(self) -> np.ndarray:
        """All grid configurations, shape (n, n, 2, 4)."""
        n = len(self.values)
        out = np.tile(self.base_array(), (n, n, 1, 1))
        (k1, mu1), (k2, mu2) = self.axes
        out[:, :, k1 - 1, mu1], out[:, :, k2 - 1, mu2] = np.meshgrid(
            self.values, self.values, indexing="ij")
        return out

    def probes(self) -> np.ndarray:
        """The grid configurations, then 64 that vary all eight coordinates,
        base + u with u drawn with seed 0 from [min(values), max(values)];
        shape (n * n + 64, 2, 4)."""
        offsets = np.random.default_rng(0).uniform(
            min(self.values), max(self.values), size=(64, 2, 4))
        return np.concatenate([self.configs().reshape(-1, 2, 4),
                               self.base_array() + offsets])


def _gamma5_sector(name: str) -> str:
    """An alpha-sector field's sector: the particles whose factor has gamma5."""
    particle, cls, other = COEFFICIENT_LAYOUT[name]
    own, partner = cls is BasisClass.G5ALPHA, other == GAMMA5_ELEMENT
    on_1, on_2 = (own, partner) if particle == 1 else (partner, own)
    return "gamma5_" + "1" * on_1 + "2" * on_2 if on_1 or on_2 else "unit"


# sector label -> (particle-1 field, particle-2 field) of the alpha part
_SECTOR_FIELDS = {
    _gamma5_sector(name1): (name1, name2)
    for name1 in _ALPHA_FIELDS for name2 in _ALPHA_FIELDS
    if COEFFICIENT_LAYOUT[name1][0] < COEFFICIENT_LAYOUT[name2][0]
    and _gamma5_sector(name1) == _gamma5_sector(name2)}


# Gauss-Legendre node counts, tried until the reconstruction moves by at most
# _GAUSS_ULPS ulps of its largest magnitude; if none does, the checks judge
# the last, so stopping there is no error.  _FD_TOL bounds both checks.
_GAUSS_NODES, _GAUSS_ULPS, _FD_TOL = (8, 16, 32, 64, 128, 256), 4, 2e-2


@dataclass(frozen=True, eq=False)
class GaugeReport:
    """Outcome of the alpha-sector gauge analysis, which classify_interaction
    runs first; it runs the guards and hands on the coefficients it read."""

    verdict: str
    integrability_sup: float
    cross_curl_sup: float
    locality_sup: float
    triangle_sup: float
    gradient_match_sup: float
    zeroth_sup: float  # check_consistency's at the probes; as_dict omits it
    tol: float
    fd_tol: float
    gauge_components: dict[str, np.ndarray]
    coefficients: CoefficientSet

    def as_dict(self) -> dict:
        return {key: value for key, value in vars(self).items()
                if key not in ("zeroth_sup", "gauge_components",
                               "coefficients")}


@np.errstate(all="ignore")
def classify_gauge(system: MultiTimeSystem,
                   grid: ConfigGrid | None = None,
                   tol: float = 1e-9) -> GaugeReport:
    """Decide whether the cross-particle alpha-sector is a pure gauge.

    The four commuting sectors (1, gamma5_2, gamma5_1, gamma5_1 gamma5_2)
    of the first-order coupling fields f_{j,mu} are treated as scalar
    1-forms over configuration space.  The removable candidate is
    h = f - f_ext, where f_ext freezes the other particle at the grid
    base point b.  GAUGE_REMOVABLE requires the exactness conditions
    (cross curls of f, and base-point independence of the in-particle
    curls) below tol at grid.probes(), and two checks on the grid of
    Phi(x) = int_0^1 h(b + s (x - b)) . (x - b) ds, integrated with
    Gauss-Legendre nodes to round-off, below _FD_TOL: path independence
    across a triangle of paths, and h against grad Phi taken under the
    integral with exact DSL derivatives.  Both read round-off on an exact
    gauge and follow from integrability on the star-shaped grid (Poincare
    lemma); they stay as independent tests, under the loose bound that
    reports pin.  Integrability defects inside [tol, 10*tol) are reported
    UNDECIDED rather than interacting.

    The cross curls d_{1,mu} f_{2,nu} - d_{2,nu} f_{1,mu} are, up to a
    unit phase, E(1,2)'s alpha sectors cc1..cc4, read off the system's
    own field, so its guards apply (masses reach only gamma-class
    sectors).  Raises DomainError when a guard trips or a sup is not finite.
    """
    from numpy.polynomial.legendre import leggauss  # off the import path

    grid = grid or ConfigGrid()
    coefficients = to_coefficient_form(system)
    base, configs, n = grid.base_array(), grid.configs(), len(grid.values)
    probes = grid.probes()
    probe_coords = stack_coords(probes)
    sectors = {label: (coefficients.field(name1), coefficients.field(name2))
               for label, (name1, name2) in _SECTOR_FIELDS.items()}

    # --- exactness conditions -------------------------------------------
    # np.max and np.maximum keep a NaN that max() would drop
    zeroth = _curvature_parts(system, probes, first=False)[1]
    cc = _cc_sups(zeroth)
    cross_curl = np.max([cc[f"cc{index}"] for index in range(1, 5)])
    moved = []
    for f in sectors.values():
        for (own, other), exprs in zip(((1, 2), (2, 1)), f):
            for mu, nu in combinations(range(4), 2):
                curl = BinOp("-", differentiate(exprs[nu], own, mu),
                             differentiate(exprs[mu], own, nu))
                moved += [differentiate(curl, other, lam) for lam in range(4)]
    locality = np.max([np.max(np.abs(evaluate(expr, probe_coords)))
                       for expr in moved if not is_zero(expr)], initial=0.0)
    integrability = np.maximum(cross_curl, locality)

    # --- cross-only part h = f - f_ext and its line integrals ------------
    def stacks(points: np.ndarray) -> tuple:
        """points stacked, then with particle 1's, 2's partner at the base."""
        coords = stack_coords(points)
        frozen = stack_coords(np.broadcast_to(base, points.shape))
        return coords, [coords[0], frozen[1]], [frozen[0], coords[1]]

    def cross(expr: Expr, k: int, at: tuple):
        """expr minus expr with particle k's partner frozen at the base."""
        return evaluate(expr, at[0]) - evaluate(expr, at[k])

    def line_integral(f, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """Integrate h on straight segments start -> end with the rule s, w."""
        delta = end - start
        at = stacks(start + np.multiply.outer(s, delta))
        integrand = sum((cross(f[j - 1][mu], j, at) * delta[..., j - 1, mu]
                         for j, mu in product((1, 2), range(4))
                         if np.any(delta[..., j - 1, mu])),
                        np.zeros(s.shape + delta.shape[:-2], complex))
        return np.tensordot(w, integrand, axes=1)

    stacked = np.nan  # no estimate yet: the first comparison fails
    for count in _GAUSS_NODES:
        nodes, weights = leggauss(count)
        s, w = (nodes + 1) / 2, weights / 2  # from [-1, 1] to [0, 1]
        previous, stacked = stacked, np.array([
            line_integral(f, base, configs) for f in sectors.values()])
        if np.max(np.abs(stacked - previous)) <= \
                _GAUSS_ULPS * np.finfo(float).eps * np.max(np.abs(stacked)):
            break

    # --- path independence (straight vs corner polyline) -----------------
    ends = configs[[0, 0, -1, -1, n // 2], [0, -1, 0, -1, n // 2]]
    corners = np.array(ends, copy=True)
    corners[:, 1] = base[1]
    triangle = np.max([np.abs(
        line_integral(f, base, ends) - line_integral(f, base, corners)
        - line_integral(f, corners, ends)) for f in sectors.values()])

    # --- gradient of the reconstruction, taken under the integral --------
    # grad Phi(x) = int_0^1 [h + grad h . s (x - b)](b + s (x - b)) ds; the
    # frozen part of h_{k nu} sees particle k alone, so only d_{k mu} moves it
    points = configs[[n // 4, (3 * n) // 4], [(3 * n) // 4, n // 4]]
    lever = np.multiply.outer(s, points - base)  # s (x - b) at each node
    path, at_points = stacks(base + lever), stacks(points)
    gradient_match = 0.0
    for f in sectors.values():
        for j, mu in product((1, 2), range(4)):
            integrand = np.broadcast_to(cross(f[j - 1][mu], j, path),
                                        lever.shape[:-2])
            for k, nu in product((1, 2), range(4)):
                slope = differentiate(f[k - 1][nu], j, mu)
                if not is_zero(slope):
                    value = (cross(slope, k, path) if j == k
                             else evaluate(slope, path[0]))
                    integrand = integrand + value * lever[..., k - 1, nu]
            gradient_match = np.maximum(gradient_match, np.max(np.abs(
                np.tensordot(w, integrand, axes=1)
                - cross(f[j - 1][mu], j, at_points))))
    _require_finite({"integrability_sup": integrability, "triangle_sup":
                     triangle, "gradient_match_sup": gradient_match},
                    "the probe grid")

    if integrability < tol and triangle < _FD_TOL and gradient_match < _FD_TOL:
        verdict = GAUGE_REMOVABLE
    elif tol <= integrability < 10 * tol:
        verdict = UNDECIDED
    else:
        verdict = INTERACTING
    return GaugeReport(
        verdict=verdict, integrability_sup=float(integrability),
        cross_curl_sup=float(cross_curl), locality_sup=float(locality),
        triangle_sup=float(triangle), gradient_match_sup=float(gradient_match),
        zeroth_sup=_sup_norm(zeroth), tol=tol, fd_tol=_FD_TOL,
        gauge_components=dict(zip(sectors, stacked)),
        coefficients=coefficients)


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """Combined interaction classification of a two-particle pair."""

    verdict: str
    gamma_sector_sup: float
    gauge: GaugeReport
    witness: float | None
    tol: float

    def as_dict(self) -> dict:
        return {key: value for key, value in vars(self).items()
                if key != "gauge"} | {"f_sector": self.gauge.as_dict()}


@np.errstate(all="ignore")
def classify_interaction(system: MultiTimeSystem,
                         grid: ConfigGrid | None = None,
                         tol: float = 1e-9) -> ClassificationReport:
    """Classify a pair as gauge-removable, interacting, or undecided.

    The alpha-sector gauge analysis runs first: it runs the guards at the
    probes and hands on its coefficient set.  When that set's gamma-sector
    fields (A..H) vanish on the grid its verdict stands.  Otherwise a pair
    of the exponential family (every exponential_form_residual below tol on
    the grid) is settled by its interaction witness, anything else stays
    UNDECIDED.  A pure gauge is consistent, so GAUGE_REMOVABLE turns into
    INTERACTING where check_consistency at the probes finds E(1,2) >= tol,
    as for the mass obstruction of a gamma5-sector field.  Raises
    DomainError when a guard trips or a sup is not finite.
    """
    grid = grid or ConfigGrid()
    gauge = classify_gauge(system, grid=grid, tol=tol)
    coefficients, configs = gauge.coefficients, grid.configs()
    coords = stack_coords(configs)
    gamma_sup = float(np.max(
        [np.max(np.abs(evaluate(expr, coords)))
         for name in _GAMMA_FIELDS for expr in coefficients.field(name)]))
    _require_finite({"gamma_sector_sup": gamma_sup}, "the probe grid")

    witness, verdict = None, gauge.verdict
    if gamma_sup >= tol:
        verdict = UNDECIDED
        try:
            structure = exponential_form_residual(
                coefficients, system.masses, configs, where="the probe grid")
        except CoefficientFormError:  # alpha-sector fields not constant
            structure = None
        if structure is not None and max(structure.values()) < tol:
            witness = _witness(system)
            verdict = INTERACTING if witness > tol else UNDECIDED
    if verdict == GAUGE_REMOVABLE:
        _require_finite({"zeroth_sup": gauge.zeroth_sup}, "the probe grid")
        if gauge.zeroth_sup >= tol:
            verdict = INTERACTING
    return ClassificationReport(
        verdict=verdict, gamma_sector_sup=gamma_sup, gauge=gauge,
        witness=witness, tol=tol)
