"""Spacetime symmetries and interaction classification.

Three services for two-particle multi-time systems:

* Poincare transforms (boosts, rotations, translations) with their
  spinor lifts, and sampled residuals measuring how far a potential
  pair is from covariant under a given transform.

* A gauge classifier for the alpha-sector coefficient fields: decides
  whether the cross-particle part of the first-order couplings is the
  gradient of a shared phase function (hence removable), reconstructs
  that function by path integration, and cross-checks it by path
  independence and finite differences.

* Structure probes for the exponential interaction family: the
  second-order ODEs its gamma-sector coefficients must satisfy when
  the alpha-sector fields are constant, and a pointwise witness that
  certifies genuine interaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from .clifford import (
    EPSILON3,
    GAMMA5_ELEMENT,
    IDENTITY_ELEMENT,
    BasisClass,
    BasisElement,
    GammaRep,
    field_commutator,
    field_norm,
    field_sum,
    frobenius,
    tensor_element,
)
from .dsl import Expr, differentiate, evaluate, is_constant, is_zero
from .potential import (
    COEFFICIENT_LAYOUT,
    CoefficientFormError,
    CoefficientSet,
    MultiTimeSystem,
    SpecError,
    _require_finite,
    coefficient_field,
    evaluate_stack,
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
    """x -> Lambda x + a with spinor lift S gamma^mu S^-1 = Lambda^mu_nu gamma^nu."""

    name: str
    lorentz: np.ndarray
    spinor: np.ndarray
    translation: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Transform coordinates; x has shape (..., 4)."""
        return np.asarray(x) @ self.lorentz.T + self.translation


def _unit(axis: Sequence[float]) -> np.ndarray:
    axis = np.asarray(axis, float)
    norm = float(np.linalg.norm(axis))
    if norm == 0:
        raise ValueError("axis must be nonzero")
    return axis / norm


def _match_spinor(lorentz: np.ndarray, candidates: Sequence[np.ndarray],
                  rep: GammaRep, tol: float = 1e-10) -> np.ndarray:
    for s in candidates:
        s_inv = np.linalg.inv(s)
        worst = max(
            frobenius(s @ rep.gamma(mu) @ s_inv
                      - sum(lorentz[mu, nu] * rep.gamma(nu)
                            for nu in range(4)))
            for mu in range(4))
        if worst < tol:
            return s
    raise RuntimeError("no spinor lift reproduced the vector transform")


def identity_transform() -> PoincareTransform:
    return PoincareTransform("identity", np.eye(4), np.eye(4, dtype=complex),
                             np.zeros(4))


def make_translation(offset: Sequence[float]) -> PoincareTransform:
    offset = np.asarray(offset, float)
    if offset.shape != (4,):
        raise ValueError("translation needs a 4-vector")
    return PoincareTransform("translation", np.eye(4),
                             np.eye(4, dtype=complex), offset.copy())


def make_boost(axis: Sequence[float], rapidity: float,
               rep: GammaRep) -> PoincareTransform:
    """Pure boost with the given rapidity along a spatial axis."""
    n = _unit(axis)
    generator = np.zeros((4, 4))
    generator[0, 1:] = n
    generator[1:, 0] = n
    lorentz = expm(rapidity * generator)
    alpha_n = sum(n[a - 1] * rep.alpha(a) for a in (1, 2, 3))
    candidates = [expm(0.5 * rapidity * alpha_n),
                  expm(-0.5 * rapidity * alpha_n)]
    spinor = _match_spinor(lorentz, candidates, rep)
    return PoincareTransform(f"boost({n[0]:g},{n[1]:g},{n[2]:g});chi={rapidity:g}",
                             lorentz, spinor, np.zeros(4))


def make_rotation(axis: Sequence[float], angle: float,
                  rep: GammaRep) -> PoincareTransform:
    """Spatial rotation by `angle` about a spatial axis."""
    n = _unit(axis)
    generator = np.zeros((4, 4))
    generator[1:, 1:] = -EPSILON3 @ n
    lorentz = expm(angle * generator)
    sigma_n = rep.gamma5 @ sum(n[a - 1] * rep.alpha(a) for a in (1, 2, 3))
    candidates = [expm(-0.5j * angle * sigma_n), expm(0.5j * angle * sigma_n)]
    spinor = _match_spinor(lorentz, candidates, rep)
    return PoincareTransform(f"rotation({n[0]:g},{n[1]:g},{n[2]:g});theta={angle:g}",
                             lorentz, spinor, np.zeros(4))


def compose(outer: PoincareTransform,
            inner: PoincareTransform) -> PoincareTransform:
    """The transform x -> outer(inner(x))."""
    return PoincareTransform(
        f"{outer.name}*{inner.name}",
        outer.lorentz @ inner.lorentz,
        outer.spinor @ inner.spinor,
        outer.translation + outer.lorentz @ inner.translation)


def inverse(transform: PoincareTransform) -> PoincareTransform:
    lam_inv = np.linalg.inv(transform.lorentz)
    return PoincareTransform(
        f"inverse({transform.name})", lam_inv,
        np.linalg.inv(transform.spinor),
        -lam_inv @ transform.translation)


def _tensor_power(matrix: np.ndarray, n: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for _ in range(n):
        out = np.kron(out, matrix)
    return out


@np.errstate(all="ignore")
def poincare_residual(system: MultiTimeSystem,
                      transform: PoincareTransform,
                      samples: np.ndarray, rep: GammaRep) -> float:
    """sup over samples and particles of the covariance defect

        || V_k(X) - (S x..x S) V_k(Lambda^-1(x_1 - a), ...) (S^-1 x..x S^-1) ||_F

    Raises DomainError when the sup is not finite.
    """
    samples = np.asarray(samples, float)
    lam_inv = np.linalg.inv(transform.lorentz)
    big_s = _tensor_power(transform.spinor, system.n_particles)
    big_s_inv = np.linalg.inv(big_s)
    pulled_back = (samples - transform.translation) @ lam_inv.T
    defects = [0.0]
    for potential in system.potentials:
        v_here = evaluate_stack(potential, samples, rep)
        v_there = evaluate_stack(potential, pulled_back, rep)
        defect = v_here - big_s @ v_there @ big_s_inv
        defects += map(frobenius, defect.reshape(-1, *big_s.shape))
    worst = float(np.max(defects))
    _require_finite({f"poincare_residual({transform.name})": worst})
    return worst


def translation_residual(system: MultiTimeSystem, offset: Sequence[float],
                         samples: np.ndarray, rep: GammaRep) -> float:
    return poincare_residual(system, make_translation(offset), samples, rep)


# ---------------------------------------------------------------------------
# Exponential-family structure: coefficient ODEs
# ---------------------------------------------------------------------------

_GAMMA_FIELDS = tuple(
    name for name, (_, cls, _) in COEFFICIENT_LAYOUT.items()
    if cls in (BasisClass.GAMMA, BasisClass.G5GAMMA))
_ALPHA_FIELDS = tuple(
    name for name in COEFFICIENT_LAYOUT if name not in _GAMMA_FIELDS)


@np.errstate(all="ignore")
def exponential_form_residual(coefficients: CoefficientSet,
                              masses: tuple[float, float],
                              samples: np.ndarray) -> dict[str, float]:
    """Second-order structure conditions for constant alpha-sector fields.

    When all of W, X, Y, Z are constant, every consistent pair has
    gamma-sector coefficients obeying

        d_{2,nu} d_{2,lam} P_mu = 4 (Z2_lam Z2_nu - Y2_lam Y2_nu) P_mu

    for P in {A + m1 delta_0, B, C, D}, the mirrored equations in the
    particle-1 derivatives for {E + m2 delta_0, F, G, H} driven by
    (X1, Z1), and the rank conditions Y2_nu Z2_lam = Y2_lam Z2_nu
    (branch_2) and X1_mu Z1_lam = X1_lam Z1_mu (branch_1).

    Raises CoefficientFormError when an alpha-sector field is not
    constant, DomainError when a residual is not finite.
    """
    for name in _ALPHA_FIELDS:
        for component in coefficients.field(name):
            if not is_constant(component):
                raise CoefficientFormError(
                    f"field {name} is not constant")
    coords = stack_coords(samples)

    def ev(expr: Expr) -> np.ndarray:
        return np.asarray(evaluate(expr, coords))

    out: dict[str, float] = {}
    for particle, partner in ((1, 2), (2, 1)):
        # the partner's alpha-sector fields that carry gamma5 of `particle`
        y, z = ([ev(e) for e in coefficients.field(
                    coefficient_field(partner, cls, GAMMA5_ELEMENT))]
                for cls in (BasisClass.ALPHA, BasisClass.G5ALPHA))
        for name in _GAMMA_FIELDS:
            owner, cls, other = COEFFICIENT_LAYOUT[name]
            if owner != particle:
                continue
            exprs = coefficients.field(name)
            is_mass_field = (cls, other) == (BasisClass.GAMMA, IDENTITY_ELEMENT)
            shift = masses[particle - 1] if is_mass_field else 0.0
            defects = []
            for mu in range(4):
                base_value = ev(exprs[mu]) + (shift if mu == 0 else 0.0)
                for nu in range(4):
                    first = differentiate(exprs[mu], partner, nu)
                    for lam in range(4):
                        second = ev(differentiate(first, partner, lam))
                        rhs = 4.0 * (z[lam] * z[nu] - y[lam] * y[nu]) * base_value
                        defects.append(np.max(np.abs(second - rhs)))
            out[f"ode_{name}"] = float(np.max(defects))
        out[f"branch_{partner}"] = float(np.max(
            [np.max(np.abs(y[a] * z[b] - y[b] * z[a]))
             for a in range(4) for b in range(4)]))
    _require_finite(out)
    return out


def interaction_witness_hoho(
        system: MultiTimeSystem, rep: GammaRep,
        relatives: Sequence[Sequence[float]] = ((0.0, 0.0, 0.0, 0.0),),
) -> float:
    """Pointwise obstruction certifying that an exponential pair interacts.

    The inf over the given separations x of ||[V_2, V_1 + m_1 gamma0_1]||_F
    at x_1 = 0, x_2 = x; on hoho it is ||(c . alpha_2) 2i gamma5_1
    (C . gamma_1) exp(2i gamma5_1 c.x)||_F.  A value bounded away from
    zero rules out gauge removal of the gamma-sector coupling.  Raises
    SpecError outside the exponential family or without a gamma sector.
    """
    configs = np.zeros((len(relatives), 2, 4))
    configs[:, 1] = relatives
    try:
        coefficients = to_coefficient_form(system)
        exponential_form_residual(coefficients, system.masses, configs)
    except CoefficientFormError as exc:
        raise SpecError("the interaction witness applies to the exponential "
                        f"family: {exc}") from None
    if all(is_zero(expr) for name in _GAMMA_FIELDS
           for expr in coefficients.field(name)):
        raise SpecError("the interaction witness needs a gamma sector")
    coords = stack_coords(configs)
    mass_term = {tensor_element(BasisElement(BasisClass.GAMMA, 0),
                                IDENTITY_ELEMENT): 1.0}
    v_1 = field_sum((1, operator_field(system.potential(1), coords)),
                    (system.mass(1), mass_term))
    v_2 = operator_field(system.potential(2), coords)
    norms = field_norm(field_commutator(v_2, v_1, rep), 2)
    return float(np.min(np.broadcast_to(norms, len(configs)), initial=np.inf))


# ---------------------------------------------------------------------------
# Gauge classification of the alpha-sector
# ---------------------------------------------------------------------------

def _default_values() -> tuple[float, ...]:
    return tuple(np.linspace(-1.0, 1.0, 9))


def _default_base() -> tuple[tuple[float, ...], ...]:
    return ((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0))


@dataclass(frozen=True)
class ConfigGrid:
    """Rectangular probe grid varying two coordinates around a base point."""

    axes: tuple[tuple[int, int], tuple[int, int]] = ((1, 0), (2, 3))
    values: tuple[float, ...] = field(default_factory=_default_values)
    base: tuple[tuple[float, ...], ...] = field(default_factory=_default_base)

    def base_array(self) -> np.ndarray:
        return np.asarray(self.base, float)

    def configs(self) -> np.ndarray:
        """All grid configurations, shape (n, n, 2, 4)."""
        n = len(self.values)
        out = np.tile(self.base_array(), (n, n, 1, 1))
        (k1, mu1), (k2, mu2) = self.axes
        values = np.asarray(self.values, float)
        out[:, :, k1 - 1, mu1] = values[:, None]
        out[:, :, k2 - 1, mu2] = values[None, :]
        return out


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


def _eval_field(expr: Expr, points: np.ndarray) -> np.ndarray:
    """Evaluate on stacked configurations (..., 2, 4) -> (...) array."""
    value = np.asarray(evaluate(expr, stack_coords(points)))
    return np.broadcast_to(value, points.shape[:-2])


@dataclass(frozen=True, eq=False)
class GaugeReport:
    """Outcome of the alpha-sector gauge analysis on a probe grid."""

    verdict: str
    integrability_sup: float
    cross_curl_sup: float
    locality_sup: float
    triangle_sup: float
    gradient_match_sup: float
    tol: float
    fd_tol: float
    gauge_components: dict[str, np.ndarray]

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "integrability_sup": self.integrability_sup,
            "cross_curl_sup": self.cross_curl_sup,
            "locality_sup": self.locality_sup,
            "triangle_sup": self.triangle_sup,
            "gradient_match_sup": self.gradient_match_sup,
            "tol": self.tol,
            "fd_tol": self.fd_tol,
        }


@np.errstate(all="ignore")
def classify_gauge(system: MultiTimeSystem | CoefficientSet,
                   rep: GammaRep | None = None,
                   grid: ConfigGrid | None = None,
                   tol: float = 1e-9, fd_tol: float = 2e-2,
                   nodes: int = 200) -> GaugeReport:
    """Decide whether the cross-particle alpha-sector is a pure gauge.

    The four commuting sectors (1, gamma5_2, gamma5_1, gamma5_1 gamma5_2)
    of the first-order coupling fields f_{j,mu} are treated as scalar
    1-forms over configuration space.  The removable candidate is
    h = f - f_ext, where f_ext freezes the other particle at the grid
    base point.  GAUGE_REMOVABLE requires the exactness conditions
    (cross curls of f, and base-point independence of the in-particle
    curls) below tol, plus two quadrature-scale sanity checks on the
    reconstructed potential: path independence across a triangle of
    paths and a finite-difference gradient match, both below fd_tol
    (the line integral itself carries O(nodes^-2) error, so these
    cannot resolve tol).  Integrability defects inside [tol, 10*tol)
    are reported UNDECIDED rather than interacting.  Raises DomainError
    when a sup is not finite.
    """
    del rep  # the analysis is representation-independent
    grid = grid or ConfigGrid()
    if isinstance(system, CoefficientSet):
        coefficients = system
    else:
        coefficients = to_coefficient_form(system)
    base = grid.base_array()
    configs = grid.configs()
    n = len(grid.values)

    sectors: dict[str, tuple[tuple[Expr, ...], tuple[Expr, ...]]] = {
        label: (coefficients.field(name1), coefficients.field(name2))
        for label, (name1, name2) in _SECTOR_FIELDS.items()}

    # --- exactness conditions -------------------------------------------
    # np.maximum keeps a NaN that max() would drop
    cross_curl = 0.0
    locality = 0.0
    for f1, f2 in sectors.values():
        for mu in range(4):
            for nu in range(4):
                defect = _eval_field(differentiate(f2[nu], 1, mu), configs) \
                    - _eval_field(differentiate(f1[mu], 2, nu), configs)
                cross_curl = np.maximum(cross_curl, np.max(np.abs(defect)))
        for exprs, own, other in ((f1, 1, 2), (f2, 2, 1)):
            for mu in range(4):
                for nu in range(mu + 1, 4):
                    curl = differentiate(exprs[nu], own, mu)
                    curl_swapped = differentiate(exprs[mu], own, nu)
                    for lam in range(4):
                        moved = _eval_field(
                            differentiate(curl, other, lam), configs) \
                            - _eval_field(
                                differentiate(curl_swapped, other, lam), configs)
                        locality = np.maximum(locality, np.max(np.abs(moved)))
    integrability = np.maximum(cross_curl, locality)

    # --- cross-only part h and its path integral -------------------------
    def h_value(sector: str, j: int, mu: int, points: np.ndarray) -> np.ndarray:
        expr = sectors[sector][j - 1][mu]
        frozen = np.array(points, copy=True)
        other = 2 if j == 1 else 1
        frozen[..., other - 1, :] = base[other - 1]
        return _eval_field(expr, points) - _eval_field(expr, frozen)

    s_nodes = np.linspace(0.0, 1.0, nodes)

    def path_integral(sector: str, start: np.ndarray,
                      end: np.ndarray) -> np.ndarray:
        """Integrate h along straight segments start -> end (batched)."""
        delta = end - start
        path = start + np.multiply.outer(s_nodes, delta)
        integrand = np.zeros(path.shape[:-2], complex)
        for j in (1, 2):
            for mu in range(4):
                step = delta[..., j - 1, mu]
                if np.all(step == 0):
                    continue
                integrand = integrand + h_value(sector, j, mu, path) * step
        # trapezoid rule along the path; numpy.trapezoid needs numpy 2 and
        # importing scipy.integrate costs more start-up than the whole rule
        steps = np.diff(s_nodes).reshape((-1,) + (1,) * (integrand.ndim - 1))
        return (steps * (integrand[1:] + integrand[:-1]) / 2.0).sum(axis=0)

    gauge_components = {
        sector: path_integral(sector, base, configs)
        for sector in sectors}

    # --- path independence (straight vs corner polyline) -----------------
    probes = [(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1), (n // 2, n // 2)]
    triangle = 0.0
    for sector in sectors:
        for i, j in probes:
            target = configs[i, j]
            corner = np.array(target, copy=True)
            corner[1] = base[1]
            straight = path_integral(sector, base, target)
            bent = (path_integral(sector, base, corner)
                    + path_integral(sector, corner, target))
            triangle = np.maximum(triangle, abs(straight - bent))

    # --- finite-difference gradient match --------------------------------
    fd_step = 1e-2
    fd_probes = [configs[n // 4, (3 * n) // 4], configs[(3 * n) // 4, n // 4]]
    gradient_match = 0.0
    for sector in sectors:
        for point in fd_probes:
            for j in (1, 2):
                for mu in range(4):
                    up = np.array(point, copy=True)
                    dn = np.array(point, copy=True)
                    up[j - 1, mu] += fd_step
                    dn[j - 1, mu] -= fd_step
                    slope = (path_integral(sector, base, up)
                             - path_integral(sector, base, dn)) / (2 * fd_step)
                    here = h_value(sector, j, mu, point[None])[0]
                    gradient_match = np.maximum(gradient_match,
                                                abs(slope - here))
    _require_finite({"integrability_sup": integrability, "triangle_sup":
                     triangle, "gradient_match_sup": gradient_match})

    if integrability < tol and triangle < fd_tol and gradient_match < fd_tol:
        verdict = GAUGE_REMOVABLE
    elif tol <= integrability < 10 * tol:
        verdict = UNDECIDED
    else:
        verdict = INTERACTING
    return GaugeReport(
        verdict=verdict, integrability_sup=float(integrability),
        cross_curl_sup=float(cross_curl), locality_sup=float(locality),
        triangle_sup=float(triangle), gradient_match_sup=float(gradient_match),
        tol=tol, fd_tol=fd_tol, gauge_components=gauge_components)


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """Combined interaction classification of a two-particle pair."""

    verdict: str
    gamma_sector_sup: float
    gauge: GaugeReport
    witness: float | None
    tol: float

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "gamma_sector_sup": self.gamma_sector_sup,
            "f_sector": self.gauge.as_dict(),
            "witness": self.witness,
            "tol": self.tol,
        }


@np.errstate(all="ignore")
def classify_interaction(system: MultiTimeSystem, rep: GammaRep,
                         grid: ConfigGrid | None = None,
                         tol: float = 1e-9,
                         fd_tol: float = 2e-2) -> ClassificationReport:
    """Classify a pair as gauge-removable, interacting, or undecided.

    When the gamma-sector fields (A..H) vanish on the probe grid the
    alpha-sector gauge analysis decides.  A nonzero gamma sector is
    beyond the gradient argument: a pair of the exponential family
    (every exponential_form_residual below tol on the probe grid) is
    then settled by its interaction witness, anything else stays
    UNDECIDED.  Raises DomainError when a sup is not finite.
    """
    grid = grid or ConfigGrid()
    coefficients = to_coefficient_form(system)
    configs = grid.configs()
    gamma_sup = float(np.max(
        [np.max(np.abs(_eval_field(expr, configs)))
         for name in _GAMMA_FIELDS for expr in coefficients.field(name)]))
    _require_finite({"gamma_sector_sup": gamma_sup})

    gauge = classify_gauge(system, rep, grid=grid, tol=tol, fd_tol=fd_tol)
    witness: float | None = None
    verdict = gauge.verdict
    if gamma_sup >= tol:
        verdict = UNDECIDED
        try:
            structure = exponential_form_residual(
                coefficients, system.masses, configs)
        except CoefficientFormError:  # alpha-sector fields not constant
            structure = None
        if structure is not None and max(structure.values()) < tol:
            witness = interaction_witness_hoho(system, rep)
            verdict = INTERACTING if witness > tol else UNDECIDED
    return ClassificationReport(
        verdict=verdict, gamma_sector_sup=gamma_sup, gauge=gauge,
        witness=witness, tol=tol)
