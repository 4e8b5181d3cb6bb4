"""Compatibility analysis for multi-time evolution systems.

A pair of evolution equations i d/dt_j psi = H_j psi admits joint
solutions for arbitrary initial data only when the operator-valued
curvature

    F_jk = dH_j/dt_k - dH_k/dt_j - i [H_j, H_k]

vanishes identically.  For first-order Hamiltonians the curvature
splits into first-order pieces, proportional to the commutators
[alpha^a_j, V_k] (j != k), and a zeroth-order matrix residual.  This
module computes both, each on a whole configuration stack (..., N, 4)
in one call, assembles the curvature from them, and evaluates the
scalar compatibility conditions (cc1..cc16) that characterize
consistency in the sixteen-field coefficient form of a two-particle
pair (see potential.COEFFICIENT_LAYOUT).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import GammaRep, commutator, embed
from .dsl import Expr, differentiate, evaluate
from .potential import (
    COEFFICIENT_FIELDS_1,
    COEFFICIENT_FIELDS_2,
    FIELD_NAMES,
    CoefficientFormError,
    CoefficientSet,
    DomainError,
    MultiTimeSystem,
    Region,
    SpecError,
    differentiate_potential,
    evaluate_stack,
    sample_configs,
    stack_coords,
    to_coefficient_form,
)

VERDICT_CONSISTENT = "CONSISTENT"
VERDICT_INCONSISTENT = "INCONSISTENT"


# ---------------------------------------------------------------------------
# Matrix-level residuals
# ---------------------------------------------------------------------------

def _over_stack(matrices: np.ndarray, coords) -> np.ndarray:
    """Broadcast (..., D, D) to the stack's leading shape (a view)."""
    return np.broadcast_to(
        matrices, np.shape(coords)[:-2] + matrices.shape[-2:])


def _zeroth_order(system: MultiTimeSystem, coords, rep: GammaRep,
                  j: int, k: int) -> np.ndarray:
    """E(j,k), broadcastable against the stack like evaluate_stack."""
    n = system.n_particles
    pot_j, pot_k = system.potential(j), system.potential(k)
    v_j = evaluate_stack(pot_j, coords, rep)
    v_k = evaluate_stack(pot_k, coords, rep)
    g0_j = embed(rep.gamma(0), j, n)
    g0_k = embed(rep.gamma(0), k, n)

    residual = (commutator(v_k, v_j)
                + system.mass(k) * commutator(g0_k, v_j)
                - system.mass(j) * commutator(g0_j, v_k))
    for mu in range(4):
        dv_j = evaluate_stack(differentiate_potential(pot_j, k, mu),
                              coords, rep)
        dv_k = evaluate_stack(differentiate_potential(pot_k, j, mu),
                              coords, rep)
        residual = (residual
                    - 1j * embed(rep.alpha(mu), k, n) @ dv_j
                    + 1j * embed(rep.alpha(mu), j, n) @ dv_k)
    return residual


def _first_order(system: MultiTimeSystem, coords,
                 rep: GammaRep) -> dict[tuple[int, int], np.ndarray]:
    """[alpha^a_j, V_k] by (j, a), broadcastable like evaluate_stack."""
    n = system.n_particles
    out: dict[tuple[int, int], np.ndarray] = {}
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            if j == k:
                continue
            v_k = evaluate_stack(system.potential(k), coords, rep)
            for a in (1, 2, 3):
                out[(j, a)] = commutator(embed(rep.alpha(a), j, n), v_k)
    return out


def zeroth_order_residual(system: MultiTimeSystem, coords: np.ndarray,
                          rep: GammaRep, j: int = 1, k: int = 2) -> np.ndarray:
    """Zeroth-order compatibility residual of the (j, k) equation pair.

    E(j,k) = [V_k, V_j] + m_k [gamma0_k, V_j] - m_j [gamma0_j, V_k]
             - i alpha^mu_k (d_{k,mu} V_j) + i alpha^nu_j (d_{j,nu} V_k)

    coords is a configuration stack (..., N, 4), a single configuration
    being the stack (N, 4); the result is (..., D, D).
    """
    return _over_stack(_zeroth_order(system, coords, rep, j, k), coords)


def derivative_coefficient_matrices(
        system: MultiTimeSystem, coords: np.ndarray,
        rep: GammaRep) -> dict[tuple[int, int], np.ndarray]:
    """First-order obstruction matrices [alpha^a_j, V_other(j)].

    Keyed by (j, a) for particles j and spatial directions a in 1..3;
    every one of them must vanish identically for consistency.  Each is
    (..., D, D) for a configuration stack (..., N, 4).
    """
    return {key: _over_stack(matrices, coords)
            for key, matrices in _first_order(system, coords, rep).items()}


def _sup_frobenius(batch: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(batch, axis=(-2, -1))))


def _require_finite(sups: dict[str, float]) -> None:
    """No verdict from non-finite numbers: raise DomainError on any."""
    bad = sorted(name for name, sup in sups.items() if not np.isfinite(sup))
    if bad:
        raise DomainError(
            f"non-finite residual in {', '.join(bad)} at the sampled "
            "configurations")


# ---------------------------------------------------------------------------
# Scalar compatibility conditions
# ---------------------------------------------------------------------------

@np.errstate(all="ignore")
def cc_residuals(coefficients: CoefficientSet,
                 masses: tuple[float, float],
                 samples: np.ndarray) -> dict[str, float]:
    """Sup of each scalar compatibility condition over the samples.

    Sixteen families cc1..cc16, each a 4x4 grid over the component
    indices (mu for particle-1 fields, nu for particle-2 fields); the
    reported value is the sup of |residual| over components and sample
    configurations.  Mass shifts m1 delta_{0 mu} and m2 delta_{0 nu}
    enter through the shifted fields A and E.
    """
    coords = stack_coords(samples)
    m1, m2 = masses

    def ev(expr: Expr) -> np.ndarray:
        return np.asarray(evaluate(expr, coords))

    def ev_d(expr: Expr, k: int, mu: int) -> np.ndarray:
        return ev(differentiate(expr, k, mu))

    val = {name: [ev(expr) for expr in coefficients.field(name)]
           for name in FIELD_NAMES}
    # shifted time components: the mass term joins the gamma0 coefficient
    shifted_a = [val["A"][mu] + (m1 if mu == 0 else 0.0) for mu in range(4)]
    shifted_e = [val["E"][nu] + (m2 if nu == 0 else 0.0) for nu in range(4)]

    d1 = {name: [[ev_d(coefficients.field(name)[comp], 1, mu)
                  for comp in range(4)] for mu in range(4)]
          for name in COEFFICIENT_FIELDS_2}
    d2 = {name: [[ev_d(coefficients.field(name)[comp], 2, nu)
                  for comp in range(4)] for nu in range(4)]
          for name in COEFFICIENT_FIELDS_1}

    half_i = 0.5j

    def residual(mu: int, nu: int, family: str):
        v = val
        if family == "cc1":
            return d1["W2"][mu][nu] - d2["W1"][nu][mu]
        if family == "cc2":
            return d1["X2"][mu][nu] - d2["X1"][nu][mu]
        if family == "cc3":
            return d1["Y2"][mu][nu] - d2["Y1"][nu][mu]
        if family == "cc4":
            return d1["Z2"][mu][nu] - d2["Z1"][nu][mu]
        if family == "cc5":
            return (v["B"][mu] * v["Y2"][nu] + v["D"][mu] * v["Z2"][nu]
                    - half_i * d2["A"][nu][mu])
        if family == "cc6":
            return (shifted_a[mu] * v["Y2"][nu] + v["C"][mu] * v["Z2"][nu]
                    - half_i * d2["B"][nu][mu])
        if family == "cc7":
            return (-v["B"][mu] * v["Z2"][nu] - v["D"][mu] * v["Y2"][nu]
                    - half_i * d2["C"][nu][mu])
        if family == "cc8":
            return (-shifted_a[mu] * v["Z2"][nu] - v["C"][mu] * v["Y2"][nu]
                    - half_i * d2["D"][nu][mu])
        if family == "cc9":
            return (v["F"][nu] * v["X1"][mu] + v["H"][nu] * v["Z1"][mu]
                    - half_i * d1["E"][mu][nu])
        if family == "cc10":
            return (shifted_e[nu] * v["X1"][mu] + v["G"][nu] * v["Z1"][mu]
                    - half_i * d1["F"][mu][nu])
        if family == "cc11":
            return (-v["F"][nu] * v["Z1"][mu] - v["H"][nu] * v["X1"][mu]
                    - half_i * d1["G"][mu][nu])
        if family == "cc12":
            return (-shifted_e[nu] * v["Z1"][mu] - v["G"][nu] * v["X1"][mu]
                    - half_i * d1["H"][mu][nu])
        if family == "cc13":
            return v["B"][mu] * v["G"][nu] - v["C"][mu] * v["F"][nu]
        if family == "cc14":
            return v["B"][mu] * v["H"][nu] - v["C"][mu] * shifted_e[nu]
        if family == "cc15":
            return shifted_a[mu] * v["G"][nu] - v["D"][mu] * v["F"][nu]
        if family == "cc16":
            return shifted_a[mu] * v["H"][nu] - v["D"][mu] * shifted_e[nu]
        raise KeyError(family)

    out = {}
    for index in range(1, 17):
        family = f"cc{index}"
        out[family] = float(np.max(
            [np.max(np.abs(residual(mu, nu, family)))
             for mu in range(4) for nu in range(4)]))
    _require_finite(out)
    return out


# ---------------------------------------------------------------------------
# Consistency verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConsistencyReport:
    """Sampled compatibility analysis of a two-particle system.

    deriv_coeff_sup holds six values ordered (j=1, a=1..3) then
    (j=2, a=1..3), each the sup over samples of ||[alpha^a_j, V_k]||_F
    for the opposite particle k.
    """

    pair: tuple[int, int]
    deriv_coeff_sup: tuple[float, ...]
    zeroth_sup: float
    cc: dict[str, float] | None
    verdict: str
    tol: float
    region: str
    nsamples: int

    def as_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "deriv_coeff_sup": list(self.deriv_coeff_sup),
            "zeroth_sup": self.zeroth_sup,
            "cc": dict(self.cc) if self.cc is not None else None,
            "verdict": self.verdict,
            "tol": self.tol,
            "region": self.region,
            "nsamples": self.nsamples,
        }


def check_consistency(system: MultiTimeSystem, rep: GammaRep, *,
                      nsamples: int = 100,
                      region: Region = Region.ALL,
                      tol: float = 1e-9,
                      rng: np.random.Generator | None = None,
                      samples: np.ndarray | None = None,
                      include_cc: bool = True) -> ConsistencyReport:
    """Sample-based compatibility verdict for a two-particle system.

    The verdict is CONSISTENT when every first-order obstruction and
    the zeroth-order residual stay below tol in Frobenius norm at all
    sampled configurations.  When the pair admits the coefficient form,
    the scalar condition sups are attached as a cross-check.
    """
    if system.n_particles != 2:
        raise SpecError("consistency checking requires exactly two particles")
    if samples is None:
        rng = rng or np.random.default_rng(0)
        samples = sample_configs(nsamples, rng, system.n_particles, region)
    else:
        samples = np.asarray(samples, float)

    with np.errstate(all="ignore"):
        matrices = derivative_coefficient_matrices(system, samples, rep)
        deriv_sup = tuple(
            _sup_frobenius(matrices[(j, a)])
            for j in (1, 2) for a in (1, 2, 3))
        zeroth_sup = _sup_frobenius(
            zeroth_order_residual(system, samples, rep))
    _require_finite({"zeroth_sup": zeroth_sup} | {
        f"deriv_coeff_sup[{index}]": sup
        for index, sup in enumerate(deriv_sup)})

    cc: dict[str, float] | None = None
    if include_cc:
        try:
            coefficients = to_coefficient_form(system)
        except CoefficientFormError:
            cc = None
        else:
            cc = cc_residuals(coefficients, system.masses, samples)

    worst = max([*deriv_sup, zeroth_sup])
    verdict = VERDICT_CONSISTENT if worst < tol else VERDICT_INCONSISTENT
    return ConsistencyReport(
        pair=(1, 2), deriv_coeff_sup=deriv_sup, zeroth_sup=zeroth_sup,
        cc=cc, verdict=verdict, tol=tol, region=region.value,
        nsamples=len(samples))


# ---------------------------------------------------------------------------
# Curvature operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureOperator:
    """First-order differential operator F_12 at one or more configurations.

    F_12 = zeroth + sum_{k,a} first[(k, a)] d/dx_{k,a}; consistency of
    the pair is exactly F_12 = 0 for all configurations.
    """

    zeroth: np.ndarray
    first: dict[tuple[int, int], np.ndarray]


def curvature_operator(system: MultiTimeSystem, coords: np.ndarray,
                       rep: GammaRep) -> CurvatureOperator:
    """F_12 at a configuration or at each configuration of a stack.

    F_12 = dH_1/dt_2 - dH_2/dt_1 - i [H_1, H_2] has the zeroth-order part
    i E(1,2) (zeroth_order_residual) and the first-order coefficients
    -[alpha^a_1, V_2], +[alpha^a_2, V_1] (derivative_coefficient_matrices);
    parts constant over the stack stay single (D, D) matrices.
    """
    if system.n_particles != 2:
        raise SpecError("curvature requires exactly two particles")
    # each part may be a whole grid of 16x16 matrices: the zeroth-order
    # temporaries are freed before the first-order parts are held, and the
    # signs and the factor i are applied in place
    zeroth = _zeroth_order(system, coords, rep, 1, 2)
    zeroth *= 1j
    first = _first_order(system, coords, rep)
    for a in (1, 2, 3):
        np.negative(first[(1, a)], out=first[(1, a)])
    return CurvatureOperator(zeroth=zeroth, first=first)
