"""Compatibility analysis for multi-time evolution systems.

A pair of evolution equations i d/dt_j psi = H_j psi admits joint
solutions for arbitrary initial data only when the operator-valued
curvature

    F_jk = dH_j/dt_k - dH_k/dt_j - i [H_j, H_k]

vanishes identically.  For first-order Hamiltonians the curvature
splits into first-order pieces, proportional to the commutators
[alpha^a_j, V_k] (j != k), and a zeroth-order matrix residual.  One
builder computes both on the stack (..., N, 4) it is given, evaluating
each potential once, in coefficient space: the potentials are operator
fields sum_m c_m B_m over tensor-basis elements, every product of two
basis elements is a phase times one basis element (clifford.PRODUCT_INDEX
and PRODUCT_PHASE), and ||sum_m c_m B_m||_F = sqrt(4^N sum_m |c_m|^2).
So the verdicts, the cc sups and the curvature take no representation;
only zeroth_order_residual and derivative_coefficient_matrices, which
return matrices, take one.  In the sixteen-field coefficient form of a
two-particle pair (potential.COEFFICIENT_LAYOUT) the first-order part
vanishes identically, and the scalar compatibility conditions cc1..cc16
are E(1,2)'s basis coefficients read by sector (CC_SECTORS).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import (
    BasisClass,
    BasisElement,
    GammaRep,
    OperatorField,
    field_commutator,
    field_norm,
    field_product,
    field_sum,
    reconstruct,
    unit_field,
)
from .potential import (
    CoefficientFormError,  # re-exported, as is to_coefficient_form
    CoefficientSet,
    MultiTimeSystem,
    SpecError,
    _in_coefficient_form,
    _require_finite,
    coefficient_set_to_system,
    differentiate_potential,
    operator_field,
    stack_coords,
    terms_field,
    to_coefficient_form,
)

VERDICT_CONSISTENT = "CONSISTENT"
VERDICT_INCONSISTENT = "INCONSISTENT"

_GAMMA0 = BasisElement(BasisClass.GAMMA, 0)
_ALPHA = tuple(BasisElement(BasisClass.ALPHA, mu) for mu in range(4))


# ---------------------------------------------------------------------------
# Residuals as operator fields
# ---------------------------------------------------------------------------

def _curvature_parts(system: MultiTimeSystem, configs, j: int = 1, k: int = 2,
                     first: bool = True) -> tuple[dict, OperatorField]:
    """F_jk's parts as operator fields over the configuration stack.

    Returns the first-order parts [alpha^a_j, V_k] and [alpha^a_k, V_j],
    keyed by (particle, a) for a in 1..3 (none unless first), and E(j,k).
    V_j and V_k are evaluated once, so their guards run once; their
    derivatives carry the same guards and skip them.
    """
    n = system.n_particles
    coords = stack_coords(configs)
    pot_j, pot_k = system.potential(j), system.potential(k)
    v_j = operator_field(pot_j, coords)
    v_k = operator_field(pot_k, coords)
    parts = {(particle, a): field_commutator(
                 unit_field(_ALPHA[a], particle, n), v_other)
             for particle, v_other in ((j, v_k), (k, v_j))
             for a in (1, 2, 3)} if first else {}
    g0_j, g0_k = unit_field(_GAMMA0, j, n), unit_field(_GAMMA0, k, n)
    terms = [(1, field_commutator(v_k, v_j)),
             (system.mass(k), field_commutator(g0_k, v_j)),
             (-system.mass(j), field_commutator(g0_j, v_k))]
    for mu in range(4):
        dv_j = terms_field(differentiate_potential(pot_j, k, mu).terms, coords)
        dv_k = terms_field(differentiate_potential(pot_k, j, mu).terms, coords)
        terms += [(-1j, field_product(unit_field(_ALPHA[mu], k, n), dv_j)),
                  (1j, field_product(unit_field(_ALPHA[mu], j, n), dv_k))]
    return parts, field_sum(*terms)


def zeroth_order_residual(system: MultiTimeSystem, coords: np.ndarray,
                          rep: GammaRep, j: int = 1, k: int = 2) -> np.ndarray:
    """Zeroth-order compatibility residual of the (j, k) equation pair.

    E(j,k) = [V_k, V_j] + m_k [gamma0_k, V_j] - m_j [gamma0_j, V_k]
             - i alpha^mu_k (d_{k,mu} V_j) + i alpha^nu_j (d_{j,nu} V_k)

    coords is a configuration stack (..., N, 4), a single configuration
    being the stack (N, 4); the result is (..., D, D).
    """
    return reconstruct(_curvature_parts(system, coords, j, k)[1],
                       system.n_particles, rep, np.shape(coords)[:-2])


def derivative_coefficient_matrices(
        system: MultiTimeSystem, coords: np.ndarray,
        rep: GammaRep) -> dict[tuple[int, int], np.ndarray]:
    """First-order obstruction matrices [alpha^a_j, V_other(j)].

    Keyed by (j, a) for particles j and spatial directions a in 1..3;
    every one of them must vanish identically for consistency.  Each is
    (..., D, D) for a configuration stack (..., N, 4).
    """
    return {key: reconstruct(operand, system.n_particles, rep,
                             np.shape(coords)[:-2])
            for key, operand in _curvature_parts(system, coords)[0].items()}


def _sup_norm(operand: OperatorField) -> float:
    return float(np.max(field_norm(operand, 2)))


# ---------------------------------------------------------------------------
# Scalar compatibility conditions
# ---------------------------------------------------------------------------

_A, _A5, _G, _G5 = BasisClass  # alpha, g5alpha, gamma, g5gamma

#: The sectors of E(1,2) read as cc1..cc16, in report order: (class of the
#: particle-1 factor, class of the particle-2 factor).  Component (mu, nu)
#: of a family is the coefficient of (cls_1 mu) x (cls_2 nu); the sixteen
#: families cover all 256 elements of the two-particle basis.
CC_SECTORS = ((_A, _A), (_A, _A5), (_A5, _A), (_A5, _A5),
              (_G, _A), (_G5, _A), (_G, _A5), (_G5, _A5),
              (_A, _G), (_A, _G5), (_A5, _G), (_A5, _G5),
              (_G, _G), (_G, _G5), (_G5, _G), (_G5, _G5))


#: The classes of a two-particle element's factors -> its CC_SECTORS index.
_SECTOR_OF = {sector: index for index, sector in enumerate(CC_SECTORS)}


def _cc_sups(zeroth: OperatorField) -> dict[str, float]:
    """sup |c| / unit over each family's sector of the E(1,2) field.

    The unit is 2 when either factor is gamma-class: there the products
    enter E through a commutator of anticommuting elements, 2 B_a B_b.
    """
    sups = [0.0] * len(CC_SECTORS)
    for element, values in zeroth.items():  # np.maximum propagates NaN
        index = _SECTOR_OF[tuple(factor.cls for factor in element.factors)]
        sups[index] = np.maximum(sups[index], np.max(np.abs(values)))
    return {f"cc{index}": float(sup / (1 if set(sector) <= {_A, _A5} else 2))
            for index, (sup, sector) in enumerate(zip(sups, CC_SECTORS), 1)}


def cc_residuals(coefficients: CoefficientSet,
                 masses: tuple[float, float],
                 samples: np.ndarray) -> dict[str, float]:
    """Sup of each scalar compatibility condition of a bare coefficient set.

    The families cc1..cc16 are E(1,2)'s basis coefficients by sector
    (CC_SECTORS), each a 4x4 grid over (mu, nu); the value is the sup of
    |coefficient| / unit over the grid and the samples.  The masses enter
    through E's gamma0 terms.  This is check_consistency's report.cc for
    the set's system; a set carries no guards, so a system's guards apply
    only when check_consistency is given the system itself.
    """
    system = coefficient_set_to_system(coefficients, masses)
    return check_consistency(system, samples).cc


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
    nsamples: int

    def as_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "deriv_coeff_sup": list(self.deriv_coeff_sup),
            "zeroth_sup": self.zeroth_sup,
            "cc": dict(self.cc) if self.cc is not None else None,
            "verdict": self.verdict,
            "tol": self.tol,
            "nsamples": self.nsamples,
        }


def check_consistency(system: MultiTimeSystem, samples: np.ndarray,
                      tol: float = 1e-9) -> ConsistencyReport:
    """Compatibility verdict for a two-particle system on a sample stack.

    samples is a configuration stack (S, 2, 4), as sample_configs draws
    it.  The verdict is CONSISTENT when every first-order obstruction and
    the zeroth-order residual stay below tol in Frobenius norm at all
    samples.  When the pair admits the coefficient form, the cc1..cc16
    sups, read off the same E(1,2) field, are always attached; this is
    the one path from a system to its cc sups, so the system's guards
    apply to them.  Raises SpecError unless N = 2, and DomainError when a
    guard trips or a sup is not finite.
    """
    if system.n_particles != 2:
        raise SpecError("consistency checking requires exactly two particles")
    samples = np.asarray(samples, float)

    with np.errstate(all="ignore"):
        first, zeroth = _curvature_parts(system, samples)
        deriv_sup = tuple(_sup_norm(operand) for operand in first.values())
        zeroth_sup = _sup_norm(zeroth)
    _require_finite({"zeroth_sup": zeroth_sup} | {
        f"deriv_coeff_sup[{index}]": sup
        for index, sup in enumerate(deriv_sup)}, "the sampled configurations")

    # finite: every coefficient is bounded by the finite zeroth_sup
    cc = _cc_sups(zeroth) if _in_coefficient_form(system) else None

    worst = max([*deriv_sup, zeroth_sup])
    verdict = VERDICT_CONSISTENT if worst < tol else VERDICT_INCONSISTENT
    return ConsistencyReport(
        pair=(1, 2), deriv_coeff_sup=deriv_sup, zeroth_sup=zeroth_sup,
        cc=cc, verdict=verdict, tol=tol, nsamples=len(samples))


# ---------------------------------------------------------------------------
# Curvature operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureOperator:
    """First-order differential operator F_12 as operator fields.

    F_12 = zeroth + sum_{k,a} first[(k, a)] d/dx_{k,a}; consistency of
    the pair is exactly F_12 = 0 for all configurations.  Each part is an
    OperatorField over the configuration stack (clifford.reconstruct
    gives its matrices).
    """

    zeroth: OperatorField
    first: dict[tuple[int, int], OperatorField]


def curvature_operator(system: MultiTimeSystem,
                       coords: np.ndarray) -> CurvatureOperator:
    """F_12 at a configuration or at each configuration of a stack.

    F_12 = dH_1/dt_2 - dH_2/dt_1 - i [H_1, H_2] has the zeroth-order part
    i E(1,2) (zeroth_order_residual) and the first-order coefficients
    -[alpha^a_1, V_2], +[alpha^a_2, V_1] (derivative_coefficient_matrices).
    """
    if system.n_particles != 2:
        raise SpecError("curvature requires exactly two particles")
    first, zeroth = _curvature_parts(system, coords)
    return CurvatureOperator(
        zeroth=field_sum((1j, zeroth)),
        first={(j, a): field_sum((1 if j == 2 else -1, operand))
               for (j, a), operand in first.items()})
