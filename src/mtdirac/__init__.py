"""Multi-time Dirac systems on configuration spacetime.

Tools for N-particle wave equations with one time per particle: the
gamma-matrix algebra, a small expression language for potential
coefficients, consistency (integrability) checks of the coupled system,
interaction/gauge classification, Poincare transforms, and a two-time
split-step propagator on a 1+1-dimensional line model.

The imports below are the public API, each name listed once: ``__all__``
is derived from them as every public name that is not a submodule.
"""

import types as _types

__version__ = "0.1.0"

from .clifford import (
    BasisClass,
    BasisElement,
    GammaRep,
    TensorBasisElement,
    basis16,
    build_dirac_rep,
    build_weyl_rep,
    commutator_table,
    decompose,
    embed,
    frobenius,
    realize,
    reconstruct,
    tensor_element,
    verify_clifford,
)
from .dsl import (
    DslError,
    DslEvaluationError,
    DslParseError,
    differentiate,
    evaluate,
    is_constant,
    parse,
    to_source,
)
from .potential import (
    BUILTIN_SYSTEMS,
    CoefficientFormError,
    CoefficientSet,
    DomainError,
    Guard,
    MultiTimeSystem,
    Potential,
    PotentialTerm,
    Region,
    SpecError,
    coefficient_set_to_system,
    evaluate_potential,
    is_spacelike,
    load_system,
    make_builtin,
    sample_configs,
    save_system,
    system_from_dict,
    system_to_dict,
    to_coefficient_form,
    zero_potential,
)
from .consistency import (
    VERDICT_CONSISTENT,
    VERDICT_INCONSISTENT,
    ConsistencyReport,
    CurvatureOperator,
    cc_residuals,
    check_consistency,
    curvature_operator,
    derivative_coefficient_matrices,
    zeroth_order_residual,
)
from .symmetry import (
    GAUGE_REMOVABLE,
    INTERACTING,
    UNDECIDED,
    ClassificationReport,
    ConfigGrid,
    GaugeReport,
    PoincareTransform,
    classify_gauge,
    classify_interaction,
    compose,
    exponential_form_residual,
    interaction_witness_hoho,
    inverse,
    make_boost,
    make_rotation,
    make_translation,
    poincare_residual,
)
from .solver import (
    Grid,
    HolonomyResult,
    Leg,
    PathIndependenceResult,
    WaveFunction,
    apply_curvature,
    curvature_norm,
    evolve_path,
    gaussian_profile,
    holonomy_series,
    loop_holonomy,
    path_independence_experiment,
    product_state,
    spacelike_mask,
    step,
)

__all__ = ["__version__"] + [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)]
