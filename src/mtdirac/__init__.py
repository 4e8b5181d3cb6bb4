"""Multi-time Dirac systems on configuration spacetime.

Tools for N-particle wave equations with one time per particle: the
gamma-matrix algebra, a small expression language for potential
coefficients, consistency (integrability) checks of the coupled system,
interaction/gauge classification, Poincare transforms, and a two-time
split-step propagator on a 1+1-dimensional line model.

``_EXPORTS`` below is the public API: each submodule and its public
names, each name listed once.  ``__all__`` is ``__version__`` and those
names.  ``import mtdirac`` imports no submodule; the first access to a
name or a submodule (``mtdirac.solver``) imports the submodule that owns
it, and the value is kept in this namespace.
"""

import importlib as _importlib

__version__ = "0.1.0"

_EXPORTS = {
    "clifford": (
        "BasisClass", "BasisElement", "GammaRep", "TensorBasisElement",
        "basis16", "build_dirac_rep", "build_weyl_rep", "commutator_table",
        "decompose", "embed", "frobenius", "realize", "reconstruct",
        "tensor_element", "verify_clifford"),
    "dsl": (
        "DslError", "DslEvaluationError", "DslParseError", "differentiate",
        "evaluate", "is_constant", "parse", "to_source"),
    "potential": (
        "BUILTIN_SYSTEMS", "CoefficientFormError", "CoefficientSet",
        "DomainError", "Guard", "MultiTimeSystem", "Potential",
        "PotentialTerm", "Region", "SpecError", "coefficient_set_to_system",
        "evaluate_potential", "is_spacelike", "load_system", "make_builtin",
        "sample_configs", "save_system", "system_from_dict",
        "system_to_dict", "to_coefficient_form", "zero_potential"),
    "consistency": (
        "VERDICT_CONSISTENT", "VERDICT_INCONSISTENT", "ConsistencyReport",
        "CurvatureOperator", "cc_residuals", "check_consistency",
        "curvature_operator", "derivative_coefficient_matrices",
        "zeroth_order_residual"),
    "symmetry": (
        "GAUGE_REMOVABLE", "INTERACTING", "UNDECIDED",
        "ClassificationReport", "ConfigGrid", "GaugeReport",
        "PoincareTransform", "classify_gauge", "classify_interaction",
        "compose", "exponential_form_residual", "interaction_witness_hoho",
        "inverse", "make_boost", "make_rotation", "make_translation",
        "poincare_residual"),
    "solver": (
        "Grid", "HolonomyResult", "Leg", "PathIndependenceResult",
        "WaveFunction", "apply_curvature", "curvature_norm", "evolve_path",
        "gaussian_profile", "holonomy_series", "loop_holonomy",
        "path_independence_experiment", "product_state", "spacelike_mask",
        "step"),
}
_OWNERS = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = ["__version__", *_OWNERS]


def __getattr__(name: str):
    """Import the submodule named, or owning, `name` on first access."""
    if name in _EXPORTS:
        value = _importlib.import_module(f".{name}", __name__)
    elif name in _OWNERS:
        owner = _importlib.import_module(f".{_OWNERS[name]}", __name__)
        value = getattr(owner, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
