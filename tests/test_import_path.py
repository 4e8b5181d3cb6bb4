"""scipy stays off the import path of the CLI and of runs whose
potentials split into classes, numpy.polynomial off every CLI run but
`classify`, and each command imports only the package layers it runs.

Each check runs in a fresh interpreter, because the test session itself
has scipy loaded through the oracles and every layer of the package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mtdirac
from mtdirac.potential import make_builtin
from mtdirac.solver import Grid, product_state
from oracles import reference_step

_SRC = str(Path(mtdirac.__file__).resolve().parents[1])

# classify runs last: the runs share one interpreter, and it alone imports
# numpy.polynomial (for Gauss-Legendre nodes)
_CLI_RUNS = {
    "verify-clifford": ["verify-clifford"],
    "check": ["check", "--builtin", "hoho", "--nsamples", "50"],
    "poincare": ["poincare", "--builtin", "hoho", "--nsamples", "20"],
    "cc": ["cc", "--builtin", "hoho", "--nsamples", "20"],
    "simulate time-only": ["simulate", "--builtin", "hoho", "--grid-n", "16",
                           "--T", "0.2", "--dt", "0.1"],
    "simulate grid phase": ["simulate", "--builtin", "hoho",
                            "--param", "c=1,0,0,0.5", "--grid-n", "16",
                            "--T", "0.2", "--dt", "0.1"],
    "classify": ["classify", "--builtin", "hoho", "--nsamples", "20"],
}

# each entry: [exit code, scipy modules, numpy.polynomial modules, mtdirac
# submodules]; numpy 1.x imports numpy.polynomial itself, so "import numpy"
# records that baseline
_CLI_SCRIPT = """
import contextlib, io, json, sys

def modules():
    return [sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
            sorted(m for m in sys.modules if m.startswith("numpy.polynomial")),
            sorted(m for m in sys.modules if m.startswith("mtdirac."))]

import numpy
loaded = {"import numpy": [0, *modules()]}
import mtdirac.cli
loaded["import mtdirac.cli"] = [0, *modules()]
for label, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = mtdirac.cli.entry(argv)
    loaded[label] = [code, *modules()]
print(json.dumps(loaded))
"""

# test_solver's "dense phase, not a union of cliques" system: V_1 is
# non-hermitian and gamma0 x 1 anticommutes with two commuting structures
_DENSE_PARAMS = {"W1": (0, 0, 0, "0.5*cos(x1_3 - x2_3)"),
                 "X1": (0, 0, 0, "0.2*cos(x2_3)"),
                 "A": ("0.3*sin(x1_3)", 0, 0, 0)}

_DENSE_SCRIPT = """
import json, sys
import numpy as np
from mtdirac.potential import make_builtin
from mtdirac.solver import Grid, product_state, step

params = {k: tuple(v) for k, v in json.loads(sys.argv[1]).items()}
system = make_builtin("coefficient_form", params)
psi = product_state(Grid(points=16), times=(0.3, -0.2))
before = "scipy" in sys.modules
out = step(psi, 1, 0.1, system)
np.save(sys.argv[2], out.values)
print(json.dumps([before, "scipy.linalg" in sys.modules]))
"""


def _run(script: str, *args: str) -> object:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def cli_modules():
    """The modules loaded after each CLI run, in one fresh interpreter."""
    loaded = _run(_CLI_SCRIPT, json.dumps(_CLI_RUNS))
    assert list(loaded) == ["import numpy", "import mtdirac.cli", *_CLI_RUNS]
    return loaded


def test_cli_runs_never_load_scipy(cli_modules):
    for label, (code, scipy, _, _) in cli_modules.items():
        assert code == 0, label
        assert scipy == [], label


def test_only_classify_loads_numpy_polynomial(cli_modules):
    _, _, baseline, _ = cli_modules["import numpy"]
    for label, (_, _, polynomial, _) in cli_modules.items():
        if label == "classify":
            assert "numpy.polynomial.legendre" in polynomial
        else:
            assert polynomial == baseline, label


# the layers each command may leave unloaded, and must then not load
_UNUSED_LAYERS = {
    "import mtdirac.cli": {"symmetry", "solver"},
    "verify-clifford": {"symmetry", "solver"},
    "check": {"symmetry", "solver"},
    "cc": {"symmetry", "solver"},
    "classify": {"solver"},
    "poincare": {"solver"},
    "simulate time-only": {"symmetry"},
    "simulate grid phase": {"symmetry"},
}
_LAYERS = ("cli", "clifford", "consistency", "dsl", "potential", "solver",
           "symmetry")


def test_each_command_loads_only_the_layers_it_runs():
    for label, argv in _CLI_RUNS.items():
        loaded = _run(_CLI_SCRIPT, json.dumps({label: argv}))
        for run in ("import mtdirac.cli", label):
            code, _, _, submodules = loaded[run]
            assert code == 0, run
            assert submodules == sorted(
                f"mtdirac.{layer}" for layer in _LAYERS
                if layer not in _UNUSED_LAYERS[run]), run


_BENCH_ACCESS_SCRIPT = """
import json, sys
from operator import attrgetter
import mtdirac.cli
loaded = "mtdirac.solver" in sys.modules
step = attrgetter("solver.step")(mtdirac)
from mtdirac.solver import step as defined
print(json.dumps([loaded, step is defined]))
"""


def test_a_layer_resolves_as_a_package_attribute_on_first_access():
    # bench/run.py imports mtdirac.cli alone, then resolves its traced
    # names as <layer>.<function> on the package
    assert _run(_BENCH_ACCESS_SCRIPT) == [False, True]


_PUBLIC_NAMES = [
    "BUILTIN_SYSTEMS", "BasisClass", "BasisElement", "ClassificationReport",
    "CoefficientFormError", "CoefficientSet", "ConsistencyReport",
    "CurvatureOperator", "DomainError", "DslError",
    "DslEvaluationError", "DslParseError", "GAUGE_REMOVABLE", "GammaRep",
    "GaugeReport", "Grid", "Guard", "HolonomyResult", "INTERACTING", "Leg",
    "MultiTimeSystem", "PathIndependenceResult", "PoincareTransform",
    "Potential", "PotentialTerm", "Region", "SpecError",
    "TensorBasisElement", "UNDECIDED", "VERDICT_CONSISTENT",
    "VERDICT_INCONSISTENT", "WaveFunction", "__version__",
    "basis16", "build_dirac_rep", "build_weyl_rep",
    "cc_residuals", "check_consistency", "classify_gauge",
    "classify_interaction", "coefficient_set_to_system", "commutator_table",
    "compose", "curvature_norm", "curvature_operator", "decompose",
    "derivative_coefficient_matrices", "differentiate", "embed", "evaluate",
    "evaluate_potential", "evolve_path", "exponential_form_residual",
    "frobenius", "gaussian_profile", "holonomy_series",
    "interaction_witness_hoho", "inverse", "is_constant", "is_spacelike",
    "load_system", "loop_holonomy", "make_boost", "make_builtin",
    "make_rotation", "make_translation", "parse",
    "path_independence_experiment", "poincare_residual", "product_state",
    "realize", "reconstruct", "sample_configs", "save_system",
    "spacelike_mask", "step", "system_from_dict", "system_to_dict",
    "tensor_element", "to_coefficient_form", "to_source", "verify_clifford",
    "zero_potential", "zeroth_order_residual",
]

# [submodules after import mtdirac, sorted __all__, names other than
# __version__ not bound to the object of that name in any layer, names missing from dir(), names that
# `from mtdirac import *` does not bind to the package's object]
_SURFACE_SCRIPT = """
import importlib, json, sys
import mtdirac
loaded = sorted(m for m in sys.modules if m.startswith("mtdirac."))
layers = [importlib.import_module("mtdirac." + layer)
          for layer in json.loads(sys.argv[1])]
missing = object()
unbound = [name for name in mtdirac.__all__ if name != "__version__"
           and not any(getattr(layer, name, missing) is getattr(mtdirac, name)
                       for layer in layers)]
undir = sorted(set(mtdirac.__all__) - set(dir(mtdirac)))
star = {}
exec("from mtdirac import *", star)
unstarred = [name for name in mtdirac.__all__
             if star.get(name, missing) is not getattr(mtdirac, name)]
print(json.dumps([loaded, sorted(mtdirac.__all__), unbound, undir,
                  unstarred]))
"""


def test_public_surface_resolves_lazily():
    loaded, names, unbound, undir, unstarred = _run(
        _SURFACE_SCRIPT, json.dumps(_LAYERS))
    assert loaded == []
    assert names == _PUBLIC_NAMES
    assert (unbound, undir, unstarred) == ([], [], [])


def test_non_hermitian_dense_phase_loads_scipy(dirac, tmp_path):
    values = tmp_path / "values.npy"
    before, after = _run(_DENSE_SCRIPT, json.dumps(_DENSE_PARAMS),
                         str(values))
    assert (before, after) == (False, True)
    system = make_builtin("coefficient_form", _DENSE_PARAMS)
    psi = product_state(Grid(points=16), times=(0.3, -0.2))
    expected = reference_step(psi, 1, 0.1, system, dirac)
    deviation = np.sqrt(np.sum(np.abs(np.load(values) - expected) ** 2)) \
        * psi.grid.spacing
    assert deviation <= 1e-13
