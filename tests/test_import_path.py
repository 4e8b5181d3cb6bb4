"""scipy stays off the import path of the CLI and its hermitian runs,
and numpy.polynomial off every CLI run but `classify`.

Each check runs in a fresh interpreter, because the test session itself
has scipy loaded through the oracles.
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

# each entry: [exit code, scipy modules, numpy.polynomial modules]; numpy 1.x
# imports numpy.polynomial itself, so "import numpy" records that baseline
_CLI_SCRIPT = """
import contextlib, io, json, sys

def modules():
    return [sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
            sorted(m for m in sys.modules if m.startswith("numpy.polynomial"))]

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
    for label, (code, scipy, _) in cli_modules.items():
        assert code == 0, label
        assert scipy == [], label


def test_only_classify_loads_numpy_polynomial(cli_modules):
    _, _, baseline = cli_modules["import numpy"]
    for label, (_, _, polynomial) in cli_modules.items():
        if label == "classify":
            assert "numpy.polynomial.legendre" in polynomial
        else:
            assert polynomial == baseline, label


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
