"""scipy stays off the import path of the CLI and its hermitian runs.

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

import mtdirac
from mtdirac.potential import make_builtin
from mtdirac.solver import Grid, product_state
from oracles import reference_step

_SRC = str(Path(mtdirac.__file__).resolve().parents[1])

_CLI_RUNS = {
    "check": ["check", "--builtin", "hoho", "--nsamples", "50"],
    "poincare": ["poincare", "--builtin", "hoho", "--nsamples", "20"],
    "classify": ["classify", "--builtin", "hoho", "--nsamples", "20"],
    "cc": ["cc", "--builtin", "hoho", "--nsamples", "20"],
    "simulate time-only": ["simulate", "--builtin", "hoho", "--grid-n", "16",
                           "--T", "0.2", "--dt", "0.1"],
    "simulate grid phase": ["simulate", "--builtin", "hoho",
                            "--param", "c=1,0,0,0.5", "--grid-n", "16",
                            "--T", "0.2", "--dt", "0.1"],
}

_CLI_SCRIPT = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import mtdirac.cli
loaded = {"import mtdirac.cli": [0, scipy_modules()]}
for label, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = mtdirac.cli.entry(argv)
    loaded[label] = [code, scipy_modules()]
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
from mtdirac.clifford import build_dirac_rep
from mtdirac.potential import make_builtin
from mtdirac.solver import Grid, product_state, step

params = {k: tuple(v) for k, v in json.loads(sys.argv[1]).items()}
system = make_builtin("coefficient_form", params)
psi = product_state(Grid(points=16), times=(0.3, -0.2))
before = "scipy" in sys.modules
out = step(psi, 1, 0.1, system, build_dirac_rep())
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


def test_cli_runs_never_load_scipy():
    loaded = _run(_CLI_SCRIPT, json.dumps(_CLI_RUNS))
    assert list(loaded) == ["import mtdirac.cli", *_CLI_RUNS]
    for label, (code, modules) in loaded.items():
        assert code == 0, label
        assert modules == [], label


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
