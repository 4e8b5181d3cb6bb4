"""Each narrative script under demos/ runs cleanly against the package.

The demos import the public API directly, so a name dropped from it fails
here.  Each script runs in a fresh interpreter with the package's source
directory on the path, from a temporary working directory.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtdirac

_SRC = str(Path(mtdirac.__file__).resolve().parents[1])
_DEMOS = sorted(Path(__file__).resolve().parents[1].glob("demos/*.py"))


def test_demos_are_found():
    assert _DEMOS


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda path: path.name)
def test_demo_runs_without_errors(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], env=env,
                          cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout
