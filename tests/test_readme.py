"""Each ```python block of README.md runs cleanly against the package.

A block runs in a fresh interpreter with the package's source directory
on the path, from a temporary working directory, so a signature that the
README still shows after it changed fails here.  The README's list of
expression functions is the language's own, dsl.FUNCTIONS, in order.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mtdirac
from mtdirac.dsl import FUNCTIONS

_SRC = str(Path(mtdirac.__file__).resolve().parents[1])
_README = Path(__file__).resolve().parents[1] / "README.md"
_TEXT = _README.read_text(encoding="utf-8")
_BLOCKS = re.findall(r"^```python\n(.*?)^```$", _TEXT,
                     flags=re.MULTILINE | re.DOTALL)


def test_readme_lists_the_dsl_functions():
    listed = re.search(r"imaginary unit `i`, and\s+`([a-z ]+)`", _TEXT)
    assert tuple(listed.group(1).split()) == FUNCTIONS


def test_readme_blocks_are_found():
    assert _BLOCKS


@pytest.mark.parametrize("block", _BLOCKS,
                         ids=[f"block {index}" for index in
                              range(1, len(_BLOCKS) + 1)])
def test_readme_block_runs_without_errors(block, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", block], env=env,
                          cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
