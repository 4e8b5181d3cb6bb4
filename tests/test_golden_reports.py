"""Golden reports of the README's CLI commands.

Each command's JSON envelope is compared with the checked-in copy in
golden_reports.json: non-float leaves must match exactly, floats to
rtol 1e-12 / atol 1e-14.  `simulate --dt` is pinned by the benchmark's
own golden file and is not repeated here.

Regenerate after an intended change of the reports with

    PYTHONPATH=src python3 tests/test_golden_reports.py
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from mtdirac.cli import EXIT_OK, entry

GOLDEN_PATH = Path(__file__).with_name("golden_reports.json")
RTOL = 1e-12
ATOL = 1e-14

COMMANDS = (
    ("verify-clifford",),
    ("check", "--builtin", "hoho", "--expect", "consistent"),
    ("check", "--builtin", "example1_vector", "--expect", "inconsistent"),
    ("check", "--builtin", "hoho", "--param", "C=1,0.2,0,0",
     "--param", "m1=2", "--region", "spacelike"),
    ("cc", "--builtin", "hoho"),
    ("classify", "--builtin", "hoho", "--expect", "interacting"),
    ("simulate", "--builtin", "example1_vector",
     "--delta", "0.08,0.04,0.02"),
)


def run_report(argv: tuple[str, ...], out: Path) -> dict:
    assert entry([*argv, "--out", str(out)]) == EXIT_OK
    return json.loads(out.read_text(encoding="utf-8"))


def differences(got, want, where: str = "") -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for key in want
                for d in differences(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in differences(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and type(got) is float:
        if math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{where}: {got!r} != golden {want!r}"]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_report_matches_golden(argv, tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    got = run_report(argv, tmp_path / "report.json")
    assert differences(got, golden[" ".join(argv)]) == []


def test_differences_sees_type_and_value_changes():
    assert differences({"a": [1.0, "x"]}, {"a": [1.0 + 1e-13, "x"]}) == []
    assert differences({"a": 1}, {"a": 1.0}) != []
    assert differences({"a": True}, {"a": 1}) != []
    assert differences({"a": 1.0}, {"a": 1.0 + 1e-9}) != []
    assert differences({"a": [1]}, {"a": [1, 2]}) != []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        reports = {" ".join(argv): run_report(argv, Path(tmp) / "r.json")
                   for argv in COMMANDS}
    GOLDEN_PATH.write_text(json.dumps(reports, indent=2, sort_keys=True)
                           + "\n", encoding="utf-8")
    sys.exit(0)
