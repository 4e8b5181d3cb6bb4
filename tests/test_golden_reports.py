"""Golden reports of the README's CLI commands.

Each command's JSON envelope is compared with the checked-in copy in
golden_reports.json: non-float leaves must match exactly, floats to
rtol 1e-12 / atol 1e-14.  The benchmark's `simulate` commands are
pinned here as well, at this tighter tolerance than the benchmark's own
golden file: the README's path-independence run and the two grid-phase
commands of the propagate_gridphase workload.

Pin the commands that have no entry yet with

    PYTHONPATH=src python3 tests/test_golden_reports.py

This adds only the missing commands and leaves every existing entry
byte-identical.  To re-pin an entry after an intended change of its
report, delete the entry from golden_reports.json first, then run it.
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
    ("classify", "--builtin", "coefficient_form",
     "--param", "W1=x2_0,0,0,0", "--param", "W2=x1_0,0,0,0"),
    ("classify", "--builtin", "coefficient_form",
     "--param", "W1=cos(x2_0),0,0,0"),
    ("classify", "--builtin", "coefficient_form",
     "--param", "X1=1,0,0,0", "--param", "A=exp(x2_0),0,0,0"),
    ("classify", "--builtin", "hoho", "--param", "C=1,0.5j,0,0",
     "--param", "c=0.3,0.1,0,0.2", "--seed", "3"),
    ("poincare", "--builtin", "hoho"),
    ("poincare", "--builtin", "coulomb_like"),
    ("simulate", "--builtin", "hoho", "--dt", "0.1,0.05,0.025", "--T", "0.5"),
    ("simulate", "--builtin", "example1_vector",
     "--delta", "0.08,0.04,0.02"),
    ("simulate", "--builtin", "hoho", "--param", "c=1,0,0,0.5",
     "--grid-n", "64", "--dt", "0.1,0.05", "--T", "0.2"),
    ("simulate", "--builtin", "coefficient_form",
     "--param", "W1=0,0,0,0.5*cos(x1_3 - x2_3)",
     "--param", "E=0.5*sin(x1_3 + x2_3),0,0,0",
     "--grid-n", "64", "--delta", "0.2,0.1,0.05"),
)


def run_report(argv: tuple[str, ...], out: Path) -> dict:
    assert entry([*argv, "--out", str(out)]) == EXIT_OK
    return json.loads(out.read_text(encoding="utf-8"))


def _dump(reports: dict) -> str:
    return json.dumps(reports, indent=2, sort_keys=True) + "\n"


def add_missing(path: Path, commands, work_dir: Path) -> list[str]:
    """Pin the commands that have no entry in the golden file at path.

    Existing entries are kept as loaded; since floats round-trip through
    json exactly, their text in the rewritten file is byte-identical.
    Returns the keys that were added.
    """
    reports = json.loads(path.read_text(encoding="utf-8"))
    added = [" ".join(argv) for argv in commands
             if " ".join(argv) not in reports]
    for argv in commands:
        if " ".join(argv) in added:
            reports[" ".join(argv)] = run_report(argv, work_dir / "r.json")
    if added:
        path.write_text(_dump(reports), encoding="utf-8")
    return added


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


def test_writer_adds_missing_and_keeps_existing_entries(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    kept = golden["verify-clifford"]
    kept["report"] = {name: 123.0 + i for i, name in
                      enumerate(sorted(kept["report"]))}  # stale on purpose
    path = tmp_path / "golden.json"
    path.write_text(_dump({"verify-clifford": kept}), encoding="utf-8")
    before = path.read_text(encoding="utf-8")
    missing = ("check", "--builtin", "free", "--nsamples", "5")
    added = add_missing(path, [("verify-clifford",), missing], tmp_path)
    assert added == [" ".join(missing)]
    after = json.loads(path.read_text(encoding="utf-8"))
    assert after["verify-clifford"] == kept
    entry_text = _dump({"verify-clifford": kept})[2:-3]
    assert entry_text in before and entry_text in path.read_text(
        encoding="utf-8")
    assert add_missing(path, [missing], tmp_path) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key in add_missing(GOLDEN_PATH, COMMANDS, Path(tmp)):
            print(f"pinned {key}")
    sys.exit(0)
