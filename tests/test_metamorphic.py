"""Metamorphic relations: changes of a system's description that must
leave its reports unchanged, or change them in a known way.

* Save and load: a builtin written by save_system and read back through
  --spec gives the same exit code, report, verdict and error message as
  --builtin.
* Particle relabelling: reversing the factor order of every structure,
  swapping x1 and x2 in every coefficient and guard and swapping the
  masses turns E(1,2) into -E(2,1) at the swapped configurations, so
  zeroth_sup is unchanged and deriv_coeff_sup's two halves trade places.
* Stack splitting: check_consistency evaluates each configuration of its
  stack on its own, so every sup of a stack is exactly the larger of the
  sups of its two halves.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import fields, is_dataclass, replace

import pytest

from mtdirac.cli import _collect_params, entry
from mtdirac.clifford import tensor_element
from mtdirac.consistency import check_consistency
from mtdirac.dsl import Coord
from mtdirac.potential import (
    BUILTIN_SYSTEMS,
    MultiTimeSystem,
    Potential,
    PotentialTerm,
    Region,
    make_builtin,
    sample_configs,
    save_system,
)

# label: (builtin name, --param NAME=VALUE pairs)
_BUILTINS = {
    "hoho": ("hoho", []),
    "hoho complex": ("hoho", ["C=1,0.5j,0,0", "c=0.3,0.1,0,0.2"]),
    "example1_vector": ("example1_vector", []),
    "free": ("free", []),
    "coulomb_like": ("coulomb_like", []),
    "coefficient_form": ("coefficient_form",
                         ["W1=x2_0,0,0,0", "W2=x1_0,0,0,0"]),
}

_COMMANDS = {
    "check": ["check", "--nsamples", "20"],
    "check spacelike": ["check", "--nsamples", "20", "--region",
                        "spacelike"],
    "cc": ["cc", "--nsamples", "20"],
    "classify": ["classify", "--nsamples", "5"],
    "poincare": ["poincare", "--nsamples", "10"],
    "simulate --dt": ["simulate", "--grid-n", "16", "--T", "0.1",
                      "--dt", "0.05,0.025"],
    "simulate --delta": ["simulate", "--grid-n", "16", "--delta", "0.1,0.05"],
}


def _run(argv: list[str]) -> tuple:
    """(exit code, report, verdict, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(argv)
    envelope = json.loads(out.getvalue()) if out.getvalue() else {}
    return (code, envelope.get("report"), envelope.get("verdict"),
            err.getvalue())


@pytest.mark.parametrize("label", sorted(_BUILTINS))
def test_saved_builtin_reports_like_the_builtin(label, tmp_path):
    name, params = _BUILTINS[label]
    spec = tmp_path / "system.json"
    save_system(make_builtin(name, _collect_params(params)), spec)
    source = ["--builtin", name] + [arg for pair in params
                                    for arg in ("--param", pair)]
    for command, argv in _COMMANDS.items():
        assert (_run(argv + ["--spec", str(spec)])
                == _run(argv + source)), command


def _swap_particles(node):
    """An expression tree with x1 and x2 exchanged."""
    if isinstance(node, Coord):
        return Coord(3 - node.k, node.mu)
    if not is_dataclass(node):
        return node
    return replace(node, **{f.name: _swap_particles(getattr(node, f.name))
                            for f in fields(node)})


def _relabelled(system: MultiTimeSystem) -> MultiTimeSystem:
    """The pair with particles 1 and 2 exchanged: V_1' is V_2 with its
    factors reversed and x1, x2 swapped, and likewise V_2'."""
    potentials = tuple(
        Potential(k, 2, tuple(
            PotentialTerm(tensor_element(*term.structure.factors[::-1]),
                          _swap_particles(term.coefficient))
            for term in old.terms), tuple(
            replace(guard, expr=_swap_particles(guard.expr))
            for guard in old.guards))
        for k, old in ((1, system.potential(2)), (2, system.potential(1))))
    return replace(system, masses=system.masses[::-1], potentials=potentials)


@pytest.mark.parametrize("name, params", [
    ("hoho", {"m2": 0.5}),
    ("hoho", {"C": (1, 0.5j, 0, 0), "c": (0.3, 0.1, 0, 0.2), "m1": 2.0}),
    ("example1_vector", {}),
    ("coefficient_form", {"W1": ("x2_0", 0, 0, 0), "X1": (0, "x2_3", 0, 0),
                          "A": ("sin(x1_1 + x2_0)", 0, 0, 0),
                          "E": (0, 0, "x1_2*x2_3", 0), "m1": 2.0}),
    ("coulomb_like", {"m2": 1.5}),
])
def test_relabelling_particles_exchanges_the_residuals(name, params, rng):
    system = make_builtin(name, params)
    samples = sample_configs(50, rng)
    original = check_consistency(system, samples)
    swapped = check_consistency(_relabelled(system), samples[:, ::-1])
    assert swapped.zeroth_sup == original.zeroth_sup
    assert swapped.deriv_coeff_sup == (original.deriv_coeff_sup[3:]
                                       + original.deriv_coeff_sup[:3])


# each builtin, with fields that vary over the configurations
_SPLIT_SYSTEMS = {name: {} for name in BUILTIN_SYSTEMS} | {
    "hoho": {"C": (1, 0.5j, 0, 0), "c": (0.3, 0.1, 0, 0.2)},
    "coefficient_form": {"W1": ("x2_0", 0, 0, 0), "X1": (0, "x2_3", 0, 0),
                         "A": ("sin(x1_1 + x2_0)", 0, 0, 0),
                         "E": (0, 0, "x1_2*x2_3", 0)},
}


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("name", _SPLIT_SYSTEMS)
def test_a_stack_reports_the_max_over_its_halves(name, region, rng):
    system = make_builtin(name, _SPLIT_SYSTEMS[name])
    samples = sample_configs(301, rng, region=region)
    whole, *halves = (check_consistency(system, stack)
                      for stack in (samples, samples[:137], samples[137:]))
    assert whole.zeroth_sup == max(half.zeroth_sup for half in halves)
    assert whole.deriv_coeff_sup == tuple(
        max(sups) for sups in zip(*(half.deriv_coeff_sup for half in halves)))
    if whole.cc is None:
        assert all(half.cc is None for half in halves)
    else:
        assert whole.cc == {key: max(half.cc[key] for half in halves)
                            for key in whole.cc}
