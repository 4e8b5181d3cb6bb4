"""Batch command-line interface.

Loads a system (builtin or JSON description), runs one verification or
experiment per invocation, and emits a machine-readable JSON report —
plus a CSV series for the solver experiments.  Reports embed the config
echo, the seed, and the package version, and contain no timestamps, so
a rerun with the same arguments produces byte-identical output.

Exit codes:
    0   success (and the verdict matched --expect, when given)
    1   the verdict did not match any --expect value
    2   malformed input: unknown builtin, bad flags, parameters or
        system-file fields of the wrong type or out of range (masses must
        be real and finite, N and particle JSON integers), coefficient
        expressions that fail to parse or nest more than dsl.MAX_DEPTH
        levels deep (message carries the source position), spec files
        that are not UTF-8 JSON or nest too deeply to decode, systems
        outside the required form (cc: the coefficient form), a loop
        delta whose square underflows, a request too large for memory
        (say, --nsamples), or an --out or --csv path that cannot be
        written
    3   numerical-domain failure: a coefficient guard tripped (every
        command that evaluates the potentials runs them, cc included),
        an expression hit an evaluation singularity, or a potential or
        residual is not finite (reports are strict JSON)
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .clifford import build_dirac_rep, build_weyl_rep, commutator_table, \
    verify_clifford
from .consistency import check_consistency
from .dsl import DslEvaluationError, DslParseError
from .potential import (
    BUILTIN_SYSTEMS,
    CoefficientFormError,
    DomainError,
    MultiTimeSystem,
    Region,
    SpecError,
    load_system,
    make_builtin,
    sample_configs,
    to_coefficient_form,
    write_text_atomic,
)

# symmetry and solver are imported by the commands that run them, so that
# check, cc and verify-clifford start without loading either

EXIT_OK = 0
EXIT_EXPECT = 1
EXIT_SPEC = 2
EXIT_DOMAIN = 3

EXPECT_CHOICES = ("consistent", "inconsistent", "interacting",
                  "gauge-removable")


def _verdict_token(verdict: str) -> str:
    """The --expect token of a report verdict: GAUGE_REMOVABLE ->
    gauge-removable.  UNDECIDED's token is no EXPECT_CHOICES entry."""
    return verdict.lower().replace("_", "-")


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

def _parse_scalar(text: str):
    text = text.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for convert in (int, float, complex):
        try:
            return convert(text)
        except ValueError:
            pass
    return text  # coefficient source string; parsed by the system builder


def _parse_param_value(raw: str):
    """NAME=VALUE values: scalar, comma-separated 4-tuple, or expression."""
    parts = raw.split(",")
    if len(parts) > 1:
        return tuple(_parse_scalar(part) for part in parts)
    return _parse_scalar(raw)


def _collect_params(pairs: Sequence[str]) -> dict:
    params = {}
    for pair in pairs:
        name, separator, value = pair.partition("=")
        if not separator or not name.strip():
            raise SpecError(f"expected --param NAME=VALUE, got {pair!r}")
        params[name.strip()] = _parse_param_value(value)
    return params


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    if not all(math.isfinite(value) for value in values):
        raise argparse.ArgumentTypeError(
            f"expected finite numbers, got {text!r}")
    return values


def _int_at_least(lower: int):
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < lower:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {lower}, got {value}")
        return value
    return convert


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}")
    return value


def _load_cmd_system(args: argparse.Namespace) -> MultiTimeSystem:
    if bool(args.spec) == bool(args.builtin):
        raise SpecError("provide exactly one of --spec FILE or --builtin NAME")
    if args.spec:
        if args.param:
            raise SpecError("--param only applies to --builtin systems")
        return load_system(args.spec)
    return make_builtin(args.builtin, _collect_params(args.param))


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

# Echoed into every report: the inputs that determine the numbers.
# Output paths are deliberately left out so that reruns with the same
# seed are byte-identical wherever they are written.
_ECHO_KEYS = ("spec", "builtin", "param", "region", "nsamples", "tol",
              "grid_n", "box_L", "T", "dt", "delta", "expect")


def _format_csv(rows: Sequence[Sequence]) -> str:
    lines = []
    for row in rows:
        cells = [cell if isinstance(cell, str) else
                 "" if cell is None else repr(float(cell)) for cell in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands: each returns (report dict, verdict or None)
# ---------------------------------------------------------------------------

def _cmd_verify_clifford(args: argparse.Namespace):
    report = {}
    worst = 0.0
    for name, build in (("dirac", build_dirac_rep), ("weyl", build_weyl_rep)):
        rep = build()
        residuals = verify_clifford(rep)
        table_sup = max(residual for _, _, residual in commutator_table(rep))
        worst = max(worst, table_sup, *residuals.values())
        report[name] = {
            "identities": residuals,
            "commutator_table_sup": table_sup,
        }
    report["max_residual"] = worst
    report["ok"] = bool(worst < args.tol)
    return report, None


def _sampled_check(args: argparse.Namespace, system: MultiTimeSystem):
    samples = sample_configs(args.nsamples, np.random.default_rng(args.seed),
                             system.n_particles, Region(args.region))
    return check_consistency(system, samples, tol=args.tol)


def _cmd_check(args: argparse.Namespace):
    system = _load_cmd_system(args)
    result = _sampled_check(args, system)
    report = {"system": system.name, "masses": list(system.masses),
              "region": args.region} | result.as_dict()
    return report, result.verdict


def _cmd_cc(args: argparse.Namespace):
    system = _load_cmd_system(args)
    to_coefficient_form(system)  # CoefficientFormError outside the form
    result = _sampled_check(args, system)
    report = {
        "system": system.name,
        "cc": result.cc,
        "sup": max(result.cc.values()),
        "verdict": result.verdict,
        "tol": args.tol,
        "region": args.region,
        "nsamples": args.nsamples,
    }
    return report, result.verdict


def _cmd_classify(args: argparse.Namespace):
    from .symmetry import classify_interaction, exponential_form_residual, \
        make_translation, poincare_residual
    system = _load_cmd_system(args)
    classification = classify_interaction(system, tol=args.tol)
    rng = np.random.default_rng(args.seed)
    samples = sample_configs(args.nsamples, rng, system.n_particles)
    offsets = rng.uniform(-2.0, 2.0, size=(5, 4))
    translation_sup = max(poincare_residual(
        system, [make_translation(offset) for offset in offsets], samples))
    try:
        exponential = exponential_form_residual(
            classification.gauge.coefficients, system.masses, samples)
    except CoefficientFormError:
        exponential = None  # alpha-sector fields not constant
    report = classification.as_dict() | {
        "system": system.name,
        "translation_sup": translation_sup,
        "exponential_form": exponential,
    }
    return report, classification.verdict


def _cmd_poincare(args: argparse.Namespace):
    from .symmetry import compose, inverse, make_boost, make_rotation, \
        make_translation, poincare_residual
    system = _load_cmd_system(args)
    rng = np.random.default_rng(args.seed)
    samples = sample_configs(args.nsamples, rng, system.n_particles)
    rapidity = 0.5
    angle = math.pi / 3.0
    offset = (0.4, -0.3, 0.2, 0.7)
    boost_z = make_boost((0.0, 0.0, 1.0), rapidity)
    sweep = (
        ("boost_x", make_boost((1.0, 0.0, 0.0), rapidity)),
        ("boost_y", make_boost((0.0, 1.0, 0.0), rapidity)),
        ("boost_z", boost_z),
        ("rotation_x", make_rotation((1.0, 0.0, 0.0), angle)),
        ("rotation_y", make_rotation((0.0, 1.0, 0.0), angle)),
        ("rotation_z", make_rotation((0.0, 0.0, 1.0), angle)),
        ("translation", make_translation(offset)),
        ("boost_z_times_inverse", compose(boost_z, inverse(boost_z))),
    )
    names, transforms = zip(*sweep)
    residuals = dict(zip(names, poincare_residual(system, transforms,
                                                  samples)))
    report = {
        "system": system.name,
        "residuals": residuals,
        "rapidity": rapidity,
        "angle": angle,
        "offset": list(offset),
        "nsamples": args.nsamples,
    }
    return report, None


def _cmd_simulate(args: argparse.Namespace):
    if bool(args.dt) == bool(args.delta):
        raise SpecError("simulate needs exactly one of --dt or --delta")
    from .solver import Grid, curvature_norm, holonomy_series, \
        path_independence_experiment, product_state
    system = _load_cmd_system(args)
    grid = Grid(length=args.box_L, points=args.grid_n)
    psi0 = product_state(grid)
    if args.dt:
        result = path_independence_experiment(
            system, psi0, args.T, args.dt)
        report = {
            "system": system.name,
            "experiment": "path-independence",
            "total_time": args.T,
        } | result.as_dict()
        csv_rows = [("dt", "discrepancy", "fitted_order")]
        csv_rows += [(dt, disc, report["fitted_order"])
                     for dt, disc in result.rows]
    else:
        result = holonomy_series(system, psi0, args.delta)
        report = {
            "system": system.name,
            "experiment": "loop-holonomy",
            "curvature_norm": curvature_norm(system, psi0),
        } | result.as_dict()
        csv_rows = [("delta", "deviation", "deviation_per_delta2")]
        csv_rows += list(result.rows)
    report["grid"] = {"length": grid.length, "points": grid.points}
    if args.csv:
        write_text_atomic(args.csv, _format_csv(csv_rows))
    return report, None


_HANDLERS = {
    "verify-clifford": _cmd_verify_clifford,
    "check": _cmd_check,
    "cc": _cmd_cc,
    "classify": _cmd_classify,
    "poincare": _cmd_poincare,
    "simulate": _cmd_simulate,
}


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

@functools.cache  # built on first use; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtdirac",
        description="Consistency checks and experiments for multi-time "
                    "Dirac pairs.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_int_at_least(0), default=0,
                        help="sampling seed; fixes the report bytes")
    common.add_argument("--tol", type=_positive_float, default=1e-9,
                        help="verdict tolerance (default 1e-9)")
    common.add_argument("--out", metavar="PATH",
                        help="write the JSON report here (default: stdout)")

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--spec", metavar="FILE",
                        help="JSON system description")
    source.add_argument("--builtin", metavar="NAME",
                        help=f"builtin system ({', '.join(BUILTIN_SYSTEMS)})")
    source.add_argument("--param", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="builtin parameter; repeatable; values may be "
                             "numbers or 4-vectors: four comma-separated "
                             "numbers or coefficient expressions")

    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--nsamples", type=_int_at_least(1), default=100,
                          help="number of sampled configurations")

    region = argparse.ArgumentParser(add_help=False)
    region.add_argument("--region", choices=["all", "spacelike"],
                        default="all",
                        help="sampling region (default: all)")

    expect = argparse.ArgumentParser(add_help=False)
    expect.add_argument("--expect", action="append",
                        choices=list(EXPECT_CHOICES), default=None,
                        help="exit 1 unless the verdict matches one of "
                             "these; repeatable")

    sub.add_parser(
        "verify-clifford", parents=[common],
        help="algebra identities and the commutator table, both "
             "representations")
    sub.add_parser(
        "check", parents=[common, source, sampling, region, expect],
        help="sampled consistency verdict for a two-particle system")
    sub.add_parser(
        "cc", parents=[common, source, sampling, region, expect],
        help="scalar compatibility conditions of the coefficient form")
    sub.add_parser(
        "classify", parents=[common, source, sampling, expect],
        help="interaction vs gauge classification, plus translation and "
             "exponential-form residuals")
    sub.add_parser(
        "poincare", parents=[common, source, sampling],
        help="covariance residuals for a fixed transform sweep")
    simulate = sub.add_parser(
        "simulate", parents=[common, source],
        help="two-time split-step experiments on the line model")
    simulate.add_argument("--grid-n", type=int, default=128, dest="grid_n",
                          help="grid points per particle (default 128)")
    simulate.add_argument("--box-L", type=float, default=20.0, dest="box_L",
                          help="periodic box length (default 20)")
    simulate.add_argument("--T", type=float, default=0.5, dest="T",
                          help="total time per particle for the "
                               "path-independence run (default 0.5)")
    simulate.add_argument("--dt", type=_float_list, metavar="D1,D2,...",
                          help="time steps: compare the two evolution orders")
    simulate.add_argument("--delta", type=_float_list, metavar="D1,D2,...",
                          help="loop sizes: run the holonomy series")
    simulate.add_argument("--csv", metavar="PATH",
                          help="write the series as CSV here")
    return parser


def entry(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, verdict = _HANDLERS[args.command](args)
    except (SpecError, CoefficientFormError, DslParseError,
            OSError) as exc:
        print(f"mtdirac: error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except MemoryError as exc:
        print(f"mtdirac: error: out of memory. {exc}".rstrip(),
              file=sys.stderr)
        return EXIT_SPEC
    except (DomainError, DslEvaluationError) as exc:
        print(f"mtdirac: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN

    envelope = {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "config": {key: getattr(args, key)
                   for key in _ECHO_KEYS if hasattr(args, key)},
        "report": report,
    }
    if verdict is not None:
        envelope["verdict"] = verdict
    try:
        text = json.dumps(envelope, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    except ValueError as exc:
        print(f"mtdirac: error: report is not strict JSON: {exc}",
              file=sys.stderr)
        return EXIT_DOMAIN
    if args.out:
        try:
            write_text_atomic(args.out, text)
        except OSError as exc:
            print(f"mtdirac: error: {exc}", file=sys.stderr)
            return EXIT_SPEC
    else:
        sys.stdout.write(text)

    expectations = getattr(args, "expect", None)
    if expectations:
        if _verdict_token(verdict or "") not in expectations:
            print(f"mtdirac: verdict {verdict} does not match "
                  f"--expect {','.join(expectations)}", file=sys.stderr)
            return EXIT_EXPECT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(entry())
