"""The benchmark's workloads: CLI job lists and the checks on their reports.

Each job is one `mtdirac` command line.  A job passes when the CLI exits
0, its report is strict JSON (no NaN or Infinity), the paper's invariants
for that job hold (they hold for every seed), and, where the report is
seed-independent or the seed is GOLDEN_SEED, every value matches the
golden report in golden.json to GOLDEN_RTOL.

This module imports nothing heavy, so a set-up probe can time the
package import from a clean interpreter.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GOLDEN_SEED = 0
GOLDEN_RTOL = 1e-9
# residuals at round-off level (~1e-16) are compared absolutely
GOLDEN_ATOL = 1e-13
GOLDEN_PATH = Path(__file__).with_name("golden.json")

Invariant = Callable[[dict], bool]


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    invariants: tuple[tuple[str, Invariant], ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def command(self) -> str:
        return self.argv[0]

    def _flag(self, name: str, default: str | None = None) -> str | None:
        if name in self.argv:
            return self.argv[self.argv.index(name) + 1]
        return default

    def builder(self) -> tuple[str, dict]:
        """(builtin name, params) as the CLI passes them to make_builtin."""
        params = {}
        for i, arg in enumerate(self.argv):
            if arg == "--param":
                name, _, value = self.argv[i + 1].partition("=")
                parts = tuple(_scalar(part) for part in value.split(","))
                params[name] = parts if len(parts) > 1 else parts[0]
        return self._flag("--builtin"), params

    def strang_steps(self) -> int:
        """Strang steps the simulate command takes, from its flags."""
        if self.command != "simulate":
            return 0
        dts = self._flag("--dt")
        if dts is not None:  # two orders x two legs of T/dt steps each
            total = float(self._flag("--T", "0.5"))
            return sum(4 * round(total / float(dt)) for dt in dts.split(","))
        # one square loop of four steps per --delta value
        return 4 * len(self._flag("--delta").split(","))

    def samples(self) -> int:
        """Sampled configurations the command checks (--nsamples)."""
        if self.command == "simulate":
            return 0
        return int(self._flag("--nsamples", "100"))


def _scalar(text: str):
    for convert in (int, float, complex):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


# ---------------------------------------------------------------------------
# Invariants from the paper; each holds for any sampling seed
# ---------------------------------------------------------------------------

def _verdict(expected: str) -> tuple[str, Invariant]:
    return f"verdict {expected}", lambda r: r["verdict"] == expected


def _sups_below_tol(r: dict) -> bool:
    report = r["report"]
    sups = [report["zeroth_sup"], *report["deriv_coeff_sup"],
            *report["cc"].values()]
    return max(sups) < report["tol"]


_CONSISTENT = (_verdict("CONSISTENT"),
               ("zeroth, derivative and cc sups below tol", _sups_below_tol))


def _second_order(r: dict) -> bool:
    rows = [row["discrepancy"] for row in r["report"]["rows"]]
    return (abs(r["report"]["fitted_order"] - 2.0) < 0.05
            and all(a > b > 0 for a, b in zip(rows, rows[1:])))


def _holonomy_converges(norm: float) -> Invariant:
    def check(r: dict) -> bool:
        report = r["report"]
        gaps = [abs(row["deviation_per_delta2"] - norm)
                for row in report["rows"]]
        return (math.isclose(report["curvature_norm"], norm, rel_tol=1e-9)
                and all(a > b for a, b in zip(gaps, gaps[1:]))
                and gaps[-1] < 0.01 * norm)
    return check


def _poincare_exact(r: dict) -> bool:
    residuals = r["report"]["residuals"]
    return max(residuals["translation"],
               residuals["boost_z_times_inverse"]) < 1e-9


_FITTED_ORDER_2 = ("path-independence fitted_order ~ 2", _second_order)
_POINCARE = ("translation and boost_z_times_inverse residuals ~ 0",
             _poincare_exact)

# The free step dominates: the potential depends only on the grid times.
PROPAGATE_TIMEPHASE = (
    Job(("simulate", "--builtin", "hoho", "--dt", "0.1,0.05,0.025",
         "--T", "0.5"),
        (_FITTED_ORDER_2,)),
    Job(("simulate", "--builtin", "example1_vector",
         "--delta", "0.08,0.04,0.02"),
        (("deviation/delta^2 -> curvature_norm = 2.0",
          _holonomy_converges(2.0)),)),
)

# The potential varies over the grid: per-point eigh/expm and
# curvature_operator dominate, the free step is small.
PROPAGATE_GRIDPHASE = (
    Job(("simulate", "--builtin", "hoho", "--param", "c=1,0,0,0.5",
         "--grid-n", "64", "--dt", "0.1,0.05", "--T", "0.2"),
        (_FITTED_ORDER_2,)),
    Job(("simulate", "--builtin", "coefficient_form",
         "--param", "W1=0,0,0,0.5*cos(x1_3 - x2_3)",
         "--param", "E=0.5*sin(x1_3 + x2_3),0,0,0",
         "--grid-n", "64", "--delta", "0.2,0.1,0.05"),
        (("deviation/delta^2 -> curvature_norm = 0.5",
          _holonomy_converges(0.5)),)),
)

# Dense (S, 16, 16) commutators on 10k-sample stacks.
CHECK_BATCHED = (
    Job(("check", "--builtin", "hoho", "--nsamples", "10000"), _CONSISTENT),
    Job(("check", "--builtin", "example1_vector", "--nsamples", "10000"),
        (_verdict("INCONSISTENT"),
         ("zeroth_sup = 8.0 = ||2 m2 gamma2^3||_F",
          lambda r: math.isclose(r["report"]["zeroth_sup"], 8.0,
                                 rel_tol=1e-12)))),
)

# Thousands of single-configuration calls into potential/dsl/clifford.
CLASSIFY_POINTWISE = (
    Job(("poincare", "--builtin", "hoho"), (_POINCARE,)),
    Job(("poincare", "--builtin", "coulomb_like"), (_POINCARE,)),
    Job(("classify", "--builtin", "hoho"), (_verdict("INTERACTING"),)),
    Job(("classify", "--builtin", "coefficient_form",
         "--param", "W1=x2_0,0,0,0", "--param", "W2=x1_0,0,0,0"),
        (_verdict("GAUGE_REMOVABLE"),)),
    Job(("check", "--builtin", "hoho", "--nsamples", "2000",
         "--region", "spacelike"), _CONSISTENT),
)

WORKLOADS: dict[str, tuple[Job, ...]] = {
    "propagate_timephase": PROPAGATE_TIMEPHASE,
    "propagate_gridphase": PROPAGATE_GRIDPHASE,
    "check_batched": CHECK_BATCHED,
    "classify_pointwise": CLASSIFY_POINTWISE,
}


def work_per_pass(jobs: tuple[Job, ...]) -> tuple[int, str]:
    """(amount, unit) of user-visible work in one pass over the jobs."""
    steps = sum(job.strang_steps() for job in jobs)
    if steps:
        return steps, "Strang steps"
    return sum(job.samples() for job in jobs), "sampled configurations"


# ---------------------------------------------------------------------------
# Checking one job's outcome
# ---------------------------------------------------------------------------

def _reject_constant(token: str):
    raise ValueError(f"non-finite value {token} in report")


def load_report(text: str) -> dict:
    """Parse a report as strict JSON; NaN and Infinity raise ValueError."""
    return json.loads(text, parse_constant=_reject_constant)


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def golden_applies(job: Job, seed: int) -> bool:
    # simulate draws no samples, so its report is the same for every seed
    return seed == GOLDEN_SEED or job.command == "simulate"


def _differences(got, want, where: str) -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for key in want
                for d in _differences(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _differences(g, w, f"{where}[{i}]")]
    if (isinstance(want, float) and isinstance(got, (int, float))
            and not isinstance(got, bool)):
        if math.isclose(got, want, rel_tol=GOLDEN_RTOL, abs_tol=GOLDEN_ATOL):
            return []
        return [f"{where}: {got!r} != golden {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != golden {want!r}"]


def check_job(job: Job, seed: int, exit_code: int | str, text: str | None,
              golden: dict) -> list[str]:
    """Problems with one job's outcome; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    if text is None:
        return ["no report written"]
    try:
        envelope = load_report(text)
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"]
    problems = []
    if envelope.get("seed") != seed:
        problems.append(f"report seed {envelope.get('seed')} != {seed}")
    for description, invariant in job.invariants:
        try:
            holds = invariant(envelope)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            holds = False
            description += f" ({type(exc).__name__}: {exc})"
        if not holds:
            problems.append(f"invariant failed: {description}")
    if golden_applies(job, seed):
        want = golden[job.key]
        got = {"report": envelope.get("report"),
               "verdict": envelope.get("verdict")}
        problems += _differences(got, want, "golden")
    return problems
