"""Every benchmark job, run in process, passes the benchmark's own checks.

bench/run.py drives each job of bench/workloads.py through
`mtdirac.cli.entry` and checks its report with `workloads.check_job`:
exit code 0, strict JSON, the paper's invariants, and, where the report
does not depend on the seed, every value against bench/golden.json to
its tolerance.  Running the same jobs and checks here shows a failing job
in tier-1 rather than first in a benchmark run.  The classify jobs'
counts of formed derivatives and of coordinate stacks are guarded as
well.  bench/ is only read.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from mtdirac import dsl, symmetry
from mtdirac.cli import entry
from mtdirac.dsl import differentiate
from mtdirac.potential import stack_coords

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402  (bench/ is not a package)

GOLDEN = workloads.load_golden()
JOBS = [job for jobs in workloads.WORKLOADS.values() for job in jobs]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("job", JOBS, ids=[job.key for job in JOBS])
def test_benchmark_job_passes_its_checks(job, seed, tmp_path):
    out = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = entry([*job.argv, "--seed", str(seed), "--out", str(out)])
    text = out.read_text(encoding="utf-8") if out.exists() else None
    assert workloads.check_job(job, seed, code, text, GOLDEN) == []


def test_classify_jobs_form_few_derivatives(monkeypatch):
    """classify differentiates only the coefficient slots a system fills,
    along the coordinates each reads: the benchmark's classify jobs form
    at most 250 derivatives, where a sweep over every slot forms 2,368.
    A count does not drift with the host, so this guard sees a return to
    the dense sweep that the noise of wall_s hides."""
    calls = []

    def counted(expr, k, mu):
        calls.append((k, mu))
        return differentiate(expr, k, mu)

    monkeypatch.setattr(dsl, "differentiate", counted)
    monkeypatch.setattr(symmetry, "differentiate", counted)
    jobs = [job for job in workloads.CLASSIFY_POINTWISE
            if job.command == "classify"]
    assert len(jobs) == 2
    for job in jobs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert entry(list(job.argv)) == 0
    assert 0 < len(calls) <= 250


def test_classify_jobs_stack_few_coordinates(monkeypatch):
    """classify_gauge integrates the four gauge sectors on one coordinate
    stack per point set: each benchmark classify job builds at most 25
    stacks in symmetry (23 on hoho, 20 on W1/W2), where a stack per
    sector built 53 and 50.  Like the derivative count, this count does
    not drift with the host."""
    jobs = [job for job in workloads.CLASSIFY_POINTWISE
            if job.command == "classify"]
    assert len(jobs) == 2
    calls = []
    monkeypatch.setattr(symmetry, "stack_coords",
                        lambda points: calls.append(points)
                        or stack_coords(points))
    for job in jobs:
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert entry(list(job.argv)) == 0
        assert 0 < len(calls) <= 25, job.key
