"""Every benchmark job, run in process, passes the benchmark's own checks.

bench/run.py drives each job of bench/workloads.py through
`mtdirac.cli.entry` and checks its report with `workloads.check_job`:
exit code 0, strict JSON, the paper's invariants, and, where the report
does not depend on the seed, every value against bench/golden.json to
its tolerance.  Running the same jobs and checks here shows a failing job
in tier-1 rather than first in a benchmark run.  bench/ is only read.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from mtdirac.cli import entry

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
