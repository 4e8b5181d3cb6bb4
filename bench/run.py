"""Benchmark of the mtdirac CLI, timed end to end and traced per layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

Run from any directory; the package is imported from the `src/` tree next
to this directory.  Each workload is a list of CLI jobs (workloads.py)
driven in-process through `mtdirac.cli.entry(argv)` with `--out` in a
temporary directory.  One run:

1. starts SETUP_PROBES fresh interpreters that import the package, build
   the Dirac representation and the workload's systems (setup_s);
2. runs one warm-up pass in this process, then passes until --seconds
   have elapsed: untraced with --trace 0 (end-to-end metrics, and this
   process's peak RSS), or alternating untraced and traced with --trace 1
   (per-layer metrics).  Fixed reference work is timed around and inside
   every untraced job, and the end-to-end times are scaled to a fixed host
   speed by it (see HostGauge);
3. checks every job's report (workloads.check_job) and prints every
   metric by name with its unit, the environment record, and, as the
   last line, the result as one JSON object.

`--workload all` runs every workload with and without tracing, each in
its own process.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import inspect
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from tracer import Tracer, instrumented
from workloads import WORKLOADS, check_job, load_golden, work_per_pass

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # job reports and span dumps; git-ignored

SETUP_PROBES = 5
REF_ROUNDS = 20  # FFT + matmul rounds in one HostGauge reference
REF_S = 0.012  # reference time at the host speed that times are scaled to
SAMPLE_EVERY_S = 0.25  # reference interval inside the timed jobs
DEFAULT_SECONDS = 20
CHILD_TIMEOUT_S = 170

# Public functions timed by the traced run, as <module>.<function>.
TRACED = (
    "solver.step", "solver.product_state", "solver.curvature_norm",
    "solver.path_independence_experiment", "solver.holonomy_series",
    "potential.evaluate_potential", "potential.check_guards",
    "potential.differentiate_potential", "potential.sample_configs",
    "clifford.realize", "clifford.embed",
    "dsl.evaluate", "dsl.differentiate",
    "consistency.check_consistency",
    "consistency.derivative_coefficient_matrices",
    "consistency.zeroth_order_residual", "consistency.cc_residuals",
    "consistency.to_coefficient_form", "consistency.curvature_operator",
    "symmetry.poincare_residual", "symmetry.classify_gauge",
    "symmetry.classify_interaction", "symmetry.make_boost",
    "symmetry.make_rotation", "symmetry.exponential_form_residual",
    "cli.entry",
)


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at nproc; call before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def import_package():
    """Import mtdirac.cli from this checkout's src/ tree, nothing else."""
    if not (SRC / "mtdirac" / "cli.py").is_file():
        sys.exit(f"bench: no mtdirac sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mtdirac.cli
    if Path(mtdirac.__file__).resolve().parent != SRC / "mtdirac":
        sys.exit(f"bench: imported mtdirac from {mtdirac.__file__}, "
                 f"not from {SRC}")
    return mtdirac


# ---------------------------------------------------------------------------
# Passes over a workload's jobs
# ---------------------------------------------------------------------------

class HostGauge:
    """Times fixed numpy work that runs no mtdirac code, to gauge the host.

    The machine that set the bounds is a 2-vCPU guest on a shared host whose
    speed drifts by up to 30% either way for minutes at a time, longer than
    a run, so no statistic of raw pass times repeats from run to run.  The
    benchmark times this reference work before and after every job and,
    while `sampling`, every SAMPLE_EVERY_S inside a job, from a SIGALRM
    handler whose own time is taken out of the job's.  A job's time is then
    scaled to the host speed at which the reference takes REF_S.  Of the
    references tried on classify_pointwise and propagate_timephase (a
    pure-Python loop, small kron/matmul calls, FFTs with batched 16x16
    products) the last tracked both workloads' slowdowns best.
    """

    def __init__(self):
        import numpy as np
        self._fft, self._matmul = np.fft.fft, np.matmul
        self._stack = np.random.default_rng(0).standard_normal((256, 16, 16))
        # preallocated outputs, so that the time does not depend on how the
        # allocator has been left by the program's own arrays
        self._spectrum = np.empty(self._stack.shape, complex)
        self._product = np.empty_like(self._stack)
        self.times: list[float] = []  # every reference time, in order
        self.time_reference()  # pays for page faults and FFT set-up
        self.times.clear()
        self.spent_s = 0.0  # wall time of the samples taken inside jobs
        self.spent_cpu_s = 0.0  # and their CPU time
        self._sampling = False

    def time_reference(self) -> float:
        start = time.perf_counter()
        for _ in range(REF_ROUNDS):
            self._fft(self._stack, axis=0, out=self._spectrum)
            self._matmul(self._stack, self._stack, out=self._product)
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        return elapsed

    def _sample(self, signum, frame):
        if not self._sampling:  # the alarm was already due when it stopped
            return
        start, cpu_start = time.perf_counter(), time.process_time()
        self.time_reference()
        self.spent_s += time.perf_counter() - start
        self.spent_cpu_s += time.process_time() - cpu_start
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    @contextlib.contextmanager
    def sampling(self):
        """Also time the reference every SAMPLE_EVERY_S of the body."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sampling = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            self._sampling = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass
class PassTime:
    wall_s: float = 0.0    # summed wall time of the CLI calls
    scaled_s: float = 0.0  # the same, scaled to the speed that gives REF_S
    cpu_s: float = 0.0     # process CPU time of the CLI calls


def run_pass(cli, jobs, seed: int, out_dir: Path, golden: dict,
             tally: Tally, gauge: HostGauge) -> PassTime:
    """Run every job once.  Each job's time is scaled by the mean of the
    reference times from the one just before it to the one just after."""
    timed = PassTime()
    gauge.time_reference()
    for index, job in enumerate(jobs):
        out = out_dir / f"job{index}.json"
        out.unlink(missing_ok=True)
        argv = [*job.argv, "--seed", str(seed), "--out", str(out)]
        since = len(gauge.times) - 1
        spent, spent_cpu = gauge.spent_s, gauge.spent_cpu_s
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            code = cli.entry(argv)
        except SystemExit as exc:  # argparse rejected the flags
            code = exc.code
        except Exception as exc:  # a traceback is a failed job, not a crash
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start - (gauge.spent_s - spent)
        timed.cpu_s += (time.process_time() - cpu_start
                        - (gauge.spent_cpu_s - spent_cpu))
        gauge.time_reference()
        timed.wall_s += elapsed
        timed.scaled_s += (elapsed * REF_S
                           / statistics.mean(gauge.times[since:]))
        text = out.read_text(encoding="utf-8") if out.exists() else None
        problems = check_job(job, seed, code, text, golden)
        tally.attempted += 1
        if problems:
            tally.failed += 1
            tally.problems += [f"{job.key}: {p}" for p in problems]
    return timed


def probe(workload: str) -> dict:
    """Set-up cost in this fresh interpreter, scaled as in run_pass."""
    start = time.perf_counter()
    mtdirac = import_package()
    imported = time.perf_counter()
    mtdirac.build_dirac_rep()
    rep_built = time.perf_counter()
    for job in WORKLOADS[workload]:
        name, params = job.builder()
        mtdirac.make_builtin(name, params)
    done = time.perf_counter()
    gauge = HostGauge()
    scale = REF_S / statistics.median(gauge.time_reference()
                                      for _ in range(3))
    return {"import_s": (imported - start) * scale,
            "rep_s": (rep_built - imported) * scale,
            "setup_s": (done - start) * scale}


def run_child(args: list[str]) -> list[str]:
    """Run this script in a fresh interpreter; return its stdout lines."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.exit(f"bench: child {' '.join(args)} exited {done.returncode}")
    return done.stdout.splitlines()


def set_up(workload: str) -> dict[str, float]:
    """Median set-up times over SETUP_PROBES fresh interpreters."""
    probes = [json.loads(run_child(["--probe", "--workload", workload])[-1])
              for _ in range(SETUP_PROBES)]
    return {key: statistics.median(p[key] for p in probes)
            for key in ("setup_s", "import_s", "rep_s")}


# ---------------------------------------------------------------------------
# Traced passes
# ---------------------------------------------------------------------------

class _CountingRng:
    """Forwards to a numpy Generator, counting the uniform values drawn."""

    def __init__(self, rng, counters):
        self._rng = rng
        self._counters = counters

    def uniform(self, *args, **kwargs):
        values = self._rng.uniform(*args, **kwargs)
        self._counters["sample_configs.drawn"] += values.size
        return values

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _count_draws(fn, args, kwargs, counters):
    """Count draws and acceptances of spacelike rejection sampling."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    region = bound.arguments.get("region")
    if getattr(region, "value", None) != "spacelike":
        return fn(*args, **kwargs)
    bound.arguments["rng"] = _CountingRng(bound.arguments["rng"], counters)
    result = fn(*bound.args, **bound.kwargs)
    counters["sample_configs.accepted"] += result.size
    return result


def _count_points(fn, args, kwargs, counters):
    result = fn(*args, **kwargs)
    counters["evaluate_potential.points"] += math.prod(result.shape[:-2])
    return result


HOOKS = {"potential.sample_configs": _count_draws,
         "potential.evaluate_potential": _count_points}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    calls = tracer.calls()
    self_times = tracer.self_times()
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_times.get(name, 0.0)
    steps = tracer.durations("solver.step")
    metrics["solver.step.ms_p50"] = (statistics.median(steps) * 1e3
                                     if steps else 0.0)
    counters = tracer.counters
    metrics["potential.evaluate_potential.points"] = counters[
        "evaluate_potential.points"]
    drawn = counters["sample_configs.drawn"]
    metrics["potential.sample_configs.accept_ratio"] = (
        counters["sample_configs.accepted"] / drawn if drawn else 0.0)
    return metrics


# ---------------------------------------------------------------------------
# Statistics and reporting
# ---------------------------------------------------------------------------

def summary(values: list[float]) -> str:
    """Median, quartiles, count, and the highest percentile with >= 10
    samples beyond it."""
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else (values[0], values[0]))
    text = (f"median {statistics.median(values):.4f}, quartiles "
            f"{q1:.4f}..{q3:.4f}, n={len(values)}")
    tail = [p for p in (50, 75, 90, 95, 99)
            if len(values) * (100 - p) / 100 >= 10]
    if tail:
        cuts = statistics.quantiles(values, n=100)
        text += f", p{tail[-1]} {cuts[tail[-1] - 1]:.4f}"
    else:
        text += ", no percentile above the median has 10 samples beyond it"
    return text


UNITS = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s",
         "peak_rss_mb": "MB", "ok_frac": "ratio"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".calls") or name.endswith(".points"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".ms_p50"):
        return "ms"
    return "ratio"


def git_state() -> tuple[str | None, bool | None]:
    """(HEAD sha, dirty flag) when ROOT is a git work tree, else Nones."""
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=60)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode or Path(top.stdout.strip()).resolve() != ROOT:
            return None, None
        sha = git("rev-parse", "HEAD").stdout.strip()
        dirty = git("status", "--porcelain", "--untracked-files=no")
        return sha, bool(dirty.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return None, None


def environment(nproc: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha, dirty = git_state()
    return {"git_sha": sha, "git_dirty": dirty,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": nproc, "machine": platform.machine()}


def finish(metrics: dict[str, float], tally: Tally) -> None:
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit_of(name)}")
    for problem in tally.problems[:20]:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 nproc: int) -> int:
    jobs = WORKLOADS[workload]
    golden = load_golden()
    tally = Tally()
    setup = set_up(workload)
    mtdirac = import_package()
    cli = mtdirac.cli
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(nproc)}
    print(f"bench: {json.dumps(record)}")

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        out_dir = Path(tmp)
        gauge = HostGauge()
        run_pass(cli, jobs, seed, out_dir, golden, tally, gauge)  # warm-up
        untraced, traced, per_pass = [], [], []
        tracer = Tracer()
        targets = {name: attrgetter(name)(mtdirac) for name in TRACED}
        modules = [mtdirac] + [getattr(mtdirac, layer) for layer in
                               sorted({name.split(".")[0] for name in TRACED})]
        deadline = time.perf_counter() + seconds
        while True:
            gc.collect()
            with gauge.sampling():
                untraced.append(run_pass(cli, jobs, seed, out_dir, golden,
                                         tally, gauge))
            if trace:
                gc.collect()
                tracer.clear()
                with instrumented(tracer, modules, targets, HOOKS):
                    traced.append(run_pass(cli, jobs, seed, out_dir, golden,
                                           tally, gauge))
                per_pass.append(layer_metrics(tracer))
            if time.perf_counter() >= deadline:
                break
        if trace:
            tracer.write(OUT / f"spans_{workload}_seed{seed}.json")

    amount, unit = work_per_pass(jobs)
    scaled = [timed.scaled_s for timed in untraced]
    print(f"bench: {workload}: {len(untraced)} timed passes of "
          f"{amount} {unit}\n"
          f"bench:   raw wall_s    {summary([t.wall_s for t in untraced])}\n"
          f"bench:   scaled wall_s {summary(scaled)}\n"
          f"bench:   reference median "
          f"{statistics.median(gauge.times) * 1e3:.3f} ms")
    if not trace:
        metrics = {
            "wall_s": statistics.median(scaled),
            "work_per_s": amount * len(scaled) / sum(scaled),
            "setup_s": setup["setup_s"],
            # this process has run nothing but the workload's passes
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - tally.failed / tally.attempted,
        }
    else:
        metrics = {name: statistics.median(stats[name] for stats in per_pass)
                   for name in per_pass[0]}
        metrics |= {
            "setup.import_s": setup["import_s"],
            "setup.rep_s": setup["rep_s"],
            "process.cpu_per_wall": (sum(t.cpu_s for t in untraced)
                                     / sum(t.wall_s for t in untraced)),
            "trace.overhead_frac": (
                statistics.median(t.scaled_s for t in traced)
                / statistics.median(scaled) - 1.0),
            "host.reference_s": statistics.median(gauge.times),
        }
    finish(metrics, tally)
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, timed and traced, each run in its own process."""
    combined: dict[str, dict] = {}
    tally = Tally()
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines = run_child(["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds),
                               "--trace", str(trace)])
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            tally.attempted += result["attempted"]
            tally.failed += result["failed"]
            for name, metric in result["metrics"].items():
                combined[f"{workload}:{name}"] = metric
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": combined}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    nproc = cap_blas_threads()
    if args.probe:
        print(json.dumps(probe(args.workload)))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), nproc)


if __name__ == "__main__":
    sys.exit(main())
