"""Two-particle multi-time evolution on a periodic line.

Each particle carries one spatial coordinate (along the 3-axis) while
the full 16-component spin structure is retained, so every matrix
identity of the algebra layer applies unchanged.  A step in one time
variable t_k uses Strang splitting: an exact matrix exponential of the
potential V_k at the midpoint time wrapped around a spectral free step
exp(-i dt (alpha3_k kappa + gamma0_k m_k)) per Fourier mode kappa.

States carry Dirac-representation spinor components (clifford.DIRAC).
The free step and the half-step phase exp(-i (dt/2) V_k) come from one
class exponential: when an operator field's structures split into
classes that commute with each other and anticommute pairwise inside
each class (which the product table decides from the structures alone),
each class squares to a scalar field, V_g^2 = s_g, and contributes the
factor cos(t sqrt(s_g)) - i t sinc(t sqrt(s_g)) V_g.  The free
Hamiltonian alpha3_k kappa + gamma0_k m_k is one class with real
s = kappa^2 + m_k^2, giving one 16x16 kernel K(kappa) per Fourier mode,
applied as a batched matmul between one FFT and one inverse FFT along
z_k.  A V_k whose structures do not split is assembled point by point
and exponentiated with scipy's expm, imported only when such a phase is
first built.  A phase that varies over the grid is applied pointwise
before the FFT and after the inverse FFT, in closed form as
sum_i a_i (B_i psi) with no matrix per point, accumulated in place: each
class factor's terms go through one scratch buffer into a fresh output,
never the input, and the free step's kernel matmul overwrites that
output.

On a time-only leg (no z in V_k's nonzero coefficients or guards, read
from the expression trees) each half-step phase P is one 16x16 matrix,
so a step is the kernel P K(kappa) P, one GEMM of the free class's
per-mode coefficients against P{I, alpha3_k, gamma0_k}P, and the leg is
the per-mode product P_m K P_m ... P_1 K P_1, one matmul per mode along
z_k in the joint Fourier space of (z_1, z_2).  V_k is evaluated once per
leg on the stack of its midpoint times, every step's midpoint checked;
a failure raises the earliest failing step's error.  The state stays in
that space across legs, so an experiment whose potentials depend only on
the times takes one 2-D FFT of psi0, and its distances there by Parseval,
||a - b|| = spacing ||a^ - b^|| / n.  A grid leg builds each step's phase
in position space, around the FFT, kernel and inverse FFT along z_k.

Two experiments probe the compatibility of the pair of evolutions:

* path independence — evolve in t_1 then t_2 and in the reverse order;
  for compatible pairs the discrepancy is pure splitting error O(dt^2);

* loop holonomy — run a small square loop in the (t_1, t_2) plane; the
  deviation divided by delta^2 estimates the norm of the curvature
  operator applied to the initial state, which apply_curvature
  evaluates without stepping: consistency.curvature_operator gives
  F_12 on the grid's (n, n, 2, 4) configuration stack as operator
  fields, applied like the grid phase as sum_m c_m(x) (B_m psi).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .clifford import (
    DIRAC,
    BasisClass,
    BasisElement,
    OperatorField,
    TensorBasisElement,
    anticommute,
    field_sum,
    realize,
    reconstruct,
    square_sign,
    unit_field,
)
from .consistency import curvature_operator
from .dsl import DslEvaluationError, coordinates
from .potential import (
    DomainError,
    MultiTimeSystem,
    Potential,
    SpecError,
    hermitian_defect,
    operator_field,
)

_HERMITIAN_TOL = 1e-10
_ALPHA3 = BasisElement(BasisClass.ALPHA, 3)
_GAMMA0 = BasisElement(BasisClass.GAMMA, 0)


@dataclass(frozen=True)
class Grid:
    """Periodic line grid used for both particles; n points, spacing L/n."""

    length: float = 20.0
    points: int = 128

    def __post_init__(self):
        if not (np.isfinite(self.length) and self.length > 0):
            raise SpecError("grid length must be positive and finite")
        if self.points < 16:
            raise SpecError("grid needs at least 16 points")

    @property
    def spacing(self) -> float:
        return self.length / self.points

    def positions(self) -> np.ndarray:
        return (np.arange(self.points) - self.points // 2) * self.spacing

    def momenta(self) -> np.ndarray:
        return 2 * np.pi * np.fft.fftfreq(self.points, self.spacing)


def _l2(values: np.ndarray, spacing: float) -> float:
    return float(np.sqrt(np.sum(np.abs(values) ** 2) * spacing * spacing))


@dataclass(frozen=True)
class WaveFunction:
    """Two-particle state on the grid; spin index s = 4 s_1 + s_2."""

    grid: Grid
    times: tuple[float, float]
    values: np.ndarray  # (n, n, 16) complex, axes (z_1, z_2, spin)

    def norm(self, mask: np.ndarray | None = None) -> float:
        """L2 norm; an optional (n, n) mask restricts the integration."""
        if mask is None:
            return _l2(self.values, self.grid.spacing)
        weights = np.sum(np.abs(self.values) ** 2, axis=-1)
        total = float(np.sum(weights[mask])) * self.grid.spacing ** 2
        return float(np.sqrt(total))

    def distance(self, other: "WaveFunction") -> float:
        return _l2(self.values - other.values, self.grid.spacing)


def gaussian_profile(grid: Grid, width: float = 1.0, center: float = 0.0,
                     momentum: float = 0.0) -> np.ndarray:
    """Unnormalized Gaussian packet sampled on the grid."""
    zs = grid.positions()
    return np.exp(-((zs - center) ** 2) / (2 * width ** 2)
                  + 1j * momentum * zs)


def product_state(grid: Grid, *,
                  spinor1: Sequence[complex] | None = None,
                  spinor2: Sequence[complex] | None = None,
                  width: float = 1.0,
                  centers: tuple[float, float] = (0.0, 0.0),
                  momenta: tuple[float, float] = (0.0, 0.0),
                  times: tuple[float, float] = (0.0, 0.0)) -> WaveFunction:
    """L2-normalized Gaussian x Gaussian state with a fixed spinor pair.

    Spinors have Dirac components, where gamma^0 = diag(1, 1, -1, -1), so
    the default (1, 0, 0, 0) is a positive-energy rest spinor.  Raises
    SpecError unless the norm on the grid is finite and positive.
    """
    e0 = np.array([1.0, 0.0, 0.0, 0.0], complex)
    s1 = e0 if spinor1 is None else np.asarray(spinor1, complex)
    s2 = e0 if spinor2 is None else np.asarray(spinor2, complex)
    if s1.shape != (4,) or s2.shape != (4,):
        raise SpecError("spinors must be 4-component")
    with np.errstate(all="ignore"):
        g1 = gaussian_profile(grid, width, centers[0], momenta[0])
        g2 = gaussian_profile(grid, width, centers[1], momenta[1])
        values = np.einsum("x,y,s->xys", g1, g2, np.outer(s1, s2).ravel())
        norm = _l2(values, grid.spacing)
    if not (np.isfinite(norm) and norm > 0):
        raise SpecError(f"initial state norm {norm:g} is not finite and positive")
    values /= norm
    return WaveFunction(grid, (float(times[0]), float(times[1])), values)


# ---------------------------------------------------------------------------
# Single step
# ---------------------------------------------------------------------------

def _grid_coords(grid: Grid, t1: float, t2: float) -> np.ndarray:
    """Configuration stack (n, n, 2, 4) of the grid: x_k = (t_k, 0, 0, z_k)."""
    coords = [np.broadcast_to(c, (grid.points,) * 2)
              for x in _step_coords(grid, t1, t2) for c in x]
    return np.stack(coords, -1).reshape(grid.points, grid.points, 2, 4)


def _step_coords(grid: Grid, t1: float, t2: float) -> list:
    """Coordinates for the potential sub-step, times kept scalar.

    Scalar times let purely time-dependent coefficients evaluate to
    scalars, so the potential collapses to a single 16x16 exponential
    instead of one per grid point; z_1 and z_2 stay broadcastable.
    """
    zs = grid.positions()
    return [[t1, 0.0, 0.0, zs[:, None]],
            [t2, 0.0, 0.0, zs[None, :]]]


def _add_terms(out: np.ndarray, field: OperatorField,
               values: np.ndarray) -> np.ndarray:
    """out += sum_i a_i (B_i values) over the field's terms, pointwise, in
    place: every term goes through one scratch product."""
    product = np.empty_like(out)
    for structure, weight in field.items():
        np.matmul(values, realize(structure, DIRAC).T, out=product)
        np.multiply(np.asarray(weight)[..., None], product, out=product)
        out += product
    return out


def _class_factors(field: OperatorField,
                   classes: Sequence[Sequence[TensorBasisElement]],
                   t: float, name: str) -> list:
    """exp(-i t V) as one factor per class g of V's structures B_i.

    Inside a class the B_i anticommute pairwise, so V_g = sum a_i B_i
    squares to s_g = sum B_i^2 a_i^2, and exp(-i t V_g) is
    cos(t r_g) - i t sinc(t r_g) V_g for either root r_g of s_g.  A real
    s_g must be nonnegative (the free step's is); a potential's is
    complex, as the DSL evaluates to complex.  Returns per class
    (cos(t r_g), -i t sinc(t r_g) V_g as a field); raises DomainError
    naming the exponent `name` if a factor is not finite.
    """
    factors = []
    with np.errstate(all="ignore"):
        for members in classes:
            root = np.sqrt(sum(square_sign(b) * field[b] ** 2
                               for b in members))
            weight = -1j * t * np.sinc(t * root / np.pi)
            factors.append((np.cos(t * root),
                            {b: weight * field[b] for b in members}))
    if not all(np.all(np.isfinite(value)) for cos, terms in factors
               for value in (cos, *terms.values())):
        raise DomainError(f"exp(-i {name}) is not finite on the grid")
    return factors


def _class_matrix(cos, terms: OperatorField,
                  around: np.ndarray | None = None) -> np.ndarray:
    """A (cos + sum_i w_i B_i) A, (..., 16, 16), for A = around or I: one
    GEMM of the coefficients against the basis A [I, B_1, ...] A."""
    basis = np.stack([np.eye(16), *(realize(b, DIRAC) for b in terms)])
    if around is not None:
        basis = around @ basis @ around
    weights = np.stack(np.broadcast_arrays(cos, *terms.values()), -1)
    return (weights @ basis.reshape(len(basis), 256)).reshape(
        *weights.shape[:-1], 16, 16)


def _multiply_out(factors) -> np.ndarray:
    """The product of the commuting class factors, (..., 16, 16)."""
    return reduce(np.matmul, [_class_matrix(cos, terms)
                              for cos, terms in factors])


def _anticommuting_classes(
        structures: Sequence[TensorBasisElement]) -> list[list] | None:
    """Split structures into commuting classes of anticommuting ones.

    Returns None when no such split exists, i.e. when a connected
    component of the anticommutation graph is not complete.
    """
    classes: list[list] = []
    for structure in structures:
        for members in classes:
            if anticommute(structure, members[0]):
                members.append(structure)
                break
        else:
            classes.append([structure])
    class_of = {b: g for g, members in enumerate(classes) for b in members}
    for i, a in enumerate(structures):
        for b in structures[i + 1:]:
            if anticommute(a, b) != (class_of[a] == class_of[b]):
                return None
    return classes


@np.errstate(all="ignore")
def _dense_phase(potential: OperatorField, particle: int,
                 dt: float) -> np.ndarray:
    """exp(-i (dt/2) V_k) from the assembled matrices by scipy's expm,
    imported here so that only potentials that do not split load scipy.
    Raises DomainError when V_k or the phase is not finite."""
    import scipy.linalg

    v = reconstruct(potential, 2, DIRAC)
    if not np.all(np.isfinite(v)):
        raise DomainError(f"potential V_{particle} is not finite on the grid")
    phase = scipy.linalg.expm(-0.5j * dt * v)
    if not np.all(np.isfinite(phase)):
        raise DomainError(
            f"exp(-i dt V_{particle} / 2) is not finite on the grid")
    return phase


def _on_grid(potential: Potential) -> bool:
    """Whether V_k varies over the grid: a nonzero coefficient, or a guard
    of a nonzero V_k, refers to z_1 or z_2.  Guards count so that a
    time-only leg never evaluates one on a (count, n, n) stack."""
    exprs = [term.coefficient for term in potential.terms]
    exprs += [guard.expr for guard in potential.guards]
    return not potential.is_zero() and any(
        mu == 3 for expr in exprs for _, mu in coordinates(expr))


def _potential_phase(system: MultiTimeSystem, particle: int,
                     times: Sequence, dt: float, grid: Grid,
                     time_only: bool):
    """exp(-i (dt/2) V_k) at the midpoint times.

    On a grid leg: a function applying it to (n, n, 16) values pointwise.
    On a time-only leg, where times[k - 1] may be a (count, 1, 1) stack of
    step start times: a list of one (16, 16) phase per step, None where
    V_k vanishes, one object throughout when V_k is constant on the leg.
    A phase is _class_factors' product, or _dense_phase's when the
    structures do not split into classes.  Raises DomainError when V_k or
    a phase is not finite.
    """
    count = np.size(times[particle - 1])
    if system.potential(particle).is_zero():
        return [None] * count
    mid = list(times)
    mid[particle - 1] = mid[particle - 1] + dt / 2  # not +=: may be an array
    with np.errstate(all="ignore"):
        potential = operator_field(system.potential(particle),
                                   _step_coords(grid, mid[0], mid[1]))
    coefficients = list(potential.values())
    if not all(np.all(np.isfinite(a)) for a in coefficients):
        raise DomainError(f"potential V_{particle} is not finite on the grid")
    if system.hermitian:
        defect = np.max(hermitian_defect(potential, system.n_particles))
        if defect > _HERMITIAN_TOL:
            raise SpecError("potential declared hermitian but deviates by "
                            f"{defect:.3e}")
    classes = _anticommuting_classes(list(potential))
    if classes is None:
        phase = _dense_phase(potential, particle, dt)
        if not time_only:
            return lambda values: np.matmul(phase, values[..., None])[..., 0]
    else:
        factors = _class_factors(potential, classes, dt / 2,
                                 f"dt V_{particle} / 2")
        if not time_only:
            def apply(values: np.ndarray) -> np.ndarray:
                for cos, terms in factors:
                    values = _add_terms(values * cos[..., None], terms,
                                        values)
                return values

            return apply
        phase = _multiply_out(factors)
    live = np.any(np.broadcast_arrays(*coefficients), axis=0).reshape(-1)
    phases = [p if on else None
              for p, on in zip(phase.reshape(-1, 16, 16), live)]
    return phases * count if len(phases) == 1 else phases


def _check_steps(system: MultiTimeSystem, grid: Grid,
                 dts: Sequence[float]) -> None:
    """Reject a system that is not a pair, and any |dt| above the spacing."""
    if system.n_particles != 2:
        raise SpecError("the line solver handles exactly two particles")
    for dt in dts:
        if abs(dt) > grid.spacing + 1e-12:
            raise SpecError(f"|dt| = {abs(dt):g} exceeds the grid spacing "
                            f"{grid.spacing:g}")


def _apply_kernel(values: np.ndarray, particle: int, kernel: np.ndarray,
                  spectral: bool = False) -> np.ndarray:
    """The (n, 16, 16) kernel per Fourier mode of z_k.

    Values in the joint Fourier space of (z_1, z_2) take it as a per-mode
    matmul; position-space values take it between an FFT and an inverse
    FFT along z_k, the matmul overwriting them: they are a phase's output.
    """
    # particle k's grid axis leads, so kernel row x acts on values[x]
    if particle == 2:
        values = values.swapaxes(0, 1)
    kernel = kernel.swapaxes(-1, -2)
    values = (values @ kernel if spectral else np.fft.ifft(np.matmul(
        np.fft.fft(values, axis=0), kernel, out=values), axis=0))
    return values.swapaxes(0, 1) if particle == 2 else values


class _State:
    """(n, n, 16) values in position space, in the joint Fourier space of
    (z_1, z_2), or in both; the other one is transformed once, when first
    asked for, so an experiment transforms its psi0 at most once."""

    def __init__(self, values: np.ndarray, spectral: bool = False):
        self.known = {spectral: values, not spectral: None}

    def values(self, spectral: bool) -> np.ndarray:
        if self.known[spectral] is None:
            transform = np.fft.fft2 if spectral else np.fft.ifft2
            self.known[spectral] = transform(self.known[not spectral],
                                             axes=(0, 1))
        return self.known[spectral]


def _distance(a: _State, b: _State, grid: Grid) -> float:
    """||a - b||; by Parseval, spacing ||a^ - b^|| / n, when both states
    are at hand in Fourier space."""
    spectral = a.known[True] is not None and b.known[True] is not None
    difference = a.values(spectral) - b.values(spectral)
    return _l2(difference, grid.spacing) / (grid.points if spectral else 1)


def _advance(state: _State, times: Sequence[float],
             legs: Sequence[tuple[int, float, int]], system: MultiTimeSystem,
             grid: Grid) -> tuple[_State, tuple[float, ...]]:
    """Strang steps from state at times through (particle, dt, count) legs.

    A time-only leg evaluates V_k once, on the stack of its midpoint
    times, composes its kernels and applies the product in the joint
    Fourier space; a grid leg builds each step's phase in turn, in
    position space, and takes each free step between an FFT and an
    inverse FFT along z_k.  Returns the state and its times.
    """
    times = list(times)
    for particle, dt, count in legs:
        if not count:
            continue
        # the free Hamiltonian alpha3_k kappa + gamma0_k m_k is one class
        hamiltonian = field_sum(
            (grid.momenta(), unit_field(_ALPHA3, particle, 2)),
            (system.mass(particle), unit_field(_GAMMA0, particle, 2)))
        [(cos, terms)] = _class_factors(
            hamiltonian, [list(hamiltonian)], dt, f"dt H_{particle}")
        free = _class_matrix(cos, terms)
        if _on_grid(system.potential(particle)):
            for _ in range(count):
                phase = _potential_phase(system, particle, times, dt, grid,
                                         False)
                state = _State(phase(_apply_kernel(
                    phase(state.values(False)), particle, free)))
                times[particle - 1] += dt
            continue
        # the same repeated += as step by step, so each time is bit-exact
        starts, stack = [], list(times)
        for _ in range(count):
            starts.append(times[particle - 1])
            times[particle - 1] += dt
        stack[particle - 1] = np.reshape(starts, (-1, 1, 1))
        try:
            phases = _potential_phase(system, particle, stack, dt, grid, True)
        except (DomainError, SpecError, DslEvaluationError):
            # raise what the earliest failing step raises on its own
            for start in starts:
                stack[particle - 1] = start
                _potential_phase(system, particle, stack, dt, grid, True)
            raise
        run = spare = None
        for s, phase in enumerate(phases):
            if s == 0 or phase is not phases[s - 1]:
                kernel = (free if phase is None
                          else _class_matrix(cos, terms, phase))
            # two buffers of the leg's own hold the product: no step
            # allocates one
            run, spare = ((kernel.copy(), None) if run is None
                          else (np.matmul(kernel, run, out=spare), run))
        state = _State(_apply_kernel(state.values(True), particle, run, True),
                       True)
    return state, tuple(times)


def step(psi: WaveFunction, particle: int, dt: float,
         system: MultiTimeSystem) -> WaveFunction:
    """One Strang step of the particle's time variable by dt (signed)."""
    _check_steps(system, psi.grid, [dt])
    if particle not in (1, 2):
        raise SpecError("particle must be 1 or 2")
    if dt == 0:
        return WaveFunction(psi.grid, psi.times, psi.values.copy())
    state, times = _advance(_State(psi.values), psi.times,
                            [(particle, dt, 1)], system, psi.grid)
    return WaveFunction(psi.grid, times, state.values(False))


# ---------------------------------------------------------------------------
# Paths and experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Leg:
    """One stretch of evolution in a single time variable."""

    particle: int
    duration: float
    dt: float
    direction: int = 1

    def __post_init__(self):
        if self.particle not in (1, 2):
            raise SpecError("leg particle must be 1 or 2")
        if not (np.isfinite(self.duration) and self.duration >= 0):
            raise SpecError("leg duration must be nonnegative and finite")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise SpecError("leg dt must be positive and finite")
        if self.direction not in (1, -1):
            raise SpecError("leg direction must be +1 or -1")

    def steps(self) -> int:
        count = round(self.duration / self.dt)
        if abs(count * self.dt - self.duration) > 1e-9 * max(1.0, count):
            raise SpecError(
                f"duration {self.duration:g} is not a whole number of "
                f"steps of {self.dt:g}")
        return int(count)


def evolve_path(psi: WaveFunction, path: Sequence[Leg],
                system: MultiTimeSystem) -> WaveFunction:
    """Apply the legs in order; an empty path returns the state unchanged.

    Every leg is checked before the first step.  A leg's steps are the
    Strang steps `step` takes, with each time-only leg's steps fused.
    """
    counts = [leg.steps() for leg in path]
    _check_steps(system, psi.grid, [leg.dt for leg in path])
    if not any(counts):
        return psi
    legs = [(leg.particle, leg.direction * leg.dt, count)
            for leg, count in zip(path, counts)]
    state, times = _advance(_State(psi.values), psi.times, legs, system,
                            psi.grid)
    return WaveFunction(psi.grid, times, state.values(False))


# A distance between states evolved from psi0 that stays within this
# multiple of eps ||psi0|| is round-off; the free pair reads a few eps.
_ROUNDOFF = 64 * np.finfo(float).eps


def _fitted_loglog_slope(xs: Sequence[float], ys: Sequence[float],
                         distances: Sequence[float], floor: float) -> float:
    """Log-log slope of ys against xs, or NaN when it is undefined: fewer
    than two distinct xs, a y <= 0, or every row's distance within the
    round-off floor, where a slope would fit noise."""
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    if (len(np.unique(xs)) < 2 or np.any(ys <= 0)
            or np.all(np.asarray(distances) <= floor)):
        return float("nan")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _finite_or_none(value: float) -> float | None:
    """Report an undefined fit (NaN) as null, keeping reports strict JSON."""
    return value if np.isfinite(value) else None


@dataclass(frozen=True)
class PathIndependenceResult:
    """Discrepancy between the two evolution orders per time step."""

    rows: tuple[tuple[float, float], ...]  # (dt, discrepancy)
    fitted_order: float

    def as_dict(self) -> dict:
        return {
            "rows": [{"dt": dt, "discrepancy": disc} for dt, disc in self.rows],
            "fitted_order": _finite_or_none(self.fitted_order),
        }


def path_independence_experiment(
        system: MultiTimeSystem, psi0: WaveFunction, total_time: float,
        dt_list: Sequence[float]) -> PathIndependenceResult:
    """Compare evolving t_1 then t_2 against the reverse order.

    For each dt, both orders run to (T, T) from psi0's times and the
    L2 discrepancy is recorded; the fitted order is the log-log slope
    of discrepancy against dt, NaN when every discrepancy is round-off.
    """
    if not dt_list:
        raise SpecError("dt_list must not be empty")
    counts = [Leg(1, total_time, dt).steps() for dt in dt_list]
    _check_steps(system, psi0.grid, dt_list)
    grid, start = psi0.grid, _State(psi0.values)

    def evolve(dt, count, order):
        return _advance(start, psi0.times, [(k, dt, count) for k in order],
                        system, grid)[0]

    rows = [(float(dt), _distance(evolve(dt, count, (1, 2)),
                                  evolve(dt, count, (2, 1)), grid))
            for dt, count in zip(dt_list, counts)]
    discrepancies = [r[1] for r in rows]
    order = _fitted_loglog_slope([r[0] for r in rows], discrepancies,
                                 discrepancies, _ROUNDOFF * psi0.norm())
    return PathIndependenceResult(tuple(rows), order)


def loop_holonomy(system: MultiTimeSystem, psi0: WaveFunction,
                  delta: float) -> float:
    """Deviation after the square loop (t1:+d, t2:+d, t1:-d, t2:-d).

    For small delta, deviation / delta^2 estimates ||F psi0|| with F the
    curvature of the pair of time evolutions.
    """
    return holonomy_series(system, psi0, [delta]).rows[0][1]


@dataclass(frozen=True)
class HolonomyResult:
    """Loop deviations for a series of loop sizes."""

    rows: tuple[tuple[float, float, float], ...]  # (delta, dev, dev/delta^2)
    roundoff: float = 0.0  # deviations at or below it are round-off

    @property
    def fitted_slope(self) -> float:
        """Log-log slope of deviation/delta^2 against delta; NaN when
        every deviation is at or below roundoff."""
        return _fitted_loglog_slope(
            [r[0] for r in self.rows], [r[2] for r in self.rows],
            [r[1] for r in self.rows], self.roundoff)

    def as_dict(self) -> dict:
        return {
            "rows": [{"delta": d, "deviation": dev,
                      "deviation_per_delta2": ratio}
                     for d, dev, ratio in self.rows],
            "fitted_slope": _finite_or_none(self.fitted_slope),
        }


def holonomy_series(system: MultiTimeSystem, psi0: WaveFunction,
                    deltas: Sequence[float]) -> HolonomyResult:
    """loop_holonomy for each delta; every delta is checked first."""
    _check_steps(system, psi0.grid, deltas)
    for delta in deltas:
        if delta <= 0:
            raise SpecError("loop delta must be positive")
        if delta ** 2 < np.finfo(float).tiny:
            raise SpecError(f"loop delta {delta!r} is too small: delta^2 "
                            "underflows")
    grid, start, rows = psi0.grid, _State(psi0.values), []
    for delta in deltas:
        loop = [(1, delta, 1), (2, delta, 1), (1, -delta, 1), (2, -delta, 1)]
        deviation = _distance(
            _advance(start, psi0.times, loop, system, grid)[0], start, grid)
        rows.append((float(delta), deviation, deviation / delta ** 2))
    return HolonomyResult(tuple(rows), _ROUNDOFF * psi0.norm())


# ---------------------------------------------------------------------------
# Curvature oracle on the grid
# ---------------------------------------------------------------------------

def _spectral_derivative(values: np.ndarray, grid: Grid,
                         axis: int) -> np.ndarray:
    kappa = grid.momenta()
    shape = [1, 1, 1]
    shape[axis] = grid.points
    spectral = np.fft.fft(values, axis=axis)
    spectral *= (1j * kappa).reshape(shape)
    return np.fft.ifft(spectral, axis=axis)


def apply_curvature(system: MultiTimeSystem, psi: WaveFunction) -> np.ndarray:
    """Evaluate (F psi) on the grid at psi's times.

    Only the z-derivative parts of the first-order coefficients act in
    the line model; the transverse ones multiply derivatives the state
    does not carry.
    """
    grid = psi.grid
    operator = curvature_operator(system, _grid_coords(grid, *psi.times))
    out = _add_terms(np.zeros_like(psi.values), operator.zeroth, psi.values)
    for particle in (1, 2):
        first = operator.first[(particle, 3)]
        if any(np.any(value) for value in first.values()):
            derivative = _spectral_derivative(psi.values, grid, particle - 1)
            out = _add_terms(out, first, derivative)
    return out


def curvature_norm(system: MultiTimeSystem, psi: WaveFunction) -> float:
    """||F psi|| on the grid — the holonomy experiment's reference value."""
    return _l2(apply_curvature(system, psi), psi.grid.spacing)


def spacelike_mask(grid: Grid, t1: float, t2: float) -> np.ndarray:
    """(n, n) mask of configurations with (t1-t2)^2 < (z1-z2)^2.

    The spatial separation uses the periodic minimal image, so a time
    difference beyond L/2 leaves nothing spacelike.
    """
    zs = grid.positions()
    separation = np.abs(zs[:, None] - zs[None, :])
    separation = np.minimum(separation, grid.length - separation)
    return (t1 - t2) ** 2 < separation ** 2
