"""Two-particle multi-time evolution on a periodic line.

Each particle carries one spatial coordinate (along the 3-axis) while
the full 16-component spin structure is retained, so every matrix
identity of the algebra layer applies unchanged.  A step in one time
variable t_k uses Strang splitting: an exact matrix exponential of the
potential V_k at the midpoint time wrapped around a spectral free step
exp(-i dt (alpha3_k kappa + gamma0_k m_k)) per Fourier mode kappa.

The free step acts on particle k's spin factor only; lifted to the
16-component spin index (Kronecker product with the identity on the
other factor) it is one 16x16 kernel K(kappa) per mode, applied as a
batched matmul between one FFT and one inverse FFT along z_k.  When
V_k depends only on the times, its half-step phase P is a single 16x16
matrix that commutes with the FFT, so it is folded into the kernel as
P K(kappa) P and the step touches the grid only through the FFTs and
the matmul.  A phase that varies over the grid is applied pointwise
before the FFT and after the inverse FFT.

Two experiments probe the compatibility of the pair of evolutions:

* path independence — evolve in t_1 then t_2 and in the reverse order;
  for compatible pairs the discrepancy is pure splitting error O(dt^2);

* loop holonomy — run a small square loop in the (t_1, t_2) plane; the
  deviation divided by delta^2 estimates the norm of the curvature
  operator applied to the initial state, which apply_curvature
  evaluates independently on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .clifford import GammaRep
from .consistency import curvature_operator
from .potential import (
    DomainError,
    MultiTimeSystem,
    SpecError,
    evaluate_potential,
)

_HERMITIAN_TOL = 1e-10


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
    """L2-normalized Gaussian x Gaussian state with a fixed spinor pair."""
    e0 = np.array([1.0, 0.0, 0.0, 0.0], complex)
    s1 = e0 if spinor1 is None else np.asarray(spinor1, complex)
    s2 = e0 if spinor2 is None else np.asarray(spinor2, complex)
    if s1.shape != (4,) or s2.shape != (4,):
        raise SpecError("spinors must be 4-component")
    g1 = gaussian_profile(grid, width, centers[0], momenta[0])
    g2 = gaussian_profile(grid, width, centers[1], momenta[1])
    values = np.einsum("x,y,s->xys", g1, g2, np.kron(s1, s2))
    values /= _l2(values, grid.spacing)
    return WaveFunction(grid, (float(times[0]), float(times[1])), values)


# ---------------------------------------------------------------------------
# Single step
# ---------------------------------------------------------------------------

def _grid_coords(grid: Grid, t1: float, t2: float) -> np.ndarray:
    """Stacked coordinates (2, 4, n, n): x_k = (t_k, 0, 0, z_k)."""
    n = grid.points
    zs = grid.positions()
    coords = np.zeros((2, 4, n, n))
    coords[0, 0] = t1
    coords[1, 0] = t2
    coords[0, 3] = zs[:, None]
    coords[1, 3] = zs[None, :]
    return coords


def _step_coords(grid: Grid, t1: float, t2: float) -> list:
    """Coordinates for the potential sub-step, times kept scalar.

    Scalar times let purely time-dependent coefficients evaluate to
    scalars, so the potential collapses to a single 16x16 exponential
    instead of one per grid point; z_1 and z_2 stay broadcastable.
    """
    zs = grid.positions()
    return [[t1, 0.0, 0.0, zs[:, None]],
            [t2, 0.0, 0.0, zs[None, :]]]


def _pointwise(matrices: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Apply a (..., 16, 16) matrix field to (n, n, 16) values pointwise."""
    return np.matmul(matrices, values[..., None])[..., 0]


def _potential_phase(system: MultiTimeSystem, particle: int,
                     times: Sequence[float], dt: float, grid: Grid,
                     rep: GammaRep) -> np.ndarray | None:
    """exp(-i (dt/2) V_k) at the midpoint time, or None when V_k = 0.

    The result is one (16, 16) matrix when V_k depends only on the
    times, else a (..., 16, 16) field broadcastable over the grid.
    Raises DomainError when V_k or the phase is not finite.
    """
    potential = system.potential(particle)
    if potential.is_zero():
        return None
    mid = list(times)
    mid[particle - 1] += dt / 2
    coords = _step_coords(grid, mid[0], mid[1])
    with np.errstate(all="ignore"):
        v = evaluate_potential(potential, coords, rep)
    if not np.all(np.isfinite(v)):
        raise DomainError(f"potential V_{particle} is not finite on the grid")
    if v.ndim == 2 and not np.any(v):
        return None
    if system.hermitian:
        defect = np.max(np.abs(v - np.conj(np.swapaxes(v, -1, -2))))
        if defect > _HERMITIAN_TOL:
            raise SpecError(
                "potential declared hermitian but deviates by "
                f"{float(defect):.3e}")
        eigenvalues, basis = np.linalg.eigh(v)
        phases = np.exp(-0.5j * dt * eigenvalues)
        return (basis * phases[..., None, :]) @ np.conj(
            np.swapaxes(basis, -1, -2))
    with np.errstate(all="ignore"):
        phase = scipy.linalg.expm(-0.5j * dt * v)
    if not np.all(np.isfinite(phase)):
        raise DomainError(
            f"exp(-i dt V_{particle} / 2) is not finite on the grid")
    return phase


def _free_multiplier(grid: Grid, mass: float, dt: float,
                     rep: GammaRep) -> np.ndarray:
    """exp(-i dt (alpha3 kappa + gamma0 m)) per Fourier mode, (n, 4, 4)."""
    kappa = grid.momenta()
    energy = np.sqrt(kappa ** 2 + mass ** 2)
    hamiltonian = (rep.alpha(3)[None] * kappa[:, None, None]
                   + rep.gamma(0)[None] * mass)
    return (np.cos(energy * dt)[:, None, None] * np.eye(4)
            - 1j * dt * np.sinc(energy * dt / np.pi)[:, None, None]
            * hamiltonian)


def step(psi: WaveFunction, particle: int, dt: float,
         system: MultiTimeSystem, rep: GammaRep) -> WaveFunction:
    """One Strang step of the particle's time variable by dt (signed)."""
    if system.n_particles != 2:
        raise SpecError("the line solver handles exactly two particles")
    if particle not in (1, 2):
        raise SpecError("particle must be 1 or 2")
    grid = psi.grid
    if dt == 0:
        return WaveFunction(grid, psi.times, psi.values.copy())
    if abs(dt) > grid.spacing + 1e-12:
        raise SpecError(
            f"|dt| = {abs(dt):g} exceeds the grid spacing {grid.spacing:g}")

    phase = _potential_phase(system, particle, psi.times, dt, grid, rep)
    multiplier = _free_multiplier(grid, system.mass(particle), dt, rep)
    eye = np.eye(4)
    # (n, 16, 16): the free propagator on particle k's spin factor
    kernel = (np.kron(multiplier, eye) if particle == 1
              else np.kron(eye, multiplier))
    if phase is not None and phase.ndim == 2:
        kernel = phase @ kernel @ phase
        phase = None

    # particle k's grid axis leads, so kernel row x acts on values[x]
    values = psi.values if particle == 1 else psi.values.swapaxes(0, 1)
    if phase is not None:
        phase = phase if particle == 1 else phase.swapaxes(0, 1)
        values = _pointwise(phase, values)
    spectral = np.fft.fft(values, axis=0)
    spectral = spectral @ kernel.swapaxes(-1, -2)
    values = np.fft.ifft(spectral, axis=0)
    if phase is not None:
        values = _pointwise(phase, values)
    if particle == 2:
        values = values.swapaxes(0, 1)

    t1, t2 = psi.times
    times = (t1 + dt, t2) if particle == 1 else (t1, t2 + dt)
    return WaveFunction(grid, times, values)


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
                system: MultiTimeSystem, rep: GammaRep) -> WaveFunction:
    """Apply the legs in order; an empty path returns the state unchanged."""
    for leg in path:
        signed = leg.direction * leg.dt
        for _ in range(leg.steps()):
            psi = step(psi, leg.particle, signed, system, rep)
    return psi


def _fitted_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    if len(np.unique(xs)) < 2 or np.any(ys <= 0):
        return float("nan")  # a slope needs two distinct steps
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
        dt_list: Sequence[float], rep: GammaRep) -> PathIndependenceResult:
    """Compare evolving t_1 then t_2 against the reverse order.

    For each dt, both orders run to (T, T) from psi0's times and the
    L2 discrepancy is recorded; the fitted order is the log-log slope
    of discrepancy against dt.
    """
    if not dt_list:
        raise SpecError("dt_list must not be empty")
    rows = []
    for dt in dt_list:
        forward = evolve_path(
            psi0, [Leg(1, total_time, dt), Leg(2, total_time, dt)],
            system, rep)
        reverse = evolve_path(
            psi0, [Leg(2, total_time, dt), Leg(1, total_time, dt)],
            system, rep)
        rows.append((float(dt), forward.distance(reverse)))
    order = _fitted_loglog_slope([r[0] for r in rows], [r[1] for r in rows])
    return PathIndependenceResult(tuple(rows), order)


def loop_holonomy(system: MultiTimeSystem, psi0: WaveFunction, delta: float,
                  rep: GammaRep) -> float:
    """Deviation after the square loop (t1:+d, t2:+d, t1:-d, t2:-d).

    For small delta, deviation / delta^2 estimates ||F psi0|| with F the
    curvature of the pair of time evolutions.
    """
    if delta <= 0:
        raise SpecError("loop delta must be positive")
    psi = psi0
    for particle, sign in ((1, 1), (2, 1), (1, -1), (2, -1)):
        psi = step(psi, particle, sign * delta, system, rep)
    return psi.distance(psi0)


@dataclass(frozen=True)
class HolonomyResult:
    """Loop deviations for a series of loop sizes."""

    rows: tuple[tuple[float, float, float], ...]  # (delta, dev, dev/delta^2)

    @property
    def fitted_slope(self) -> float:
        """Log-log slope of deviation/delta^2 against delta."""
        return _fitted_loglog_slope(
            [r[0] for r in self.rows], [r[2] for r in self.rows])

    def as_dict(self) -> dict:
        return {
            "rows": [{"delta": d, "deviation": dev,
                      "deviation_per_delta2": ratio}
                     for d, dev, ratio in self.rows],
            "fitted_slope": _finite_or_none(self.fitted_slope),
        }


def holonomy_series(system: MultiTimeSystem, psi0: WaveFunction,
                    deltas: Sequence[float], rep: GammaRep) -> HolonomyResult:
    rows = []
    for delta in deltas:
        deviation = loop_holonomy(system, psi0, delta, rep)
        rows.append((float(delta), deviation, deviation / delta ** 2))
    return HolonomyResult(tuple(rows))


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


def apply_curvature(system: MultiTimeSystem, psi: WaveFunction,
                    rep: GammaRep) -> np.ndarray:
    """Evaluate (F psi) on the grid at psi's times.

    Only the z-derivative parts of the first-order coefficients act in
    the line model; the transverse ones multiply derivatives the state
    does not carry.
    """
    grid = psi.grid
    coords = _grid_coords(grid, *psi.times)
    operator = curvature_operator(system, coords, rep)
    out = _pointwise(operator.zeroth, psi.values)
    for particle in (1, 2):
        matrix = operator.first[(particle, 3)]
        if not np.any(matrix):
            continue
        derivative = _spectral_derivative(psi.values, grid, particle - 1)
        out = out + _pointwise(matrix, derivative)
    return out


def curvature_norm(system: MultiTimeSystem, psi: WaveFunction,
                   rep: GammaRep) -> float:
    """||F psi|| on the grid — the holonomy experiment's reference value."""
    return _l2(apply_curvature(system, psi, rep), psi.grid.spacing)


def spacelike_mask(grid: Grid, t1: float, t2: float) -> np.ndarray:
    """(n, n) mask of configurations with (t1-t2)^2 < (z1-z2)^2.

    The spatial separation uses the periodic minimal image, so a time
    difference beyond L/2 leaves nothing spacelike.
    """
    zs = grid.positions()
    separation = np.abs(zs[:, None] - zs[None, :])
    separation = np.minimum(separation, grid.length - separation)
    return (t1 - t2) ** 2 < separation ** 2
