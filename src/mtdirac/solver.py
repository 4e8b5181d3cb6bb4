"""Two-particle multi-time evolution on a periodic line.

Each particle carries one spatial coordinate (along the 3-axis) while
the full 16-component spin structure is retained, so every matrix
identity of the algebra layer applies unchanged.  A step in one time
variable t_k uses Strang splitting: an exact matrix exponential of the
potential V_k at the midpoint time wrapped around a spectral free step
exp(-i dt (alpha3_k kappa + gamma0_k m_k)) per Fourier mode kappa.

The half-step phase exp(-i (dt/2) V_k) is taken in closed form when the
structures of V_k (its tensor-basis elements) split into classes that
commute with each other and anticommute pairwise inside each class,
which the algebra's sign table on GammaRep decides from the structures
alone.  Each class then squares to a scalar field, V_g^2 = s_g, and
contributes the factor cos(tau sqrt(s_g)) - i tau sinc(tau sqrt(s_g)) V_g
with tau = dt/2, the identity the free step uses for alpha3 kappa +
gamma0 m.  Any other V_k is assembled point by point and exponentiated
with eigh (declared hermitian) or expm.

The free step acts on particle k's spin factor only; lifted to the
16-component spin index (Kronecker product with the identity on the
other factor) it is one 16x16 kernel K(kappa) per mode, applied as a
batched matmul between one FFT and one inverse FFT along z_k.  When
V_k depends only on the times, its half-step phase P is a single 16x16
matrix that commutes with the FFT, so it is folded into the kernel as
P K(kappa) P and the step touches the grid only through the FFTs and
the matmul.  A phase that varies over the grid is applied pointwise
before the FFT and after the inverse FFT; in closed form it acts as
sum_i a_i (B_i psi) over the structures B_i, with no matrix per point.

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
import scipy.linalg

from .clifford import (
    GammaRep,
    OperatorField,
    TensorBasisElement,
    anticommute,
    realize,
    reconstruct,
    square_sign,
)
from .consistency import curvature_operator
from .potential import (
    DomainError,
    MultiTimeSystem,
    SpecError,
    hermitian_defect,
    operator_field,
)
from .symmetry import ConfigGrid

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
    """Configuration stack (n, n, 2, 4) of the grid: x_k = (t_k, 0, 0, z_k)."""
    return ConfigGrid(axes=((1, 3), (2, 3)), values=tuple(grid.positions()),
                      base=((t1, 0.0, 0.0, 0.0), (t2, 0.0, 0.0, 0.0))).configs()


def _step_coords(grid: Grid, t1: float, t2: float) -> list:
    """Coordinates for the potential sub-step, times kept scalar.

    Scalar times let purely time-dependent coefficients evaluate to
    scalars, so the potential collapses to a single 16x16 exponential
    instead of one per grid point; z_1 and z_2 stay broadcastable.
    """
    zs = grid.positions()
    return [[t1, 0.0, 0.0, zs[:, None]],
            [t2, 0.0, 0.0, zs[None, :]]]


def _add_terms(out: np.ndarray, terms, values: np.ndarray) -> np.ndarray:
    """out += sum_i a_i (B_i values) over terms (a_i, B_i), pointwise."""
    for weight, matrix in terms:
        out += np.asarray(weight)[..., None] * (values @ matrix.T)
    return out


def _exp_factors(square, t: float):
    """cos(t r) and -i t sinc(t r), r = sqrt(square).

    For a matrix M with M^2 = square (times the identity),
    exp(-i t M) = cos(t r) - i t sinc(t r) M, whichever root r is taken.
    """
    root = np.sqrt(square)
    return np.cos(t * root), -1j * t * np.sinc(t * root / np.pi)


def _anticommuting_classes(structures: Sequence[TensorBasisElement],
                           rep: GammaRep) -> list[list[int]] | None:
    """Split structures into commuting classes of anticommuting ones.

    Returns the classes as index lists, or None when no such split
    exists, i.e. when a connected component of the anticommutation
    graph is not complete.
    """
    classes: list[list[int]] = []
    for i, structure in enumerate(structures):
        for members in classes:
            if anticommute(structure, structures[members[0]], rep):
                members.append(i)
                break
        else:
            classes.append([i])
    same_class = {(i, j) for members in classes
                  for i in members for j in members}
    for i, a in enumerate(structures):
        for j in range(i + 1, len(structures)):
            if anticommute(a, structures[j], rep) != ((i, j) in same_class):
                return None
    return classes


def _dense_phase(system: MultiTimeSystem, particle: int,
                 potential: OperatorField, dt: float, rep: GammaRep):
    """exp(-i (dt/2) V_k) from the assembled matrices (eigh or expm)."""
    with np.errstate(all="ignore"):
        v = reconstruct(potential, system.n_particles, rep)
    if not np.all(np.isfinite(v)):
        raise DomainError(f"potential V_{particle} is not finite on the grid")
    if system.hermitian:
        eigenvalues, basis = np.linalg.eigh(v)
        phases = np.exp(-0.5j * dt * eigenvalues)
        phase = (basis * phases[..., None, :]) @ np.conj(
            np.swapaxes(basis, -1, -2))
    else:
        with np.errstate(all="ignore"):
            phase = scipy.linalg.expm(-0.5j * dt * v)
        if not np.all(np.isfinite(phase)):
            raise DomainError(
                f"exp(-i dt V_{particle} / 2) is not finite on the grid")
    if phase.ndim == 2:
        return phase
    return lambda values: np.matmul(phase, values[..., None])[..., 0]


def _potential_phase(system: MultiTimeSystem, particle: int,
                     times: Sequence[float], dt: float, grid: Grid,
                     rep: GammaRep):
    """exp(-i (dt/2) V_k) at the midpoint time, or None when V_k = 0.

    The result is one (16, 16) matrix when V_k depends only on the
    times, else a function applying the phase to (n, n, 16) values
    pointwise.  It is the product over the classes g of
    cos(tau sqrt(s_g)) - i tau sinc(tau sqrt(s_g)) V_g, tau = dt/2,
    s_g = sum_{i in g} B_i^2 a_i^2, when the structures B_i split into
    such classes, and _dense_phase otherwise.  Raises DomainError when
    V_k or the phase is not finite.
    """
    if system.potential(particle).is_zero():
        return None
    mid = list(times)
    mid[particle - 1] += dt / 2
    with np.errstate(all="ignore"):
        potential = operator_field(system.potential(particle),
                                   _step_coords(grid, mid[0], mid[1]))
    coefficients = list(potential.values())
    if not all(np.all(np.isfinite(a)) for a in coefficients):
        raise DomainError(f"potential V_{particle} is not finite on the grid")
    time_only = all(a.ndim == 0 for a in coefficients)
    if time_only and not any(coefficients):
        return None
    if system.hermitian:
        defect = np.max(hermitian_defect(potential, system.n_particles, rep))
        if defect > _HERMITIAN_TOL:
            raise SpecError("potential declared hermitian but deviates by "
                            f"{defect:.3e}")
    structures = list(potential)
    classes = _anticommuting_classes(structures, rep)
    if classes is None:
        return _dense_phase(system, particle, potential, dt, rep)

    matrices = [realize(structure, rep) for structure in structures]
    signs = [square_sign(structure, rep) for structure in structures]

    tau = dt / 2
    factors = []  # per class: (cos, [(weight field, structure matrix)])
    with np.errstate(all="ignore"):
        for members in classes:
            square = sum(signs[i] * coefficients[i] ** 2 for i in members)
            cos, weight = _exp_factors(square + 0j, tau)
            factors.append((cos, [(weight * coefficients[i], matrices[i])
                                  for i in members]))
    if not all(np.all(np.isfinite(field)) for cos, terms in factors
               for field in (cos, *(weight for weight, _ in terms))):
        raise DomainError(
            f"exp(-i dt V_{particle} / 2) is not finite on the grid")

    if time_only:
        eye = np.eye(len(matrices[0]))
        return reduce(np.matmul, [
            cos * eye + sum(weight * matrix for weight, matrix in terms)
            for cos, terms in factors])

    def apply(values: np.ndarray) -> np.ndarray:
        for cos, terms in factors:
            values = _add_terms(values * cos[..., None], terms, values)
        return values

    return apply


def _free_multiplier(grid: Grid, mass: float, dt: float,
                     rep: GammaRep) -> np.ndarray:
    """exp(-i dt (alpha3 kappa + gamma0 m)) per Fourier mode, (n, 4, 4)."""
    kappa = grid.momenta()
    cos, weight = _exp_factors(kappa ** 2 + mass ** 2, dt)
    hamiltonian = (rep.alpha(3)[None] * kappa[:, None, None]
                   + rep.gamma(0)[None] * mass)
    return (cos[:, None, None] * np.eye(4)
            + weight[:, None, None] * hamiltonian)


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
    if isinstance(phase, np.ndarray):
        kernel = phase @ kernel @ phase
        phase = None

    values = psi.values if phase is None else phase(psi.values)
    # particle k's grid axis leads, so kernel row x acts on values[x]
    if particle == 2:
        values = values.swapaxes(0, 1)
    spectral = np.fft.fft(values, axis=0)
    spectral = spectral @ kernel.swapaxes(-1, -2)
    values = np.fft.ifft(spectral, axis=0)
    if particle == 2:
        values = values.swapaxes(0, 1)
    if phase is not None:
        values = phase(values)

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
    operator = curvature_operator(system, _grid_coords(grid, *psi.times), rep)

    def terms(operand: OperatorField):
        return [(value, realize(structure, rep))
                for structure, value in operand.items()]

    out = _add_terms(np.zeros_like(psi.values), terms(operator.zeroth),
                     psi.values)
    for particle in (1, 2):
        first = operator.first[(particle, 3)]
        if any(np.any(value) for value in first.values()):
            derivative = _spectral_derivative(psi.values, grid, particle - 1)
            out = _add_terms(out, terms(first), derivative)
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
