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
first built.  The half-step phase is one value, those (..., 16, 16)
matrices or the list of class factors.  On a grid leg it is applied
pointwise before the FFT and after the inverse FFT, class factors in
closed form as sum_i a_i (B_i psi) with no matrix per point, their terms
accumulated through one scratch buffer.  A grid step allocates nothing:
it works in a workspace of at most four (n, n, 16) buffers, one per
experiment, and a call's result leaves the workspace as its new state.

On a time-only leg (no z in V_k's nonzero coefficients or guards, read
from the expression trees) each half-step phase multiplies out to one
16x16 P, the identity where V_k vanishes, so a step is the per-mode
kernel P K(kappa) P, one GEMM of the free class's coefficients against
P{I, alpha3_k, gamma0_k}P, applied in the joint Fourier space of
(z_1, z_2), where it leaves the state.  V_k is evaluated once per leg
on the stack of its midpoint times; a failure raises the earliest
failing step's error.  Where each structure of V_k acts on one particle
at most (hoho, example1_vector, free), P K P = a(kappa) x b, 4x4 each,
and on a product state g_1 x g_2 x spin or a spin product u_1 x u_2 of
(n, 4) Fourier fields a leg applies a per mode to u_k and b to u_j.
Other legs multiply their kernels, one by repeated squaring; on a
product state they apply each to the (n, 16) field u_k = g^_k spin, a
leg on the other particle keeping its product beside u_k.  Norms,
distances (by Parseval, ||a - b|| = spacing ||a^ - b^|| / n) and
curvature norms read rows from factors a block at a time; a distance
between products reads their (n, 4) fields alone.

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
from functools import partial, reduce
from numbers import Integral
from typing import Sequence

import numpy as np

from .clifford import (
    DIRAC,
    IDENTITY_ELEMENT,
    BasisClass,
    BasisElement,
    OperatorField,
    TensorBasisElement,
    anticommute,
    field_sum,
    realize,
    reconstruct,
    single_matrix,
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
        if type(self.points) is bool or not isinstance(self.points, Integral):
            raise SpecError(f"grid points {self.points!r} is not an integer")
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


def _row_blocks(n: int) -> list[slice]:
    """Slices of the leading axis of (n, n, 16) values, 512 KiB each."""
    rows = max(1, 2048 // n)
    return [slice(i, min(i + rows, n)) for i in range(0, n, rows)]


def _l2(grid: Grid, block, minus=None) -> float:
    """||a - b||, or ||a||, a block a[rows] = block(rows), b[rows] =
    minus(rows) at a time, squared by parts in one scratch buffer."""
    total, blocks = 0.0, _row_blocks(grid.points)
    scratch = np.empty((blocks[0].stop, grid.points, 16), complex)
    for rows in blocks:
        values = block(rows)
        squares = np.subtract(values, 0 if minus is None else minus(rows),
                              out=scratch[:len(values)]).view(float)
        total += np.sum(np.square(squares, out=squares))
    return float(np.sqrt(total * grid.spacing * grid.spacing))


def _field(field) -> np.ndarray:
    """A spin product's (n, 4) field, held as is or as a pair (g^, s)."""
    return np.multiply.outer(*field) if isinstance(field, tuple) else field


class WaveFunction:
    """Two-particle state on the grid; spin index s = 4 s_1 + s_2.

    Its (n, n, 16) values, axes (z_1, z_2, spin), are held in position
    space (`values`), in the joint Fourier space, or both, handed out as
    read-only views, so no edit leaves the other stale; the missing space
    is formed once, when first asked for, by a 2-D FFT or from factors:
    a product state's (g_1, g_2, spin), a time-only leg's (k, u_k, other)
    of Fourier values u_k x other (see _advance), or a spin product's
    (n, 4) Fourier fields (u_1, u_2), a u_k held as (g^_k, s_k) while
    only constants touched it.  Nothing is copied.  `_rows` reads a block
    of rows, from factors where it can.
    """

    def __init__(self, grid: Grid, times: tuple[float, float],
                 values: np.ndarray):
        self.grid, self.times, self._known = grid, times, [values, None]
        self._factors = self._dual = self._leg_factors = self._fields = None

    @classmethod
    def _holding(cls, grid, times, known, factors=None, leg_factors=None,
                 fields=None):
        """A state of the given [position, Fourier] arrays and factors."""
        psi = cls(grid, times, None)
        psi._known, psi._factors = list(known), factors
        psi._leg_factors, psi._fields = leg_factors, fields
        return psi

    def _view(self) -> "WaveFunction":
        """A state holding this one's arrays and factors, not its list."""
        return self._holding(self.grid, self.times, self._known, self._factors,
                             self._leg_factors, self._fields)

    def _factors_in(self, spectral: bool) -> tuple:
        """(g_1, g_2, spin), in Fourier space with the g_k's DFTs; a spin
        product's (u_1, u_2), in position space their inverses; either
        transform is taken once, as `_dual`."""
        if self._fields is not None:
            fields = tuple(map(_field, self._fields))
            if not spectral and self._dual is None:
                self._dual = tuple(np.fft.ifft(u, axis=0) for u in fields)
            return fields if spectral else self._dual
        g1, g2, spin = self._factors
        if spectral and self._dual is None:
            self._dual = tuple(map(np.fft.fft, (g1, g2)))
        return (*(self._dual if spectral else (g1, g2)), spin)

    def _spin_pair(self) -> tuple:
        """A spin product's fields; a product state's, as (g^_k, s_k), its
        rank-1 spin split at its largest entry."""
        if self._fields is not None:
            return self._fields
        *hats, spin = self._factors_in(True)
        s = spin.reshape(4, 4)
        i, j = np.unravel_index(np.argmax(np.abs(s)), s.shape)
        return (hats[0], s[:, j]), (hats[1], s[i] / s[i, j])

    def _implicit(self, spectral: bool) -> bool:  # factors give the space
        return self._factors is not None or self._fields is not None or (
            spectral and self._leg_factors is not None)

    def _rows(self, spectral: bool, rows: slice) -> np.ndarray:
        """Rows of either space: a held array's, else formed from factors."""
        if self._known[spectral] is not None or not self._implicit(spectral):
            return self._space(spectral)[rows]
        if self._fields is not None:  # u_1 x u_2 by s = 4 s_1 + s_2
            u1, u2 = self._factors_in(spectral)
            return (u1[rows, None, :, None] * u2[:, None]).reshape(
                -1, len(u2), 16)
        if self._leg_factors is None:
            g1, g2, spin = self._factors_in(spectral)
            return np.multiply.outer(np.multiply.outer(g1[rows], g2), spin)
        k, u, other = self._leg_factors  # u_k x other in (z_1, z_2, spin)
        if other.ndim == 1:
            return (u[rows, None] * other[:, None] if k == 1
                    else other[rows, None, None] * u)
        if k == 2:
            return np.matmul(u, other[rows].mT)
        return (u[rows] @ other.reshape(-1, 16).T).reshape(-1, len(other), 16)

    def _space(self, spectral: bool) -> np.ndarray:
        if self._known[spectral] is None:
            if self._implicit(spectral):
                held = self._rows(spectral, slice(None))
            else:
                transform = np.fft.fft2 if spectral else np.fft.ifft2
                held = transform(self._space(not spectral), axes=(0, 1))
            self._known[spectral] = held
        held = self._known[spectral].view()
        held.flags.writeable = False
        return held

    @property
    def values(self) -> np.ndarray:
        return self._space(False)

    def norm(self, mask: np.ndarray | None = None) -> float:
        """L2 norm; an optional (n, n) mask restricts the integration.
        Unmasked, a (spin) product's is its factors' norms' product, and
        a state with no position values held reads Fourier rows."""
        if mask is None and self._implicit(False):  # (spin) product
            spacing = self.grid.spacing
            sums = [np.sum(np.abs(f) ** 2) for f in self._factors_in(False)]
            return float(np.sqrt(np.prod(sums) * spacing * spacing))
        if mask is None and self._known[0] is None:  # by Parseval
            return _l2(self.grid, partial(self._rows, True)) / self.grid.points
        return _l2(self.grid, lambda rows: np.where(
            True if mask is None else mask[rows, :, None],
            self._rows(False, rows), 0))

    def distance(self, other: "WaveFunction") -> float:
        """||self - other||; by Parseval, spacing ||a^ - b^|| / n, when
        both states hold Fourier values or factors.  Between (spin)
        products, a_1 x a_2 - b_1 x b_2 is the orthogonal sum
        (l a_1 - b_1) x b_2 + a_1 x r of a_2 = l b_2 + r, r _|_ b_2: its
        norm takes (n, 4) fields alone, and no sum cancels."""
        pair, norm = (self, other), np.linalg.norm
        if all(psi._implicit(False) for psi in pair):
            (a1, a2), (b1, b2) = ([_field(f) for f in psi._spin_pair()]
                                  for psi in pair)
            ratio = np.vdot(b2, a2) / norm(b2) ** 2 if norm(b2) else 0
            return float(np.hypot(norm(ratio * a1 - b1) * norm(b2), norm(
                a1) * norm(a2 - ratio * b2))) * self.grid.spacing / len(a1)
        spectral = all(psi._known[1] is not None or psi._implicit(True)
                       for psi in pair)
        n = self.grid.points if spectral else 1
        return _l2(self.grid, partial(self._rows, spectral),
                   partial(other._rows, spectral)) / n


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
    spin = np.outer(s1, s2).ravel()
    with np.errstate(all="ignore"):
        psi = WaveFunction._holding(grid, (float(times[0]), float(times[1])),
                                    [None, None], (
            gaussian_profile(grid, width, centers[0], momenta[0]),
            gaussian_profile(grid, width, centers[1], momenta[1]), spin))
        norm = psi.norm()
    if not (np.isfinite(norm) and norm > 0):
        raise SpecError(f"initial state norm {norm:g} is not finite and positive")
    spin /= norm  # in place: psi holds it
    return psi


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


def _add_terms(out: np.ndarray, field: OperatorField, values: np.ndarray,
               product: np.ndarray | None = None) -> np.ndarray:
    """out += sum_i a_i (B_i values) over the field's terms, pointwise, in
    place, each through one scratch `product` (else a new one)."""
    product = np.empty_like(out) if product is None else product
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


def _class_basis(cos, terms: OperatorField, particle=None) -> tuple:
    """A class's coefficients (..., m) and its basis [I, B_1, ...], 16x16,
    or the B_i's 4x4 factors on `particle`."""
    return (np.stack(np.broadcast_arrays(cos, *terms.values()), -1),
            np.stack([np.eye(16), *(realize(b, DIRAC) for b in terms)])
            if particle is None else np.stack([np.eye(4), *(single_matrix(
                b.factors[particle - 1], DIRAC) for b in terms)]))


def _class_matrix(weights, basis, around=None, out=None) -> np.ndarray:
    """A (cos + sum_i w_i B_i) A, (..., d, d), for A = around or I: one
    GEMM of _class_basis's weights against A [I, B_1, ...] A, into out."""
    if around is not None:
        basis = around @ basis @ around
    shape, d = weights.shape[:-1], basis.shape[-1]
    return np.matmul(weights, basis.reshape(len(basis), d * d), out=None if (
        out is None) else out.reshape(*shape, d * d)).reshape(*shape, d, d)


def _multiply_out(phase) -> np.ndarray:
    """The class factors' product, (..., 16, 16); dense matrices as is."""
    if isinstance(phase, np.ndarray):
        return phase
    return reduce(np.matmul, [_class_matrix(*_class_basis(cos, terms))
                              for cos, terms in phase])


def _one_particle(phase) -> bool:
    """Whether every structure of the phase's classes acts on one particle
    at most: structures on different particles commute, so each class
    then lies on one particle, and P = p_1 x p_2."""
    return not isinstance(phase, np.ndarray) and all(
        sum(factor != IDENTITY_ELEMENT for factor in b.factors) <= 1
        for _, terms in phase for b in terms)


def _particle_phase(phase, particle: int, leg: int) -> np.ndarray:
    """The product of the phase's class factors on `particle` as (m, 4, 4)
    matrices, m = 1 or a leg's step count: a class is on the particle j
    the leg is not on when its factor on j is not the identity."""
    factors = [_class_matrix(*_class_basis(cos, terms, particle))
               for cos, terms in phase if (particle != leg) == (
                   next(iter(terms)).factors[-leg] != IDENTITY_ELEMENT)]
    return reduce(np.matmul, factors, np.eye(4)).reshape(-1, 4, 4)


def _local_leg(fields, particle: int, count: int, free, phase) -> tuple:
    """A spin product's fields after `count` Strang steps on particle k,
    for a V_k that passes _one_particle: each step's kernel P K P is
    a (x) b, a = p k(kappa) p per mode on u_k, b = q^2 on u_j, for p and q
    the step's class factors' products on k and on j, as 4x4 matrices."""
    p, q = (_particle_phase(phase, k, particle) for k in (particle,
                                                          3 - particle))
    kernels = map(partial(_class_matrix, *_class_basis(*free, particle)), p)
    u, b = _field(fields[particle - 1]), np.eye(4)
    for a in kernels if len(p) > 1 else [next(kernels)] * count:
        u = (a @ u[..., None])[..., 0]
    for q_i in np.broadcast_to(q, (count, 4, 4)):
        b = q_i @ q_i @ b
    other = fields[-particle]  # b on g^_j x s_j keeps the pair
    other = (other[0], b @ other[1]) if type(other) is tuple else other @ b.T
    return (u, other) if particle == 1 else (other, u)


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
                     times: Sequence, dt: float, grid: Grid):
    """exp(-i (dt/2) V_k) at the midpoint times, for a V_k not zero;
    times[k - 1] may be a (count, 1, 1) stack of step start times.

    The phase is _class_factors' list of (cos, terms) when V_k's
    structures split into classes, else _dense_phase's (..., 16, 16)
    matrices.  Raises DomainError when V_k or a phase is not finite.
    """
    mid = list(times)
    mid[particle - 1] = mid[particle - 1] + dt / 2  # not +=: may be an array
    with np.errstate(all="ignore"):
        potential = operator_field(system.potential(particle),
                                   _step_coords(grid, mid[0], mid[1]))
    if not all(np.all(np.isfinite(a)) for a in potential.values()):
        raise DomainError(f"potential V_{particle} is not finite on the grid")
    if system.hermitian:
        defect = np.max(hermitian_defect(potential, system.n_particles))
        if defect > _HERMITIAN_TOL:
            raise SpecError("potential declared hermitian but deviates by "
                            f"{defect:.3e}")
    classes = _anticommuting_classes(list(potential))
    if classes is None:
        return _dense_phase(potential, particle, dt)
    return _class_factors(potential, classes, dt / 2, f"dt V_{particle} / 2")


class _Workspace(list):
    """At most four spare (n, n, 16) buffers for grid steps; a buffer
    taken and not given back leaves it, as a call's result does."""

    def take(self, shape: tuple) -> np.ndarray:
        return self.pop() if self else np.empty(shape, complex)

    def give(self, buffer: np.ndarray) -> None:
        if len(self) < 4:
            self.append(buffer)


def _apply_phase(phase, values: np.ndarray, workspace: _Workspace,
                 owned: bool) -> np.ndarray:
    """The phase applied pointwise to (n, n, 16) values, into a workspace
    buffer: class factors in turn, each through one scratch.  values are
    never written, and go to the workspace once read when `owned`."""
    for factor in [phase] if isinstance(phase, np.ndarray) else phase:
        out, scratch = (workspace.take(values.shape) for _ in range(2))
        if isinstance(factor, np.ndarray):
            np.matmul(factor, values[..., None], out=out[..., None])
        else:
            _add_terms(np.multiply(values, factor[0][..., None], out=out),
                       factor[1], values, scratch)  # factor: (cos, terms)
        workspace.give(scratch)
        if owned:
            workspace.give(values)
        values, owned = out, True
    return values


def _check_steps(system: MultiTimeSystem, grid: Grid,
                 dts: Sequence[float]) -> None:
    """Reject a system that is not a pair, and a dt not finite or too big."""
    if system.n_particles != 2:
        raise SpecError("the line solver handles exactly two particles")
    for dt in dts:
        if not np.isfinite(dt):
            raise SpecError(f"step {dt!r} is not finite")
        if abs(dt) > grid.spacing + 1e-12:
            raise SpecError(f"|dt| = {abs(dt):g} exceeds the grid spacing "
                            f"{grid.spacing:g}")


def _apply_kernel(values: np.ndarray, particle: int, kernel: np.ndarray,
                  owned: bool) -> np.ndarray:
    """The (n, 16, 16) kernel per Fourier mode of z_k, on values in the
    joint Fourier space of (z_1, z_2): a per-mode matmul a block of modes
    at a time, into a new array or, when `owned`, in place."""
    # particle k's grid axis leads, so kernel row x acts on values[x]
    values, kernel = np.moveaxis(values, particle - 1, 0), kernel.mT
    out = values if owned else np.empty_like(values)
    for rows in _row_blocks(len(values)):
        out[rows] = values[rows] @ kernel[rows]
    return np.moveaxis(out, 0, particle - 1)


def _advance(psi: WaveFunction, legs: Sequence[tuple[int, float, int]],
             system: MultiTimeSystem,
             workspace: _Workspace | None = None) -> WaveFunction:
    """Strang steps from psi through (particle, dt, count) legs.

    A time-only leg evaluates V_k once, on the stack of its midpoint
    times.  On a product or spin product, a V_k that passes _one_particle
    leaves a spin product (_local_leg).  Any other builds its kernels
    P K P (P = I where V_k vanishes, K alone when V_k is zero) in a
    buffer of its own, or one for all its steps.  On a product state, a
    spin product whose field j is still g^_j x s_j, or a state a leg left
    as (k, u_k, g^_j), a leg on particle k applies each to the (n, 16)
    spinor field u_k, one batched matvec a step, and a leg on j keeps its
    kernels' product, scaled by g^_j, beside u_k.  On any other state it
    multiplies its kernels, the one kernel by repeated squaring, and
    applies the product in the joint Fourier space (formed from a spin
    product's fields if need be), where it leaves the state.  A grid leg
    builds each step's phase in turn and takes each step in position
    space in the workspace's buffers (the caller's, or this call's).  A
    leg writes, or gives to the workspace, only a state an earlier leg of
    this call made, never psi or one the caller holds; a grid leg not one
    formed from a leg's or a spin product's factors.
    """
    grid, times, given = psi.grid, list(psi.times), psi
    workspace = _Workspace() if workspace is None else workspace
    for particle, dt, count in legs:
        if not count:
            continue
        # the free Hamiltonian alpha3_k kappa + gamma0_k m_k is one class
        hamiltonian = field_sum(
            (grid.momenta(), unit_field(_ALPHA3, particle, 2)),
            (system.mass(particle), unit_field(_GAMMA0, particle, 2)))
        [free] = _class_factors(
            hamiltonian, [list(hamiltonian)], dt, f"dt H_{particle}")
        owned = psi is not given  # an earlier leg of this call made psi
        if _on_grid(system.potential(particle)):
            owned = owned and psi._leg_factors is None and psi._fields is None
            psi._space(False)  # held as psi._known[0]: read, or owned
            values, axis = psi._known[0], particle - 1
            free = _class_matrix(*_class_basis(*free)).mT  # K^T, spin rows
            for i in range(count):  # phase, FFT, free step, inverse, phase
                phase = _potential_phase(system, particle, times, dt, grid)
                times[axis] += dt
                phased = _apply_phase(phase, values, workspace, owned or i > 0)
                modes = np.fft.fft(phased, axis=axis,
                                   out=workspace.take(phased.shape))
                np.matmul(np.moveaxis(modes, axis, 0), free,
                          out=np.moveaxis(phased, axis, 0))
                np.fft.ifft(phased, axis=axis, out=modes)
                workspace.give(phased)
                values = _apply_phase(phase, modes, workspace, True)
            psi = WaveFunction(grid, tuple(times), values)
            continue
        # the same repeated += as step by step, so each time is bit-exact
        starts, stack = [], list(times)
        for _ in range(count):
            starts.append(times[particle - 1])
            times[particle - 1] += dt
        stack[particle - 1] = np.reshape(starts, (-1, 1, 1))
        phase = []
        if not system.potential(particle).is_zero():
            try:
                phase = _potential_phase(system, particle, stack, dt, grid)
            except (DomainError, SpecError, DslEvaluationError):
                # raise what the earliest failing step raises on its own
                for start in starts:
                    stack[particle - 1] = start
                    _potential_phase(system, particle, stack, dt, grid)
                raise
        at = partial(WaveFunction._holding, grid, tuple(times))
        if _one_particle(phase) and (psi._factors is not None
                                     or psi._fields is not None):
            psi = at([None, None], fields=_local_leg(  # a spin product
                psi._spin_pair(), particle, count, free, phase))
            continue
        weights, basis = _class_basis(*free)
        phases = _multiply_out(phase).reshape(-1, 16, 16) if len(phase) else ()
        if len(phases) > 1:  # each step's kernel into the leg's own buffer
            buffer = np.empty((grid.points, 16, 16), complex)
            kernels = (_class_matrix(weights, basis, phase, buffer)
                       for phase in phases)
        else:  # one kernel for every step
            kernels = iter([_class_matrix(weights, basis, *phases)] * count)
        split = psi._leg_factors  # (k, u_k, g^_j) while it stays factored
        if psi._factors is not None:
            *g, spin = psi._factors_in(True)
            split = (particle, g[particle - 1][:, None] * spin, g[-particle])
        elif psi._fields is not None and type(psi._fields[-particle]) is tuple:
            g, s = psi._fields[-particle]
            u = _field(psi._fields[particle - 1])
            split = (particle, (u[:, :, None] * s if particle == 1 else
                                s[:, None] * u[:, None]).reshape(-1, 16), g)
        elif split and split[2].ndim > 1:
            split = None  # formed below
        if split and split[0] == particle:
            # a batched matvec a step (a loop variable would pin a kernel)
            psi = at([None, None], leg_factors=(particle, reduce(
                lambda u, kernel: (kernel @ u[..., None])[..., 0], kernels,
                split[1]), split[2]))
            continue
        if len(phases) > 1:
            run, spare = next(kernels).copy(), np.empty_like(buffer)
            for kernel in kernels:
                run, spare = np.matmul(kernel, run, out=spare), run
        else:  # its power by repeated squaring
            run = np.linalg.matrix_power(next(kernels), count)
        if split:  # (g^_j run) beside u_k: run is the leg's own
            run *= split[2][:, None, None]
            psi = at([None, None], leg_factors=(*split[:2], run))
        else:
            psi._space(True)  # held as psi._known[1]
            psi = at([None, _apply_kernel(psi._known[1], particle, run,
                                          owned)])
    return psi


def step(psi: WaveFunction, particle: int, dt: float,
         system: MultiTimeSystem) -> WaveFunction:
    """One Strang step of the particle's time variable by dt (signed)."""
    _check_steps(system, psi.grid, [dt])
    if particle not in (1, 2):
        raise SpecError("particle must be 1 or 2")
    if dt == 0:
        return WaveFunction(psi.grid, psi.times, psi.values.copy())
    return _advance(psi, [(particle, dt, 1)], system)


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
    return _advance(psi, legs, system)


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
    start = psi0._view()
    evolve = partial(_advance, start, system=system, workspace=_Workspace())
    rows = [(float(dt), evolve([(1, dt, count), (2, dt, count)]).distance(
        evolve([(2, dt, count), (1, dt, count)])))
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
    fitted_slope: float  # of dev/delta^2 against delta, NaN at round-off

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
    start = psi0._view()
    rows, evolve = [], partial(_advance, start, system=system,
                               workspace=_Workspace())
    for delta in deltas:
        deviation = evolve([(1, delta, 1), (2, delta, 1), (1, -delta, 1),
                            (2, -delta, 1)]).distance(start)
        rows.append((float(delta), deviation, deviation / delta ** 2))
    return HolonomyResult(tuple(rows), _fitted_loglog_slope(
        [r[0] for r in rows], [r[2] for r in rows], [r[1] for r in rows],
        _ROUNDOFF * psi0.norm()))


# ---------------------------------------------------------------------------
# Curvature oracle on the grid
# ---------------------------------------------------------------------------

def _spectral_derivative(psi: WaveFunction, particle: int) -> WaveFunction:
    """d psi / d z_k by FFT: of g_k alone in a product state, else whole."""
    def dz(values: np.ndarray, axis: int) -> np.ndarray:
        kappa = (1j * psi.grid.momenta()).reshape([-1] + [1] * (
            values.ndim - 1 - axis))
        return np.fft.ifft(np.fft.fft(values, axis=axis) * kappa, axis=axis)
    if psi._factors is None:
        return WaveFunction(psi.grid, psi.times, dz(psi.values, particle - 1))
    factors = list(psi._factors)
    factors[particle - 1] = dz(factors[particle - 1], 0)
    return WaveFunction._holding(psi.grid, psi.times, [None, None], factors)


def _curvature_rows(system: MultiTimeSystem, psi: WaveFunction):
    """rows -> (F psi)[rows] at psi's times, from rows of psi and of its
    z-derivatives: only those act in the line model, as the transverse
    first-order parts multiply derivatives the state does not carry."""
    n = psi.grid.points
    operator = curvature_operator(system, _grid_coords(psi.grid, *psi.times))
    parts = [(operator.zeroth, psi)] + [
        (operator.first[(k, 3)], _spectral_derivative(psi, k)) for k in (1, 2)
        if any(np.any(value) for value in operator.first[(k, 3)].values())]

    def rows_of(rows: slice) -> np.ndarray:
        out = np.zeros((len(range(n)[rows]), n, 16), complex)
        for field, state in parts:
            _add_terms(out, {b: np.broadcast_to(w, (n, n))[rows]
                             for b, w in field.items()},
                       state._rows(False, rows))
        return out
    return rows_of


def apply_curvature(system: MultiTimeSystem, psi: WaveFunction) -> np.ndarray:
    """Evaluate (F psi) on the grid at psi's times, all rows at once."""
    return _curvature_rows(system, psi)(slice(None))


def curvature_norm(system: MultiTimeSystem, psi: WaveFunction) -> float:
    """||F psi|| on the grid — the holonomy experiment's reference value."""
    return _l2(psi.grid, _curvature_rows(system, psi))


def spacelike_mask(grid: Grid, t1: float, t2: float) -> np.ndarray:
    """(n, n) mask of configurations with (t1-t2)^2 < (z1-z2)^2.

    The spatial separation uses the periodic minimal image, so a time
    difference beyond L/2 leaves nothing spacelike.
    """
    zs = grid.positions()
    separation = np.abs(zs[:, None] - zs[None, :])
    separation = np.minimum(separation, grid.length - separation)
    return (t1 - t2) ** 2 < separation ** 2
