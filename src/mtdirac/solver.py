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
and on a spin product u_1 x u_2 of (n, 4) fields, a product state being
the one of (profile, spinor) pairs (g_k, s_k), a leg applies a per mode
to u_k and b to u_j.  Other legs multiply their kernels, one by
repeated squaring, and apply the product per mode to the state's
Fourier values, formed from a spin product's fields if need be.
Norms and distances (by Parseval, ||a - b|| = spacing ||a^ - b^|| / n)
read rows from fields a block at a time; a distance between spin
products reads their (n, 4) fields alone.

Two experiments probe the compatibility of the pair of evolutions:

* path independence — evolve in t_1 then t_2 and in the reverse order;
  for compatible pairs the discrepancy is pure splitting error O(dt^2);

* loop holonomy — run a small square loop in the (t_1, t_2) plane; the
  deviation divided by delta^2 estimates ||F psi0||, which
  curvature_norm evaluates without stepping, for psi0 a product state:
  consistency.curvature_operator gives the line model's F_12, its
  derivatives along t and z alone, as operator fields at one
  configuration, or on the grid's (n, n, 2, 4) configuration stack
  when a potential refers to z.  Each term of F psi0 is a scalar field
  of psi0's profiles times a constant 16-vector, whose QR reduces the
  spin side once.
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
    """A spin product's (n, 4) field, held as is or as a pair (g, s)."""
    return np.multiply.outer(*field) if isinstance(field, tuple) else field


class WaveFunction:
    """Two-particle state on the grid; spin index s = 4 s_1 + s_2.

    Its (n, n, 16) values, axes (z_1, z_2, spin), are held in position
    space (`values`), in the joint Fourier space, or both, handed out as
    read-only views, so no edit leaves the other stale; or it is a spin
    product of fields u_1, u_2 in `_fields` = [position pair, Fourier
    pair], one given and the other transformed once, on first use.  A
    field is an (n, 4) array or a (profile, spinor) pair (g, s),
    transformed by g alone; a product state holds its position pairs.
    A missing space is formed once, when first asked for, by a 2-D FFT
    or from the fields.  Nothing is copied.  `_rows` reads a block of
    rows, from a spin product's fields where it has no array.
    """

    def __init__(self, grid: Grid, times: tuple[float, float],
                 values: np.ndarray):
        self.grid, self.times, self._known = grid, times, [values, None]
        self._fields = None

    @classmethod
    def _holding(cls, grid, times, known, fields=None):
        """A state of the given [position, Fourier] arrays or fields."""
        psi = cls(grid, times, None)
        psi._known = list(known)
        psi._fields = None if fields is None else list(fields)
        return psi

    def _view(self) -> "WaveFunction":
        """A state holding this one's arrays and fields, not its lists."""
        return self._holding(self.grid, self.times, self._known, self._fields)

    def _pair(self, spectral: bool) -> tuple:
        """A spin product's fields in either space, transformed once."""
        if self._fields[spectral] is None:
            transform = np.fft.fft if spectral else np.fft.ifft
            self._fields[spectral] = tuple(
                (transform(f[0]), f[1]) if isinstance(f, tuple)
                else transform(f, axis=0) for f in self._fields[not spectral])
        return self._fields[spectral]

    def _rows(self, spectral: bool, rows: slice) -> np.ndarray:
        """Rows of either space: a held array's, else formed from fields."""
        if self._known[spectral] is not None or self._fields is None:
            return self._space(spectral)[rows]
        u1, u2 = map(_field, self._pair(spectral))  # by s = 4 s_1 + s_2
        return (u1[rows, None, :, None] * u2[:, None]).reshape(-1, len(u2), 16)

    def _space(self, spectral: bool) -> np.ndarray:
        if self._known[spectral] is None:
            if self._fields is not None:
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
        Unmasked, a spin product's is its position factors' norms'
        product; a state with no position values held reads Fourier rows."""
        if mask is None and self._fields is not None:  # spin product
            spacing = self.grid.spacing
            sums = [np.sum(np.abs(f) ** 2) for field in self._pair(False)
                    for f in (field if isinstance(field, tuple) else [field])]
            return float(np.sqrt(np.prod(sums) * spacing * spacing))
        if mask is None and self._known[0] is None:  # by Parseval
            return _l2(self.grid, partial(self._rows, True)) / self.grid.points
        return _l2(self.grid, lambda rows: np.where(
            True if mask is None else mask[rows, :, None],
            self._rows(False, rows), 0))

    def distance(self, other: "WaveFunction") -> float:
        """||self - other||; by Parseval, spacing ||a^ - b^|| / n, when
        both states hold Fourier values or fields.  Between spin
        products, a_1 x a_2 - b_1 x b_2 is the orthogonal sum
        (l a_1 - b_1) x b_2 + a_1 x r of a_2 = l b_2 + r, r _|_ b_2: its
        norm takes (n, 4) Fourier fields alone, and no sum cancels."""
        pair, norm = (self, other), np.linalg.norm
        if all(psi._fields is not None for psi in pair):
            (a1, a2), (b1, b2) = (map(_field, psi._pair(True)) for psi in pair)
            ratio = np.vdot(b2, a2) / norm(b2) ** 2 if norm(b2) else 0
            return float(np.hypot(norm(ratio * a1 - b1) * norm(b2), norm(
                a1) * norm(a2 - ratio * b2))) * self.grid.spacing / len(a1)
        spectral = all(psi._known[1] is not None or psi._fields is not None
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
    the default (1, 0, 0, 0) is a positive-energy rest spinor.  It is the
    spin product of pairs (g_1, s_1 / ||psi||), (g_2, s_2).  Raises
    SpecError unless the norm on the grid is finite and positive.
    """
    s1, s2 = (np.array((1, 0, 0, 0) if s is None else s, complex)
              for s in (spinor1, spinor2))
    if s1.shape != (4,) or s2.shape != (4,):
        raise SpecError("spinors must be 4-component")
    with np.errstate(all="ignore"):
        psi = WaveFunction._holding(grid, (float(times[0]), float(times[1])),
                                    [None, None], fields=[(
            (gaussian_profile(grid, width, centers[0], momenta[0]), s1),
            (gaussian_profile(grid, width, centers[1], momenta[1]), s2)),
            None])
        norm = psi.norm()
    if not (np.isfinite(norm) and norm > 0):
        raise SpecError(f"initial state norm {norm:g} is not finite and positive")
    s1 /= norm  # in place: psi holds it
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
            root = np.sqrt(sum(square_sign(b) * np.square(field[b])
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


def _mentions_z(potential: Potential) -> bool:
    """Whether a coefficient or a guard of V_k refers to z_1 or z_2."""
    exprs = [term.coefficient for term in potential.terms]
    exprs += [guard.expr for guard in potential.guards]
    return any(mu == 3 for expr in exprs for _, mu in coordinates(expr))


def _on_grid(potential: Potential) -> bool:
    """Whether V_k varies over the grid: a nonzero coefficient, or a guard
    of a nonzero V_k, refers to z_1 or z_2.  Guards count so that a
    time-only leg never evaluates one on a (count, n, n) stack."""
    return not potential.is_zero() and _mentions_z(potential)


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
    times.  On a spin product (a product state included), a V_k that
    passes _one_particle leaves one of Fourier fields (_local_leg).  Any
    other multiplies its kernels P K P (P = I where V_k vanishes, K alone
    when V_k is zero), a kernel per step in turn or the one kernel by
    repeated squaring, and applies the product per mode in the joint
    Fourier space, where it leaves the state; a spin product's Fourier
    values are formed into an array of the leg's own, nothing cached on
    the state.  A grid leg builds each step's phase in turn and takes
    each step in position space in the workspace's buffers (the
    caller's, or this call's).  A leg writes, or gives to the workspace,
    only a state an earlier leg of this call made, never psi or one the
    caller holds; a grid leg not one formed from a spin product's fields.
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
            owned = owned and psi._fields is None
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
        fields = psi._fields and psi._pair(True)
        if _one_particle(phase) and fields:
            psi = at([None, None], fields=[None, _local_leg(
                fields, particle, count, free, phase)])
            continue
        weights, basis = _class_basis(*free)
        phases = _multiply_out(phase).reshape(-1, 16, 16) if len(phase) else ()
        if len(phases) > 1:  # chained, each step's kernel into one buffer
            run = _class_matrix(weights, basis, phases[0])
            buffer, spare = np.empty_like(run), np.empty_like(run)
            for around in phases[1:]:
                run, spare = np.matmul(_class_matrix(
                    weights, basis, around, buffer), run, out=spare), run
        else:  # one kernel for every step, raised by repeated squaring
            run = np.linalg.matrix_power(
                _class_matrix(weights, basis, *phases), count)
        if fields and psi._known[1] is None:  # into an array of its own
            values, owned = psi._rows(True, slice(None)), True
        else:
            psi._space(True)  # held as psi._known[1]
            values = psi._known[1]
        psi = at([None, _apply_kernel(values, particle, run, owned)])
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
# Curvature reference on the grid
# ---------------------------------------------------------------------------

def _line_parts(system: MultiTimeSystem, psi: WaveFunction) -> list:
    """The line model's own F at psi's times, its parts each beside the
    position pairs of the state it acts on: (zeroth, psi's pairs) and
    (first[(k, 3)], those of d psi / d z_k) where that part is not zero,
    d psi / d z_k being the pairs' Fourier pairs with i kappa g^_k in
    place of g^_k, transformed back.  Its H_k differentiates along t_k
    and z_k alone, so F takes the derivatives along mu = 0 and 3, and a
    V_k that varies transversally leaves a curvature the line model has.
    F is evaluated at the one configuration x_k = (t_k, 0, 0, 0) when no
    coefficient or guard of either V_k refers to z, its fields then
    scalars, else on the grid's (n, n, 2, 4) stack."""
    t1, t2 = psi.times
    if any(map(_mentions_z, system.potentials)):
        coords = _grid_coords(psi.grid, t1, t2)
    else:
        coords = np.array([[t1, 0, 0, 0], [t2, 0, 0, 0]], float)
    operator = curvature_operator(system, coords, directions=(0, 3))
    kappa = 1j * psi.grid.momenta()
    parts = [(operator.zeroth, psi._pair(False))]
    for k in (1, 2):
        first = operator.first[(k, 3)]
        if any(np.any(value) for value in first.values()):  # d psi / d z_k
            spectral = enumerate(psi._pair(True), 1)
            parts.append((first, [(np.fft.ifft(g * kappa if j == k else g), s)
                                  for j, (g, s) in spectral]))
    return parts


def curvature_norm(system: MultiTimeSystem, psi: WaveFunction) -> float:
    """||F psi|| on the grid at psi's times — the holonomy experiment's
    reference value — for psi a spin product of two (profile, spinor)
    pairs (a, s_1), (b, s_2), as product_state makes.

    F psi = sum_t c_t v_t over the terms t of _line_parts: c_t = w_t
    a_t(z_1) b_t(z_2) is the scalar field of the term's weight and its
    part's profiles, and v_t = B_t (s_1 x s_2) a constant 16-vector.
    With the QR of the (16, T) matrix [v_t], ||F psi||^2 = sum_z
    ||R c(z)||^2, summed a block of rows of the (T, n, n) fields at a
    time, with no (n, n, 16) image.  No Gram matrix: sum_tu G_tu c_t^*
    c_u cancels where F psi nearly vanishes.  Raises SpecError on any
    other state.
    """
    if not psi._fields or not all(isinstance(field, tuple)
                                  for field in psi._pair(False)):
        raise SpecError("curvature_norm takes a product state: a spin "
                        "product of two (profile, spinor) pairs")
    terms = [(weight, realize(structure, DIRAC) @ np.outer(s1, s2).ravel(),
              a, b) for field, ((a, s1), (b, s2)) in _line_parts(system, psi)
             for structure, weight in field.items()]
    if not terms:
        return 0.0
    weights, spins, a, b = zip(*terms)
    r = np.linalg.qr(np.stack(spins, -1), mode="r")
    weights = np.stack(np.broadcast_arrays(*weights))  # (T,) or (T, n, n)
    a, b = np.stack(a), np.stack(b)
    if weights.ndim == 1:  # constant over the grid: into the a_t
        a *= weights[:, None]
    total = 0.0
    for rows in _row_blocks(psi.grid.points):
        fields = a[:, rows, None] * b[:, None]
        if weights.ndim > 1:
            fields *= weights[:, rows]
        image = r @ fields.reshape(len(fields), -1)
        total += np.vdot(image, image).real
    return float(np.sqrt(total * psi.grid.spacing * psi.grid.spacing))


def spacelike_mask(grid: Grid, t1: float, t2: float) -> np.ndarray:
    """(n, n) mask of configurations with (t1-t2)^2 < (z1-z2)^2.

    The spatial separation uses the periodic minimal image, so a time
    difference beyond L/2 leaves nothing spacelike.
    """
    zs = grid.positions()
    separation = np.abs(zs[:, None] - zs[None, :])
    separation = np.minimum(separation, grid.length - separation)
    return (t1 - t2) ** 2 < separation ** 2
