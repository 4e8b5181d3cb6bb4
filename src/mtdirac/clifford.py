"""Dirac gamma-matrix algebra on multi-particle spinor spaces.

Operators for N particles act on the N-fold tensor product of 4-component
spinor factors.  Every 4x4 matrix expands uniquely over the 16-element
basis alpha^mu, gamma5*alpha^mu, gamma^mu, gamma5*gamma^mu (mu = 0..3),
and products of such factors form an orthogonal basis of the full
16^N-dimensional operator space under the Hilbert-Schmidt pairing.
The product of two basis elements is a phase in {1, -1, i, -i} times one
basis element, the same in every representation (PRODUCT_INDEX,
PRODUCT_PHASE), so operator fields (coefficient arrays over basis
elements) multiply and commute without forming matrices: a representation
(GammaRep) is an argument only of code that forms matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce

import numpy as np

MINKOWSKI_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

#: Frobenius-norm tolerance for exact algebraic identities.
ALGEBRA_TOL = 1e-12

_SIGMA = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

# Totally antisymmetric symbol on spatial indices 1..3, stored 0-based,
# normalized so that eps(1,2,3) = +1.
EPSILON3 = np.zeros((3, 3, 3))
for _perm, _sign in [
    ((0, 1, 2), 1.0), ((1, 2, 0), 1.0), ((2, 0, 1), 1.0),
    ((2, 1, 0), -1.0), ((0, 2, 1), -1.0), ((1, 0, 2), -1.0),
]:
    EPSILON3[_perm] = _sign


def frobenius(matrix: np.ndarray) -> float:
    """Frobenius norm, the default size measure for residual matrices."""
    return float(np.linalg.norm(matrix))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


@dataclass(frozen=True)
class GammaRep:
    """A concrete 4x4 realization of the Dirac algebra.

    ``gammas`` stacks gamma^0..gamma^3 along the first axis; ``alphas``
    stacks alpha^mu = gamma^0 gamma^mu (so alpha^0 is the identity) and
    ``gamma5`` is i gamma^0 gamma^1 gamma^2 gamma^3.  ``basis`` holds
    the 16 single-particle basis matrices, derived from these and indexed
    ``[class, mu]`` in BasisClass order.
    """

    name: str
    gammas: np.ndarray
    gamma5: np.ndarray
    alphas: np.ndarray
    basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g5 = self.gamma5
        basis = np.stack([*self.alphas, *(g5 @ a for a in self.alphas),
                          *self.gammas, *(g5 @ g for g in self.gammas)])
        object.__setattr__(self, "basis", basis.reshape(4, 4, 4, 4))


_EYE2, _ZERO2 = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)


def _rep_with_gamma0(name: str, gamma0: np.ndarray) -> GammaRep:
    """The representation with this gamma^0 and the spatial gamma^a that
    the Dirac and Weyl representations share; gamma5 and alpha^mu follow."""
    gammas = np.stack([gamma0, *(np.block([[_ZERO2, s], [-s, _ZERO2]])
                                 for s in _SIGMA)])
    gamma5 = 1j * gammas[0] @ gammas[1] @ gammas[2] @ gammas[3]
    alphas = np.stack([gammas[0] @ gammas[mu] for mu in range(4)])
    return GammaRep(name=name, gammas=gammas, gamma5=gamma5, alphas=alphas)


def build_dirac_rep() -> GammaRep:
    """Standard (Dirac-Pauli) representation: gamma^0 diagonal."""
    return _rep_with_gamma0(
        "dirac", np.block([[_EYE2, _ZERO2], [_ZERO2, -_EYE2]]))


def build_weyl_rep() -> GammaRep:
    """Chiral (Weyl) representation: gamma5 diagonal."""
    return _rep_with_gamma0(
        "weyl", np.block([[_ZERO2, _EYE2], [_EYE2, _ZERO2]]))


# The structure constants, shared by every representation (Pauli's theorem)
# and read off the Dirac matrices, flat-indexed 4 * class + mu like
# GammaRep.basis: B_i B_j = PRODUCT_PHASE[i, j] B_k, k = PRODUCT_INDEX[i, j].
# B_i squares to phase[i, i]; B_i, B_j anticommute unless phase[i, j] =
# phase[j, i]; a unitary representation has B_i^dag = phase[i, i] B_i.
# DIRAC (read-only, like the table) also gives the solver's components.
DIRAC = build_dirac_rep()
for _array in (DIRAC.gammas, DIRAC.gamma5, DIRAC.alphas, DIRAC.basis):
    _array.flags.writeable = False
_BASIS = DIRAC.basis.reshape(16, 4, 4)
# the coefficient of B_k in B_i B_j is tr(B_k^dag B_i B_j) / 4
_COEFFICIENTS = np.einsum("kab,ijab->ijk", _BASIS.conj(),
                          _BASIS[:, None] @ _BASIS[None, :]) / 4
PRODUCT_INDEX = np.argmax(np.abs(_COEFFICIENTS), axis=-1)
PRODUCT_PHASE = np.round(np.take_along_axis(
    _COEFFICIENTS, PRODUCT_INDEX[..., None], -1)[..., 0])
PRODUCT_INDEX.flags.writeable = PRODUCT_PHASE.flags.writeable = False


def verify_clifford(rep: GammaRep) -> dict[str, float]:
    """Residuals of the defining identities of a representation.

    Returns a map from identity name to Frobenius residual; all entries
    are expected below ALGEBRA_TOL for a valid representation.
    """
    eye = np.eye(4)
    anticomm = 0.0
    for mu in range(4):
        for nu in range(4):
            lhs = anticommutator(rep.gammas[mu], rep.gammas[nu])
            anticomm = max(
                anticomm, frobenius(lhs - 2.0 * MINKOWSKI_METRIC[mu, nu] * eye)
            )
    hermitian0 = frobenius(rep.gammas[0] - rep.gammas[0].conj().T)
    antiherm = max(
        frobenius(rep.gammas[a] + rep.gammas[a].conj().T) for a in (1, 2, 3)
    )
    g5 = rep.gamma5
    g5_def = frobenius(
        g5 - 1j * rep.gammas[0] @ rep.gammas[1] @ rep.gammas[2] @ rep.gammas[3]
    )
    g5_sq = frobenius(g5 @ g5 - eye)
    g5_anti = max(frobenius(anticommutator(g5, rep.gammas[mu])) for mu in range(4))
    alpha0 = frobenius(rep.alphas[0] - eye)
    return {
        "anticommutation": anticomm,
        "gamma0_hermitian": hermitian0,
        "spatial_antihermitian": antiherm,
        "gamma5_definition": g5_def,
        "gamma5_squares_to_one": g5_sq,
        "gamma5_anticommutes": g5_anti,
        "alpha0_is_identity": alpha0,
    }


# ---------------------------------------------------------------------------
# 16-element operator basis and tensor embeddings
# ---------------------------------------------------------------------------

class BasisClass(Enum):
    ALPHA = "alpha"
    G5ALPHA = "g5alpha"
    GAMMA = "gamma"
    G5GAMMA = "g5gamma"


@dataclass(frozen=True)
class BasisElement:
    """One of the 16 single-particle basis matrices, tagged (class, mu)."""

    cls: BasisClass
    mu: int

    def label(self) -> str:
        return f"{self.cls.value}{self.mu}"


IDENTITY_ELEMENT = BasisElement(BasisClass.ALPHA, 0)
GAMMA5_ELEMENT = BasisElement(BasisClass.G5ALPHA, 0)


_CLASS_INDEX = {cls: i for i, cls in enumerate(BasisClass)}
_ELEMENTS = tuple(BasisElement(cls, mu) for cls in BasisClass for mu in range(4))


def single_matrix(element: BasisElement, rep: GammaRep) -> np.ndarray:
    """Realize a basis element as a 4x4 matrix in the given representation."""
    return rep.basis[_CLASS_INDEX[element.cls], element.mu]


def basis16(rep: GammaRep) -> list[tuple[BasisElement, np.ndarray]]:
    """The 16 basis elements with their matrices, in canonical order."""
    return list(zip(_ELEMENTS, rep.basis.reshape(16, 4, 4)))


@dataclass(frozen=True)
class TensorBasisElement:
    """A product-basis element: one BasisElement per spinor factor."""

    factors: tuple[BasisElement, ...]

    @property
    def n_particles(self) -> int:
        return len(self.factors)

    def label(self) -> str:
        return "*".join(f.label() for f in self.factors)


def tensor_element(*factors: BasisElement) -> TensorBasisElement:
    return TensorBasisElement(tuple(factors))


def on_particle(element: BasisElement, k: int,
                n_particles: int) -> TensorBasisElement:
    """element on factor k (1-based) of N factors, the identity on the others."""
    return TensorBasisElement(tuple(
        element if i == k else IDENTITY_ELEMENT
        for i in range(1, n_particles + 1)))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of two square matrices."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        len(a) * len(b), -1)


def realize(element: TensorBasisElement, rep: GammaRep) -> np.ndarray:
    """Kronecker-product realization of a tensor-basis element."""
    mats = [single_matrix(f, rep) for f in element.factors]
    return reduce(_kron, mats)


def _flat_index(element: BasisElement) -> int:
    return 4 * _CLASS_INDEX[element.cls] + element.mu


def element_product(
        a: TensorBasisElement,
        b: TensorBasisElement) -> tuple[complex, TensorBasisElement]:
    """(phase, c) with a b = phase c, factor by factor from the table."""
    phase = 1
    factors = []
    for x, y in zip(a.factors, b.factors):
        i, j = _flat_index(x), _flat_index(y)
        phase *= PRODUCT_PHASE[i, j]
        factors.append(_ELEMENTS[PRODUCT_INDEX[i, j]])
    return phase, TensorBasisElement(tuple(factors))


def square_sign(element: TensorBasisElement) -> float:
    """The sign s of B^2 = s 1 for a tensor-basis element B.

    In a unitary representation it is also the sign of B^dag = s B.
    """
    return float(element_product(element, element)[0].real)


def anticommute(a: TensorBasisElement, b: TensorBasisElement) -> bool:
    """True when a b = -b a; tensor-basis elements otherwise commute."""
    return element_product(a, b)[0] == -element_product(b, a)[0]


# ---------------------------------------------------------------------------
# Operator fields
# ---------------------------------------------------------------------------

#: The operator sum_m c_m B_m at every point of a configuration stack, kept
#: as {tensor-basis element B_m: coefficient array c_m}; the arrays
#: broadcast against each other and against the stack's leading shape.
OperatorField = dict[TensorBasisElement, np.ndarray]


def unit_field(element: BasisElement, k: int,
               n_particles: int) -> OperatorField:
    """{on_particle(element, k, n_particles): 1}."""
    return {on_particle(element, k, n_particles): 1.0}


def field_sum(*terms: tuple[complex, OperatorField]) -> OperatorField:
    """sum_t w_t a_t of weighted fields (w_t, a_t), added in order."""
    out: OperatorField = {}
    for weight, operand in terms:
        for element, value in operand.items():
            value = weight * value
            out[element] = out[element] + value if element in out else value
    return out


def field_product(a: OperatorField, b: OperatorField) -> OperatorField:
    """The pointwise product a b, one table lookup per pair of terms."""
    products = (element_product(element_a, element_b)
                + (value_a * value_b,)
                for element_a, value_a in a.items()
                for element_b, value_b in b.items())
    return field_sum(*((phase, {element: value})
                       for phase, element, value in products))


def field_commutator(a: OperatorField, b: OperatorField) -> OperatorField:
    """[a, b] pair by pair: B_a B_b - B_b B_a is 0 or 2 B_a B_b.

    A commuting pair still adds 0 * c_a c_b, so a non-finite coefficient
    makes the commutator non-finite, as it makes a b - b a.
    """
    return field_sum(*(
        (2 * anticommute(element_a, element_b),
         field_product({element_a: value_a}, {element_b: value_b}))
        for element_a, value_a in a.items()
        for element_b, value_b in b.items()))


def field_norm(operand: OperatorField, n_particles: int) -> np.ndarray:
    """Pointwise Frobenius norm sqrt(4^N sum_m |c_m|^2) of sum_m c_m B_m.

    The basis is orthogonal, with tr(B_m^dag B_n) = 4^N delta_mn.
    """
    squares = sum(np.real(value) ** 2 + np.imag(value) ** 2
                  for value in operand.values())
    return np.sqrt(4 ** n_particles * squares)


def embed(matrix: np.ndarray, k: int, n_particles: int) -> np.ndarray:
    """Let a one-particle matrix act on spinor factor k (1-based) of N factors."""
    if not 1 <= k <= n_particles:
        raise ValueError(f"particle index {k} outside 1..{n_particles}")
    left = np.eye(4 ** (k - 1), dtype=complex)
    right = np.eye(4 ** (n_particles - k), dtype=complex)
    return _kron(_kron(left, matrix), right)


def _per_factor(tensor: np.ndarray, op: np.ndarray, n: int) -> np.ndarray:
    """Apply the 16x16 matrix op to each of the n axes of a (16,)*n tensor."""
    for _ in range(n):
        # contracts the last axis and puts the result first, so after n
        # passes the axes are back in particle order
        tensor = np.tensordot(op, tensor, axes=([1], [n - 1]))
    return tensor


def _factor_pairs(n_particles: int) -> list[int]:
    """Axis order (i1, j1, ..., iN, jN) of a (4,)*2N reshaped matrix."""
    return [axis for k in range(n_particles)
            for axis in (k, n_particles + k)]


def decompose(
    matrix: np.ndarray, n_particles: int, rep: GammaRep
) -> dict[TensorBasisElement, complex]:
    """Hilbert-Schmidt coefficients of a matrix over the product basis.

    Every basis matrix B satisfies tr(B^dag B) = 4^N, so the coefficient
    of B is tr(B^dag M) / 4^N.  The returned map contains all 16^N keys.
    """
    dim = 4**n_particles
    matrix = np.asarray(matrix)
    if matrix.shape != (dim, dim):
        raise ValueError(f"expected {(dim, dim)} matrix, got {matrix.shape}")
    pairs = matrix.reshape((4,) * (2 * n_particles)).transpose(
        _factor_pairs(n_particles)).reshape((16,) * n_particles)
    values = _per_factor(pairs, rep.basis.reshape(16, 16).conj(),
                         n_particles).ravel() / dim
    elements = itertools.product(_ELEMENTS, repeat=n_particles)
    return {TensorBasisElement(factors): complex(value)
            for factors, value in zip(elements, values)}


def reconstruct(coeffs: OperatorField, n_particles: int, rep: GammaRep,
                shape: tuple[int, ...] = ()) -> np.ndarray:
    """Inverse of decompose: sum of coefficient times basis matrix.

    The one assembly of matrices from coefficients: for an operator field
    the result is (..., 4^N, 4^N), its leading shape broadcast from
    `shape` and the coefficient arrays' shapes.
    """
    dim = 4 ** n_particles
    shape = np.broadcast_shapes(shape, *map(np.shape, coeffs.values()))
    total = np.zeros(shape + (dim, dim), complex)
    for element, value in coeffs.items():
        if element.n_particles != n_particles:
            raise ValueError(f"{element.label()} has {element.n_particles} "
                             f"factors, expected {n_particles}")
        total += np.asarray(value)[..., None, None] * realize(element, rep)
    return total


# ---------------------------------------------------------------------------
# Commutators of alpha^a with the basis
# ---------------------------------------------------------------------------

def commutator_table(rep: GammaRep) -> list[tuple[str, np.ndarray, float]]:
    """All commutators [alpha^a, B] against their closed forms.

    Returns one (description, commutator matrix, residual) triple per
    concrete (a, B) instance.  Each B is X alpha^mu or X gamma^mu with
    X in {1, gamma5}, and the closed forms are two rules:

        [alpha^a, X alpha^b] = 2i eps_abc (gamma5 X) alpha^c
                               ([alpha^a, X alpha^0] = 0)
        [alpha^a, X gamma^0] = -2 X gamma^a,
        [alpha^a, X gamma^b] = -2 delta_ab X gamma^0
    """
    rows: list[tuple[str, np.ndarray, float]] = []
    for a in (1, 2, 3):
        for element, mat in basis16(rep):
            b = element.mu
            x = (rep.gamma5 if element.cls in (BasisClass.G5ALPHA,
                                               BasisClass.G5GAMMA)
                 else rep.alphas[0])
            if element.cls in (BasisClass.ALPHA, BasisClass.G5ALPHA):
                expected = sum(
                    (2j * EPSILON3[a - 1, b - 1, c - 1] * rep.gamma5 @ x
                     @ rep.alphas[c] for c in (1, 2, 3) if b),
                    np.zeros((4, 4), complex))
            elif b == 0:
                expected = -2.0 * x @ rep.gammas[a]
            else:
                expected = -2.0 * (a == b) * x @ rep.gammas[0]
            actual = commutator(rep.alphas[a], mat)
            rows.append((f"[alpha{a}, {element.label()}]", actual,
                         frobenius(actual - expected)))
    return rows
