"""Independent numerical oracles shared across test modules."""

from __future__ import annotations

import itertools
from functools import reduce

import numpy as np
import scipy.linalg

from mtdirac.clifford import BasisClass, BasisElement, TensorBasisElement
from mtdirac.potential import evaluate_potential


def fd_partial(f, coords: np.ndarray, k: int, mu: int, h: float = 1e-5):
    """Central-difference partial of f(coords) at coordinate (k, mu).

    One Richardson extrapolation level on top of the second-order
    central stencil, giving ~h^4 truncation error.
    """
    def central(step):
        up = coords.astype(float).copy()
        dn = coords.astype(float).copy()
        up[k - 1, mu] += step
        dn[k - 1, mu] -= step
        return (f(up) - f(dn)) / (2 * step)

    coarse = central(h)
    fine = central(h / 2)
    return (4 * fine - coarse) / 3


def fd_matrix_partial(f, coords: np.ndarray, k: int, mu: int, h: float = 1e-5):
    """Same stencil for matrix-valued functions of a configuration."""
    def central(step):
        up = coords.astype(float).copy()
        dn = coords.astype(float).copy()
        up[k - 1, mu] += step
        dn[k - 1, mu] -= step
        return (np.asarray(f(up)) - np.asarray(f(dn))) / (2 * step)

    coarse = central(h)
    fine = central(h / 2)
    return (4 * fine - coarse) / 3


def _basis_matrix(element: BasisElement, rep) -> np.ndarray:
    """A single-particle basis matrix straight from its definition."""
    if element.cls in (BasisClass.ALPHA, BasisClass.G5ALPHA):
        matrix = rep.alphas[element.mu]
    else:
        matrix = rep.gammas[element.mu]
    if element.cls in (BasisClass.G5ALPHA, BasisClass.G5GAMMA):
        matrix = rep.gamma5 @ matrix
    return matrix


def dense_decompose(matrix: np.ndarray, n_particles: int, rep) -> dict:
    """Product-basis coefficients, one trace tr(B^dag M) / 4^N per element B."""
    dim = 4**n_particles
    singles = [BasisElement(cls, mu) for cls in BasisClass for mu in range(4)]
    out = {}
    for factors in itertools.product(singles, repeat=n_particles):
        basis = reduce(np.kron, [_basis_matrix(f, rep) for f in factors])
        out[TensorBasisElement(factors)] = complex(
            np.trace(basis.conj().T @ matrix) / dim)
    return out


def reference_step(psi, particle: int, dt: float, system, rep) -> np.ndarray:
    """One Strang step as the einsum sandwich phase . free . phase.

    The half-step phase is expm(-i (dt/2) V_k) at the midpoint time,
    broadcast over the grid, and the free step is expm(-i dt (alpha3 kappa +
    gamma0 m)) per Fourier mode acting on particle k's 4-component spin
    factor of the (n, n, 4, 4) state; returns the (n, n, 16) values.
    """
    grid = psi.grid
    n = grid.points
    zs = grid.positions()
    mid = list(psi.times)
    mid[particle - 1] += dt / 2
    coords = [[mid[0], 0.0, 0.0, zs[:, None]], [mid[1], 0.0, 0.0, zs[None, :]]]
    potential = evaluate_potential(system.potential(particle), coords, rep)
    phase = scipy.linalg.expm(-0.5j * dt * potential)

    kappa = grid.momenta()
    hamiltonian = (rep.alpha(3)[None] * kappa[:, None, None]
                   + rep.gamma(0)[None] * system.mass(particle))
    multiplier = scipy.linalg.expm(-1j * dt * hamiltonian)

    values = np.einsum("...ij,...j->...i", phase, psi.values)
    axis = particle - 1
    spectral = np.fft.fft(values.reshape(n, n, 4, 4), axis=axis)
    if particle == 1:
        spectral = np.einsum("xab,xybs->xyas", multiplier, spectral)
    else:
        spectral = np.einsum("yab,xysb->xysa", multiplier, spectral)
    values = np.fft.ifft(spectral, axis=axis).reshape(n, n, 16)
    return np.einsum("...ij,...j->...i", phase, values)
