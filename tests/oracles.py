"""Independent numerical oracles shared across test modules."""

from __future__ import annotations

import itertools
import math
import operator
from functools import reduce

import numpy as np
import scipy.linalg
import sympy

from mtdirac.clifford import (
    _ELEMENTS,
    DIRAC,
    GAMMA5_ELEMENT,
    IDENTITY_ELEMENT,
    BasisClass,
    BasisElement,
    GammaRep,
    TensorBasisElement,
    commutator,
    embed,
    field_norm,
    field_sum,
    realize,
    reconstruct,
    unit_field,
)
from mtdirac.consistency import curvature_operator
from mtdirac.dsl import BinOp, Call, Const, Coord, Neg, Param, Pow, \
    differentiate, evaluate, is_zero
from mtdirac.potential import (
    COEFFICIENT_LAYOUT,
    FIELD_NAMES,
    SpecError,
    coefficient_field,
    differentiate_potential,
    evaluate_potential,
    operator_field,
    stack_coords,
)
from mtdirac.symmetry import _conjugation, inverse


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


_SYMPY_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                    "/": operator.truediv}


def to_sympy(expr):
    """A DSL expression as a sympy expression, built from its own rules.

    Coordinate x_{k,mu} becomes the real Symbol ``xK_MU``, a parameter the
    Symbol of its name (its bound value is left to subs); a constant keeps
    its exact float parts.
    """
    match expr:
        case Const(value):
            return sympy.Float(value.real) + sympy.I * sympy.Float(value.imag)
        case Param(name, _):
            return sympy.Symbol(name)
        case Coord(k, mu):
            return sympy.Symbol(f"x{k}_{mu}", real=True)
        case Neg(arg):
            return -to_sympy(arg)
        case BinOp(op, left, right):
            return _SYMPY_OPERATORS[op](to_sympy(left), to_sympy(right))
        case Pow(base, exponent):
            return to_sympy(base) ** exponent
        case Call(func, arg):
            return getattr(sympy, func)(to_sympy(arg))
    raise TypeError(expr)


def conjugate_rep(rep: GammaRep, u: np.ndarray) -> GammaRep:
    """Another representation: every matrix of rep conjugated by a unitary u,
    M -> u M u^dag, for checks that a result does not depend on the rep."""
    uh = u.conj().T
    return GammaRep(rep.name + "-conjugated", u @ rep.gammas @ uh,
                    u @ rep.gamma5 @ uh, u @ rep.alphas @ uh)


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


def reference_lorentz_lift(kind: str, axis, parameter: float, rep):
    """Boost ("boost") or rotation ("rotation") by scipy's expm.

    Returns (Lambda, S): Lambda = expm(parameter G) for the 4x4 generator
    G, and S = expm(-parameter X / 2), X = alpha_n for a boost and
    -i Sigma_n for a rotation, the sign convention of make_boost and
    make_rotation (-S lifts the same Lambda).  Asserts first that S
    intertwines Lambda, S gamma^mu = Lambda^mu_nu gamma^nu S, to 1e-12
    relative to max |Lambda| ||S||: no inverse of S, whose condition
    number is e^|parameter| for a boost, enters.
    """
    n = np.asarray(axis, float) / np.linalg.norm(axis)
    alpha_n = sum(n[a] * rep.alphas[a + 1] for a in range(3))
    generator = np.zeros((4, 4))
    if kind == "boost":
        generator[0, 1:] = n
        generator[1:, 0] = n
        spin = alpha_n
    else:
        for a, b, c in itertools.permutations(range(3)):
            sign = np.linalg.det(np.eye(3)[[a, b, c]])
            generator[a + 1, b + 1] -= sign * n[c]
        spin = -1j * rep.gamma5 @ alpha_n
    lorentz = scipy.linalg.expm(parameter * generator)
    spinor = scipy.linalg.expm(-0.5 * parameter * spin)
    defect = max(np.linalg.norm(
        spinor @ rep.gammas[mu]
        - sum(lorentz[mu, nu] * rep.gammas[nu] for nu in range(4)) @ spinor)
        for mu in range(4))
    assert defect <= 1e-12 * np.max(np.abs(lorentz)) * np.linalg.norm(spinor)
    return lorentz, spinor


def lift_matrix(spinor: np.ndarray, rep) -> np.ndarray:
    """A spinor lift's 16 basis coefficients realized as a 4x4 matrix."""
    singles = [BasisElement(cls, mu) for cls in BasisClass for mu in range(4)]
    return reconstruct({TensorBasisElement((element,)): value
                        for element, value in zip(singles, spinor)}, 1, rep)


def reference_poincare_residual(system, transform, samples, rep) -> float:
    """sup over samples and particles of the dense covariance defect

        || V_k(X) - (S x..x S) V_k(Lambda^-1(x_1 - a), ...) (S^-1 x..x S^-1) ||_F

    with the lift S realized in `rep`, the potentials assembled as
    (S, 4^N, 4^N) matrices, S x..x S built by np.kron and inverted
    numerically, one Frobenius norm per sample.
    """
    samples = np.asarray(samples, float)
    lam_inv = np.linalg.inv(transform.lorentz)
    big_s = reduce(np.kron, [lift_matrix(transform.spinor, rep)]
                   * system.n_particles)
    big_s_inv = np.linalg.inv(big_s)
    pulled_back = (samples - transform.translation) @ lam_inv.T
    worst = 0.0
    for potential in system.potentials:
        v_here = evaluate_potential(potential, stack_coords(samples), rep)
        v_there = evaluate_potential(potential, stack_coords(pulled_back),
                                     rep)
        defect = v_here - big_s @ v_there @ big_s_inv
        norms = np.linalg.norm(defect.reshape(-1, *big_s.shape), axis=(1, 2))
        worst = max(worst, float(np.max(norms, initial=0.0)))
    return worst


def reference_poincare_sweep(system, transforms, samples) -> list[float]:
    """poincare_residual one transform at a time: each transform evaluates
    the potentials at the samples and at its own pull-back, and its images
    B_m -> [(B_n, R[n, m])] come from one flatnonzero per column of R."""
    out = []
    for transform in transforms:
        pulled_back = inverse(transform).apply(samples)
        r = _conjugation(transform.spinor)
        cutoff = 16 * np.finfo(float).eps * np.max(np.abs(r))
        images = {source: [(_ELEMENTS[n], r[n, m])
                           for n in np.flatnonzero(np.abs(r[:, m]) > cutoff)]
                  for m, source in enumerate(_ELEMENTS)}
        worst = 0.0
        with np.errstate(all="ignore"):
            for potential in system.potentials:
                here = operator_field(potential, stack_coords(samples))
                there = operator_field(potential, stack_coords(pulled_back))
                conjugated = field_sum(*(
                    (math.prod(w for _, w in choice),
                     {TensorBasisElement(tuple(e for e, _ in choice)): value})
                    for element, value in there.items()
                    for choice in itertools.product(
                        *map(images.get, element.factors))))
                defect = field_sum((1, here), (-1, conjugated))
                worst = np.maximum(worst, np.max(
                    field_norm(defect, system.n_particles), initial=0.0))
        out.append(float(worst))
    return out


def reference_exponential_form(coefficients, masses, samples) -> dict:
    """The ode_* sups of exponential_form_residual, one max per (mu, nu,
    lam) defect d_nu d_lam P_mu - 4 (Z_lam Z_nu - Y_lam Y_nu) P_mu."""
    coords = stack_coords(samples)
    out = {}
    with np.errstate(all="ignore"):
        for particle, partner in ((1, 2), (2, 1)):
            y, z = ([evaluate(e, coords) for e in coefficients.field(
                        coefficient_field(partner, cls, GAMMA5_ELEMENT))]
                    for cls in (BasisClass.ALPHA, BasisClass.G5ALPHA))
            factor = [[4.0 * (z[lam] * z[nu] - y[lam] * y[nu])
                       for lam in range(4)] for nu in range(4)]
            for name, (owner, cls, other) in COEFFICIENT_LAYOUT.items():
                if owner != particle or cls not in (BasisClass.GAMMA,
                                                    BasisClass.G5GAMMA):
                    continue
                exprs = coefficients.field(name)
                is_mass_field = (cls, other) == (BasisClass.GAMMA,
                                                 IDENTITY_ELEMENT)
                shift = masses[particle - 1] if is_mass_field else 0.0
                defects = []
                for mu in range(4):
                    base_value = (evaluate(exprs[mu], coords)
                                  + (shift if mu == 0 else 0.0))
                    for nu in range(4):
                        first = differentiate(exprs[mu], partner, nu)
                        for lam in range(4):
                            second = differentiate(first, partner, lam)
                            defect = factor[nu][lam] * base_value
                            if not is_zero(second):
                                defect = evaluate(second, coords) - defect
                            defects.append(np.max(np.abs(defect)))
                out[f"ode_{name}"] = float(np.max(defects))
    return out


def reference_probes() -> tuple[np.ndarray, np.ndarray]:
    """classify's probes built as the retired ConfigGrid() built them: the
    (9, 9, 2, 4) grid that moves x1_0 along rows and x2_3 along columns
    over linspace(-1, 1, 9) around the base 0, and the (145, 2, 4) probes,
    the grid's configurations then base + u for 64 u drawn with seed 0
    from [min(values), max(values)]."""
    values = tuple(np.linspace(-1.0, 1.0, 9))
    base = np.asarray(((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)), float)
    grid = np.tile(base, (9, 9, 1, 1))
    grid[:, :, 0, 0], grid[:, :, 1, 3] = np.meshgrid(values, values,
                                                     indexing="ij")
    offsets = np.random.default_rng(0).uniform(min(values), max(values),
                                               size=(64, 2, 4))
    return grid, np.concatenate([grid.reshape(-1, 2, 4), base + offsets])


def reference_locality(coefficients, probes) -> float:
    """sup |d_other (d_mu f_nu - d_nu f_mu)| over every alpha sector's
    in-particle curls, one running np.maximum per derivative."""
    coords = stack_coords(probes)
    locality = 0.0
    with np.errstate(all="ignore"):
        for name1, name2 in (("W1", "W2"), ("X1", "X2"), ("Y1", "Y2"),
                             ("Z1", "Z2")):
            f = (coefficients.field(name1), coefficients.field(name2))
            for (own, other), exprs in zip(((1, 2), (2, 1)), f):
                for mu, nu in itertools.combinations(range(4), 2):
                    curl = BinOp("-", differentiate(exprs[nu], own, mu),
                                 differentiate(exprs[mu], own, nu))
                    for lam in range(4):
                        moved = evaluate(differentiate(curl, other, lam),
                                         coords)
                        locality = np.maximum(locality,
                                              np.max(np.abs(moved)))
    return float(locality)


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
    hamiltonian = (rep.alphas[3][None] * kappa[:, None, None]
                   + rep.gammas[0][None] * system.mass(particle))
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


def product_values(grid, spinor1, spinor2, width: float, centers,
                   momenta) -> np.ndarray:
    """A product state formed whole, (n, n, 16) position values
    (g_1 x g_2) x (s_1 x s_2) / ||.||: g_k is the packet
    exp(-(z - c_k)^2 / (2 width^2) + i p_k z) at the grid's positions,
    the spin index is s = 4 s_1 + s_2, and the norm is the grid's L2
    sum over all n^2 16 values."""
    zs = grid.positions()
    g1, g2 = (np.exp(-(zs - c) ** 2 / (2 * width ** 2) + 1j * p * zs)
              for c, p in zip(centers, momenta))
    spin = np.einsum("a,b->ab", np.asarray(spinor1, complex),
                     np.asarray(spinor2, complex)).reshape(16)
    values = np.multiply.outer(np.multiply.outer(g1, g2), spin)
    return values / (np.sqrt(np.sum(np.abs(values) ** 2)) * grid.spacing)


def exact_modes(system, psi0, total_time: float, order, modes) -> np.ndarray:
    """The two-time solution's Fourier coefficients after evolving psi0
    by T in t_order[0], then by T in t_order[1] (to (T, T) from times
    (0, 0)), for a system whose V_k depend on the times alone.

    Each Fourier mode (kappa_1, kappa_2) of psi0's joint transform then
    evolves by its own 16x16 linear ODE, i d psi^/dt_k = (alpha3_k
    kappa_k + gamma0_k m_k + V_k(t_1, t_2)) psi^, solved by scipy's DOP853
    at rtol 1e-13; H_k comes from unit_field and reconstruct, V_k from
    operator_field at the times, and nothing from the solver's splitting.
    modes are (i_1, i_2) index pairs; returns (len(modes), 16) in fft2's
    unnormalized units.
    """
    import scipy.integrate

    kappa, times = psi0.grid.momenta(), list(psi0.times)
    state = np.fft.fft2(psi0.values, axes=(0, 1))[tuple(zip(*modes))]
    scale = np.max(np.abs(state))
    for k in order:
        free = np.stack([reconstruct(field_sum(
            (kappa[mode[k - 1]], unit_field(BasisElement(BasisClass.ALPHA, 3),
                                            k, 2)),
            (system.mass(k), unit_field(BasisElement(BasisClass.GAMMA, 0),
                                        k, 2))), 2, DIRAC) for mode in modes])

        def rhs(t, y, k=k, free=free):
            at = list(times)
            at[k - 1] = t
            potential = reconstruct(operator_field(
                system.potential(k), [[s, 0.0, 0.0, 0.0] for s in at]),
                2, DIRAC)
            return (-1j * (free + potential) @ y.reshape(-1, 16, 1)).ravel()
        solution = scipy.integrate.solve_ivp(
            rhs, (times[k - 1], times[k - 1] + total_time), state.ravel(),
            method="DOP853", rtol=1e-13, atol=1e-15 * scale)
        assert solution.success, solution.message
        state = solution.y[:, -1].reshape(-1, 16)
        times[k - 1] += total_time
    return state


def reference_kernel(phase: np.ndarray, free) -> np.ndarray:
    """phase @ K @ phase per mode, K the free class (cos, terms) summed as
    outer products cos I + sum_i w_i B_i; returns (n, 16, 16)."""
    cos, terms = free
    kernel = np.multiply.outer(cos, np.eye(16)) + sum(
        np.multiply.outer(weight, realize(structure, DIRAC))
        for structure, weight in terms.items())
    return phase @ kernel @ phase


def reference_add_terms(out: np.ndarray, field, values: np.ndarray):
    """out + sum_i a_i (B_i values) term by term, each term formed out of
    place as a_i[..., None] * (values @ B_i^T); out itself is not changed."""
    out = out.copy()
    for structure, weight in field.items():
        out += np.asarray(weight)[..., None] * (
            values @ realize(structure, DIRAC).T)
    return out


def reference_curvature(system, configs: np.ndarray, rep):
    """F_12 expanded term by term from dH_1/dt_2 - dH_2/dt_1 - i [H_1, H_2].

    configs is one (2, 4) configuration or a stack (..., 2, 4); returns
    (zeroth, first) with first keyed by (particle, spatial direction),
    so that F_12 = zeroth + sum first[(k, a)] d/dx_{k,a}.
    """
    configs = np.asarray(configs, float)
    coords = [[configs[..., k, mu] for mu in range(4)] for k in range(2)]
    pot_1, pot_2 = system.potential(1), system.potential(2)
    v_1 = evaluate_potential(pot_1, coords, rep)
    v_2 = evaluate_potential(pot_2, coords, rep)
    m_1, m_2 = system.masses

    def d_pot(potential, k, mu):
        return evaluate_potential(
            differentiate_potential(potential, k, mu), coords, rep)

    # dH_1/dt_2 - dH_2/dt_1 (only the potentials depend on the times)
    zeroth = d_pot(pot_1, 2, 0) - d_pot(pot_2, 1, 0)
    # -i [H_1, H_2]: cross terms of kinetic, mass, and potential parts
    cross = (commutator(v_1, v_2)
             + m_1 * commutator(embed(rep.gammas[0], 1, 2), v_2)
             - m_2 * commutator(embed(rep.gammas[0], 2, 2), v_1))
    for a in (1, 2, 3):
        cross = (cross
                 - 1j * embed(rep.alphas[a], 1, 2) @ d_pot(pot_2, 1, a)
                 + 1j * embed(rep.alphas[a], 2, 2) @ d_pot(pot_1, 2, a))
    zeroth = zeroth - 1j * cross
    first = {}
    for a in (1, 2, 3):
        first[(1, a)] = -commutator(embed(rep.alphas[a], 1, 2), v_2)
        first[(2, a)] = commutator(embed(rep.alphas[a], 2, 2), v_1)
    return zeroth, first


def curvature_image(system, psi) -> np.ndarray:
    """F psi at psi's times on the grid, (n, n, 16), formed whole.

    F is the line model's (derivatives along t and z alone), built by
    curvature_operator at every configuration x_k = (t_k, 0, 0, z_k) of
    the grid; each part is reconstructed into dense 16x16 matrices, a row
    of configurations at a time, and applied to psi's formed values, and
    d psi / d z_k is the FFT derivative of those values along z_k.  psi
    itself is not touched.
    """
    n, values = psi.grid.points, psi._view().values
    configs = np.zeros((n, n, 2, 4))
    configs[..., 0, 0], configs[..., 1, 0] = psi.times
    zs = psi.grid.positions()
    configs[..., 0, 3], configs[..., 1, 3] = zs[:, None], zs[None, :]
    curvature = curvature_operator(system, configs, directions=(0, 3))
    kappa = 2j * np.pi * np.fft.fftfreq(n, psi.grid.spacing)
    parts = [(curvature.zeroth, values)] + [
        (curvature.first[(k, 3)], np.fft.ifft(np.fft.fft(values, axis=k - 1)
                                              * kappa.reshape(shape),
                                              axis=k - 1))
        for k, shape in ((1, (n, 1, 1)), (2, (n, 1)))]
    image = np.zeros_like(values)
    for field, state in parts:
        for x in range(n):
            matrices = reconstruct({b: np.broadcast_to(w, (n, n))[x]
                                    for b, w in field.items()}, 2, DIRAC, (n,))
            image[x] += np.einsum("yij,yj->yi", matrices, state[x])
    return image


def reference_cc(coefficients, masses, samples) -> dict[str, float]:
    """cc1..cc16 written out field by field from the coefficient form.

    Each family is a 4x4 grid over (mu, nu), mu indexing particle-1 fields
    and nu particle-2 fields; the value is the sup of |residual| over the
    grid and the samples.  The masses join the time components of A and E.
    """
    samples = np.asarray(samples, float)
    coords = [[samples[..., k, mu] for mu in range(4)] for k in range(2)]
    m1, m2 = masses

    def ev(expr):
        return np.asarray(evaluate(expr, coords))

    v = {name: [ev(expr) for expr in coefficients.field(name)]
         for name in FIELD_NAMES}
    a = [v["A"][mu] + (m1 if mu == 0 else 0.0) for mu in range(4)]
    e = [v["E"][nu] + (m2 if nu == 0 else 0.0) for nu in range(4)]

    def d(name, k, comp, var):
        """d_{k,var} of component comp of field name."""
        return ev(differentiate(coefficients.field(name)[comp], k, var))

    def d1(name, mu, nu):  # a particle-2 field, differentiated on particle 1
        return d(name, 1, nu, mu)

    def d2(name, mu, nu):  # a particle-1 field, differentiated on particle 2
        return d(name, 2, mu, nu)

    half_i = 0.5j
    families = {
        "cc1": lambda mu, nu: d1("W2", mu, nu) - d2("W1", mu, nu),
        "cc2": lambda mu, nu: d1("X2", mu, nu) - d2("X1", mu, nu),
        "cc3": lambda mu, nu: d1("Y2", mu, nu) - d2("Y1", mu, nu),
        "cc4": lambda mu, nu: d1("Z2", mu, nu) - d2("Z1", mu, nu),
        "cc5": lambda mu, nu: (v["B"][mu] * v["Y2"][nu]
                               + v["D"][mu] * v["Z2"][nu]
                               - half_i * d2("A", mu, nu)),
        "cc6": lambda mu, nu: (a[mu] * v["Y2"][nu] + v["C"][mu] * v["Z2"][nu]
                               - half_i * d2("B", mu, nu)),
        "cc7": lambda mu, nu: (v["B"][mu] * v["Z2"][nu]
                               + v["D"][mu] * v["Y2"][nu]
                               - half_i * d2("C", mu, nu)),
        "cc8": lambda mu, nu: (a[mu] * v["Z2"][nu] + v["C"][mu] * v["Y2"][nu]
                               - half_i * d2("D", mu, nu)),
        "cc9": lambda mu, nu: (v["F"][nu] * v["X1"][mu]
                               + v["H"][nu] * v["Z1"][mu]
                               - half_i * d1("E", mu, nu)),
        "cc10": lambda mu, nu: (e[nu] * v["X1"][mu] + v["G"][nu] * v["Z1"][mu]
                                - half_i * d1("F", mu, nu)),
        "cc11": lambda mu, nu: (v["F"][nu] * v["Z1"][mu]
                                + v["H"][nu] * v["X1"][mu]
                                - half_i * d1("G", mu, nu)),
        "cc12": lambda mu, nu: (e[nu] * v["Z1"][mu] + v["G"][nu] * v["X1"][mu]
                                - half_i * d1("H", mu, nu)),
        "cc13": lambda mu, nu: (v["B"][mu] * v["G"][nu]
                                - v["C"][mu] * v["F"][nu]),
        "cc14": lambda mu, nu: v["B"][mu] * v["H"][nu] - v["C"][mu] * e[nu],
        "cc15": lambda mu, nu: a[mu] * v["G"][nu] - v["D"][mu] * v["F"][nu],
        "cc16": lambda mu, nu: a[mu] * v["H"][nu] - v["D"][mu] * e[nu],
    }
    return {name: float(max(np.max(np.abs(residual(mu, nu)))
                            for mu in range(4) for nu in range(4)))
            for name, residual in families.items()}


def reference_cross_curl(coefficients, configs) -> float:
    """sup |d_{1,mu} f_{2,nu} - d_{2,nu} f_{1,mu}| over the configurations.

    The alpha-sector fields are paired by their gamma5 content, (W1, W2),
    (X1, X2), (Y1, Y2) and (Z1, Z2), and each cross curl is written out
    from the derivatives of the expressions.
    """
    configs = np.asarray(configs, float)
    coords = [[configs[..., k, mu] for mu in range(4)] for k in range(2)]
    sup = 0.0
    for name1, name2 in (("W1", "W2"), ("X1", "X2"), ("Y1", "Y2"),
                         ("Z1", "Z2")):
        f1, f2 = coefficients.field(name1), coefficients.field(name2)
        for mu in range(4):
            for nu in range(4):
                defect = (evaluate(differentiate(f2[nu], 1, mu), coords)
                          - evaluate(differentiate(f1[mu], 2, nu), coords))
                sup = max(sup, float(np.max(np.abs(defect))))
    return sup


def reference_matrix_cross_curl(system, configs, rep) -> float:
    """The cross curls of reference_cross_curl, read off matrices in rep.

    The derivatives d_{2,nu} V_1 and d_{1,mu} V_2 are realized as 16x16
    matrices, and each alpha-sector coefficient is the trace
    tr(B^dag M) / 16 against its product-basis matrix B built from rep.
    """
    coords = stack_coords(configs)

    def projection(field_name: str, mu: int, matrices) -> np.ndarray:
        particle, cls, other = COEFFICIENT_LAYOUT[field_name]
        own = BasisElement(cls, mu)
        factors = (own, other) if particle == 1 else (other, own)
        basis = np.kron(*(_basis_matrix(f, rep) for f in factors))
        return np.einsum("ij,...ij->...", basis.conj(), matrices) / 16

    d2_v1 = [evaluate_potential(differentiate_potential(system.potential(1),
                                                        2, nu), coords, rep)
             for nu in range(4)]
    d1_v2 = [evaluate_potential(differentiate_potential(system.potential(2),
                                                        1, mu), coords, rep)
             for mu in range(4)]
    sup = 0.0
    for name1, name2 in (("W1", "W2"), ("X1", "X2"), ("Y1", "Y2"),
                         ("Z1", "Z2")):
        for mu in range(4):
            for nu in range(4):
                defect = (projection(name2, nu, d1_v2[mu])
                          - projection(name1, mu, d2_v1[nu]))
                sup = max(sup, float(np.max(np.abs(defect))))
    return sup


def reference_is_spacelike(coords: np.ndarray) -> bool:
    """True when every particle pair of one configuration (N, 4) is
    spacelike separated at a finite distance, tested pair by pair."""
    n = coords.shape[0]
    for j in range(n):
        for k in range(j + 1, n):
            dt = coords[j, 0] - coords[k, 0]
            dx = coords[j, 1:] - coords[k, 1:]
            if not dt * dt < float(dx @ dx) < np.inf:
                return False
    return True


def reference_sample_spacelike(n_samples: int, rng: np.random.Generator,
                               n_particles: int = 2) -> np.ndarray:
    """Spacelike rejection sampling one candidate at a time.

    Each candidate is one (N, 4) draw from [-2, 2]^(N*4); 10,000
    rejections in a row for one sample raise SpecError.
    """
    out = np.empty((n_samples, n_particles, 4))
    for i in range(n_samples):
        for _ in range(10000):
            candidate = rng.uniform(-2.0, 2.0, size=(n_particles, 4))
            if reference_is_spacelike(candidate):
                out[i] = candidate
                break
        else:
            raise SpecError("no spacelike configuration")
    return out
