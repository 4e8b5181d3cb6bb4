"""Strang runs against the exact two-time solution.

The source paper (Petrat & Tumulka's consistency condition, used by
arXiv:1603.02538) makes consistency the condition under which the two
time evolutions have a common solution.  For a pair whose potentials
depend on the times alone, each Fourier mode of the state evolves by a
16x16 linear ODE in each time variable, so `oracles.exact_modes` gives
the solution at (T, T) along either order by one small ODE solve per
leg, sharing no code with the solver's splitting.  A consistent pair's
exact orders agree, and the Strang runs converge to them at second
order; an inconsistent pair's exact orders differ, by as much as its
Strang runs do.
"""

from __future__ import annotations

import numpy as np
import pytest

from mtdirac.consistency import check_consistency
from mtdirac.potential import make_builtin, sample_configs
from mtdirac.solver import Grid, Leg, evolve_path, product_state
from oracles import exact_modes

T = 0.5
DTS = (0.1, 0.05, 0.025)
ORDERS = ((1, 2), (2, 1))
# low and high momenta of each particle, both signs
MODES = [(0, 0), (1, 3), (2, 30), (31, 1), (29, 28)]


def _psi0():
    return product_state(Grid(20.0, 32), spinor1=(0.6, 0.2j, -0.5, 0.3),
                         spinor2=(0.1, 0.7, 0.4j, -0.2), centers=(0.7, -1.1),
                         momenta=(0.8, -0.5))


def _strang_modes(system, psi0, order, dt) -> np.ndarray:
    path = [Leg(k, T, dt) for k in order]
    return evolve_path(psi0, path, system)._space(True)[tuple(zip(*MODES))]


def _relative(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _hoho_draw(seed: int):
    """hoho with drawn hermitian parameters, real C_0 and c_0 and
    imaginary spatial C, and spatial c = 0: a c_3 would make the
    potentials vary over the grid, and a c_1 or c_2 would make them
    depend on a transverse coordinate, which the line model fixes at 0
    (its exact orders then differ by 0.13 relative at c_1 = 0.3)."""
    rng = np.random.default_rng(seed)
    big_c = (rng.uniform(0.5, 1.5), *(1j * rng.uniform(-0.5, 0.5, 3)))
    small_c = (rng.uniform(-1.0, 1.0), 0.0, 0.0, 0.0)
    masses = rng.uniform(0.5, 1.5, 2)
    return make_builtin("hoho", {"C": big_c, "c": small_c,
                                 "m1": masses[0], "m2": masses[1]})


def _assert_second_order(system, seed: int) -> None:
    """The pair reads CONSISTENT, its exact orders agree to 1e-12
    relative, and each order's Strang error against them falls by a
    factor in [3.8, 4.2] per halving of dt."""
    samples = sample_configs(100, np.random.default_rng(seed))
    assert check_consistency(system, samples).verdict == "CONSISTENT"
    psi0 = _psi0()
    exact = [exact_modes(system, psi0, T, order, MODES) for order in ORDERS]
    assert _relative(exact[0], exact[1]) <= 1e-12
    for order, solution in zip(ORDERS, exact):
        errors = [np.linalg.norm(_strang_modes(system, psi0, order, dt)
                                 - solution) for dt in DTS]
        ratios = np.divide(errors[:-1], errors[1:])
        assert np.all((3.8 <= ratios) & (ratios <= 4.2)), (order, errors)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_strang_converges_to_the_exact_solution_at_second_order(seed):
    """On a consistent hoho draw the exact orders agree to 1e-12
    relative, and each order's Strang error against them falls by a
    factor in [3.8, 4.2] per halving of dt."""
    _assert_second_order(_hoho_draw(seed), seed)


# coefficient_form pairs with V_2 = 0 whose V_1 commutes with H_2: alpha1
# x 1 acts on particle 1 alone, so its legs keep spin products; alpha2 x
# gamma5 acts on both, so its legs keep (k, u_k, other), and gamma5_2
# commutes with H_2 = alpha3_2 kappa + gamma0_2 m2 only at m2 = 0
_COEFFICIENT_PAIRS = {"alpha1 x 1": ({"W1": (0, 0.3, 0, 0)}, "_fields"),
                      "alpha2 x gamma5, m2 = 0": (
                          {"X1": (0, 0, 0.3, 0), "m2": 0}, "_leg_factors")}


@pytest.mark.parametrize("label", sorted(_COEFFICIENT_PAIRS))
def test_both_time_only_routes_converge_to_the_exact_solution(label):
    """The exact oracle covers the spin-product route and the (k, u_k,
    other) route alike: each pair's legs take their route, and it passes
    the consistent hoho draws' gates."""
    params, route = _COEFFICIENT_PAIRS[label]
    system = make_builtin("coefficient_form", params)
    leg = evolve_path(_psi0(), [Leg(1, T, DTS[0])], system)
    assert getattr(leg, route) is not None
    _assert_second_order(system, 0)


def test_an_inconsistent_pairs_orders_differ_exactly_as_strangs_do():
    """example1_vector's V_1 = alpha_2^3 commutes with H_1, so each leg's
    Strang steps are exact: they match the exact modes to 1e-12 relative
    at every dt, in both orders, while the exact orders differ by more
    than 1 in fft2's units.  The obstruction is in the equations, not in
    the splitting."""
    system = make_builtin("example1_vector")
    psi0 = _psi0()
    exact = [exact_modes(system, psi0, T, order, MODES) for order in ORDERS]
    assert np.linalg.norm(exact[0] - exact[1]) > 1
    for order, solution in zip(ORDERS, exact):
        for dt in DTS:
            assert _relative(_strang_modes(system, psi0, order, dt),
                             solution) <= 1e-12
