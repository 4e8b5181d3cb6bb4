"""
04_two_time_solver.py

Two-time split-step propagation on the 1+1-dimensional line model.

Both particles live on a periodic line; the state psi(z1, z2) carries a
4x4 spinor pair and two separate time variables.  This script:

  1. Evolves t1 then t2 versus t2 then t1 and fits the discrepancy
     order in dt.  For consistent pairs the orders agree to O(dt^2)
     (pure splitting error); the inconsistent vector coupling leaves an
     order-independent gap.
  2. Drives the state around square loops in the (t1, t2) plane and
     compares deviation/delta^2 against the grid-evaluated curvature
     norm ||F psi0||.  A flat pair (hoho) shows vanishing holonomy; the
     vector coupling converges to ||F psi0|| = 2.
  3. Shows norm conservation and the spacelike-restricted norm.

Expected: no order for free (its discrepancies are round-off), fitted
order ~2 for hoho, discrepancy plateau for example1_vector, loop ratio
-> 2.0 within a few percent.
"""
import numpy as np

from mtdirac import (
    Grid,
    curvature_norm,
    holonomy_series,
    loop_holonomy,
    make_builtin,
    path_independence_experiment,
    product_state,
    spacelike_mask,
)

grid = Grid(length=20.0, points=128)
psi0 = product_state(grid)

# =============================================================================
# 1. Order of the path discrepancy in dt
# =============================================================================

print("=" * 72)
print("Path independence: evolve (t1 then t2) vs (t2 then t1) to T=0.5")
print("=" * 72)
for name in ("free", "hoho", "example1_vector"):
    system = make_builtin(name)
    result = path_independence_experiment(
        system, psi0, 0.5, (0.1, 0.05, 0.025))
    rows = "  ".join(f"dt={dt:g}: {disc:.2e}" for dt, disc in result.rows)
    print(f"    {name:16s} {rows}")
    if np.isnan(result.fitted_order):  # the solver fits no round-off
        print(f"    {'':16s} no order fitted: every discrepancy is round-off")
    else:
        print(f"    {'':16s} fitted order {result.fitted_order:.2f}")

# =============================================================================
# 2. Loop holonomy against the curvature norm
# =============================================================================

print()
print("=" * 72)
print("Square loops (t1:+d, t2:+d, t1:-d, t2:-d)")
print("=" * 72)
free_dev = loop_holonomy(make_builtin("free"), psi0, 0.05)
print(f"    free: deviation {free_dev:.2e} (exactly flat)")

for name in ("hoho", "example1_vector"):
    system = make_builtin(name)
    series = holonomy_series(system, psi0, (0.08, 0.04, 0.02))
    reference = curvature_norm(system, psi0)
    print(f"\n    {name}:  grid ||F psi0|| = {reference:.3f}")
    for delta, deviation, ratio in series.rows:
        print(f"        delta={delta:g}: deviation {deviation:.3e}, "
              f"deviation/delta^2 = {ratio:.3f}")

# =============================================================================
# 3. Norm bookkeeping
# =============================================================================

print()
print("=" * 72)
print("Norms after stepping hoho to (t1, t2) = (0.5, 0.5)")
print("=" * 72)
from mtdirac import Leg, evolve_path

psi = evolve_path(psi0, [Leg(1, 0.5, 0.05), Leg(2, 0.5, 0.05)],
                  make_builtin("hoho"))
mask = spacelike_mask(grid, *psi.times)
print(f"    total norm          : {psi.norm():.12f}")
print(f"    spacelike part      : {psi.norm(mask):.12f}")
print(f"    timelike complement : {psi.norm(~mask):.12f}")
