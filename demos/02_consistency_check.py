"""
02_consistency_check.py

Compatibility of two coupled one-time evolution equations.

Two wave equations i d/dt_k psi = H_k psi share one solution only if
the evolutions commute.  This script runs the sampled obstruction tests
on three builtin pairs:

  1. free           -- no potentials; every residual is exactly zero.
  2. hoho           -- the exponential pair; consistent for any choice
                       of its vector parameters.
  3. example1_vector -- a constant vector coupling V_1 = A_mu alpha_2^mu;
                       the second equation's mass term fails to commute
                       with it, leaving a constant obstruction of
                       Frobenius norm 8.

For the coefficient-form pairs the sixteen scalar compatibility families
cc1..cc16 are printed as well.  They are the basis coefficients of the
zeroth-order residual E(1,2) grouped by sector, read off the same field
as the residual sup, so they vanish exactly where the residual does.
"""
import numpy as np

from mtdirac import (build_dirac_rep, check_consistency, make_builtin,
                     sample_configs)

rng = np.random.default_rng(20240817)

# =============================================================================
# Residual summary per system
# =============================================================================

for name in ("free", "hoho", "example1_vector"):
    system = make_builtin(name)
    report = check_consistency(system,
                               sample_configs(100, np.random.default_rng(0)))
    print("=" * 72)
    print(f"{name}   ->   {report.verdict}")
    print("=" * 72)
    print(f"    zeroth-order residual sup : {report.zeroth_sup:.3e}")
    print(f"    derivative-coefficient sup: "
          f"{max(report.deriv_coeff_sup):.3e}")
    if report.cc is not None:
        worst_family = max(report.cc, key=report.cc.get)
        print(f"    scalar families cc1..cc16 : worst {worst_family} = "
              f"{report.cc[worst_family]:.3e}")
    print()

# =============================================================================
# The obstruction of the vector coupling is a single constant matrix
# =============================================================================

print("=" * 72)
print("example1_vector obstruction against the closed form 2 m2 gamma2^3")
print("=" * 72)
# the check takes no representation; only the matrix oracle needs one
oracle = 2.0 * np.kron(np.eye(4), build_dirac_rep().gammas[3])
report = check_consistency(make_builtin("example1_vector"),
                           sample_configs(100, np.random.default_rng(0)))
print(f"    ||oracle||_F = {np.linalg.norm(oracle):.1f}")
print(f"    measured sup = {report.zeroth_sup:.12f}")

# =============================================================================
# hoho stays consistent when its parameters move
# =============================================================================

print()
print("=" * 72)
print("hoho consistency across random parameter draws")
print("=" * 72)
for trial in range(3):
    c_vec = tuple(rng.uniform(-1, 1, 4))
    system = make_builtin("hoho", {"C": tuple(rng.uniform(-1, 1, 4)),
                                   "c": c_vec,
                                   "m1": rng.uniform(0.5, 2.0),
                                   "m2": rng.uniform(0.5, 2.0)})
    report = check_consistency(
        system, sample_configs(60, np.random.default_rng(trial)))
    print(f"    draw {trial}: verdict {report.verdict}, "
          f"worst residual {max(report.zeroth_sup, *report.deriv_coeff_sup):.3e}")
