"""Data collapse: how the objective singles out the right exponent.

A synthetic family built from an exact scaling form collapses to machine
zero at the true (nu, eps_c*); detuning nu destroys it.  The same machinery
then runs on real curves from the diagonalization pipeline.
"""

import numpy as np

from kerrqgt import (
    CurveFamily,
    ModelParams,
    collapse_objective,
    fit_power_law,
    optimize_collapse,
    qgt_spectral,
)

# --- synthetic family with known exponents
sizes = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
grid = 1.0 + 2.0 ** (-12 + np.arange(9))
xs = np.array([(grid - 1.0) * L for L in sizes])
values = np.array([L**2 / (1.0 + x**2) for L, x in zip(sizes, xs)])
synthetic = CurveFamily(sizes=sizes, eps_grid=grid, values=values, observable="g_ee")

print("synthetic family, true delta = 2, nu = 1, eps_c* = 1:")
for nu in (1.0, 1.1, 1.5):
    q = collapse_objective(synthetic, 2.0, nu, 1.0)
    print(f"  objective at nu = {nu}: {q:.3e}")
opt = optimize_collapse(synthetic, 2.0, (0.7, 1.4), (0.995, 1.005))
print(f"  optimizer recovers nu = {opt.nu:.5f}, eps_c* = {opt.eps_c_star:.6f}")

# --- real curves at reduced sizes
print("\nmetric curves from the diagonalization pipeline:")
real_sizes = np.array([60.0, 80.0, 100.0, 120.0])
grid = np.arange(1.02, 1.351, 4e-3)
rows = []
for L in real_sizes:
    rows.append([qgt_spectral(ModelParams.from_size(L, e, n_cut=300)).g_ee
                 for e in grid])
family = CurveFamily(sizes=real_sizes, eps_grid=grid, values=np.array(rows),
                     observable="g_ee")

# the ordinate exponent is held fixed at the growth of the peak heights,
# max g_ee ~ L^delta, as the collapse subcommand holds it at the report's delta_ee
delta = fit_power_law(real_sizes, family.values.max(axis=1)).exponent
opt = optimize_collapse(family, delta, (1.2, 1.9), (0.95, 1.10))
print(f"  peak heights grow as L^{delta:.4f} (2/delta = {2.0 / delta:.4f})")
print(f"  optimum at that delta: nu = {opt.nu:.4f}, eps_c* = {opt.eps_c_star:.5f}, "
      f"quality = {opt.quality:.3e}")
for nu in (1.3, opt.nu, 1.7):
    q = collapse_objective(family, delta, nu, opt.eps_c_star)
    print(f"  objective at nu = {nu:.4f}: {q:.3e}")
print("(the minimum near nu ~ 1.5 deepens rapidly with size; at the default "
      "sizes the contrast against 1.3 and 1.7 exceeds 5x)")
