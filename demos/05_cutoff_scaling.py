"""Cutoff scaling without Kerr nonlinearity.

At K = 0 the Fock truncation itself is the only finite scale, so the tensor
components at the critical drive eps = 1 grow as powers of the cutoff:
g_ee ~ N^4, |F| ~ N^3, and the photon number fills a fixed fraction of the
basis (exponent ~ 1).  Expressed against the photon number, these exponents
match the finite-Kerr study, which is the universality statement.
"""

import numpy as np

from kerrqgt import ModelParams, fit_power_law, qgt_spectral

cutoffs = [100, 141, 200, 283, 400, 566]
rows = []
print("cutoff scaling at eps = 1, K = 0:")
print(f"{'N_cut':>6}{'g_ee':>14}{'|F_ep|':>12}{'<n>':>10}{'gap':>10}")
for nc in cutoffs:
    r = qgt_spectral(ModelParams(kerr=0.0, eps=1.0, n_cut=nc))
    rows.append((r.g_ee, abs(r.f_ep), r.mean_n))
    print(f"{nc:6d}{r.g_ee:14.5g}{abs(r.f_ep):12.5g}{r.mean_n:10.4f}{r.gap:10.5f}")

rows = np.array(rows)
g1 = fit_power_law(cutoffs, rows[:, 0])
g2 = fit_power_law(cutoffs, rows[:, 1])
al = fit_power_law(cutoffs, rows[:, 2])
print(f"\nfitted exponents: gamma1 = {g1.exponent:.4f} (r2 = {g1.r_squared:.6f}), "
      f"gamma2 = {g2.exponent:.4f}, alpha = {al.exponent:.4f}")
print(f"photon-number exponents: beta1 = alpha*gamma1 = {al.exponent * g1.exponent:.4f}, "
      f"beta2 = alpha*gamma2 = {al.exponent * g2.exponent:.4f}")
print("\nthe finite-Kerr pipeline provides delta_ee, delta_ep and the "
      "photon-number dimension; `kerrqgt k0 --out runs/k0` assembles the full "
      "comparison (beta1' = delta_ee/delta_nbar vs beta1, likewise beta2).")
