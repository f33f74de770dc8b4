"""Order parameter of the driven Kerr resonator over the (eps, phi) plane.

The rescaled photon number rho = <n>/L stays at zero below eps = 1 and grows
like (eps - 1)/2 above it, independently of the drive phase.  This script
scans a small grid directly through the library (the CLI does the same at
scale: `kerrqgt phase-diagram --out runs/pd`).
"""

import numpy as np

from kerrqgt import ModelParams, ground_state_row

L = 400.0
n_cut = 400
eps_values = np.linspace(0.0, 1.5, 16)
phi_values = [0.0, np.pi / 4, np.pi / 2, np.pi]

print(f"effective size L = {L:g}, cutoff {n_cut}")
print("eps     " + "".join(f"phi={p:5.2f}  " for p in phi_values))
# one stacked even-sector solve at phi = 0 fills every phase column: the drive
# phase is a gauge, so the photon distribution does not depend on it
ground = ground_state_row([ModelParams.from_size(L, eps, n_cut=n_cut) for eps in eps_values])
rho = ground.mean_n / L
grid = np.repeat(rho[:, None], len(phi_values), axis=1)
for eps, row in zip(eps_values, grid):
    cells = "".join(f"{v:9.5f}" for v in row)
    print(f"{eps:5.2f} {cells}")

above = eps_values > 1.05
print("rho vs (eps-1)/2 above threshold:",
      np.round(grid[above, 0] / ((eps_values[above] - 1) / 2), 4))

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
    fig, ax = plt.subplots(figsize=(5, 4))
    for j, phi in enumerate(phi_values):
        ax.plot(eps_values, grid[:, j], marker="o", ms=3, label=f"phi = {phi:.2f}")
    ax.axvline(1.0, color="k", lw=0.5, ls="--")
    ax.set_xlabel("drive amplitude eps")
    ax.set_ylabel("rho")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo_phase_diagram.png", dpi=150)
    print("wrote demo_phase_diagram.png")
except ImportError:
    print("matplotlib not installed; skipped the figure")
