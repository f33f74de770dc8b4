"""Three routes to the same geometric tensor, plus the analytic limit.

The linear-response kernel, the overlap metric, and the plaquette curvature are
independent computations; below the transition they must also approach the
closed-form squeezed-vacuum values as the effective size grows.
"""

import numpy as np

from kerrqgt import (
    ModelParams,
    normal_phase_qgt_limit,
    qgt_fd,
    qgt_spectral,
)

point = ModelParams.from_size(300, 0.85, phi=0.6, n_cut=600)
spectral = qgt_spectral(point)
g_fd, f_fd = qgt_fd(point)

print(f"point: L = {point.effective_size:g}, eps = {point.eps}, phi = {point.phi}")
print(f"{'':14}{'spectral':>14}{'finite diff':>14}{'rel dev':>12}")
rows = [
    ("g_ee", spectral.g_ee, g_fd[0, 0]),
    ("g_pp", spectral.g_pp, g_fd[1, 1]),
    ("F_ep", spectral.f_ep, f_fd),
]
for name, a, b in rows:
    print(f"{name:14}{a:14.8f}{b:14.8f}{abs(b / a - 1):12.2e}")

print("\nconvergence to the squeezed-vacuum limit at eps = 0.6:")
limit = normal_phase_qgt_limit(0.6)
print(f"  limit: g_ee = {limit[0, 0].real:.6f}, g_pp = {limit[1, 1].real:.6f}, "
      f"F = {-2 * limit[0, 1].imag:.6f}")
for L in (250, 500, 1000, 2000):
    r = qgt_spectral(ModelParams.from_size(L, 0.6, n_cut=400))
    print(f"  L = {L:5d}: g_ee = {r.g_ee:.6f}  "
          f"(dev {100 * (r.g_ee / limit[0, 0].real - 1):+.2f}%)")

print("\nthe tensor does not care about the drive phase:")
base = ModelParams.from_size(300, 0.85, n_cut=600)
ref = qgt_spectral(base)
for phi in (0.0, np.pi / 3, np.pi):
    r = qgt_spectral(base.replace(phi=phi))
    print(f"  phi = {phi:5.3f}: g_ee dev {abs(r.g_ee / ref.g_ee - 1):.1e}, "
          f"F dev {abs(r.f_ep / ref.f_ep - 1):.1e}")
