"""Three routes to the same geometric tensor, plus the analytic limits.

The linear-response kernel, the overlap metric, and the plaquette curvature are
independent computations; as the effective size grows they must also approach
the closed forms: the squeezed-vacuum limit below the transition, and the
leading order in L above it.

No drive phase is passed anywhere: the diagonal unitary e^{-i n phi / 2} maps
the Hamiltonian at phase phi onto the one at phi = 0, so it only relabels the
ground state, and the tensor, a gauge-invariant object, is the same at every
phi.  The package therefore works at phi = 0 alone.
"""

from kerrqgt import (
    ModelParams,
    ground_state_row,
    normal_phase_qgt_limit,
    qgt_fd_row,
    qgt_spectral,
    superradiant_qgt_limit,
)

point = ModelParams.from_size(300, 0.85, n_cut=600)
spectral, (fd,) = qgt_spectral(point), qgt_fd_row(ground_state_row([point]))

print(f"point: L = {point.effective_size:g}, eps = {point.eps}")
print(f"{'':14}{'spectral':>14}{'finite diff':>14}{'rel dev':>12}")
for name in ("g_ee", "g_pp", "f_ep"):
    a, b = getattr(spectral, name), getattr(fd, name)
    print(f"{name:14}{a:14.8f}{b:14.8f}{abs(b / a - 1):12.2e}")
print(f"{'g_ep':14}{spectral.g_ep:14.8f}{fd.g_ep:14.8f}")
print(f"both read the same ground state: gap {spectral.gap:.10f} = {fd.gap:.10f}, "
      f"<n> {spectral.mean_n:.10f} = {fd.mean_n:.10f}")


def components(q):
    return q[0, 0].real, q[1, 1].real, -2 * q[0, 1].imag


print("\nconvergence to the closed-form limits (deviation of qgt_spectral):")
for eps in (0.6, 1.5):
    if eps < 1:
        limit = normal_phase_qgt_limit(eps)
        print(f"  eps = {eps}, squeezed vacuum: g_ee = {limit[0, 0].real:.6f}, "
              f"g_pp = {limit[1, 1].real:.6f}, F = {-2 * limit[0, 1].imag:.6f}")
    else:
        unit = superradiant_qgt_limit(eps, 1.0)
        print(f"  eps = {eps}, leading order in L: g_ee = {unit[0, 0].real:.6f} L, "
              f"g_pp = {unit[1, 1].real:.6f} L, F = {-2 * unit[0, 1].imag:.6f} L")
    for L in (250, 500, 1000, 2000):
        if eps < 1:
            n_cut = 400
        else:
            limit = superradiant_qgt_limit(eps, L)
            n_cut = int(L * (eps - 1) / 2 * 1.3 + 400)
        r = qgt_spectral(ModelParams.from_size(L, eps, n_cut=n_cut))
        devs = [100 * (a / b - 1) for a, b in zip((r.g_ee, r.g_pp, r.f_ep), components(limit))]
        print(f"    L = {L:5d}: g_ee {devs[0]:+.3f}%  g_pp {devs[1]:+.3f}%  F {devs[2]:+.3f}%")
