"""Closed-form solutions of the driven Kerr resonator in its two phases.

Below the transition (eps < 1) the ground state is a squeezed vacuum; above
it (eps > 1) there are two degenerate displaced-squeezed states related by
parity.  Their parameters, excitation energies and the large-size limits of
the geometric tensor are closed forms, and serve as independent oracles for
the numerical pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NormalPhaseSolution:
    """Squeezing parameter and energies of the normal-phase ground state."""

    r: complex
    omega_e: float
    omega_g: float


@dataclass(frozen=True)
class SuperradiantSolution:
    """Displacement, squeezing and energies of one symmetry-broken branch."""

    alpha: complex
    r: complex
    omega_e: float
    omega_g: float
    branch: str


def normal_phase(delta: float, eps: float, phi: float = 0.0) -> NormalPhaseSolution:
    """Normal-phase solution; valid for 0 <= eps < 1 where the gap is open."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"normal phase requires 0 <= eps < 1, got {eps}")
    r = 0.25 * np.log((1.0 - eps) / (1.0 + eps)) * np.exp(-1j * phi)
    omega_e = delta * np.sqrt(1.0 - eps**2)
    omega_g = delta * (np.sqrt(1.0 - eps**2) - 1.0) / 2.0
    return NormalPhaseSolution(r=complex(r), omega_e=float(omega_e), omega_g=float(omega_g))


def superradiant_phase(delta: float, eps: float, phi: float = 0.0,
                       size: float = 1.0, branch: str = "+") -> SuperradiantSolution:
    """Displaced-squeezed solution for eps > 1 at effective size L = delta/K.

    The constant term of omega_g is kept as printed in the source derivation
    but is not asserted anywhere; only the excitation energy and the states
    themselves are used as oracles.
    """
    if eps <= 1.0:
        raise ValueError(f"superradiant phase requires eps > 1, got {eps}")
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch}")
    sign = 1.0 if branch == "+" else -1.0
    alpha = sign * np.sqrt(size * (eps - 1.0) / 2.0) * np.exp(-0.5j * phi)
    r = 0.25 * np.log((eps - 1.0) / eps) * np.exp(-1j * phi)
    omega_e = 2.0 * delta * np.sqrt(eps * (eps - 1.0))
    omega_g = (delta * (np.sqrt(eps * (eps - 1.0)) - eps + 0.5)
               - size * delta**2 * (eps - 1.0) ** 2 / 4.0)
    return SuperradiantSolution(alpha=complex(alpha), r=complex(r),
                                omega_e=float(omega_e), omega_g=float(omega_g),
                                branch=branch)


def _tensor(g_ee: float, g_pp: float, f_ep: float) -> np.ndarray:
    """2x2 tensor over (eps, phi): metric diag(g_ee, g_pp), curvature f_ep."""
    return np.array([[g_ee + 0.0j, -0.5j * f_ep], [0.5j * f_ep, g_pp + 0.0j]])


def normal_phase_qgt_limit(eps: float) -> np.ndarray:
    """Large-size limit of the geometric tensor on the squeezed-vacuum family.

    The squeezed vacuum with r = (1/4) ln((1-eps)/(1+eps)) e^{-i phi} has
    g_ee = 1/(8(1-eps^2)^2), g_pp = eps^2/(8(1-eps^2)), g_ep = 0 and
    F_ep = eps/(4(1-eps^2)^{3/2}) (Provost & Vallee, Commun. Math. Phys. 76,
    289 (1980)); none depends on phi.  Returns the 2x2 complex tensor over
    ordered coordinates (eps, phi).
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"normal-phase limit requires 0 <= eps < 1, got {eps}")
    gap2 = 1.0 - eps**2
    return _tensor(1.0 / (8.0 * gap2**2), eps**2 / (8.0 * gap2),
                   eps / (4.0 * gap2**1.5))


def superradiant_qgt_limit(eps: float, size: float) -> np.ndarray:
    """Leading order in L of the geometric tensor above the transition.

    g_ee = L/(8 sqrt(eps(eps-1))), g_pp = L sqrt(eps(eps-1))/8, g_ep = 0 and
    F_ep = L/4, which is d<n>/deps = 2 F_ep on <n> = L(eps-1)/2; the relative
    corrections are O(1/L).  Same layout as normal_phase_qgt_limit.
    """
    if eps <= 1.0:
        raise ValueError(f"superradiant limit requires eps > 1, got {eps}")
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    root = np.sqrt(eps * (eps - 1.0))
    return _tensor(size / (8.0 * root), size * root / 8.0, size / 4.0)
