"""Closed-form solutions of the driven Kerr resonator in its two phases.

Below the transition (eps < 1) the ground state is a squeezed vacuum; above
it (eps > 1) there are two degenerate displaced-squeezed states related by
parity.  These families, realized on the truncated Fock basis, serve as
independent oracles for the numerical pipeline: state fidelities, excitation
gaps, and the large-size limit of the geometric tensor are all checked
against them.  scipy.sparse is imported inside displaced_squeezed_fock, the
only user, so that importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fd import curvature_fd, metric_fd
from .errors import CutoffError
from .model import tail_weight, TAIL_TOLERANCE

MAX_SQUEEZING = 5.0
DISPLACEMENT_HEADROOM = 1.5


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


def squeezed_vacuum_fock(r: complex, n_cut: int) -> np.ndarray:
    """Fock amplitudes of the squeezed vacuum S(r)|0>.

    Even levels only; consecutive even amplitudes follow the two-term
    recurrence c_{2m+2} = -(r/|r|) tanh|r| sqrt((2m+1)/(2m+2)) c_{2m}.
    """
    if abs(r) >= MAX_SQUEEZING:
        raise ValueError(f"|r| = {abs(r):.2f} exceeds the supported range {MAX_SQUEEZING}")
    amps = np.zeros(n_cut + 1, dtype=complex)
    amps[0] = 1.0
    if abs(r) > 0:
        ratio = -(r / abs(r)) * np.tanh(abs(r))
        m = np.arange(0, (n_cut - 2) // 2 + 1)
        steps = ratio * np.sqrt((2 * m + 1.0) / (2 * m + 2.0))
        amps[2 * m + 2] = np.cumprod(steps)
    amps /= np.linalg.norm(amps)
    if tail_weight(amps) > TAIL_TOLERANCE:
        raise CutoffError(
            f"squeezed vacuum with |r| = {abs(r):.3f} does not fit below n_cut = {n_cut}")
    return amps


def displaced_squeezed_fock(alpha: complex, r: complex, n_cut: int) -> np.ndarray:
    """Fock amplitudes of D(alpha) S(r)|0>.

    The squeezing recurrence runs at 1.5x the requested cutoff and the
    displacement is applied there as the matrix exponential of the truncated
    generator alpha adag - conj(alpha) a, then the result is cut back and
    renormalized.  Accuracy is certified by the tail-weight gate.
    """
    inner_dim = int(np.ceil(DISPLACEMENT_HEADROOM * (n_cut + 1)))
    base = squeezed_vacuum_fock(r, inner_dim - 1)
    if alpha != 0:
        from scipy.sparse import diags
        from scipy.sparse.linalg import expm_multiply
        k = np.arange(1, inner_dim, dtype=float)
        generator = diags(
            [alpha * np.sqrt(k), -np.conj(alpha) * np.sqrt(k)], [-1, 1], format="csc")
        base = expm_multiply(generator, base)
    out = base[: n_cut + 1]
    if tail_weight(base) > TAIL_TOLERANCE or tail_weight(out) > TAIL_TOLERANCE:
        raise CutoffError(
            f"displaced-squeezed state with |alpha|^2 = {abs(alpha)**2:.1f} does not "
            f"fit below n_cut = {n_cut}")
    return out / np.linalg.norm(out)


def displaced_squeezed_cat(alpha: complex, r: complex, n_cut: int,
                           parity: str = "even") -> np.ndarray:
    """Normalized parity eigenstate built from the two degenerate branches."""
    plus = displaced_squeezed_fock(alpha, r, n_cut)
    minus = displaced_squeezed_fock(-alpha, r, n_cut)
    combo = plus + minus if parity == "even" else plus - minus
    norm = np.linalg.norm(combo)
    if norm == 0:
        raise ValueError("cat combination vanished; branches coincide")
    return combo / norm


def _auto_cutoff(eps: float, margin_eps: float = 2e-4) -> int:
    """Cutoff that keeps the squeezed-vacuum tail below the gate at eps + margin."""
    eps_max = min(eps + margin_eps, 1.0 - 1e-12)
    r = 0.25 * np.log((1.0 + eps_max) / (1.0 - eps_max))
    t = np.tanh(r)
    if t <= 0:
        return 64
    pairs = int(np.ceil(-16.0 * np.log(10.0) / (2.0 * np.log(t)))) + 8
    return max(64, 2 * pairs + 16)


def normal_phase_qgt_limit(eps: float, phi: float = 0.0, *, n_cut: int | None = None,
                           step_eps: float = 1e-4, step_phi: float = 1e-3) -> np.ndarray:
    """Large-size limit of the geometric tensor on the squeezed-vacuum family.

    Computed by gauge-invariant finite differences directly on the analytic
    states, independently of the diagonalization pipeline.  Returns the 2x2
    complex tensor over ordered coordinates (eps, phi).
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"normal-phase limit requires 0 <= eps < 1, got {eps}")
    if n_cut is None:
        n_cut = _auto_cutoff(eps, margin_eps=max(step_eps, 2e-4))

    def state(e, p):
        r = 0.25 * np.log((1.0 - e) / (1.0 + e)) * np.exp(-1j * p)
        return squeezed_vacuum_fock(r, n_cut)

    g = metric_fd(state, eps, phi, step_eps, step_phi)
    if eps == 0.0:
        curvature = 0.0
    else:
        curvature = curvature_fd(state, eps, phi, step_eps, step_phi)
    return np.array([
        [g[0, 0] + 0.0j, g[0, 1] - 0.5j * curvature],
        [g[0, 1] + 0.5j * curvature, g[1, 1] + 0.0j],
    ])
