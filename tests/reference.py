"""Slow, independent reference paths for the tests (not part of the package).

Everything here is built straight from the Hamiltonian formula or from a full
decomposition, never from the kernels it checks:

* dense_hamiltonian and dense_drive_derivatives assemble the complex
  full-Fock matrices at any phi from ladder operators;
* dense_eigenvalues diagonalizes the dense matrix;
* full_spectrum is the whole spectrum of a parity block over a row of one
  point (LAPACK dstev) under the package's residual and orthogonality
  bounds, in the package's Spectrum layout; a NaN fails every gate;
* two_sector_race races the minima of both parity sectors' full spectra,
  with near-degenerate minima resolved to even in the exact unit
  max(1, ||T||_2);
* gauge_phases, lift and fock_vector put sector vectors on the full Fock
  basis at any phi; mean_photon and photon_variance read <n> and Var(n) off
  a normalized Fock-basis state;
* qgt_sum_over_states is the spectral sum over the full even-sector
  eigenbasis at the requested phi, on lifted vectors with the dense drive
  derivatives;
* fidelity_susceptibility is -2 ln of the ground-state overlap under an eps
  shift, on full_spectrum ground vectors;
* collapse_objective is the data-collapse spread computed curve by curve:
  it concatenates and re-sorts the other curves' points for every curve and
  masks the points inside their range;
* lazy_even_ground_family is the fd state family solved one eps at a time,
  on first request, as a row of one.

From the package it takes only data containers, the block builder
sector_block, the gate constants and the error classes, and for
lazy_even_ground_family the eigensolver eig_tridiagonal: that path checks
the stacking and lookup of the package's family, whose vectors it must
match bit for bit, not the eigensolver.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse

from kerrqgt.eigensolver import (
    ORTHOGONALITY_BOUND,
    RESIDUAL_BOUND,
    Spectrum,
    eig_tridiagonal,
)
from kerrqgt.errors import EigenConvergenceError, GapError, WindowError
from kerrqgt.model import TAIL_LEVELS, TAIL_TOLERANCE, sector_block
from kerrqgt.qgt import GAP_FLOOR, QGTResult


NORM_TOLERANCE = 1e-10
DEGENERACY_TOLERANCE = 1e-12


def _ladder(dim: int):
    """Truncated annihilation operator a and its square, as sparse matrices."""
    a = scipy.sparse.diags(np.sqrt(np.arange(1.0, dim)), 1, format="csr")
    return a, a @ a


def dense_hamiltonian(params) -> np.ndarray:
    """H = K a+^2 a^2 + delta a+ a - (delta eps / 2)(e^{-i phi} a+^2 + e^{i phi} a^2).

    Exactly Hermitian: the two drive terms are built as conjugate transposes.
    """
    a, a2 = _ladder(params.dim)
    drive = np.exp(-1j * params.phi) * a2.T
    h = (params.kerr * (a2.T @ a2) + params.delta * (a.T @ a)
         - (params.delta * params.eps / 2.0) * (drive + drive.conj().T))
    return h.toarray()


def dense_drive_derivatives(params) -> tuple[np.ndarray, np.ndarray]:
    """dH/deps and dH/dphi of dense_hamiltonian, differentiated by hand."""
    _, a2 = _ladder(params.dim)
    drive = np.exp(-1j * params.phi) * a2.T
    d_eps = -(params.delta / 2.0) * (drive + drive.conj().T)
    d_phi = -(params.delta * params.eps / 2.0) * (-1j * drive + (-1j * drive).conj().T)
    return d_eps.toarray(), d_phi.toarray()


def dense_eigenvalues(params) -> np.ndarray:
    """Whole spectrum of the dense Hamiltonian (small cutoffs only)."""
    return np.linalg.eigvalsh(dense_hamiltonian(params))


def gauge_phases(dim: int, phi: float) -> np.ndarray:
    """The diagonal e^{-i n phi / 2}, n = 0..dim-1, that maps eigenvectors of
    H(eps, 0) onto eigenvectors of H(eps, phi)."""
    return np.exp(-0.5j * np.arange(dim) * phi)


def lift(vectors, levels, params) -> np.ndarray:
    """Sector vectors on the Fock levels `levels` (axis 0) as full-Fock vectors
    at params.phi: zero on the other levels, times the gauge phases."""
    vectors = np.asarray(vectors)
    full = np.zeros((params.dim, *vectors.shape[1:]), dtype=complex)
    full[levels] = vectors
    phases = gauge_phases(params.dim, params.phi)
    return full * phases.reshape(-1, *[1] * (vectors.ndim - 1))


def fock_vector(gs) -> np.ndarray:
    """A GroundState on the full Fock basis at its own phi."""
    return lift(gs.vector, gs.levels, gs.params)


def _photon_weights(state) -> np.ndarray:
    weights = np.abs(np.asarray(state)) ** 2
    defect = abs(float(np.sqrt(np.sum(weights))) - 1.0)
    if not defect <= NORM_TOLERANCE:
        raise ValueError(f"state is not normalized: |norm - 1| = {defect:.3e}")
    return weights


def mean_photon(state) -> float:
    """<n> of a normalized Fock-basis state."""
    weights = _photon_weights(state)
    return float(np.arange(len(weights)) @ weights)


def photon_variance(state) -> float:
    """Var(n) of a normalized Fock-basis state."""
    weights = _photon_weights(state)
    n = np.arange(len(weights))
    mean = float(n @ weights)
    return float((n * n) @ weights) - mean**2


def full_spectrum(block) -> Spectrum:
    """Every eigenpair of a parity block over a row of one point by dstev,
    gated like eig_tridiagonal.

    Vectors get the same sign convention (largest component positive); the
    residual is measured against the dense block.  Every field has the row
    axis of one: eigenvalues (1, N), eigenvectors (1, N, N), scale (1,).
    """
    (off,) = block.offdiag
    lam, vec = scipy.linalg.eigh_tridiagonal(block.diag, off, lapack_driver="stev")
    anchor = np.argmax(np.abs(vec), axis=0)
    signs = np.sign(vec[anchor, np.arange(block.size)])
    signs[signs == 0] = 1.0
    vec = vec * signs

    scale = max(1.0, abs(float(lam[0])), abs(float(lam[-1])))
    dense = np.diag(block.diag) + np.diag(off, 1) + np.diag(off, -1)
    max_residual = float(np.max(np.linalg.norm(dense @ vec - vec * lam, axis=0)))
    gram = vec.T @ vec
    np.fill_diagonal(gram, 0.0)
    max_defect = float(np.max(np.abs(gram)))
    # Each gate is written as the condition that holds, so a NaN fails it.
    if not max_residual <= RESIDUAL_BOUND * scale:
        raise EigenConvergenceError(f"residual {max_residual:.3e} exceeds bound")
    if not max_defect <= ORTHOGONALITY_BOUND:
        raise EigenConvergenceError(f"orthogonality defect {max_defect:.3e} exceeds bound")
    # With the whole spectrum both units of Spectrum are max(1, ||T||_2) exactly.
    return Spectrum(eigenvalues=lam[None], eigenvectors=vec[None],
                    max_residual=max_residual, max_orthogonality_defect=max_defect,
                    scale=np.array([scale]), residual_unit=np.array([scale]))


def two_sector_race(params):
    """The lower of the two parity sectors' ground states, on full spectra.

    Returns (parity, sectors, scale): sectors maps "even" and "odd" to
    (block, full_spectrum(block)), and scale is the exact unit
    max(1, ||T||_2) of the larger block.  The odd sector wins only if its
    minimum lies below the even one by more than DEGENERACY_TOLERANCE x
    scale, so near-degenerate minima (the generic situation deep in the
    symmetry-broken regime) resolve to even.
    """
    sectors = {}
    for parity in ("even", "odd"):
        block = sector_block([params], parity)
        sectors[parity] = block, full_spectrum(block)
    (_, even), (_, odd) = sectors["even"], sectors["odd"]
    scale = max(even.scale[0], odd.scale[0])
    wins = odd.eigenvalues[0, 0] < even.eigenvalues[0, 0] - DEGENERACY_TOLERANCE * scale
    return ("odd" if wins else "even"), sectors, scale


def qgt_sum_over_states(params) -> QGTResult:
    """Q_jk = sum_{n>0} <u0|dH_j|u_n><u_n|dH_k|u0> / (E_n - E0)^2 at params.phi.

    The sum runs over the full even-sector eigenbasis, lifted onto the Fock
    basis with the gauge phases of the requested phi; both drive derivatives
    conserve parity, so the odd sector contributes nothing.  O(N^3).
    """
    even = sector_block([params], "even")
    spec = full_spectrum(even)
    lam, scale = spec.eigenvalues[0], spec.scale[0]
    gap = float(lam[1] - lam[0])
    if not gap > GAP_FLOOR * scale:
        raise GapError(f"sector gap {gap:.3e} is below the floor "
                       f"{GAP_FLOOR:g} x spectral scale {scale:.3e}")

    states = lift(spec.eigenvectors[0], even.index_map, params)
    u0 = states[:, 0]
    d_eps, d_phi = dense_drive_derivatives(params)
    m_eps = states.conj().T @ (d_eps @ u0)
    m_phi = states.conj().T @ (d_phi @ u0)

    de2 = (lam[1:] - lam[0]) ** 2
    q_ee = float(np.sum(np.abs(m_eps[1:]) ** 2 / de2))
    q_pp = float(np.sum(np.abs(m_phi[1:]) ** 2 / de2))
    q_ep = complex(np.sum(np.conj(m_eps[1:]) * m_phi[1:] / de2))
    q = np.array([[q_ee, q_ep], [np.conj(q_ep), q_pp]])

    tail = float(np.sum(np.abs(u0[-TAIL_LEVELS:]) ** 2))
    return QGTResult(q=q, gap=gap, method="sum-over-states", params=params,
                     mean_n=mean_photon(u0), var_n=photon_variance(u0), tail_weight=tail,
                     cutoff_warning=bool(tail > TAIL_TOLERANCE))


def lazy_even_ground_family(params):
    """State map (eps, phi) -> gauge-phased even ground vector at the delta,
    kerr and n_cut of params, solving each eps as a row of one when first
    asked for it and caching the vectors and the gauge phases of each phi."""
    levels = np.arange(0, params.n_cut + 1, 2)
    vectors, phases = {}, {}

    def state(eps, phi):
        key = float(eps)
        if key not in vectors:
            block = sector_block([params.replace(eps=key)], "even")
            vectors[key] = eig_tridiagonal(block).eigenvectors[0, :, 0]
        if phi not in phases:
            phases[phi] = np.exp(-0.5j * levels * phi)
        return vectors[key] * phases[phi]

    return state


def fidelity_susceptibility(params, step_eps: float = 1e-4) -> float:
    """chi_F = -2 ln|<u0(eps)|u0(eps + h)>| / h^2, which tends to g_ee as h -> 0.

    u0 is the even-sector ground vector from full_spectrum.  The forward
    difference has an O(h) error, removed by Richardson refinement over the
    steps h and h/2.
    """
    def ground(eps):
        block = sector_block([params.replace(eps=eps)], "even")
        return full_spectrum(block).eigenvectors[0, :, 0]

    u0 = ground(params.eps)

    def chi(h):
        return -2.0 * np.log(abs(u0 @ ground(params.eps + h))) / h**2

    return 2.0 * chi(step_eps / 2.0) - chi(step_eps)


def collapse_objective(family, delta_jk: float, nu: float, eps_c_star: float) -> float:
    """The collapse spread of kerrqgt.scaling.collapse_objective, curve by curve.

    Curves are rescaled to y L^{-delta_jk} against x = (eps - eps_c*) L^{1/nu};
    each curve is compared with the piecewise-linear interpolant through all
    other curves' points, restricted to their abscissa range.  The mean squared
    deviation is normalized by the mean squared rescaled value.
    """
    sizes = family.sizes
    xs = [(family.eps_grid - eps_c_star) * L ** (1.0 / nu) for L in sizes]
    ys = [family.values[i] * sizes[i] ** (-delta_jk) for i in range(len(sizes))]
    total, count = 0.0, 0
    for i in range(len(sizes)):
        other_x = np.concatenate([xs[k] for k in range(len(sizes)) if k != i])
        other_y = np.concatenate([ys[k] for k in range(len(sizes)) if k != i])
        order = np.argsort(other_x, kind="stable")
        other_x, other_y = other_x[order], other_y[order]
        inside = (xs[i] >= other_x[0]) & (xs[i] <= other_x[-1])
        if not np.any(inside):
            continue
        interp = np.interp(xs[i][inside], other_x, other_y)
        total += float(np.sum((ys[i][inside] - interp) ** 2))
        count += int(np.sum(inside))
    if count == 0:
        raise WindowError("rescaled curves share no abscissa overlap")
    scale = float(np.mean(np.concatenate(ys) ** 2))
    if scale == 0.0:
        raise WindowError("rescaled family is identically zero")
    return (total / count) / scale
