"""Lowest eigenpairs of the parity blocks and ground-state extraction.

Ground-state work needs only the lowest pair of a block: one bisection plus
inverse iteration (dstebz/dstein via scipy.linalg.eigh_tridiagonal with
select='i') gets it in O(N).  The gates take their units from two O(N) bounds
on the block norm (see Spectrum), not from a second bisection for the top
eigenvalue.  Residual and orthogonality bounds are checked on every solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import EigenConvergenceError
from .model import (
    ModelParams,
    TridiagonalBlock,
    apply_gauge_phases,
    parity_blocks,
    tail_weight,
    TAIL_TOLERANCE,
)

RESIDUAL_BOUND = 1e-10
ORTHOGONALITY_BOUND = 1e-10
DEGENERACY_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Lowest two eigenvalues (ascending) and eigenvector columns of one block.

    Two units bracket max(1, ||T||_2), the largest |eigenvalue| of the block:

    * scale, the Gershgorin bound max(1, max_i |d_i| + |e_{i-1}| + |e_i|) =
      max(1, ||T||_inf) >= ||T||_2, is the unit of the gap floor and the
      parity tie-break (a larger unit makes both stricter);
    * residual_unit, max(1, |E0|, max_i |d_i|) <= ||T||_2, is the unit of
      the eigen and Sternheimer residual bounds (a smaller unit makes them
      stricter).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    max_residual: float
    max_orthogonality_defect: float
    scale: float
    residual_unit: float


@dataclass(frozen=True)
class GroundState:
    """Lowest eigenstate over both parity sectors.

    fock_vector lives on the full basis (gauge phases applied for the
    requested phi); gap is measured within the winning parity sector.
    """

    energy: float
    fock_vector: np.ndarray
    parity: str
    gap: float
    sector_energies: tuple[float, float]
    tail_weight: float
    cutoff_warning: bool


def _tridiagonal_multiply(diag, off, vectors):
    out = diag[:, None] * vectors
    if len(off):
        out[1:] += off[:, None] * vectors[:-1]
        out[:-1] += off[:, None] * vectors[1:]
    return out


def eig_tridiagonal(block: TridiagonalBlock) -> Spectrum:
    """Lowest two eigenpairs of a real symmetric tridiagonal parity block.

    One bisection and inverse iteration give the pair in O(N); the two units
    of Spectrum are O(N) bounds read off the block, with no further solve.
    """
    try:
        lam, vec = scipy.linalg.eigh_tridiagonal(
            block.diag, block.offdiag, select="i", select_range=(0, 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise EigenConvergenceError(
            f"tridiagonal eigensolve failed on {block.parity} block of size "
            f"{block.size}: {exc}") from exc

    # Canonical sign: largest-magnitude component of each vector positive
    # (never zero for a unit vector).
    anchor = np.argmax(np.abs(vec), axis=0)
    vec = vec * np.sign(vec[anchor, [0, 1]])

    # The largest absolute row sum (Gershgorin) bounds ||T||_2 above; |E0|
    # and every |d_i| bound it below.
    abs_diag, abs_off = np.abs(block.diag), np.abs(block.offdiag)
    row_sums = abs_diag.copy()
    row_sums[:-1] += abs_off
    row_sums[1:] += abs_off
    scale = max(1.0, float(row_sums.max()))
    residual_unit = max(1.0, abs(float(lam[0])), float(abs_diag.max()))
    resid = _tridiagonal_multiply(block.diag, block.offdiag, vec) - vec * lam
    max_residual = float(np.max(np.linalg.norm(resid, axis=0)))
    max_defect = abs(float(vec[:, 0] @ vec[:, 1]))

    if max_residual > RESIDUAL_BOUND * residual_unit:
        raise EigenConvergenceError(
            f"residual {max_residual:.3e} exceeds bound on {block.parity} block "
            f"(worst eigenpair {int(np.argmax(np.linalg.norm(resid, axis=0)))})")
    if max_defect > ORTHOGONALITY_BOUND:
        raise EigenConvergenceError(
            f"orthogonality defect {max_defect:.3e} exceeds bound on {block.parity} block")

    return Spectrum(eigenvalues=lam, eigenvectors=vec, max_residual=max_residual,
                    max_orthogonality_defect=max_defect, scale=scale,
                    residual_unit=residual_unit)


def sector_spectra(params: ModelParams) -> tuple[Spectrum, Spectrum]:
    """Lowest eigenpairs of the even and odd parity blocks."""
    even, odd = parity_blocks(params)
    return eig_tridiagonal(even), eig_tridiagonal(odd)


def ground_state(params: ModelParams) -> GroundState:
    """Ground state over both parity sectors.

    Near-degenerate sector minima (within 1e-12 of the Gershgorin bound, the
    generic situation deep in the symmetry-broken regime) resolve to even
    parity, which continues the normal-phase ground state.
    """
    even, odd = parity_blocks(params)
    spec_e, spec_o = eig_tridiagonal(even), eig_tridiagonal(odd)
    e0, o0 = float(spec_e.eigenvalues[0]), float(spec_o.eigenvalues[0])
    scale = max(spec_e.scale, spec_o.scale)

    if o0 < e0 - DEGENERACY_TOLERANCE * scale:
        parity, spec, block = "odd", spec_o, odd
    else:
        parity, spec, block = "even", spec_e, even

    full = np.zeros(params.dim, dtype=complex)
    full[block.index_map] = spec.eigenvectors[:, 0]
    full = apply_gauge_phases(full, params.phi)
    tail = tail_weight(full)
    return GroundState(
        energy=float(spec.eigenvalues[0]),
        fock_vector=full,
        parity=parity,
        gap=float(spec.eigenvalues[1] - spec.eigenvalues[0]),
        sector_energies=(e0, o0),
        tail_weight=tail,
        cutoff_warning=bool(tail > TAIL_TOLERANCE),
    )

