"""Lowest eigenpairs of the even block and ground-state extraction.

Ground-state work needs only the lowest pair of a block: one bisection plus
inverse iteration gets it in O(N).  _lowest_pair calls LAPACK dstebz and
dstein directly, as scipy.linalg.eigh_tridiagonal(select='i') calls them,
without its per-call argument checks; eig_tridiagonal checks that the block
is finite once for the whole stack.  The gates take their units from two O(N)
bounds on the block norm (see Spectrum), not from a second bisection for the
top eigenvalue.

A row whose block lies near one already solved, such as a finite-difference
stencil state next to its grid point, can be seeded with that certified
pair instead (_seeded_pairs): one inverse iteration at the pair's Rayleigh
quotients on the row's own block, kept only if its residuals, orthogonality
and a Sturm count certify it as the lowest pair, and bisected otherwise.
Seeded or bisected, every row then passes the same gates.

Every kernel certificate (the eigen residual and orthogonality here; the
Sternheimer factorisation, residual and overlap and the gap floor in qgt) is
checked exactly on every row by _certify, as the condition that holds (value
<= limit, gap > floor), so a NaN fails it.  A failure raises
EigenConvergenceError (GapError for the gap floor) naming the block and row.

Every block stacks the M blocks of a row of points (one point is a row of
one, on the same path).  Each gets its own selective solve; the sign
convention, the gate units and the certificates are then taken on the whole
row in one pass.  The diagonal and level map of a block that
sector_block builds are the read-only arrays of the model.sector_arrays
cache, shared by every block at the same (kerr, n_cut); nothing here
writes to a block, and the tests solve blocks built from writable copies to
the same bits.

A ground state is the real ground vector of the even parity sector on that
sector's Fock levels (ground_state_row stacks a row of them).  The drive
conserves parity, and the nodeless ground state of the normal phase is even,
as is its continuation above the transition, where the odd minimum is
degenerate with it.  The drive phase is a gauge, so it is the same vector at
every phi, and <n>, Var(n) and the tail weight are read off it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import EigenConvergenceError
from .model import (
    TridiagonalBlock,
    sector_block,
    TAIL_LEVELS,
    TAIL_TOLERANCE,
)

RESIDUAL_BOUND = 1e-10
ORTHOGONALITY_BOUND = 1e-10
# a bisection tolerance wider than any spectrum: dstebz stops at the counts
COUNT_ONLY_ABSTOL = 1e300


@dataclass(frozen=True)
class Spectrum:
    """Lowest two eigenvalues (ascending) and eigenvectors of each row of a block.

    eigenvalues is (M, 2), eigenvectors (M, size, 2), scale and residual_unit
    (M,); max_residual and max_orthogonality_defect are the worst over the
    row.  Each eigenvector eigenvectors[m, :, k] is contiguous in memory.

    Two units bracket max(1, ||T||_2), the largest |eigenvalue| of the block:

    * scale, the Gershgorin bound max(1, max_i |d_i| + |e_{i-1}| + |e_i|) =
      max(1, ||T||_inf) >= ||T||_2, is the unit of the gap floor (a larger
      unit makes it stricter);
    * residual_unit, max(1, |E0|, max_i |d_i|) <= ||T||_2, is the unit of
      the eigen and Sternheimer residual bounds (a smaller unit makes them
      stricter).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    max_residual: float
    max_orthogonality_defect: float
    scale: np.ndarray
    residual_unit: np.ndarray


@dataclass(frozen=True)
class GroundState:
    """Lowest eigenstates of the even parity sector over a row of M points.

    points is the row of ModelParams the states were solved for, in order.
    The other fields carry the row axis, as in Spectrum: energy, gap (within
    the sector), mean_n, var_n, tail_weight and cutoff_warning are (M,), and
    vectors is (M, N), its row m the real ground vector of point m on the
    Fock levels listed in levels, at phi = 0 (at another phi the state is
    this vector times the gauge phases e^{-i n phi / 2}).  block and spectrum
    are the stacked block and the solve that the row was read from.
    """

    points: tuple
    energy: np.ndarray
    gap: np.ndarray
    vectors: np.ndarray
    levels: np.ndarray
    mean_n: np.ndarray
    var_n: np.ndarray
    tail_weight: np.ndarray
    cutoff_warning: np.ndarray
    block: TridiagonalBlock
    spectrum: Spectrum


def _certify(ok: np.ndarray, block: TridiagonalBlock, message,
             error: type[Exception] = EigenConvergenceError) -> None:
    """Raise error for the first row m of block where the certificate ok[m] is
    False; message(m) describes the failure.  A NaN value fails its certificate."""
    if not ok.all():
        m = int(np.argmin(ok))
        raise error(f"even block of size {block.size}, row {m}: {message(m)}")


def _tridiagonal_multiply(diag, off, vectors):
    """T x along the last axis of vectors; diag and off broadcast against it."""
    out = diag * vectors
    if vectors.shape[-1] > 1:
        out[..., 1:] += off * vectors[..., :-1]
        out[..., :-1] += off * vectors[..., 1:]
    return out


def _lowest_pair(diag, off):
    """Lowest two eigenpairs (ascending values, (N, 2) vectors) of one real
    symmetric tridiagonal matrix, as scipy.linalg.eigh_tridiagonal(select='i',
    select_range=(0, 1)) computes them, without its argument handling: dstebz
    bisection in block order, dstein inverse iteration, then the reorder by
    value, one comparison (at eps = 0 the matrix splits into 1x1 blocks,
    listed by block).
    Raises LinAlgError on a nonzero info or when dstebz returns no pair."""
    m, w, iblock, isplit, info = _lapack.dstebz(diag, off, 2, 0.0, 0.0, 1, 2, 0.0, "B")
    if info != 0 or m != 2:
        raise np.linalg.LinAlgError(f"dstebz returned {m} eigenvalues, info {info}")
    w = w[:2]
    vectors, info = _lapack.dstein(diag, off, w, iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstein info {info}")
    if w[1] < w[0]:
        return w[::-1], vectors[:, ::-1]
    return w, vectors


def _seeded_pairs(diag, offdiag, seed, lam, vec) -> np.ndarray:
    """Fill lam[m] and vec[m] (ascending values, (2, N) vectors) for each row m
    of the block that its seed pair certifies; return the mask of those rows.

    The shifts are the Rayleigh quotients of the two seed vectors seed[m]
    ((N, 2), a certified pair of a nearby block) on row m's own block; one
    dstein call on that unsplit block at those shifts gives the pair, whose
    values are the Rayleigh quotients of the returned vectors.  The pair is
    kept only when the shifts and values ascend strictly, dstein reports info
    0, both residuals and the orthogonality defect are within the bounds of
    eig_tridiagonal's gates, and a Sturm count (dstebz over (vl, vu] with an
    abstol so large that it only counts) finds exactly two eigenvalues up to
    E1 + RESIDUAL_BOUND x the residual unit: with those residuals the two
    values then lie next to E0 and E1.  Any other row is left to bisection.
    """
    size = len(diag)
    seed = seed.swapaxes(1, 2)
    shifts = (np.einsum("mkn,mkn->mk", seed, _tridiagonal_multiply(diag, offdiag[:, None], seed))
              / np.einsum("mkn,mkn->mk", seed, seed))
    # dstein reads the block as one split-off block of all N rows
    iblock, isplit = np.ones(size, np.int32), np.full(size, size, np.int32)
    ok = shifts[:, 0] < shifts[:, 1]  # False for a swapped, degenerate or NaN seed
    for m in np.flatnonzero(ok):
        pair, info = _lapack.dstein(diag, offdiag[m], shifts[m], iblock, isplit)
        ok[m] = info == 0
        vec[m] = pair.T
    rows = np.flatnonzero(ok)
    v = vec[rows]
    tv = _tridiagonal_multiply(diag, offdiag[rows, None], v)
    values = lam[rows] = np.einsum("mkn,mkn->mk", v, tv)
    tv -= v * values[..., None]
    max_diag = float(np.abs(diag).max())
    unit = np.maximum(np.abs(values[:, 0]), max(1.0, max_diag))
    ok[rows] = ((values[:, 0] < values[:, 1])
                & (np.sqrt(np.einsum("mkn,mkn->mk", tv, tv))
                   <= RESIDUAL_BOUND * unit[:, None]).all(axis=1)
                & (np.abs(np.einsum("mn,mn->m", v[:, 0], v[:, 1])) <= ORTHOGONALITY_BOUND))
    # (vl, vu] runs from below the Gershgorin bound to E1 + the residual bound
    below = -(max_diag + 2.0 * np.abs(offdiag[rows]).max(axis=1, initial=0.0) + 1.0)
    for m, vl, vu in zip(rows, below, values[:, 1] + RESIDUAL_BOUND * unit):
        if not ok[m]:
            continue
        count, *_, info = _lapack.dstebz(diag, offdiag[m], 1, vl, vu, 0, 0, COUNT_ONLY_ABSTOL, "B")
        ok[m] = info == 0 and count == 2
    return ok


def eig_tridiagonal(block: TridiagonalBlock, seed: np.ndarray | None = None) -> Spectrum:
    """Lowest two eigenpairs of each row of a real symmetric tridiagonal block.

    One bisection and inverse iteration per row give the pair in O(N); the
    two units of Spectrum are O(N) bounds read off the block, with no further
    solve.  With a seed ((M, N, 2): a certified pair per row, as a nearby
    block's Spectrum.eigenvectors gives it), each row is first solved from its
    seed pair by one inverse iteration (_seeded_pairs); a row whose pair fails
    that certificate is bisected, to the same bits as an unseeded solve.
    The sign convention, the units and the certificates are then taken on
    the whole row at once, seeded or not; a row of one takes the same path.
    """
    diag, offdiag = block.diag, block.offdiag
    rows = len(offdiag)
    if not (np.isfinite(diag).all() and np.isfinite(offdiag).all()):
        raise ValueError("array must not contain infs or NaNs")
    lam = np.empty((rows, 2))
    # (M, 2, N): each eigenvector is one contiguous row
    vec = np.empty((rows, 2, block.size))
    bisect = (range(rows) if seed is None
              else np.flatnonzero(~_seeded_pairs(diag, offdiag, seed, lam, vec)))
    for m in bisect:
        try:
            lam[m], pair = _lowest_pair(diag, offdiag[m])
        except np.linalg.LinAlgError as exc:
            raise EigenConvergenceError(f"even block of size {block.size}, row {m}: "
                                        f"tridiagonal eigensolve failed: {exc}") from exc
        vec[m] = pair.T

    # Canonical sign: largest-magnitude component of each vector positive
    # (never zero for a unit vector).
    vec *= np.sign(vec[np.arange(rows)[:, None], np.arange(2), np.abs(vec).argmax(-1)])[..., None]
    # The largest absolute row sum (Gershgorin) bounds ||T||_2 above; |E0|
    # and every |d_i| bound it below.
    abs_diag, abs_off = np.abs(diag), np.abs(offdiag)
    row_sums = np.repeat(abs_diag[None], rows, axis=0)
    row_sums[:, :-1] += abs_off
    row_sums[:, 1:] += abs_off
    scale = np.maximum(row_sums.max(axis=1), 1.0)
    resid = _tridiagonal_multiply(diag, offdiag[:, None], vec)
    resid -= vec * lam[..., None]
    resid_norms = np.sqrt(np.einsum("mkn,mkn->mk", resid, resid))
    defects = np.abs(np.einsum("mn,mn->m", vec[:, 0], vec[:, 1]))
    residual_unit = np.maximum(np.abs(lam[:, 0]), max(1.0, float(abs_diag.max())))
    _certify((resid_norms <= RESIDUAL_BOUND * residual_unit[:, None]).all(axis=1),
             block, lambda m: f"residual {resid_norms[m].max():.3e} exceeds bound "
                              f"(worst eigenpair {int(np.argmax(resid_norms[m]))})")
    _certify(defects <= ORTHOGONALITY_BOUND, block,
             lambda m: f"orthogonality defect {defects[m]:.3e} exceeds bound")

    return Spectrum(eigenvalues=lam, eigenvectors=vec.swapaxes(1, 2),
                    max_residual=float(resid_norms.max()),
                    max_orthogonality_defect=float(defects.max()),
                    scale=scale, residual_unit=residual_unit)


def ground_state_row(points, seed: np.ndarray | None = None) -> GroundState:
    """Ground states of a row of points that share kerr and n_cut: one
    stacked even-sector solve over the row's eps (a point is a row of one),
    seeded per row if seed is given (eig_tridiagonal)."""
    block = sector_block(points)
    spec = eig_tridiagonal(block, seed)
    lam, u0 = spec.eigenvalues, spec.eigenvectors[..., 0]
    levels, weights = block.index_map, u0**2
    mean_n = (levels * weights).sum(axis=1)
    # the levels above n_cut - TAIL_LEVELS are the last ones of the sector
    tail = weights[:, levels.searchsorted(points[0].n_cut - TAIL_LEVELS, "right"):].sum(axis=1)
    return GroundState(points=tuple(points), energy=lam[:, 0], gap=lam[:, 1] - lam[:, 0],
                       vectors=u0, levels=levels, mean_n=mean_n,
                       var_n=(levels**2 * weights).sum(axis=1) - mean_n**2,
                       tail_weight=tail, cutoff_warning=~(tail <= TAIL_TOLERANCE),
                       block=block, spectrum=spec)
