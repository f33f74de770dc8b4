"""Truncated Fock-space model of a parametrically driven Kerr resonator.

The Hamiltonian (hbar = 1, every energy in units of the detuning) is

    H = K adag^2 a^2 + adag a - (eps/2) (e^{-i phi} adag^2 + e^{i phi} a^2),

kept on the truncated basis {|0>, ..., |n_cut>}.  The two-photon drive only
couples Fock levels n and n+2, so the matrix is pentadiagonal with an empty
first off-diagonal and splits into even/odd parity blocks.  A diagonal gauge
rotation with phases e^{i n phi / 2} removes the drive phase, leaving real
symmetric tridiagonal blocks whose off-diagonal entries are non-positive.
The phase is a gauge: no spectrum, photon distribution or geometric tensor
depends on it, so ModelParams has no phi and every point is H at phi = 0.
sector_block builds the even block, the ground state's (see eigensolver) and
the only one the package needs, for a row of M points that share kerr and
n_cut (a point is a row of one): one diagonal under (M, N-1) off-diagonals.
The eps-independent arrays of a block (sector_arrays) are built once per
(kerr, n_cut) and shared read-only.

The phase only relabels states, so the package never forms a complex
full-Fock vector: a ground state is a real sector vector on its Fock levels
(eigensolver.GroundState); <n>, Var(n) and the tail weight are read off it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Tail-weight gate: total ground-state weight allowed on the last few levels
# before a truncation is considered inadequate.
TAIL_LEVELS = 10
TAIL_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of one model instance, energies in units of the detuning.

    kerr  : Kerr nonlinearity K >= 0, in units of the detuning.
    eps   : dimensionless two-photon drive amplitude, >= 0.
    n_cut : highest retained Fock level; the basis dimension is n_cut + 1.
    """

    kerr: float
    eps: float
    n_cut: int = 800

    def __post_init__(self):
        if not math.isfinite(self.kerr) or self.kerr < 0:
            raise InputError(f"kerr must be >= 0, got {self.kerr}")
        if not math.isfinite(self.eps) or self.eps < 0:
            raise InputError(f"eps must be >= 0, got {self.eps}")
        if not math.isfinite(self.n_cut) or int(self.n_cut) != self.n_cut or self.n_cut < 4:
            raise InputError(f"n_cut must be an integer >= 4, got {self.n_cut}")

    @property
    def dim(self) -> int:
        return int(self.n_cut) + 1

    @property
    def effective_size(self) -> float:
        """Effective system size 1 / K; the thermodynamic limit is reached as it grows."""
        if self.kerr == 0:
            raise ValueError("effective size is undefined for kerr = 0")
        return 1.0 / self.kerr

    @classmethod
    def from_size(cls, size: float, eps: float, n_cut: int = 800) -> "ModelParams":
        """Build parameters at a given effective size L = 1 / K."""
        if not size > 0:
            raise InputError(f"size must be positive, got {size}")
        if not math.isfinite(size):
            raise InputError(f"size must be finite, got {size}")
        return cls(kerr=1.0 / size, eps=eps, n_cut=n_cut)

    def replace(self, **kw) -> "ModelParams":
        return dataclasses.replace(self, **kw)


def pair_coupling(n):
    """Two-photon matrix element sqrt((n+1)(n+2)) for |n> -> |n+2>."""
    n = np.asarray(n, dtype=float)
    return np.sqrt((n + 1.0) * (n + 2.0))


@dataclass(frozen=True)
class TridiagonalBlock:
    """A parity sector after the gauge rotation, over a row of M points:
    M real symmetric tridiagonal blocks that share the eps-independent diagonal.

    index_map[m] is the Fock level represented by sector index m (2m in the
    even sector that sector_block builds).  offdiag has shape (M, size - 1),
    one row per point; its entries are <= 0 for eps > 0.
    """

    size: int
    diag: np.ndarray
    offdiag: np.ndarray
    index_map: np.ndarray

    def __post_init__(self):
        if (self.diag.shape != (self.size,) or self.offdiag.ndim != 2
                or self.offdiag.shape[1] != self.size - 1):
            raise ValueError(f"inconsistent block shapes {self.diag.shape}, {self.offdiag.shape}")


@functools.lru_cache(maxsize=64)
def sector_arrays(kerr: float, n_cut: int):
    """(diag, coupling, index_map) of the even sector at (kerr, n_cut),
    cached and read-only: the diagonal K n(n-1) + n on the Fock levels
    n = 0, 2, ..., the two-photon elements pair_coupling(n) between them, and
    the levels themselves (ints)."""
    levels = np.arange(0, n_cut + 1, 2, dtype=float)
    arrays = (kerr * levels * (levels - 1.0) + levels,
              pair_coupling(levels[:-1]), levels.astype(int))
    for array in arrays:
        array.setflags(write=False)
    return arrays


def sector_block(points) -> TridiagonalBlock:
    """The even sector over a row of points.

    The points must share kerr and n_cut; they may differ in eps only, and
    anything else raises ValueError.  The sectors of H(eps, 0) are real
    tridiagonal with off-diagonal -(eps/2) sqrt((n+1)(n+2)), one row per point.
    """
    if not points:
        raise ValueError("a row needs at least one point")
    first = points[0]
    for p in points:
        if (p.kerr, p.n_cut) != (first.kerr, first.n_cut):
            raise ValueError(f"row points differ in more than eps: {first} and {p}")
    diag, coupling, index_map = sector_arrays(first.kerr, first.n_cut)
    eps = np.array([p.eps for p in points], dtype=float)
    off = -(eps[:, None] / 2.0) * coupling
    return TridiagonalBlock(size=len(diag), diag=diag, offdiag=off, index_map=index_map)
