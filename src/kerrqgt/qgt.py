"""Ground-state quantum geometric tensor over the drive coordinates (eps, phi).

Two independent routes are provided and must agree:

* linear response on the even-sector ground state (one Sternheimer solve),
* one overlap stencil on two step scales, combined by Richardson
  extrapolation: distances for the metric and a plaquette overlap product
  for the Berry curvature, in real arithmetic on the even-sector vectors,
  where the drive phase drops out (_fd.tensor_fd, qgt_fd_row).

Both row kernels take one argument, the centre row: ground_state_row of the
grid points, a GroundState that records the points it was solved for.  Each
gap-gates every row it reads, centre and stencil satellites alike (_gap_gate).
A sweep solves the centre row once for both routes (at the cutoff the sweep
certifies for the row); the stencil vectors around each point are seeded
from its certified pair (eigensolver), not bisected.

The linear-response route also gives d g_ee / d eps analytically (third-order
response: a second back-substitution on the factorisation of the first
solve, g_ee_slope), whose root locates the pseudo-critical peak of g_ee.
The drive derivative C is scaled from the two-photon couplings that
model.sector_arrays caches.

The ground state is the even sector's (see eigensolver), and both drive
derivatives conserve parity, so everything stays inside that sector.
scipy.linalg is imported at the first solve, inside _sternheimer (its dpttrf
and dpttrs), so that a run which solves nothing does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fd import stencil_eps, tensor_fd
from .eigensolver import (
    ORTHOGONALITY_BOUND,
    RESIDUAL_BOUND,
    GroundState,
    _certify,
    _tridiagonal_multiply,
    ground_state_row,
)
from .errors import GapError
from .model import ModelParams, sector_arrays

GAP_FLOOR = 1e-12
PSD_TOLERANCE = 1e-9

DEFAULT_STEP_EPS = 1e-4
DEFAULT_STEP_PHI = 1e-3

# The fields of a QGTResult read off its point's row of the GroundState.
CONTEXT = ("gap", "mean_n", "var_n", "tail_weight", "cutoff_warning")


@dataclass(frozen=True)
class QGTResult:
    """Geometric tensor over ordered coordinates (eps, phi) plus context.

    The tensor Q = g - (i/2) F is fixed by four real numbers: the metric
    entries g_ee, g_pp and g_ep, and the Berry curvature f_ep = -2 Im Q_{eps,phi}.
    gap, mean_n, var_n, tail_weight and cutoff_warning describe the even ground
    state at the point, whichever route (method) gave the tensor.
    """

    g_ee: float
    g_pp: float
    g_ep: float
    f_ep: float
    gap: float
    method: str
    params: ModelParams
    mean_n: float
    var_n: float
    tail_weight: float
    cutoff_warning: bool

    def __post_init__(self):
        a, c, b = self.g_ee, self.g_pp, self.g_ep
        if not all(map(math.isfinite, (a, c, b, self.f_ep))):
            raise ValueError("tensor has a non-finite entry")
        # smallest eigenvalue of the real symmetric 2x2 metric, in closed form
        eigmin = 0.5 * (a + c) - math.hypot(0.5 * (a - c), b)
        if eigmin < -PSD_TOLERANCE * max(1.0, a + c):
            raise ValueError(f"metric is not positive semidefinite: eigmin = {eigmin:.3e}")


def _gap_gate(ground: GroundState) -> GroundState:
    """ground, each gap of its row certified above GAP_FLOOR x its Gershgorin
    bound (GapError otherwise, naming the point): every row a tensor route
    reads passes through here."""
    gap, scale, points = ground.gap, ground.spectrum.scale, ground.points
    _certify(gap > GAP_FLOOR * scale, ground.block,
             lambda m: f"sector gap {gap[m]:.3e} is below the floor {GAP_FLOOR:g} x "
                       f"Gershgorin bound {scale[m]:.3e} at eps={points[m].eps:g}, "
                       f"kerr={points[m].kerr:g}, n_cut={points[m].n_cut}",
             GapError)
    return ground


def _result(ground: GroundState, m: int, method: str, *tensor) -> QGTResult:
    """The tensor (g_ee, g_pp, g_ep, f_ep) of point m of ground with the
    CONTEXT of its row.  Adding 0.0 writes a zero of either sign as +0 and
    leaves every other value as it is."""
    return QGTResult(*(float(x) + 0.0 for x in tensor), method=method,
                     params=ground.points[m],
                     **{name: getattr(ground, name)[m].item() for name in CONTEXT})


def _sternheimer(block, e0: np.ndarray, u0: np.ndarray, rhs: np.ndarray,
                 residual_unit: np.ndarray, powers: int) -> list[np.ndarray]:
    """[R rhs, R^2 rhs, ...] for R = (T - E0)^+ and rhs orthogonal to u0,
    on every row of a stacked block (arrays (M, N), e0 and residual_unit (M,)).

    Row and column k = argmax|u0| are dropped.  The ground vector of an
    irreducible Jacobi matrix has no zero component, so by Cauchy interlacing
    every eigenvalue of what remains lies strictly above E0: the reduced
    shifted matrix is positive definite.  One O(N) LDL^T factorisation
    (dpttrf) per row serves every power; each back-substitution (dpttrs)
    gives a solution with y_k = 0, from which u0 is projected out.  At eps = 0
    the block is diagonal, u0 is a unit vector and the same holds.
    """
    import scipy.linalg
    rows, size = u0.shape
    # keep[m] lists the indices that survive deflation of row m, in order;
    # a reduced off-diagonal entry that straddles the dropped index is zero.
    k = np.abs(u0).argmax(axis=1)
    kept = np.arange(size - 1)
    keep = kept + (kept >= k[:, None])
    diag = block.diag[keep] - e0[:, None]
    off = block.offdiag[np.arange(rows)[:, None], keep[:, :-1]]
    off[keep[:, 1:] != keep[:, :-1] + 1] = 0.0
    factors = [scipy.linalg.lapack.dpttrf(d, e) for d, e in zip(diag, off)]
    _certify(np.array([info == 0 for *_, info in factors]), block,
             lambda m: f"shifted block is not positive definite after deflation "
                       f"(dpttrf info {factors[m][2]})")
    solutions = np.zeros((powers, rows, size))
    for m, (d, e, _) in enumerate(factors):
        source, u, index = rhs[m], u0[m], keep[m]
        for y in solutions[:, m]:
            y[index], _ = scipy.linalg.lapack.dpttrs(d, e, source[index])
            y -= (u @ y) * u
            source = y

    # every power's certificates in one pass over the (powers, M, N) stack
    resid = _tridiagonal_multiply(block.diag - e0[:, None], block.offdiag, solutions)
    resid[0] -= rhs
    resid[1:] -= solutions[:-1]
    residual = np.sqrt(np.einsum("pmn,pmn->pm", resid, resid))
    overlap = np.abs(np.einsum("mn,pmn->pm", u0, solutions))
    norm_y = np.maximum(1.0, np.sqrt(np.einsum("pmn,pmn->pm", solutions, solutions)))
    limit = RESIDUAL_BOUND * residual_unit * norm_y
    for p in range(powers):
        _certify(residual[p] <= limit[p], block,
                 lambda m: f"linear-response residual {residual[p, m]:.3e} exceeds bound")
        _certify(overlap[p] <= ORTHOGONALITY_BOUND * norm_y[p], block,
                 lambda m: f"linear response keeps overlap {overlap[p, m]:.3e} with the "
                           f"ground vector")
    return list(solutions)


def _response(ground: GroundState, powers: int):
    """The eps response on ground, a row of even ground states
    (ground_state_row) of points that share delta, kerr and n_cut, whose gaps
    it gates first (_gap_gate).

    Returns C = dT/deps (its off-diagonal band, the same for every eps),
    dE0 = u0.C u0 (Hellmann-Feynman) and the Sternheimer solutions
    [y, R y, ...] for y = R (C u0 - dE0 u0), each (M, N).
    """
    _gap_gate(ground)
    u0, first = ground.vectors, ground.points[0]
    band = -(first.delta / 2.0) * sector_arrays(first.delta, first.kerr, first.n_cut)[1]
    rhs = _tridiagonal_multiply(0.0, band, u0)
    de0 = np.array([u @ r for u, r in zip(u0, rhs)])
    rhs -= de0[:, None] * u0
    solutions = _sternheimer(ground.block, ground.energy, u0, rhs,
                             ground.spectrum.residual_unit, powers)
    return band, de0, solutions


def qgt_spectral_row(ground: GroundState) -> list[QGTResult]:
    """Geometric tensors of the points of a centre row ground =
    ground_state_row(points), points that share delta, kerr and n_cut.

    One Sternheimer solve per row gives every point's tensor exactly as
    qgt_spectral gives it alone.
    """
    _, _, (y,) = _response(ground, powers=1)
    n_u0 = ground.levels * ground.vectors
    return [_result(ground, m, "spectral", y[m] @ y[m], ground.var_n[m] / 4.0,
                    0.0, -(y[m] @ n_u0[m]))
            for m in range(len(ground.points))]


def qgt_spectral(params: ModelParams) -> QGTResult:
    """Geometric tensor by linear response on the even-sector ground state.

    The drive phase is a gauge rotation, so the tensor is computed at phi = 0
    in real arithmetic from the lowest two levels and u0 alone.  With
    C = dT/deps (off-diagonal band -(delta/2) sqrt((n+1)(n+2))) and
    dH/dphi = -i[n/2, H]:

        y    = (T - E0)^+ (1 - |u0><u0|) C u0     (one Sternheimer solve)
        g_ee = y.y,   g_pp = Var(n)/4,   f_ep = -y.(n u0),   g_ep = 0.

    The method label stays "spectral": this is the spectral sum over the
    even-sector eigenbasis, evaluated without the eigenbasis.  It is the row
    of one point (qgt_spectral_row).
    """
    return qgt_spectral_row(ground_state_row([params]))[0]


def g_ee_slope(params: ModelParams) -> float:
    """d g_ee / d eps at params, by third-order response: one more
    back-substitution.  Differentiating the Sternheimer equation
    (T - E0) y = (C - dE0) u0, with du0/deps = -y and d(dE0)/deps = -2 y.C u0,
    gives (the 2n+1 theorem)

        d g_ee / d eps = -4 z.(C y - dE0 y),   z = (T - E0)^+ y,

    where z reuses the factorisation that gave y.  g_ee is even in eps
    (eps -> -eps is the gauge shift phi -> phi + pi), so the slope is 0 at
    eps = 0.
    """
    band, (de0,), (y, z) = _response(ground_state_row([params]), powers=2)
    return float(-4.0 * (z[0] @ (_tridiagonal_multiply(0.0, band, y[0]) - de0 * y[0])))


def _even_ground_family(ground: GroundState, step_eps: float) -> list[dict]:
    """The stencil vectors of the points of a centre row ground =
    ground_state_row(points), points that share delta, kerr and n_cut, whose
    gaps it gates first (_gap_gate).

    Every other eps of a point's stencils (stencil_eps) is a satellite of
    that point: one gap-gated stacked solve of all the row's satellites, each
    row seeded by its own point's certified pair (eig_tridiagonal), gives
    their ground vectors.  Entry i maps exactly the stencil eps of point i to
    their real ground vectors on ground.levels (its own eps read off the
    centre row), so a point's stencil owes nothing to its neighbours.
    """
    _gap_gate(ground)
    owners, satellites = [], []
    for i, p in enumerate(ground.points):
        stencil = stencil_eps(p.eps, step_eps) - {float(p.eps)}
        owners += [i] * len(stencil)
        satellites += [p.replace(eps=eps) for eps in sorted(stencil)]
    tables = [{float(p.eps): u} for p, u in zip(ground.points, ground.vectors)]
    if satellites:
        solved = _gap_gate(ground_state_row(satellites, seed=ground.spectrum.eigenvectors[owners]))
        for i, p, u in zip(owners, satellites, solved.vectors):
            tables[i][p.eps] = u
    return tables


def qgt_fd_row(ground: GroundState, step_eps: float = DEFAULT_STEP_EPS,
               step_phi: float = DEFAULT_STEP_PHI) -> list[QGTResult]:
    """Geometric tensors of the points of a centre row ground =
    ground_state_row(points), points that share delta, kerr and n_cut, by
    the gauge-invariant overlap stencil tensor_fd on real vectors.

    One seeded solve of every point's stencil satellites (_even_ground_family)
    gives every tensor exactly as the row of that point alone gives it; each
    point's context is read off its centre, as the spectral route reads it.
    """
    tables = _even_ground_family(ground, step_eps)
    return [_result(ground, m, "fd",
                    *tensor_fd(table, ground.levels, p.eps, step_eps, step_phi))
            for m, (p, table) in enumerate(zip(ground.points, tables))]
