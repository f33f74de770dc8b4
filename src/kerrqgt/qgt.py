"""Ground-state quantum geometric tensor over the drive coordinates (eps, phi).

Two independent routes are provided and must agree:

* linear response on the even-sector ground state (one Sternheimer solve),
* overlap finite differences for the metric (with Richardson refinement) and
  a plaquette overlap product for the Berry curvature (qgt_fd_row).

The linear-response route also gives d g_ee / d eps analytically (third-order
response: a second back-substitution on the factorisation of the first
solve), whose root locates the pseudo-critical peak of g_ee.

The ground state is the even sector's (see eigensolver), and both drive
derivatives conserve parity, so everything stays inside that sector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._fd import curvature_fd, metric_fd, stencil_eps
from .eigensolver import (
    ORTHOGONALITY_BOUND,
    RESIDUAL_BOUND,
    _certify,
    _photon_moments,
    _tridiagonal_multiply,
    eig_tridiagonal,
)
from .errors import GapError
from .model import ModelParams, pair_coupling, sector_block

GAP_FLOOR = 1e-12
PSD_TOLERANCE = 1e-9

DEFAULT_STEP_EPS = 1e-4
DEFAULT_STEP_PHI = 1e-3


@dataclass(frozen=True)
class QGTResult:
    """2x2 geometric tensor over ordered coordinates (eps, phi) plus context.

    g (metric) is the real part, berry_f the -2 Im view; both diagonals of
    berry_f vanish identically because q has an exactly real diagonal.
    """

    q: np.ndarray
    gap: float
    method: str
    params: ModelParams
    mean_n: float
    var_n: float
    tail_weight: float
    cutoff_warning: bool

    def __post_init__(self):
        if self.q.shape != (2, 2):
            raise ValueError("q must be 2x2")
        if not np.isfinite(self.q).all():
            raise ValueError("q has a non-finite entry")
        if not np.array_equal(self.q, self.q.conj().T):
            raise ValueError("q is not Hermitian")
        if self.q[0, 0].imag != 0.0 or self.q[1, 1].imag != 0.0:
            raise ValueError("diagonal of q must be exactly real")
        # smallest eigenvalue of the real symmetric 2x2 metric, in closed form
        (a, b), (_, c) = self.q.real
        eigmin = 0.5 * (a + c) - float(np.hypot(0.5 * (a - c), b))
        if eigmin < -PSD_TOLERANCE * max(1.0, a + c):
            raise ValueError(f"metric is not positive semidefinite: eigmin = {eigmin:.3e}")

    @property
    def g(self) -> np.ndarray:
        return self.q.real.copy()

    @property
    def berry_f(self) -> np.ndarray:
        return -2.0 * self.q.imag

    @property
    def g_ee(self) -> float:
        return float(self.q[0, 0].real)

    @property
    def g_pp(self) -> float:
        return float(self.q[1, 1].real)

    @property
    def g_ep(self) -> float:
        return float(self.q[0, 1].real)

    @property
    def f_ep(self) -> float:
        return float(-2.0 * self.q[0, 1].imag)


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
    rows, size = u0.shape
    # keep[m] lists the indices that survive deflation of row m, in order;
    # a reduced off-diagonal entry that straddles the dropped index is zero.
    k = np.argmax(np.abs(u0), axis=1)
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
        source = rhs[m]
        for y in solutions[:, m]:
            y[keep[m]], _ = scipy.linalg.lapack.dpttrs(d, e, source[keep[m]])
            y -= (u0[m] @ y) * u0[m]
            source = y

    shifted_diag = block.diag - e0[:, None]
    for source, y in zip([rhs, *solutions[:-1]], solutions):
        resid = _tridiagonal_multiply(shifted_diag, block.offdiag, y) - source
        residual = np.sqrt(np.einsum("mn,mn->m", resid, resid))
        overlap = np.abs(np.einsum("mn,mn->m", u0, y))
        norm_y = np.maximum(1.0, np.sqrt(np.einsum("mn,mn->m", y, y)))
        _certify(residual <= RESIDUAL_BOUND * residual_unit * norm_y, block,
                 lambda m: f"linear-response residual {residual[m]:.3e} exceeds bound")
        _certify(overlap <= ORTHOGONALITY_BOUND * norm_y, block,
                 lambda m: f"linear response keeps overlap {overlap[m]:.3e} with the "
                           f"ground vector")
    return list(solutions)


def _response(points, powers: int):
    """Gap-gated even ground pairs of a row and the eps response on them.

    points share delta, kerr and n_cut.  Returns the stacked even block, u0
    (M, N), the gaps, C = dT/deps (its off-diagonal band, the same for every
    eps), dE0 = u0.C u0 (Hellmann-Feynman) and the Sternheimer solutions
    [y, R y, ...] for y = R (C u0 - dE0 u0), each (M, N).
    """
    block = sector_block(points)
    spec = eig_tridiagonal(block)
    lam, u0 = spec.eigenvalues, spec.eigenvectors[..., 0]
    e0, gap = lam[:, 0], lam[:, 1] - lam[:, 0]
    _certify(gap > GAP_FLOOR * spec.scale, block,
             lambda m: f"sector gap {gap[m]:.3e} is below the floor {GAP_FLOOR:g} x "
                       f"Gershgorin bound {spec.scale[m]:.3e} at eps={points[m].eps:g}, "
                       f"kerr={points[m].kerr:g}, n_cut={points[m].n_cut}",
             GapError)

    band = -(points[0].delta / 2.0) * pair_coupling(block.index_map[:-1])
    rhs = _tridiagonal_multiply(0.0, band, u0)
    de0 = np.array([u @ r for u, r in zip(u0, rhs)])
    rhs -= de0[:, None] * u0
    solutions = _sternheimer(block, e0, u0, rhs, spec.residual_unit, powers)
    return block, u0, gap, band, de0, solutions


def qgt_spectral_row(points) -> list[QGTResult]:
    """Geometric tensors of a row of points that share delta, kerr and n_cut.

    One stacked even-block solve and one Sternheimer solve per row give every
    point's tensor exactly as qgt_spectral gives it alone.
    """
    block, u0, gap, _, _, (y,) = _response(points, powers=1)
    levels = block.index_map
    mean_n, tail, cutoff = _photon_moments(block, u0, points[0].n_cut)
    var_n = np.sum(levels.astype(float) ** 2 * u0**2, axis=1) - mean_n**2
    n_u0 = levels * u0
    results = []
    for m, params in enumerate(points):
        q_ep = 0.5j * float(y[m] @ n_u0[m])
        q = np.array([[float(y[m] @ y[m]), q_ep], [np.conj(q_ep), var_n[m] / 4.0]])
        results.append(QGTResult(q=q, gap=float(gap[m]), method="spectral", params=params,
                                 mean_n=float(mean_n[m]), var_n=float(var_n[m]),
                                 tail_weight=float(tail[m]),
                                 cutoff_warning=bool(cutoff[m])))
    return results


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
    return qgt_spectral_row([params])[0]


def g_ee_slope(params: ModelParams) -> float:
    """d g_ee / d eps by third-order response: one more back-substitution.

    Differentiating the Sternheimer equation (T - E0) y = (C - dE0) u0, with
    du0/deps = -y and d(dE0)/deps = -2 y.C u0, gives (the 2n+1 theorem)

        d g_ee / d eps = -4 z.(C y - dE0 y),   z = (T - E0)^+ y,

    where z reuses the factorisation that gave y.  g_ee is even in eps
    (eps -> -eps is the gauge shift phi -> phi + pi), so the slope is 0 at
    eps = 0.
    """
    _, _, _, band, (de0,), (y, z) = _response([params], powers=2)
    return float(-4.0 * (z[0] @ (_tridiagonal_multiply(0.0, band, y[0]) - de0 * y[0])))


def _even_ground_family(params: ModelParams, eps_values):
    """State map (eps, phi) -> gauge-phased even ground vector at the delta, kerr
    and n_cut of params, for every eps in eps_values.

    The distinct eps values are solved up front as one stacked row; the map
    only looks their vectors up (any other eps raises KeyError) and caches
    the gauge phases of each phi.
    """
    keys = sorted({float(eps) for eps in eps_values})
    spec = eig_tridiagonal(sector_block([params.replace(eps=eps) for eps in keys]))
    vectors = dict(zip(keys, spec.eigenvectors[..., 0]))
    levels = np.arange(0, params.n_cut + 1, 2)
    phases: dict[float, np.ndarray] = {}

    def state(eps: float, phi: float) -> np.ndarray:
        if phi not in phases:
            phases[phi] = np.exp(-0.5j * levels * phi)
        return vectors[float(eps)] * phases[phi]

    return state


def qgt_fd_row(points, step_eps: float = DEFAULT_STEP_EPS,
               step_phi: float = DEFAULT_STEP_PHI) -> list[tuple[np.ndarray, float]]:
    """(2x2 metric, Berry curvature F_{eps,phi}) of each point of a row that
    shares delta, kerr and n_cut, by gauge-invariant overlap finite
    differences (metric_fd first, so a step it rejects raises there, then
    curvature_fd).

    One stacked solve of the union of the points' stencil eps gives every
    pair exactly as qgt_fd gives it alone.
    """
    family = _even_ground_family(points[0], set().union(
        *(stencil_eps(p.eps, step_eps) for p in points)))
    return [(metric_fd(family, p.eps, p.phi, step_eps, step_phi),
             curvature_fd(family, p.eps, p.phi, step_eps, step_phi)) for p in points]


def qgt_fd(params: ModelParams, step_eps: float = DEFAULT_STEP_EPS,
           step_phi: float = DEFAULT_STEP_PHI) -> tuple[np.ndarray, float]:
    """(2x2 metric, Berry curvature) at one point: the row of one of qgt_fd_row."""
    return qgt_fd_row([params], step_eps, step_phi)[0]
