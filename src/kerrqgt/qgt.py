"""Ground-state quantum geometric tensor over the drive coordinates (eps, phi).

Three independent routes are provided and must agree:

* linear response on the even-sector ground state (one Sternheimer solve),
* overlap finite differences for the metric (with Richardson refinement),
* a plaquette overlap product for the Berry curvature.

The linear-response route also gives d g_ee / d eps analytically (third-order
response: a second back-substitution on the factorisation of the first
solve), whose root locates the pseudo-critical peak of g_ee.

The even sector carries the ground state throughout (exactly in the normal
phase, by the parity tie-break in the symmetry-broken regime), and both drive
derivatives conserve parity, so everything stays inside that sector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._fd import curvature_fd, metric_fd, susceptibility_fd
from .eigensolver import (
    ORTHOGONALITY_BOUND,
    RESIDUAL_BOUND,
    _tridiagonal_multiply,
    eig_tridiagonal,
)
from .errors import EigenConvergenceError, GapError
from .model import (
    ModelParams,
    pair_coupling,
    parity_blocks,
    TAIL_LEVELS,
    TAIL_TOLERANCE,
)

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
        if not np.allclose(self.q, self.q.conj().T, rtol=0, atol=0):
            raise ValueError("q is not Hermitian")
        if self.q[0, 0].imag != 0.0 or self.q[1, 1].imag != 0.0:
            raise ValueError("diagonal of q must be exactly real")
        g = self.q.real
        eigmin = min(np.linalg.eigvalsh(g))
        if eigmin < -PSD_TOLERANCE * max(1.0, float(np.trace(g))):
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


def _even_solution(params: ModelParams):
    even, _ = parity_blocks(params)
    return even, eig_tridiagonal(even)


def _sternheimer(block, e0: float, u0: np.ndarray, rhs: np.ndarray,
                 residual_unit: float, powers: int) -> list[np.ndarray]:
    """[R rhs, R^2 rhs, ...] for R = (T - E0)^+ and rhs orthogonal to u0.

    Row and column k = argmax|u0| are dropped.  The ground vector of an
    irreducible Jacobi matrix has no zero component, so by Cauchy interlacing
    every eigenvalue of what remains lies strictly above E0: the reduced
    shifted matrix is positive definite.  One O(N) LDL^T factorisation
    (dpttrf) serves every power; each back-substitution (dpttrs) gives a
    solution with y_k = 0, from which u0 is projected out.  At eps = 0 the
    block is diagonal, u0 is a unit vector and the same holds.
    """
    size = block.size
    k = int(np.argmax(np.abs(u0)))
    diag = np.delete(block.diag, k) - e0
    off = np.delete(block.offdiag, min(k, size - 2))
    if 0 < k < size - 1:
        off[k - 1] = 0.0
    d, e, info = scipy.linalg.lapack.dpttrf(diag, off)
    if info != 0:
        raise EigenConvergenceError(
            f"shifted {block.parity} block is not positive definite after "
            f"deflation (dpttrf info {info})")

    solutions = []
    for _ in range(powers):
        x, _ = scipy.linalg.lapack.dpttrs(d, e, np.delete(rhs, k))
        y = np.insert(x, k, 0.0)
        y -= (u0 @ y) * u0

        norm_y = max(1.0, float(np.linalg.norm(y)))
        shifted_y = _tridiagonal_multiply(block.diag - e0, block.offdiag, y[:, None])[:, 0]
        residual = float(np.linalg.norm(shifted_y - rhs))
        if residual > RESIDUAL_BOUND * residual_unit * norm_y:
            raise EigenConvergenceError(
                f"linear-response residual {residual:.3e} exceeds bound on "
                f"{block.parity} block")
        overlap = abs(float(u0 @ y))
        if overlap > ORTHOGONALITY_BOUND * norm_y:
            raise EigenConvergenceError(
                f"linear response keeps overlap {overlap:.3e} with the ground vector")
        solutions.append(y)
        rhs = y
    return solutions


def _band_multiply(band: np.ndarray, vector: np.ndarray) -> np.ndarray:
    return _tridiagonal_multiply(np.zeros(len(vector)), band, vector[:, None])[:, 0]


def _response(params: ModelParams, powers: int):
    """Gap-gated even ground pair and the eps response on it.

    Returns the block, u0, the gap, C = dT/deps (its off-diagonal band),
    dE0 = u0.C u0 (Hellmann-Feynman) and the Sternheimer solutions
    [y, R y, ...] for y = R (C u0 - dE0 u0).
    """
    block, spec = _even_solution(params)
    e0, u0 = float(spec.eigenvalues[0]), spec.eigenvectors[:, 0]
    gap = float(spec.eigenvalues[1]) - e0
    if gap <= GAP_FLOOR * spec.scale:
        raise GapError(f"sector gap {gap:.3e} is below the floor "
                       f"{GAP_FLOOR:g} x Gershgorin bound {spec.scale:.3e} at "
                       f"eps={params.eps:g}, kerr={params.kerr:g}, n_cut={params.n_cut}")

    band = -(params.delta / 2.0) * pair_coupling(block.index_map[:-1])
    rhs = _band_multiply(band, u0)
    de0 = u0 @ rhs
    rhs -= de0 * u0
    solutions = _sternheimer(block, e0, u0, rhs, spec.residual_unit, powers)
    return block, u0, gap, band, float(de0), solutions


def qgt_spectral(params: ModelParams) -> QGTResult:
    """Geometric tensor by linear response on the even-sector ground state.

    The drive phase is a gauge rotation, so the tensor is computed at phi = 0
    in real arithmetic from the lowest two levels and u0 alone.  With
    C = dT/deps (off-diagonal band -(delta/2) sqrt((n+1)(n+2))) and
    dH/dphi = -i[n/2, H]:

        y    = (T - E0)^+ (1 - |u0><u0|) C u0     (one Sternheimer solve)
        g_ee = y.y,   g_pp = Var(n)/4,   f_ep = -y.(n u0),   g_ep = 0.

    The method label stays "spectral": this is the spectral sum over the
    even-sector eigenbasis, evaluated without the eigenbasis.
    """
    block, u0, gap, _, _, (y,) = _response(params, powers=1)
    levels = block.index_map
    weights = u0**2
    mean_n = float(np.sum(levels * weights))
    var_n = float(np.sum(levels.astype(float) ** 2 * weights)) - mean_n**2
    q_ep = 0.5j * float(y @ (levels * u0))
    q = np.array([[float(y @ y), q_ep], [np.conj(q_ep), var_n / 4.0]])
    tail = float(np.sum(u0[levels > params.n_cut - TAIL_LEVELS] ** 2))
    return QGTResult(q=q, gap=gap, method="spectral", params=params,
                     mean_n=mean_n, var_n=var_n, tail_weight=tail,
                     cutoff_warning=bool(tail > TAIL_TOLERANCE))


def g_ee_slope(params: ModelParams) -> float:
    """d g_ee / d eps by third-order response: one more back-substitution.

    Differentiating the Sternheimer equation (T - E0) y = (C - dE0) u0, with
    du0/deps = -y and d(dE0)/deps = -2 y.C u0, gives (the 2n+1 theorem)

        d g_ee / d eps = -4 z.(C y - dE0 y),   z = (T - E0)^+ y,

    where z reuses the factorisation that gave y.  g_ee is even in eps
    (eps -> -eps is the gauge shift phi -> phi + pi), so the slope is 0 at
    eps = 0.
    """
    _, _, _, band, de0, (y, z) = _response(params, powers=2)
    return float(-4.0 * (z @ (_band_multiply(band, y) - de0 * y)))


def _even_ground_family(params: ModelParams):
    """State map (eps, phi) -> gauge-phased even-sector ground vector, caching
    the eps solves."""
    cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def state(eps: float, phi: float) -> np.ndarray:
        key = float(eps)
        if key not in cache:
            block, spec = _even_solution(params.replace(eps=key, phi=0.0))
            cache[key] = (spec.eigenvectors[:, 0], block.index_map)
        vec, levels = cache[key]
        return vec * np.exp(-0.5j * levels * phi)

    return state


def metric_overlap(params: ModelParams, step_eps: float = DEFAULT_STEP_EPS,
                   step_phi: float = DEFAULT_STEP_PHI, state=None) -> np.ndarray:
    """2x2 quantum metric from gauge-invariant overlap finite differences.

    state is an _even_ground_family(params) to share its eps solves with
    other stencils at the same point; a fresh family by default.
    """
    if state is None:
        state = _even_ground_family(params)
    return metric_fd(state, params.eps, params.phi, step_eps, step_phi)


def berry_plaquette(params: ModelParams, step_eps: float = DEFAULT_STEP_EPS,
                    step_phi: float = DEFAULT_STEP_PHI, state=None) -> float:
    """Berry curvature F_{eps,phi} from the overlap product around one plaquette.

    state is shared as in metric_overlap.
    """
    if state is None:
        state = _even_ground_family(params)
    return curvature_fd(state, params.eps, params.phi, step_eps, step_phi)


def fidelity_susceptibility(params: ModelParams,
                            step_eps: float = DEFAULT_STEP_EPS) -> float:
    """chi_F = -2 ln F / h^2 under an eps shift; equals the g_ee metric entry."""
    return susceptibility_fd(_even_ground_family(params), params.eps, params.phi,
                             step_eps)

