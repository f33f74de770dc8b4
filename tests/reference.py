"""Slow, independent reference paths for the tests (not part of the package).

Everything here is built straight from the Hamiltonian formula or from a full
decomposition, never from the kernels it checks:

* dense_hamiltonian and dense_drive_derivatives assemble the complex
  full-Fock matrices from ladder operators;
* dense_eigenvalues diagonalizes the dense matrix, and dense_even_ground
  its even Fock rows and columns, with the sum over states on them;
  these four take the drive phase phi (default 0) and the detuning delta
  (default 1, the package's unit of energy) as arguments, since the
  package has neither;
* odd_block is the odd parity sector of one point, read off the same
  ladder-operator Hamiltonian at a phase phi with the gauge phases undone
  (the package builds only the even sector);
* full_spectrum is the whole spectrum of a parity block over a row of one
  point (LAPACK dstev) under the package's residual and orthogonality
  bounds, in the package's Spectrum layout; a NaN fails every gate;
* two_sector_race races the minima of both parity sectors' whole spectra
  (dstev, values only), with near-degenerate minima resolved to even in the
  exact unit max(1, ||T||_2);
* gauge_phases, lift and fock_vector put sector vectors on the full Fock
  basis at a phase phi; mean_photon and photon_variance read <n> and Var(n) off
  a normalized Fock-basis state;
* qgt_sum_over_states is the spectral sum over the full even-sector
  eigenbasis at a phase phi, on lifted vectors with the dense drive
  derivatives;
* fidelity_susceptibility is -2 ln of the ground-state overlap under an eps
  shift, on full_spectrum ground vectors;
* collapse_objective is the data-collapse spread computed curve by curve:
  it concatenates and re-sorts the other curves' points for every curve and
  masks the points inside their range, with no early exit;
* scan_exponent and fit_shifted_power are the shifted-power fit on
  np.linalg.lstsq in place of the package's closed-form line: an lstsq
  residual at every one of the DRIFT_EXPONENT_SCAN grid exponents, and in
  the golden-section polish and the final fit;
* lazy_even_ground_vectors is the fd family's real vectors solved one eps
  at a time, on first request, as a row of one, and bisected_qgt_fd is the
  fd tensor on them: every stencil state bisected, none seeded;
* complex_tensor_fd is the overlap stencil on complex gauge-phased states
  (gauge_family puts real vectors on them): four complex corners per scale,
  phase-aligned complex distances, the polarization of the two mixed
  distances for g_ep and a complex overlap product for f_ep, each formed
  from the states as they are, with none of tensor_fd's real reductions;
* fixed_cutoff_scaling and fixed_cutoff_run are scaling_pipeline and
  sweep.run with every row solved at the cap n_cut, as before the cutoff
  ladder: with CUTOFF_RUNGS empty the cap is the only rung, so no probe is
  made and no row moves;
* squeezed_vacuum_fock, displaced_squeezed_fock and displaced_squeezed_cat
  are the closed-form phases' states on the Fock basis (the displacement by
  scipy.sparse expm_multiply), gated by tail_weight, and
  squeezed_vacuum_qgt_fd is the geometric tensor of the squeezed-vacuum
  family by complex_tensor_fd on those states: the slow path behind the
  package's closed-form normal_phase_qgt_limit;
* brentq and nelder_mead are scipy.optimize's brentq and non-adaptive
  minimize(method="Nelder-Mead"), the library routines behind the package's
  ports scaling.brent_root and scaling.nelder_mead.

From the package it takes only data containers, the block builder
sector_block, the gate constants and the error classes; for
lazy_even_ground_vectors the eigensolver eig_tridiagonal without a seed,
because that path checks the stacking, seeding and lookup of the package's
family, whose centre vectors it must match bit for bit, not the bisection;
for bisected_qgt_fd the real stencil tensor_fd, applied to vectors that owe
nothing to the seeded solve; for complex_tensor_fd the stencil's edge list
and step check, because it checks the arithmetic on the edges, not their
choice; for fixed_cutoff_scaling and fixed_cutoff_run the scaling pipeline
and the sweep themselves, because those paths check the choice of cutoff,
not the fits or the kernels; and for fit_shifted_power the golden-section
search and the grid constants, because that path checks the least-squares
residuals that the scan and the polish minimise, not the search.
"""

from __future__ import annotations

import cmath
import math
from unittest import mock

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg

import kerrqgt.scaling
import kerrqgt.sweep
from kerrqgt.eigensolver import (
    ORTHOGONALITY_BOUND,
    RESIDUAL_BOUND,
    Spectrum,
    eig_tridiagonal,
)
from kerrqgt._fd import DIST_CEIL, EDGE_OVERLAP_FLOOR, _check_steps, _edges, tensor_fd
from kerrqgt.errors import (CutoffError, EigenConvergenceError, GapError, StepSizeError,
                            WindowError)
from kerrqgt.model import TAIL_LEVELS, TAIL_TOLERANCE, TridiagonalBlock, sector_block
from kerrqgt.qgt import GAP_FLOOR, QGTResult
from kerrqgt.scaling import (
    DRIFT_EXPONENT_RANGE,
    DRIFT_EXPONENT_SCAN,
    ShiftedPowerFit,
    golden_section_min,
)


NORM_TOLERANCE = 1e-10
DEGENERACY_TOLERANCE = 1e-12
MAX_SQUEEZING = 5.0
DISPLACEMENT_HEADROOM = 1.5


def _ladder(dim: int):
    """Truncated annihilation operator a and its square, as sparse matrices."""
    a = scipy.sparse.diags(np.sqrt(np.arange(1.0, dim)), 1, format="csr")
    return a, a @ a


def _sparse_hamiltonian(params, phi: float = 0.0, delta: float = 1.0):
    """dense_hamiltonian as a sparse matrix."""
    a, a2 = _ladder(params.dim)
    drive = np.exp(-1j * phi) * a2.T
    return (params.kerr * (a2.T @ a2) + delta * (a.T @ a)
            - (delta * params.eps / 2.0) * (drive + drive.conj().T))


def dense_hamiltonian(params, phi: float = 0.0, delta: float = 1.0) -> np.ndarray:
    """H = K a+^2 a^2 + delta a+ a - (delta eps / 2)(e^{-i phi} a+^2 + e^{i phi} a^2),
    with K = params.kerr in the same units as the detuning delta.  At phi = 0
    and delta = 1 it is the package's Hamiltonian of params; at any phi it is
    that one conjugated by diag(gauge_phases(dim, phi)), and at any delta
    delta times the package's at kerr = K / delta.

    Exactly Hermitian: the two drive terms are built as conjugate transposes.
    """
    return _sparse_hamiltonian(params, phi, delta).toarray()


def dense_drive_derivatives(params, phi: float = 0.0,
                            delta: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """dH/deps and dH/dphi of dense_hamiltonian(params, phi, delta), differentiated
    by hand."""
    _, a2 = _ladder(params.dim)
    drive = np.exp(-1j * phi) * a2.T
    d_eps = -(delta / 2.0) * (drive + drive.conj().T)
    d_phi = -(delta * params.eps / 2.0) * (-1j * drive + (-1j * drive).conj().T)
    return d_eps.toarray(), d_phi.toarray()


def dense_eigenvalues(params, phi: float = 0.0, delta: float = 1.0) -> np.ndarray:
    """Whole spectrum of the dense Hamiltonian (small cutoffs only)."""
    return np.linalg.eigvalsh(dense_hamiltonian(params, phi, delta))


def _sum_over_states(lam, states, params, phi: float, delta: float = 1.0) -> tuple:
    """(g_ee, g_pp, g_ep, f_ep) of the ground state states[:, 0] as the sum
    over the other columns, full-Fock eigenvectors of the energies lam, with
    the drive derivatives of dense_hamiltonian(params, phi, delta)."""
    u0 = states[:, 0]
    d_eps, d_phi = dense_drive_derivatives(params, phi, delta)
    m_eps = states.conj().T @ (d_eps @ u0)
    m_phi = states.conj().T @ (d_phi @ u0)

    de2 = (lam[1:] - lam[0]) ** 2
    q_ee = float(np.sum(np.abs(m_eps[1:]) ** 2 / de2))
    q_pp = float(np.sum(np.abs(m_phi[1:]) ** 2 / de2))
    q_ep = complex(np.sum(np.conj(m_eps[1:]) * m_phi[1:] / de2))
    return q_ee, q_pp, q_ep.real, -2.0 * q_ep.imag


def dense_even_ground(params, phi: float = 0.0, delta: float = 1.0) -> tuple:
    """(gap, u0, (g_ee, g_pp, g_ep, f_ep)) of the even sector of
    dense_hamiltonian(params, phi, delta), by np.linalg.eigh of its even Fock
    rows and columns: the gap E1 - E0, the full-Fock ground vector and the sum
    over states."""
    even = np.arange(0, params.dim, 2)
    lam, vectors = np.linalg.eigh(dense_hamiltonian(params, phi, delta)[np.ix_(even, even)])
    states = np.zeros((params.dim, len(even)), dtype=complex)
    states[even] = vectors
    return (float(lam[1] - lam[0]), states[:, 0],
            _sum_over_states(lam, states, params, phi, delta))


def gauge_phases(dim: int, phi: float) -> np.ndarray:
    """The diagonal e^{-i n phi / 2}, n = 0..dim-1, that maps eigenvectors of
    H(eps, 0) onto eigenvectors of H(eps, phi)."""
    return np.exp(-0.5j * np.arange(dim) * phi)


def lift(vectors, levels, params, phi: float = 0.0) -> np.ndarray:
    """Sector vectors on the Fock levels `levels` (axis 0) as full-Fock vectors
    of params at the phase phi: zero on the other levels, times the gauge phases."""
    vectors = np.asarray(vectors)
    full = np.zeros((params.dim, *vectors.shape[1:]), dtype=complex)
    full[levels] = vectors
    phases = gauge_phases(params.dim, phi)
    return full * phases.reshape(-1, *[1] * (vectors.ndim - 1))


def odd_block(params, phi: float = 0.0) -> TridiagonalBlock:
    """The odd parity sector (Fock levels 1, 3, ...) of a row of one point.

    Read off the ladder-operator Hamiltonian at the phase phi as G^dagger H G,
    G = diag(gauge_phases), which is H(eps, 0): real up to rounding, and its
    real part is kept.  Nothing is taken from sector_block.
    """
    levels = np.arange(1, params.n_cut + 1, 2)
    undo = scipy.sparse.diags(gauge_phases(params.dim, phi).conj())
    rotated = undo @ _sparse_hamiltonian(params, phi) @ undo.conj()
    sector = rotated.tocsr()[levels][:, levels].real
    return TridiagonalBlock(size=len(levels), diag=sector.diagonal(),
                            offdiag=sector.diagonal(1)[None], index_map=levels)


def fock_vector(ground, params, phi: float = 0.0) -> np.ndarray:
    """The ground vector of a GroundState row of one, params, on the full Fock
    basis at the phase phi."""
    (vector,) = ground.vectors
    return lift(vector, ground.levels, params, phi)


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
    """The lower of the two parity sectors' minima, on their whole spectra.

    Returns (parity, sectors, scale): sectors maps "even" and "odd" to
    (block, eigenvalues), every eigenvalue of the block in ascending order
    (dstev without vectors: QR, independent of the package's bisection), and
    scale is the exact unit max(1, ||T||_2) of the larger block.  The odd
    sector wins only if its minimum lies below the even one by more than
    DEGENERACY_TOLERANCE x scale, so near-degenerate minima (the generic
    situation deep in the symmetry-broken regime) resolve to even.
    """
    sectors, scale = {}, 1.0
    for parity, block in (("even", sector_block([params])), ("odd", odd_block(params))):
        lam = scipy.linalg.eigvalsh_tridiagonal(block.diag, block.offdiag[0],
                                                lapack_driver="stev")
        sectors[parity] = block, lam
        scale = max(scale, abs(float(lam[0])), abs(float(lam[-1])))
    even, odd = sectors["even"][1][0], sectors["odd"][1][0]
    wins = odd < even - DEGENERACY_TOLERANCE * scale
    return ("odd" if wins else "even"), sectors, scale


def qgt_sum_over_states(params, phi: float = 0.0) -> QGTResult:
    """Q_jk = sum_{n>0} <u0|dH_j|u_n><u_n|dH_k|u0> / (E_n - E0)^2 at the phase phi.

    The sum runs over the full even-sector eigenbasis, lifted onto the Fock
    basis with the gauge phases of phi; both drive derivatives
    conserve parity, so the odd sector contributes nothing.  O(N^3).
    """
    even = sector_block([params])
    spec = full_spectrum(even)
    lam, scale = spec.eigenvalues[0], spec.scale[0]
    gap = float(lam[1] - lam[0])
    if not gap > GAP_FLOOR * scale:
        raise GapError(f"sector gap {gap:.3e} is below the floor "
                       f"{GAP_FLOOR:g} x spectral scale {scale:.3e}")

    states = lift(spec.eigenvectors[0], even.index_map, params, phi)
    u0 = states[:, 0]
    g_ee, g_pp, g_ep, f_ep = _sum_over_states(lam, states, params, phi)
    tail = tail_weight(u0)
    return QGTResult(g_ee=g_ee, g_pp=g_pp, g_ep=g_ep, f_ep=f_ep,
                     gap=gap, method="sum-over-states", params=params,
                     mean_n=mean_photon(u0), var_n=photon_variance(u0), tail_weight=tail,
                     cutoff_warning=bool(tail > TAIL_TOLERANCE))


class _LazyVectors(dict):
    def __init__(self, params):
        super().__init__()
        self.params = params

    def __missing__(self, eps):
        block = sector_block([self.params.replace(eps=float(eps))])
        vector = self[float(eps)] = eig_tridiagonal(block).eigenvectors[0, :, 0]
        return vector


def lazy_even_ground_vectors(params) -> dict:
    """Map eps -> real even ground vector at the kerr and n_cut of
    params, solving each eps as a row of one when first asked for it; it
    holds exactly the eps asked for."""
    return _LazyVectors(params)


def even_levels(params) -> np.ndarray:
    """The Fock levels 0, 2, ..., n_cut of the even sector of params."""
    return np.arange(0, params.n_cut + 1, 2)


def gauge_family(vectors, levels):
    """State map (eps, phi) -> vectors[eps] e^{-i n phi / 2} on the Fock levels
    n = levels: the complex family that complex_tensor_fd reads."""
    def state(eps, phi):
        return vectors[eps] * np.exp(-0.5j * levels * phi)

    return state


def bisected_qgt_fd(params, step_eps: float = 1e-4, step_phi: float = 1e-3):
    """(g_ee, g_pp, g_ep, f_ep) of params by tensor_fd on
    lazy_even_ground_vectors, which bisects every stencil state."""
    return tensor_fd(lazy_even_ground_vectors(params), even_levels(params), params.eps,
                     step_eps, step_phi)


# complex_tensor_fd's bounds: its distances below COMPLEX_DIST_ZERO count as
# zero, and below COMPLEX_DIST_FLOOR its plaquette keeps only 4-6 digits
COMPLEX_DIST_ZERO = 5e-16
COMPLEX_DIST_FLOOR = 1e-13


def _complex_distance(u1, u2) -> float:
    """|| u1 - e^{i theta} u2 ||^2, with e^{i theta} the phase that aligns u2
    with u1 (1 if <u1|u2> = 0), under complex_tensor_fd's bounds."""
    diff = u1 - cmath.rect(1.0, -cmath.phase(np.vdot(u1, u2))) * u2
    d = float(np.vdot(diff, diff).real)
    if not math.isfinite(d):
        raise StepSizeError(f"overlap distance {d} is not finite")
    if d <= COMPLEX_DIST_ZERO:
        return 0.0
    if d < COMPLEX_DIST_FLOOR:
        raise StepSizeError(f"overlap distance {d:.1e} is below the precision floor")
    if d / 2.0 > DIST_CEIL:
        raise StepSizeError(f"overlap distance {d:.1e} is too large")
    return d


def _complex_loop_phase(corners) -> float:
    """-arg of the overlap product around the corners, in order."""
    product = 1.0 + 0.0j
    for a, b in zip(corners, corners[1:] + corners[:1]):
        ov = complex(np.vdot(a, b))
        if not cmath.isfinite(ov) or abs(ov) < EDGE_OVERLAP_FLOOR:
            raise StepSizeError(f"plaquette edge overlap {ov} is not finite or near zero")
        product *= ov
    return -cmath.phase(product)


def complex_tensor_fd(state, eps: float, phi: float, step_eps: float,
                      step_phi: float) -> tuple[float, float, float, float]:
    """(g_ee, g_pp, g_ep, f_ep) at (eps, phi) by the overlap stencil on a
    complex state family state(eps, phi).  On the edges and scales of
    tensor_fd it reads the four corners (e_lo or e_hi, phi -+ h_phi/2) as
    complex vectors: g_ee is the distance along the edge at phi, g_pp across
    phi at eps, g_ep the polarization of the two mixed distances between
    corners, and f_ep the phase of the overlap product around the corners
    over the plaquette's area, combined by tensor_fd's Richardson rule."""
    _check_steps(step_eps, step_phi)
    forward, edges = _edges(eps, step_eps)
    scales = []
    for he, hp, (e_lo, e_hi) in zip((step_eps, step_eps / 2.0),
                                    (step_phi, step_phi / 2.0), edges):
        lo_m, lo_p, hi_m, hi_p = (state(e, phi + s * hp / 2.0)
                                  for e in (e_lo, e_hi) for s in (-1.0, 1.0))
        d_e = _complex_distance(state(e_lo, phi), state(e_hi, phi))
        d_p = _complex_distance(state(eps, phi - hp / 2.0), state(eps, phi + hp / 2.0))
        loop = _complex_loop_phase([lo_m, hi_m, hi_p, lo_p])
        d_mixed = _complex_distance(lo_m, hi_p) - _complex_distance(lo_p, hi_m)
        scales.append(np.array([d_e / he**2, d_p / hp**2, d_mixed / (4.0 * he * hp),
                                loop / (he * hp)]))
    t_h, t_half = scales
    return tuple(map(float, 2.0 * t_half - t_h if forward else (4.0 * t_half - t_h) / 3.0))


def fixed_cutoff_scaling(**kwargs):
    """scaling_pipeline(**kwargs) with every row solved at the cap n_cut."""
    with mock.patch.object(kerrqgt.scaling, "CUTOFF_RUNGS", ()):
        return kerrqgt.scaling.scaling_pipeline(**kwargs)


def fixed_cutoff_run(config):
    """sweep.run(config) with every qgt row solved at the cap n_cut."""
    with mock.patch.object(kerrqgt.scaling, "CUTOFF_RUNGS", ()):
        return kerrqgt.sweep.run(config)


def fidelity_susceptibility(params, step_eps: float = 1e-4) -> float:
    """chi_F = -2 ln|<u0(eps)|u0(eps + h)>| / h^2, which tends to g_ee as h -> 0.

    u0 is the even-sector ground vector from full_spectrum.  The forward
    difference has an O(h) error, removed by Richardson refinement over the
    steps h and h/2.
    """
    def ground(eps):
        block = sector_block([params.replace(eps=eps)])
        return full_spectrum(block).eigenvectors[0, :, 0]

    u0 = ground(params.eps)

    def chi(h):
        return -2.0 * np.log(abs(u0 @ ground(params.eps + h))) / h**2

    return 2.0 * chi(step_eps / 2.0) - chi(step_eps)


def _profile_residual(x, y, b) -> float:
    basis = np.column_stack([np.ones_like(x), x**b])
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return float(np.sum((basis @ coef - y) ** 2))


def scan_exponent(x, y) -> int:
    """Index of the grid exponent of least lstsq residual over the whole grid."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    grid = np.linspace(*DRIFT_EXPONENT_RANGE, DRIFT_EXPONENT_SCAN)
    return int(np.argmin([_profile_residual(x, y, b) for b in grid]))


def fit_shifted_power(x, y, i: int | None = None) -> ShiftedPowerFit:
    """kerrqgt.scaling.fit_shifted_power with lstsq residuals (scan_exponent,
    then the package's golden-section polish on _profile_residual); i is
    scan_exponent(x, y), computed here when the caller does not pass it."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    grid = np.linspace(*DRIFT_EXPONENT_RANGE, DRIFT_EXPONENT_SCAN)
    if i is None:
        i = scan_exponent(x, y)
    b, _ = golden_section_min(lambda b: _profile_residual(x, y, b),
                              grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)],
                              tol=1e-10)
    basis = np.column_stack([np.ones_like(x), x**b])
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return ShiftedPowerFit(limit=float(coef[0]), amplitude=float(coef[1]),
                           exponent=float(b), residual=_profile_residual(x, y, b),
                           boundary_warning=bool(i == 0 or i == len(grid) - 1))


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


def tail_weight(state: np.ndarray, n_last: int = TAIL_LEVELS) -> float:
    """Probability weight on the highest n_last retained levels."""
    return float(np.sum(np.abs(np.asarray(state)[-n_last:]) ** 2))


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
        k = np.arange(1, inner_dim, dtype=float)
        generator = scipy.sparse.diags(
            [alpha * np.sqrt(k), -np.conj(alpha) * np.sqrt(k)], [-1, 1], format="csc")
        base = scipy.sparse.linalg.expm_multiply(generator, base)
    out = base[: n_cut + 1]
    if tail_weight(base) > TAIL_TOLERANCE or tail_weight(out) > TAIL_TOLERANCE:
        raise CutoffError(
            f"displaced-squeezed state with |alpha|^2 = {abs(alpha)**2:.1f} does not "
            f"fit below n_cut = {n_cut}")
    return out / np.linalg.norm(out)


def displaced_squeezed_cat(alpha: complex, r: complex, n_cut: int) -> np.ndarray:
    """Normalized even cat of the two degenerate branches, the continuation of
    the even ground state above the transition."""
    combo = displaced_squeezed_fock(alpha, r, n_cut) + displaced_squeezed_fock(-alpha, r, n_cut)
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


def squeezed_vacuum_qgt_fd(eps: float, phi: float = 0.0, *, n_cut: int | None = None,
                           step_eps: float = 1e-4, step_phi: float = 1e-3) -> np.ndarray:
    """Geometric tensor of the squeezed-vacuum family at (eps, phi).

    Computed by gauge-invariant finite differences directly on the Fock-basis
    states, independently of the diagonalization pipeline.  Returns the 2x2
    complex tensor over ordered coordinates (eps, phi), in the layout of
    kerrqgt.normal_phase_qgt_limit.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"normal-phase limit requires 0 <= eps < 1, got {eps}")
    if n_cut is None:
        n_cut = _auto_cutoff(eps, margin_eps=max(step_eps, 2e-4))

    def state(e, p):
        r = 0.25 * np.log((1.0 - e) / (1.0 + e)) * np.exp(-1j * p)
        return squeezed_vacuum_fock(r, n_cut)

    g_ee, g_pp, g_ep, curvature = complex_tensor_fd(state, eps, phi, step_eps, step_phi)
    return np.array([
        [g_ee + 0.0j, g_ep - 0.5j * curvature],
        [g_ep + 0.5j * curvature, g_pp + 0.0j],
    ])


def brentq(f, xa: float, xb: float, xtol: float, maxiter: int = 100) -> float:
    """scipy's Brent root of f between xa and xb, at its default rtol."""
    return scipy.optimize.brentq(f, xa, xb, xtol=xtol, maxiter=maxiter)


def nelder_mead(f, x0, xatol: float, fatol: float, maxiter: int):
    """(x, f(x)) of scipy's non-adaptive Nelder-Mead minimum of f from x0."""
    result = scipy.optimize.minimize(f, x0, method="Nelder-Mead",
                                     options=dict(xatol=xatol, fatol=fatol, maxiter=maxiter))
    return result.x, result.fun
