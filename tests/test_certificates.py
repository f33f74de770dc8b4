"""Every kernel certificate trips on the row that fails it, NaN included.

Each case breaks one LAPACK result (or the gap floor) on row 1 of a three-point
row and checks that the certificate guarding it raises its named error for
that row, where a NaN would slip past a `value > bound` test.  The slow
reference paths of the tests reject a NaN through the same kind of gate.
"""

import numpy as np
import pytest
import scipy.linalg

import kerrqgt.eigensolver as eigensolver
import kerrqgt.qgt as qgt
import reference
from kerrqgt import (
    EigenConvergenceError,
    GapError,
    ModelParams,
    ground_state_row,
    qgt_spectral_row,
    sector_block,
)
from kerrqgt.qgt import g_ee_slope_step

# even-gap / Gershgorin ratios 5.7e-4, 2.4e-4, 4.3e-4: a floor of 3e-4 fails row 1 only
ROW = [ModelParams.from_size(150, eps, n_cut=400) for eps in (0.9, 1.1, 1.2)]
BLOCK = "even block of size 201"


def _alter_call(monkeypatch, owner, name, index, alter):
    """Make call number `index` (from 0) of owner.name return alter(result)."""
    original = getattr(owner, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        result = original(*args, **kwargs)
        return alter(result) if len(calls) == index + 1 else result

    monkeypatch.setattr(owner, name, patched)


def _nan_component(result):
    lam, vec = result
    vec = vec.copy()
    vec[3, 0] = np.nan
    return lam, vec


def _perturbed_vector(result):
    lam, vec = result
    vec = vec.copy()
    vec[:, 0] += 1e-4 * vec[:, 1]
    return lam, vec


def _non_orthogonal_pair(result):
    # two copies of the ground pair: both residuals vanish, the pair overlaps fully
    lam, vec = result
    return np.array([lam[0], lam[0]]), np.column_stack([vec[:, 0], vec[:, 0]])


def _eigensolve(alter):
    return lambda mp: _alter_call(mp, eigensolver, "_lowest_pair", 1, alter)


def _solve(alter):
    return lambda mp: _alter_call(mp, scipy.linalg.lapack, "dpttrs", 1, alter)


def _unprojected_overlap(monkeypatch):
    # a ground vector of norm 2 on row 1 defeats the projection, not the solve
    sternheimer = qgt._sternheimer

    def doubled(block, e0, u0, *args):
        u0 = u0.copy()
        u0[1] *= 2.0
        return sternheimer(block, e0, u0, *args)

    monkeypatch.setattr(qgt, "_sternheimer", doubled)


def _spectral_row(points):
    return qgt_spectral_row(ground_state_row(points))


CASES = {
    "eigen-nan": (_eigensolve(_nan_component), _spectral_row,
                  EigenConvergenceError, "row 1: residual nan exceeds bound"),
    "eigen-residual": (_eigensolve(_perturbed_vector), _spectral_row,
                       EigenConvergenceError, "row 1: residual .* exceeds bound"),
    "orthogonality": (_eigensolve(_non_orthogonal_pair), _spectral_row,
                      EigenConvergenceError, "row 1: orthogonality defect 1.000e"),
    "bisection-info": (lambda mp: _alter_call(mp, scipy.linalg.lapack, "dstebz", 1,
                                              lambda r: (*r[:4], 3)),
                       _spectral_row, EigenConvergenceError,
                       "row 1: tridiagonal eigensolve failed: dstebz returned 2 "
                       "eigenvalues, info 3"),
    "bisection-count": (lambda mp: _alter_call(mp, scipy.linalg.lapack, "dstebz", 1,
                                               lambda r: (1, *r[1:])),
                        _spectral_row, EigenConvergenceError,
                        "row 1: tridiagonal eigensolve failed: dstebz returned 1 "
                        "eigenvalues, info 0"),
    "inverse-iteration-info": (lambda mp: _alter_call(mp, scipy.linalg.lapack, "dstein", 1,
                                                      lambda r: (r[0], 1)),
                               _spectral_row, EigenConvergenceError,
                               "row 1: tridiagonal eigensolve failed: dstein info 1"),
    "factorisation": (lambda mp: _alter_call(mp, scipy.linalg.lapack, "dpttrf", 1,
                                             lambda r: (r[0], r[1], 1)),
                      _spectral_row, EigenConvergenceError,
                      r"row 1: shifted block is not positive definite .*\(dpttrf info 1\)"),
    "solve-nan": (_solve(lambda r: (np.full_like(r[0], np.nan), r[1])), _spectral_row,
                  EigenConvergenceError, "row 1: linear-response residual nan exceeds"),
    "solve-wrong": (_solve(lambda r: (r[0] * (1.0 + 1e-3), r[1])), _spectral_row,
                    EigenConvergenceError, "row 1: linear-response residual .* exceeds"),
    "overlap": (_unprojected_overlap, _spectral_row, EigenConvergenceError,
                "row 1: linear response keeps overlap"),
    "gap-floor": (lambda mp: mp.setattr(qgt, "GAP_FLOOR", 3e-4), _spectral_row,
                  GapError, "row 1: sector gap .* at eps=1.1, kerr=0.00666667, n_cut=400$"),
    # call 1 is the slope's second back-substitution on a row of one point
    "slope-nan": (_solve(lambda r: (np.full_like(r[0], np.nan), r[1])),
                  lambda points: g_ee_slope_step(points[1])[0], EigenConvergenceError,
                  "row 0: linear-response residual nan exceeds"),
}


@pytest.mark.parametrize("case", CASES)
def test_certificate_names_the_failing_row(monkeypatch, case):
    setup, kernel, error, message = CASES[case]
    setup(monkeypatch)
    with pytest.raises(error, match=f"^{BLOCK}, {message}"):
        kernel(ROW)


def _nan_gap(monkeypatch):
    # the NaN level is set after full_spectrum's own gates, so only the gap floor sees it
    full_spectrum = reference.full_spectrum

    def nan_level(block):
        spec = full_spectrum(block)
        spec.eigenvalues[0, 1] = np.nan
        return spec

    monkeypatch.setattr(reference, "full_spectrum", nan_level)


REFERENCE_CASES = {
    "eigen-nan": (lambda mp: _alter_call(mp, scipy.linalg, "eigh_tridiagonal", 0,
                                         _nan_component),
                  lambda p: reference.full_spectrum(sector_block([p])),
                  EigenConvergenceError, "residual nan exceeds bound"),
    "gap-nan": (_nan_gap, reference.qgt_sum_over_states, GapError, "sector gap nan"),
}


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_reference_gates_reject_nan(monkeypatch, case):
    setup, kernel, error, message = REFERENCE_CASES[case]
    setup(monkeypatch)
    with pytest.raises(error, match=f"^{message}"):
        kernel(ROW[1])


# Seeded rows: the satellites 5e-5 above ROW, each seeded by its point's pair.
SATELLITES = [p.replace(eps=p.eps + 5e-5) for p in ROW]


def _seed_of_row_1(replace):
    """Seeds of SATELLITES (the certified pairs of ROW) with row 1's replaced by
    replace(pair)."""
    seed = eigensolver.eig_tridiagonal(sector_block(ROW)).eigenvectors.copy()
    seed[1] = replace(seed[1])
    return seed


def _far_seed(pair):
    # the pair of the undriven block: its Rayleigh quotients lie far above E1
    return eigensolver.eig_tridiagonal(sector_block([ROW[1].replace(eps=0.0)])).eigenvectors[0]


def _nan_vector(result):
    vectors, info = result
    vectors = vectors.copy()
    vectors[3, 0] = np.nan
    return vectors, info


def _bisections(monkeypatch) -> list:
    """The off-diagonal of each row that eigensolver._lowest_pair solves from now on."""
    calls, lowest_pair = [], eigensolver._lowest_pair

    def counted(diag, off):
        calls.append(off)
        return lowest_pair(diag, off)

    monkeypatch.setattr(eigensolver, "_lowest_pair", counted)
    return calls


def _mixed_vector(result):
    vectors, info = result
    vectors = vectors.copy()
    vectors[:, 0] += 1e-4 * vectors[:, 1]
    return vectors, info


FALLBACK_CASES = {
    "far-seed": (lambda mp: None, _far_seed),
    "swapped-pair": (lambda mp: None, lambda pair: pair[:, ::-1]),
    "inverse-iteration-info": (
        lambda mp: _alter_call(mp, scipy.linalg.lapack, "dstein", 1, lambda r: (r[0], 1)),
        lambda pair: pair),
    "inverse-iteration-nan": (
        lambda mp: _alter_call(mp, scipy.linalg.lapack, "dstein", 1, _nan_vector),
        lambda pair: pair),
    # values still ascend and E1 is untouched, so only the residual and
    # orthogonality bounds see it
    "inverse-iteration-residual": (
        lambda mp: _alter_call(mp, scipy.linalg.lapack, "dstein", 1, _mixed_vector),
        lambda pair: pair),
    "sturm-count": (
        lambda mp: _alter_call(mp, scipy.linalg.lapack, "dstebz", 1, lambda r: (3, *r[1:])),
        lambda pair: pair),
}


@pytest.mark.parametrize("case", FALLBACK_CASES)
def test_failing_seeded_row_falls_back_to_bisection(monkeypatch, case):
    # row 1 fails its seeded certificate and is bisected, to the same bits as
    # an unseeded solve; rows 0 and 2 stay seeded
    setup, replace = FALLBACK_CASES[case]
    block = sector_block(SATELLITES)
    seed = _seed_of_row_1(replace)
    bisected = eigensolver.eig_tridiagonal(block)
    setup(monkeypatch)
    calls = _bisections(monkeypatch)
    seeded = eigensolver.eig_tridiagonal(block, seed)
    assert len(calls) == 1 and np.array_equal(calls[0], block.offdiag[1])
    assert np.array_equal(seeded.eigenvalues[1], bisected.eigenvalues[1])
    assert np.array_equal(seeded.eigenvectors[1], bisected.eigenvectors[1])
    for m in (0, 2):
        assert not np.array_equal(seeded.eigenvalues[m], bisected.eigenvalues[m])
        assert np.abs(seeded.eigenvectors[m] - bisected.eigenvectors[m]).max() <= 1e-13
    assert seeded.max_residual <= bisected.max_residual


def test_seeded_rows_need_no_bisection(monkeypatch):
    seed = _seed_of_row_1(lambda pair: pair)
    calls = _bisections(monkeypatch)
    spec = eigensolver.eig_tridiagonal(sector_block(SATELLITES), seed)
    assert calls == [] and spec.eigenvalues.shape == (3, 2)
