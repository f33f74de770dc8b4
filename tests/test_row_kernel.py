"""The row kernel against point-by-point calls, and the QGTResult gates.

A row of points that share kerr and n_cut is solved as one stacked
block of the even sector; every result must equal the single-point call bit
for bit, because the scaling report and the CSVs are compared byte for byte.
"""

import numpy as np
import pytest

import kerrqgt.qgt as qgt
from kerrqgt import (
    GapError,
    ModelParams,
    QGTResult,
    eig_tridiagonal,
    ground_state_row,
    qgt_fd_row,
    qgt_spectral,
    qgt_spectral_row,
    sector_block,
)
from kerrqgt.qgt import PSD_TOLERANCE

ROWS = [
    # (size, n_cut, eps row): a row of one point, rows through eps = 0, rows
    # across the transition and into the symmetry-broken regime
    (150, 400, [0.97]),
    (40, 200, np.linspace(0.0, 1.5, 7)),
    (150, 400, np.arange(0.95, 1.06 + 0.002, 0.004)),
    (350, 400, np.concatenate([[0.0], np.linspace(0.6, 1.3, 9)])),
]


def _row(size, n_cut, eps_row):
    return [ModelParams.from_size(size, e, n_cut=n_cut) for e in eps_row]


def _label(row):
    size, n_cut, eps_row = row
    return f"L={size}-ncut={n_cut}-M={len(eps_row)}"


@pytest.mark.parametrize("row", ROWS, ids=_label)
def test_stacked_blocks_are_the_single_blocks(row):
    points = _row(*row)
    stack = sector_block(points)
    assert stack.offdiag.shape == (len(points), stack.size - 1)
    for m, p in enumerate(points):
        single = sector_block([p])
        assert single.offdiag.shape == (1, stack.size - 1)
        assert np.array_equal(stack.diag, single.diag)
        assert np.array_equal(stack.offdiag[m], single.offdiag[0])
        assert np.array_equal(stack.index_map, single.index_map)


@pytest.mark.parametrize("row", ROWS, ids=_label)
def test_tensor_row_equals_single_calls(row):
    points = _row(*row)
    results = qgt_spectral_row(ground_state_row(points))
    assert len(results) == len(points)
    for p, r in zip(points, results):
        single = qgt_spectral(p)
        assert r.params is p
        assert (r.g_ee, r.g_pp, r.g_ep, r.f_ep) == (
            single.g_ee, single.g_pp, single.g_ep, single.f_ep)
        assert (r.gap, r.mean_n, r.var_n, r.tail_weight, r.cutoff_warning) == (
            single.gap, single.mean_n, single.var_n, single.tail_weight,
            single.cutoff_warning)


@pytest.mark.parametrize("row", ROWS, ids=_label)
def test_ground_state_row_equals_single_calls(row):
    points = _row(*row)
    ground = ground_state_row(points)
    fields = ("energy", "gap", "mean_n", "var_n", "tail_weight", "cutoff_warning")
    assert ground.vectors.shape == (len(points), ground.block.size)
    assert all(getattr(ground, name).shape == (len(points),) for name in fields)
    # the row records its points, in order, and so does a seeded satellite row
    assert ground.points == tuple(points)
    assert all(a is b for a, b in zip(ground.points, points))
    satellites = [p.replace(eps=p.eps + 1e-4) for p in points]
    seeded = ground_state_row(satellites, seed=ground.spectrum.eigenvectors)
    assert seeded.points == tuple(satellites)
    for m, p in enumerate(points):
        single = ground_state_row([p])
        assert np.array_equal(ground.vectors[m], single.vectors[0])
        assert np.array_equal(ground.levels, single.levels)
        assert ([getattr(ground, name)[m] for name in fields]
                == [getattr(single, name)[0] for name in fields])


def test_fd_and_spectral_rows_share_the_context():
    # eps = 0 takes the boundary stencil; 1.3 is in the symmetry-broken regime
    points = _row(150, 400, [0.0, 0.5, 0.97, 1.3])
    fields = ("gap", "mean_n", "var_n", "tail_weight", "cutoff_warning")
    for fd, spectral in zip(qgt_fd_row(ground_state_row(points)),
                            qgt_spectral_row(ground_state_row(points))):
        assert (fd.method, spectral.method) == ("fd", "spectral")
        assert fd.params is spectral.params
        assert ([getattr(fd, name) for name in fields]
                == [getattr(spectral, name) for name in fields])


def test_stacked_spectrum_shapes():
    points = _row(150, 400, [0.5, 0.9, 1.1])
    block = sector_block(points)
    spec = eig_tridiagonal(block)
    assert spec.eigenvalues.shape == (3, 2)
    assert spec.eigenvectors.shape == (3, block.size, 2)
    assert spec.scale.shape == spec.residual_unit.shape == (3,)
    assert np.ndim(spec.max_residual) == 0
    # each ground vector is one contiguous row
    assert spec.eigenvectors[..., 0].strides[-1] == spec.eigenvectors.itemsize


def test_gap_floor_names_the_point_of_the_row(monkeypatch):
    points = _row(150, 400, np.linspace(0.8, 1.2, 9))
    ratios = []
    for p in points:
        spec = eig_tridiagonal(sector_block([p]))
        ratios.append((spec.eigenvalues[0, 1] - spec.eigenvalues[0, 0]) / spec.scale[0])
    worst, runner_up = np.sort(ratios)[:2]
    m = int(np.argmin(ratios))
    assert 0 < m < len(points) - 1
    # only the point with the smallest gap falls below the patched floor, and
    # each route names that point of the centre row, not a stencil satellite
    monkeypatch.setattr(qgt, "GAP_FLOOR", 0.5 * (worst + runner_up))
    for kernel in (qgt_spectral_row, qgt_fd_row):
        with pytest.raises(GapError, match=rf"row {m}: sector gap .* at eps={points[m].eps:g}, "
                                           rf"kerr=0.00666667, n_cut=400$"):
            kernel(ground_state_row(points))


def test_row_points_must_share_everything_but_eps():
    with pytest.raises(ValueError, match="differ in more than eps: "):
        qgt_spectral_row(ground_state_row([ModelParams.from_size(150, 0.9, n_cut=400),
                                           ModelParams.from_size(200, 0.9, n_cut=400)]))
    for kernel in (ground_state_row, lambda points: qgt_spectral_row(ground_state_row(points))):
        with pytest.raises(ValueError, match="at least one point"):
            kernel([])


# ---------------------------------------------------------------------------
# QGTResult gates: finite entries and a closed-form PSD test on the real record

def _old_gates(q):
    """The gates as they were: allclose at zero tolerance and eigvalsh."""
    if not np.allclose(q, q.conj().T, rtol=0, atol=0):
        raise ValueError("q is not Hermitian")
    if q[0, 0].imag != 0.0 or q[1, 1].imag != 0.0:
        raise ValueError("diagonal of q must be exactly real")
    g = q.real
    eigmin = min(np.linalg.eigvalsh(g))
    if eigmin < -PSD_TOLERANCE * max(1.0, float(np.trace(g))):
        raise ValueError("metric is not positive semidefinite")


def _accepts(gate, q) -> bool:
    try:
        gate(q)
    except ValueError:
        return False
    return True


def _new_gate(q):
    """The record of the Hermitian q = g - (i/2) F."""
    QGTResult(g_ee=q[0, 0].real, g_pp=q[1, 1].real, g_ep=q[0, 1].real,
              f_ep=-2.0 * q[0, 1].imag, gap=1.0, method="spectral",
              params=ModelParams.from_size(150, 0.9), mean_n=0.0, var_n=0.0,
              tail_weight=0.0, cutoff_warning=False)


GATE_CASES = {
    "psd": ([[2.0, 0.5j], [-0.5j, 1.0]], True),
    "rank one": ([[1.0, 1.0], [1.0, 1.0]], True),
    "nan diagonal": ([[np.nan, 0.0], [0.0, 1.0]], False),
    "nan off-diagonal": ([[1.0, np.nan], [np.nan, 1.0]], False),
    "indefinite": ([[1.0, 2.0], [2.0, 1.0]], False),
    "negative diagonal": ([[-1.0, 0.0], [0.0, 1.0]], False),
    # PSD_TOLERANCE x max(1, trace): unit 1 on a diagonal metric, unit ~2
    # on a nearly rank-one one with eigmin ~ -d/2
    "edge inside, unit 1": ([[-0.99e-9, 0.0], [0.0, 1.0]], True),
    "edge outside, unit 1": ([[-1.01e-9, 0.0], [0.0, 1.0]], False),
    "edge inside, unit trace": ([[1.0, 1.0], [1.0, 1.0 - 3.6e-9]], True),
    "edge outside, unit trace": ([[1.0, 1.0], [1.0, 1.0 - 4.4e-9]], False),
}


@pytest.mark.parametrize("case", sorted(GATE_CASES))
def test_result_gates_match_the_old_ones(case):
    q, accepted = GATE_CASES[case]
    q = np.array(q, dtype=complex)
    assert _accepts(_old_gates, q) == accepted
    assert _accepts(_new_gate, q) == accepted


@pytest.mark.parametrize("q", [
    [[np.inf, 0.0], [0.0, 1.0]],
    [[-np.inf, 0.0], [0.0, 1.0]],
    [[1.0, np.inf], [np.inf, 1.0]],
    [[np.inf, 0.0], [0.0, np.inf]],
])
def test_result_gates_reject_infinities(q):
    # eigvalsh returns NaN for an infinite entry, which the old comparison let
    # through; a non-finite tensor is now rejected before the PSD test
    q = np.array(q, dtype=complex)
    assert _accepts(_old_gates, q)
    assert not _accepts(_new_gate, q)
