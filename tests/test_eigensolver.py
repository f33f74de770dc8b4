"""Tridiagonal solves, spectrum guarantees, and ground-state extraction."""

import numpy as np
import pytest
import scipy.linalg

from kerrqgt import (
    ModelParams,
    eig_tridiagonal,
    ground_state_row,
    sector_block,
)
from kerrqgt.eigensolver import _lowest_pair
from kerrqgt.model import TridiagonalBlock
from reference import (dense_eigenvalues, dense_even_ground, dense_hamiltonian, fock_vector,
                       full_spectrum, gauge_phases, odd_block, squeezed_vacuum_fock,
                       two_sector_race)


def make_block(diag, off):
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)[None]
    return TridiagonalBlock(size=len(diag), diag=diag, offdiag=off,
                            index_map=np.arange(0, 2 * len(diag), 2))


def test_diagonal_case():
    block = make_block([0.0, 2.0, 4.0], [0.0, 0.0])
    spec = eig_tridiagonal(block)
    np.testing.assert_allclose(spec.eigenvalues[0], [0.0, 2.0])
    np.testing.assert_allclose(np.abs(spec.eigenvectors[0]), np.eye(3)[:, :2], atol=1e-14)
    assert spec.scale[0] == 4.0
    full = full_spectrum(block)
    np.testing.assert_allclose(full.eigenvalues[0], [0.0, 2.0, 4.0])
    np.testing.assert_allclose(np.abs(full.eigenvectors[0]), np.eye(3), atol=1e-14)


@pytest.mark.parametrize("diag, off", [
    # split blocks listed out of value order: the bisection returns the pair
    # by block, [2, 1], and the reorder puts it in value order
    ([2.0, 1.0, 5.0], [0.0, 0.0]),
    ([3.0, -1.0, 0.5, 4.0], [0.7, 0.0, -0.2]),
    *[(sector_block([p]).diag, sector_block([p]).offdiag[0])
      for p in (ModelParams.from_size(150, eps, n_cut=120) for eps in (0.0, 0.5, 1.3))],
    # the even blocks of the bench phase diagram (L 800, n_cut 360, eps 0:1.5:31)
    # at eps 0, 0.5, 1.0, 1.2 and 1.5
    *[(sector_block([p]).diag, sector_block([p]).offdiag[0])
      for p in (ModelParams.from_size(800, eps, n_cut=360)
                for eps in np.linspace(0.0, 1.5, 31)[[0, 10, 20, 24, 30]])],
])
def test_lowest_pair_is_scipys_selective_solve(diag, off):
    diag, off = np.asarray(diag), np.asarray(off)
    values, vectors = _lowest_pair(diag, off)
    expected = scipy.linalg.eigh_tridiagonal(diag, off, select="i", select_range=(0, 1))
    assert np.array_equal(values, expected[0]) and np.array_equal(vectors, expected[1])
    assert values[0] <= values[1]


def test_two_by_two_closed_form():
    block = make_block([0.0, 2.0], [-1.0])
    for spec in (eig_tridiagonal(block), full_spectrum(block)):
        np.testing.assert_allclose(spec.eigenvalues[0],
                                   [1.0 - np.sqrt(2.0), 1.0 + np.sqrt(2.0)], atol=1e-14)


def test_no_drive_eigenvalues_are_diagonal():
    even = sector_block([ModelParams(kerr=0.01, eps=0.0, n_cut=20)])
    n = np.arange(0, 21, 2, dtype=float)
    expected = 0.01 * n * (n - 1) + n
    np.testing.assert_allclose(full_spectrum(even).eigenvalues[0], expected, atol=1e-13)
    np.testing.assert_allclose(eig_tridiagonal(even).eigenvalues[0], expected[:2],
                               atol=1e-13)


def test_spectrum_bounds_hold():
    p = ModelParams(kerr=1.0 / 400.0, eps=1.02, n_cut=800)
    for block in (sector_block([p]), odd_block(p)):
        full = full_spectrum(block)
        assert full.scale[0] == max(1.0, np.max(np.abs(full.eigenvalues)))
        for spec in (full, eig_tridiagonal(block)):
            assert spec.max_residual <= 1e-10 * full.scale[0]
            assert spec.max_orthogonality_defect <= 1e-10
            assert np.all(np.diff(spec.eigenvalues) >= 0.0)


def test_blocks_match_dense_debug_path():
    rng = np.random.default_rng(42)
    for _ in range(5):
        kerr, eps = float(rng.uniform(0.0, 0.1)), float(rng.uniform(0.0, 1.5))
        phi = float(rng.uniform(0.0, 2 * np.pi))
        p = ModelParams(kerr=kerr, eps=eps, n_cut=int(rng.integers(12, 65)))
        blocks = [sector_block([p]), odd_block(p, phi)]
        full = [full_spectrum(block).eigenvalues[0] for block in blocks]
        np.testing.assert_allclose(np.sort(np.concatenate(full)), dense_eigenvalues(p, phi),
                                   atol=1e-9)
        for block, eigenvalues in zip(blocks, full):
            np.testing.assert_allclose(eig_tridiagonal(block).eigenvalues[0],
                                       eigenvalues[:2], atol=1e-9)


def test_variational_bound():
    p = ModelParams(kerr=0.02, eps=0.9, n_cut=48)
    h = dense_hamiltonian(p, phi=0.3)
    (e0,) = ground_state_row([p]).energy
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.normal(size=p.dim) + 1j * rng.normal(size=p.dim)
        v /= np.linalg.norm(v)
        assert e0 <= np.real(np.vdot(v, h @ v)) + 1e-12


def test_ground_state_vacuum():
    p = ModelParams(kerr=0.01, eps=0.0, n_cut=24)
    gs = ground_state_row([p])
    assert gs.energy[0] == pytest.approx(0.0, abs=1e-14)
    assert two_sector_race(p)[0] == "even"
    assert abs(fock_vector(gs, p)[0]) == pytest.approx(1.0)
    assert gs.gap[0] == pytest.approx(2.0 + 2 * 0.01)  # 2 + 2 K within the even sector


def test_ground_state_normal_phase_is_even():
    for eps in (0.2, 0.5, 0.9):
        parity, sectors, _ = two_sector_race(ModelParams.from_size(200, eps, n_cut=400))
        e_even, e_odd = (lam[0] for _, lam in sectors.values())
        assert parity == "even"
        assert e_even < e_odd


def test_normal_phase_matches_squeezed_vacuum():
    p = ModelParams.from_size(500, 0.6, n_cut=800)
    target = squeezed_vacuum_fock(0.25 * np.log(0.4 / 1.6), 800)
    assert abs(np.vdot(target, fock_vector(ground_state_row([p]), p))) > 0.999


def test_degenerate_sectors_above_transition():
    # Two symmetry-broken branches: sector minima split only by tunneling,
    # far below any resolvable scale at this size.
    p = ModelParams.from_size(500, 1.5, n_cut=800)
    parity, sectors, _ = two_sector_race(p)
    e_even, e_odd = (lam[0] for _, lam in sectors.values())
    scale = max(1.0, abs(e_even))
    assert abs(e_even - e_odd) < 1e-10 * scale
    assert parity == "even"
    # both sector ground states carry the same condensate density ~ (eps-1)/2
    for blk in (sector_block([p]), odd_block(p)):
        spec = eig_tridiagonal(blk)
        w = spec.eigenvectors[0, :, 0] ** 2
        dens = float(np.sum(blk.index_map * w)) / p.effective_size
        assert dens == pytest.approx(0.25, rel=0.10)


def test_ground_state_gauge_phase():
    # the package's ground vector, put on the gauge phases of phi = 1.1, is
    # the dense even ground state at phi = 1.1
    p = ModelParams.from_size(300, 0.8, n_cut=400)
    mapped = fock_vector(ground_state_row([p]), p) * gauge_phases(p.dim, 1.1)
    _, u0, _ = dense_even_ground(p, phi=1.1)
    assert abs(np.vdot(mapped, u0)) == pytest.approx(1.0, abs=1e-12)


def test_cutoff_warning_fires_when_truncated():
    (flagged,) = ground_state_row([ModelParams.from_size(200, 1.8, n_cut=60)]).cutoff_warning
    assert flagged
