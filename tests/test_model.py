"""Hamiltonian assembly, parity blocks, gauge phases, basic observables.

The gauge-phase, photon-moment and tail-weight checks cover the Fock-basis
helpers of reference.py, and the odd-block checks its odd_block, which the
other test modules use as slow paths.
"""

import dataclasses

import numpy as np
import pytest

import kerrqgt
from kerrqgt import InputError, ModelParams, TridiagonalBlock, qgt_spectral, sector_block
from kerrqgt.eigensolver import _tridiagonal_multiply, ground_state_row
from reference import (dense_eigenvalues, dense_even_ground, dense_hamiltonian, fock_vector,
                       full_spectrum, gauge_phases, mean_photon, odd_block, photon_variance,
                       tail_weight)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(kerr=-0.1, eps=1.0)
    with pytest.raises(ValueError):
        ModelParams(kerr=0.0, eps=-0.5)
    with pytest.raises(ValueError):
        ModelParams(kerr=0.0, eps=1.0, n_cut=3)


def test_effective_size():
    p = ModelParams(kerr=0.002, eps=0.5)
    assert p.effective_size == pytest.approx(500.0)
    with pytest.raises(ValueError):
        _ = ModelParams(kerr=0.0, eps=0.5).effective_size
    q = ModelParams.from_size(250, 0.5)
    assert q.kerr == pytest.approx(1.0 / 250.0)


def test_replace_validates_and_rejects_unknown_fields():
    p = ModelParams(kerr=0.01, eps=0.5)
    assert p.replace(eps=0.7, n_cut=40) == ModelParams(kerr=0.01, eps=0.7, n_cut=40)
    with pytest.raises(InputError, match="eps must be >= 0"):
        p.replace(eps=-1.0)
    with pytest.raises(TypeError):
        p.replace(colour="red")


def test_params_have_no_drive_phase():
    # the drive phase is a gauge (see model), so it is not a parameter
    assert [f.name for f in dataclasses.fields(ModelParams)] == ["kerr", "eps", "n_cut"]


def test_diagonal_entries():
    h = dense_hamiltonian(ModelParams(kerr=0.01, eps=1.0, n_cut=16))
    assert h[0, 0] == 0.0
    assert h[4, 4] == pytest.approx(0.01 * 12 + 4.0)  # K n(n-1) + n at n=4


def test_band_entries_no_kerr():
    h = dense_hamiltonian(ModelParams(kerr=0.0, eps=1.0, n_cut=16))
    assert h[2, 0] == pytest.approx(-np.sqrt(2.0) / 2.0)  # <n+2|H|n>
    assert h[4, 2] == pytest.approx(-np.sqrt(12.0) / 2.0)
    # only the main diagonal and the offset-2 bands are occupied
    rows, cols = np.nonzero(h)
    assert set(np.abs(rows - cols)) == {0, 2}


def test_dense_hermitian_exactly():
    dense = dense_hamiltonian(ModelParams(kerr=0.02, eps=0.8, n_cut=24), phi=0.9, delta=1.3)
    assert np.max(np.abs(dense - dense.conj().T)) == 0.0


def test_banded_apply_matches_dense():
    # The package's one banded matvec, on the package's even block and the
    # reference odd block, is the dense Hamiltonian at any phi once the gauge
    # phases are undone and redone.
    p, phi = ModelParams(kerr=0.03, eps=0.7, n_cut=20), 1.1
    rng = np.random.default_rng(7)
    v = rng.normal(size=p.dim) + 1j * rng.normal(size=p.dim)
    rotated = gauge_phases(p.dim, -phi) * v
    out = np.zeros(p.dim, dtype=complex)
    for block in (sector_block([p]), odd_block(p, phi)):
        sector = rotated[block.index_map]
        out[block.index_map] = _tridiagonal_multiply(block.diag, block.offdiag[0], sector)
    np.testing.assert_allclose(gauge_phases(p.dim, phi) * out, dense_hamiltonian(p, phi) @ v,
                               atol=1e-12)


# (delta, K, eps, phi, n_cut), delta and K in the same units: three fixed
# detunings, then random points at random detunings in [0.5, 2].
_RNG = np.random.default_rng(42)
PHYSICAL_POINTS = [(1.1, 0.03, 0.7, 1.1, 20), (1.2, 0.03, 0.8, 0.9, 24),
                   (1.3, 0.02, 0.8, 0.9, 24)] + [
    (float(_RNG.uniform(0.5, 2.0)), float(_RNG.uniform(0.005, 0.1)),
     float(_RNG.uniform(0.0, 1.5)), float(_RNG.uniform(0.0, 2 * np.pi)),
     int(_RNG.integers(12, 65))) for _ in range(5)]


@pytest.mark.parametrize("delta, kerr, eps, phi, n_cut", PHYSICAL_POINTS)
def test_energies_are_in_units_of_the_detuning(delta, kerr, eps, phi, n_cut):
    # H(delta, K) = delta h(K / delta): the package at L = delta / K has the
    # spectrum of the dense Hamiltonian at (delta, K) divided by delta, hence
    # a gap delta times smaller, and the same ground state and tensor, the
    # dense problem at the phase phi and the package at none.
    physical = ModelParams(kerr=kerr, eps=eps, n_cut=n_cut)
    p = ModelParams.from_size(delta / kerr, eps, n_cut=n_cut)
    full = [full_spectrum(block).eigenvalues[0]
            for block in (sector_block([p]), odd_block(p, phi))]
    np.testing.assert_allclose(delta * np.sort(np.concatenate(full)),
                               dense_eigenvalues(physical, phi, delta), rtol=1e-12, atol=1e-9)
    gap, u0, tensor = dense_even_ground(physical, phi, delta)
    ground = ground_state_row([p])
    assert delta * ground.gap[0] == pytest.approx(gap, rel=1e-10)
    assert abs(np.vdot(u0, fock_vector(ground, p, phi))) == pytest.approx(1.0, abs=1e-12)
    r = qgt_spectral(p)
    assert r.gap == ground.gap[0]
    np.testing.assert_allclose([r.g_ee, r.g_pp, r.g_ep, r.f_ep], tensor,
                               rtol=1e-10, atol=1e-12 * max(map(abs, tensor)))


def test_parity_blocks_small():
    p = ModelParams(kerr=0.0, eps=1.0, n_cut=4)
    even, odd = sector_block([p]), odd_block(p)
    assert even.size == 3 and odd.size == 2
    np.testing.assert_allclose(even.diag, [0.0, 2.0, 4.0])
    np.testing.assert_allclose(even.offdiag, [[-np.sqrt(2.0) / 2.0, -np.sqrt(3.0)]])
    np.testing.assert_array_equal(even.index_map, [0, 2, 4])
    np.testing.assert_array_equal(odd.index_map, [1, 3])


def test_parity_blocks_no_drive_diagonal():
    p = ModelParams(kerr=0.05, eps=0.0, n_cut=12)
    even, odd = sector_block([p]), odd_block(p)
    assert np.all(even.offdiag == 0.0)
    assert np.all(odd.offdiag == 0.0)


def test_blocks_independent_of_phi():
    # At every phi the gauge phases G rotate the dense Hamiltonian into the
    # package's one block, G^dagger H(eps, phi) G = H(eps, 0) on the even
    # levels, and into the reference odd block at phi = 0, each up to the
    # rounding of the complex arithmetic.
    base = ModelParams(kerr=0.01, eps=0.9, n_cut=30)
    even = sector_block([base])
    tridiagonal = np.diag(even.diag) + np.diag(even.offdiag[0], 1) + np.diag(even.offdiag[0], -1)
    for phi in (np.pi / 4, np.pi):
        g = gauge_phases(base.dim, phi)
        rotated = g.conj()[:, None] * dense_hamiltonian(base, phi) * g[None, :]
        sector = rotated[np.ix_(even.index_map, even.index_map)]
        np.testing.assert_allclose(sector.real, tridiagonal, rtol=1e-15, atol=0)
        assert np.max(np.abs(sector.imag)) <= 1e-14 * np.max(np.abs(tridiagonal))
        a, b = odd_block(base), odd_block(base, phi)
        np.testing.assert_allclose(a.diag, b.diag, rtol=1e-15, atol=0)
        np.testing.assert_allclose(a.offdiag, b.offdiag, rtol=1e-15, atol=0)


def test_spectrum_independent_of_phi():
    # The gauge rotation with phases e^{i n phi / 2} conjugates H(eps, phi)
    # into H(eps, 0), so the dense spectra must coincide.
    base = ModelParams(kerr=0.02, eps=0.8, n_cut=40)
    ref = np.linalg.eigvalsh(dense_hamiltonian(base))
    scale = np.max(np.abs(ref))
    for phi in (np.pi / 4, np.pi, 2.3):
        ev = np.linalg.eigvalsh(dense_hamiltonian(base, phi))
        assert np.max(np.abs(ev - ref)) <= 1e-10 * scale


def test_block_spectra_match_dense():
    p, phi = ModelParams(kerr=0.02, eps=0.8, n_cut=40), 0.7
    even, odd = sector_block([p]), odd_block(p, phi)
    import scipy.linalg
    ev_blocks = np.sort(np.concatenate([
        scipy.linalg.eigvalsh_tridiagonal(even.diag, even.offdiag[0]),
        scipy.linalg.eigvalsh_tridiagonal(odd.diag, odd.offdiag[0]),
    ]))
    ev_dense = np.linalg.eigvalsh(dense_hamiltonian(p, phi))
    np.testing.assert_allclose(ev_blocks, ev_dense, atol=1e-10)


def test_even_state_stays_even():
    p = ModelParams(kerr=0.01, eps=1.2, n_cut=30)
    dense = dense_hamiltonian(p, phi=0.4)
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = np.zeros(p.dim, dtype=complex)
        v[::2] = rng.normal(size=len(v[::2])) + 1j * rng.normal(size=len(v[::2]))
        v /= np.linalg.norm(v)
        out = dense @ v
        assert np.max(np.abs(out[1::2])) == 0.0


def test_gauge_phases():
    state = np.zeros(8)
    state[2] = 1.0
    np.testing.assert_array_equal(gauge_phases(8, 0.0) * state, state.astype(complex))
    assert (gauge_phases(8, np.pi) * state)[2] == pytest.approx(-1.0)
    rng = np.random.default_rng(11)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    assert np.linalg.norm(gauge_phases(16, 1.7) * v) == pytest.approx(np.linalg.norm(v))


def test_gauge_phases_map_eigenvectors():
    p = ModelParams(kerr=0.02, eps=0.7, n_cut=36)
    w0, v0 = np.linalg.eigh(dense_hamiltonian(p))
    h1 = dense_hamiltonian(p, phi=1.3)
    mapped = gauge_phases(p.dim, 1.3) * v0[:, 0]
    resid = h1 @ mapped - w0[0] * mapped
    assert np.linalg.norm(resid) < 1e-10


def test_mean_photon():
    vac = np.zeros(10)
    vac[0] = 1.0
    assert mean_photon(vac) == 0.0
    mix = np.zeros(10)
    mix[0] = mix[2] = 1.0 / np.sqrt(2.0)
    assert mean_photon(mix) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mean_photon(2.0 * vac)


def test_photon_variance():
    mix = np.zeros(10)
    mix[0] = mix[2] = 1.0 / np.sqrt(2.0)
    assert photon_variance(mix) == pytest.approx(1.0)


def test_rho_against_displacement_amplitude():
    # In the symmetry-broken regime <n>/L approaches (eps - 1) / 2.
    p = ModelParams(kerr=1.0 / 2000.0, eps=1.3, n_cut=800)
    gs = ground_state_row([p])
    value = mean_photon(fock_vector(gs, p)) / p.effective_size
    assert value == pytest.approx(0.15, rel=0.05)
    assert not gs.cutoff_warning[0]


def test_tail_weight():
    v = np.zeros(100)
    v[0] = 1.0
    assert tail_weight(v) == 0.0
    v2 = np.zeros(100)
    v2[-1] = 1.0
    assert tail_weight(v2) == 1.0


def test_block_rejects_one_dimensional_offdiag():
    diag = np.array([0.0, 2.0, 4.0])
    with pytest.raises(ValueError, match="inconsistent block shapes"):
        TridiagonalBlock(size=3, diag=diag, offdiag=np.array([-1.0, -1.0]),
                         index_map=np.array([0, 2, 4]))


def test_every_exported_name_resolves():
    assert [name for name in kerrqgt.__all__ if not hasattr(kerrqgt, name)] == []
