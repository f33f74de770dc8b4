"""Closed-form phase solutions and tensor limits, and their Fock realizations
(the slow paths of reference.py) as oracles."""

import numpy as np
import pytest

from kerrqgt import (
    CutoffError,
    ModelParams,
    eig_tridiagonal,
    ground_state_row,
    normal_phase,
    normal_phase_qgt_limit,
    qgt_spectral,
    sector_block,
    superradiant_phase,
    superradiant_qgt_limit,
)
from reference import (displaced_squeezed_cat, displaced_squeezed_fock, fock_vector,
                       gauge_phases, mean_photon, odd_block, squeezed_vacuum_fock,
                       squeezed_vacuum_qgt_fd)


def test_normal_phase_values():
    sol = normal_phase(1.0, 0.6)
    assert sol.omega_e == pytest.approx(0.8)
    assert sol.omega_g == pytest.approx(-0.1)
    assert sol.r == pytest.approx(0.25 * np.log(0.25))
    assert sol.r.real == pytest.approx(-0.34657359, abs=1e-8)


def test_normal_phase_no_drive():
    sol = normal_phase(1.0, 0.0)
    assert sol.omega_e == pytest.approx(1.0)
    assert sol.r == 0.0


def test_normal_phase_domain():
    with pytest.raises(ValueError):
        normal_phase(1.0, 1.0)
    with pytest.raises(ValueError):
        normal_phase(1.0, 1.5)


def test_superradiant_values():
    sol = superradiant_phase(1.0, 2.0, size=8.0)
    assert sol.alpha == pytest.approx(2.0)
    assert sol.omega_e == pytest.approx(2.0 * np.sqrt(2.0))
    assert sol.r.real == pytest.approx(0.25 * np.log(0.5), abs=1e-10)
    assert sol.r.real == pytest.approx(-0.17328680, abs=1e-8)
    minus = superradiant_phase(1.0, 2.0, size=8.0, branch="-")
    assert minus.alpha == pytest.approx(-sol.alpha)


def test_superradiant_domain():
    with pytest.raises(ValueError):
        superradiant_phase(1.0, 1.0, size=10.0)
    with pytest.raises(ValueError):
        superradiant_phase(1.0, 0.5, size=10.0)


def test_squeezed_vacuum_basics():
    vac = squeezed_vacuum_fock(0.0, 16)
    assert vac[0] == pytest.approx(1.0)
    assert np.all(vac[1:] == 0.0)

    r = 0.25 * np.log(0.25)  # |r| = 0.34657..., e^{2|r|} = 2 so <n> = 1/8
    sv = squeezed_vacuum_fock(r, 200)
    assert np.linalg.norm(sv) == pytest.approx(1.0, abs=1e-13)
    assert mean_photon(sv) == pytest.approx(np.sinh(abs(r)) ** 2, abs=1e-10)
    assert mean_photon(sv) == pytest.approx(0.125, abs=1e-10)
    assert np.all(sv[1::2] == 0.0)


def test_squeezed_vacuum_recurrence():
    r = -0.4 * np.exp(-0.7j)
    sv = squeezed_vacuum_fock(r, 120)
    t = np.tanh(abs(r))
    for m in range(5):
        ratio = sv[2 * m + 2] / sv[2 * m]
        expected = -(r / abs(r)) * t * np.sqrt((2 * m + 1.0) / (2 * m + 2.0))
        assert ratio == pytest.approx(expected, abs=1e-12)


def test_squeezed_vacuum_guards():
    with pytest.raises(ValueError):
        squeezed_vacuum_fock(6.0, 100)
    with pytest.raises(CutoffError):
        squeezed_vacuum_fock(2.0, 12)  # heavy squeezing cannot fit below n=12


def test_displaced_squeezed_reduces_to_squeezed():
    a = displaced_squeezed_fock(0.0, -0.3, 80)
    b = squeezed_vacuum_fock(-0.3, 80)
    assert abs(np.vdot(a, b)) == pytest.approx(1.0, abs=1e-12)


def test_coherent_state_poisson_weight():
    state = displaced_squeezed_fock(1.0, 0.0, 60)
    assert abs(state[0]) ** 2 == pytest.approx(np.exp(-1.0), abs=1e-10)


def test_displaced_squeezed_mean_photon():
    r = 0.25 * np.log(0.5)
    state = displaced_squeezed_fock(2.0, r, 120)
    expected = 4.0 + np.sinh(abs(r)) ** 2
    assert expected == pytest.approx(4.03033009, abs=1e-6)
    assert mean_photon(state) == pytest.approx(expected, abs=1e-8)


def test_displaced_squeezed_cutoff_guard():
    with pytest.raises(CutoffError):
        displaced_squeezed_fock(6.0, 0.0, 20)


def test_qgt_limit_at_zero_drive():
    for q in (normal_phase_qgt_limit(0.0), squeezed_vacuum_qgt_fd(0.0)):
        assert q[0, 0].real == pytest.approx(0.125, abs=1e-6)
        assert abs(q[1, 1]) < 1e-10
        assert abs(q[0, 1]) < 1e-10


def test_qgt_limit_against_closed_forms():
    # The closed forms against finite differences on the squeezed-vacuum Fock
    # states at phi = 0.4; g_pp is also sinh^2(2|r|) / 8.
    for eps in (0.0, 0.3, 0.6, 0.8):
        q, slow = normal_phase_qgt_limit(eps), squeezed_vacuum_qgt_fd(eps, phi=0.4)
        r = abs(normal_phase(1.0, eps).r)
        assert q[1, 1].real == pytest.approx(np.sinh(2.0 * r) ** 2 / 8.0, rel=1e-12)
        assert slow[0, 0].real == pytest.approx(q[0, 0].real, rel=2e-6)
        assert slow[1, 1].real == pytest.approx(q[1, 1].real, rel=2e-6, abs=1e-10)
        assert -2.0 * slow[0, 1].imag == pytest.approx(-2.0 * q[0, 1].imag, rel=2e-6,
                                                       abs=1e-10)
        assert abs(slow[0, 1].real) < 1e-8
        assert q[0, 1].real == 0.0
        assert q[0, 0].imag == q[1, 1].imag == 0.0
        assert q[1, 0] == np.conj(q[0, 1])


def test_qgt_limit_reference_values():
    for q in (normal_phase_qgt_limit(0.6), squeezed_vacuum_qgt_fd(0.6)):
        assert q[0, 0].real == pytest.approx(0.30518, abs=1e-5)
        assert q[1, 1].real == pytest.approx(0.07031, abs=1e-5)


def test_qgt_limits_domain_and_layout():
    with pytest.raises(ValueError):
        normal_phase_qgt_limit(1.0)
    with pytest.raises(ValueError):
        superradiant_qgt_limit(1.0, 100.0)
    with pytest.raises(ValueError):
        superradiant_qgt_limit(1.5, 0.0)
    q = superradiant_qgt_limit(2.0, 800.0)
    root = np.sqrt(2.0)
    assert q[0, 0] == pytest.approx(800.0 / (8.0 * root))
    assert q[1, 1] == pytest.approx(800.0 * root / 8.0)
    assert -2.0 * q[0, 1].imag == pytest.approx(200.0)
    assert q[0, 1].real == 0.0 and q[1, 0] == np.conj(q[0, 1])


@pytest.mark.parametrize("eps", [0.3, 0.6, 1.2, 1.5])
def test_spectral_tensor_approaches_closed_forms_as_one_over_L(eps):
    # Relative deviations from the closed forms are O(1/L) in both phases:
    # each shrinks at least 3x per 4x step in L, at an unflagged cutoff.
    sizes = (2000, 8000, 32000)
    devs = []
    for L in sizes:
        if eps < 1.0:
            limit, n_cut = normal_phase_qgt_limit(eps), 200
        else:
            limit = superradiant_qgt_limit(eps, L)
            # the phase diagram's cutoff screen with a wider margin
            n_cut = int(L * (eps - 1.0) / 2.0 * 1.3 + 800)
        r = qgt_spectral(ModelParams.from_size(L, eps, n_cut=n_cut))
        assert not r.cutoff_warning, (L, n_cut)
        devs.append([r.g_ee / limit[0, 0].real - 1.0, r.g_pp / limit[1, 1].real - 1.0,
                     r.f_ep / (-2.0 * limit[0, 1].imag) - 1.0])
    devs = np.abs(devs)
    assert np.all(devs[:-1] >= 3.0 * devs[1:]), devs


def test_continuity_handoff_fidelity():
    # Numerical ground state vs the squeezed-vacuum family at large size.
    for eps in (0.0, 0.3, 0.6, 0.8):
        p = ModelParams.from_size(500, eps, n_cut=800)
        target = squeezed_vacuum_fock(normal_phase(1.0, eps).r, 800)
        assert abs(np.vdot(target, fock_vector(ground_state_row([p]), p))) > 0.999


def test_superradiant_handoff_fidelity():
    for eps in (1.3, 1.6, 2.0):
        p = ModelParams.from_size(500, eps, n_cut=800)
        gs = ground_state_row([p])
        sol = superradiant_phase(1.0, eps, size=500.0)
        cat = displaced_squeezed_cat(sol.alpha, sol.r, 800)
        assert abs(np.vdot(cat, fock_vector(gs, p))) > 0.99


def test_gap_oracles():
    # Normal phase: first excitation lives in the odd sector at omega_e;
    # broken phase: the even-sector internal gap approaches omega_e as well.
    for eps in (0.3, 0.6, 0.8):
        p = ModelParams.from_size(500, eps, n_cut=800)
        even, odd = eig_tridiagonal(sector_block([p])), eig_tridiagonal(odd_block(p))
        cross_gap = odd.eigenvalues[0, 0] - even.eigenvalues[0, 0]
        assert cross_gap == pytest.approx(normal_phase(1.0, eps).omega_e, rel=0.05)
    for eps in (1.3, 1.6, 2.0):
        p = ModelParams.from_size(500, eps, n_cut=800)
        (gap,) = ground_state_row([p]).gap
        omega = superradiant_phase(1.0, eps, size=500.0).omega_e
        assert gap == pytest.approx(omega, rel=0.05)


def test_superradiant_cat_gauge_structure():
    # alpha and r pick up the half/full drive-phase factors, matching the
    # overall gauge map component-wise.
    eps, phi = 1.5, 0.9
    sol0 = superradiant_phase(1.0, eps, phi=0.0, size=400.0)
    sol1 = superradiant_phase(1.0, eps, phi=phi, size=400.0)
    cat0 = displaced_squeezed_cat(sol0.alpha, sol0.r, 300)
    cat1 = displaced_squeezed_cat(sol1.alpha, sol1.r, 300)
    mapped = cat0 * gauge_phases(301, phi)
    assert abs(np.vdot(mapped, cat1)) == pytest.approx(1.0, abs=1e-9)
