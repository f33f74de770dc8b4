"""Spectral and finite-difference routes to the geometric tensor."""

import numpy as np
import pytest

from kerrqgt import (
    ModelParams,
    StepSizeError,
    normal_phase_qgt_limit,
    qgt_fd,
    qgt_fd_row,
    qgt_spectral,
)
from kerrqgt._fd import DIST_ZERO, curvature_fd, metric_fd, stencil_eps
from kerrqgt.qgt import _even_ground_family
from reference import (bisected_qgt_fd, dense_drive_derivatives, dense_hamiltonian,
                       fidelity_susceptibility, lazy_even_ground_family, qgt_sum_over_states)

H_EPS, H_PHI = 1e-4, 1e-3
# A seeded stencil state differs from its bisected solve in the last bits, and
# the stencils read each distance 2 (1 - |<u1|u2>|) ~ g h^2 off the rounding
# of an overlap near 1, to about DIST_ZERO: a last-bit change of a state moves
# an entry by a few DIST_ZERO / (h_a h_b), some 1e-6 of g_ee.  The fd entries
# must agree with the all-bisection slow path to 1e-9 relative or to
# FD_ROUNDING such units.
FD_RELATIVE, FD_ROUNDING = 1e-9, 32.0


def assert_fd_matches_bisected(fd, step_eps=H_EPS, step_phi=H_PHI):
    """fd's tensor against bisected_qgt_fd, entry by entry (g_ee, g_pp, g_ep, f_ep)."""
    slow = bisected_qgt_fd(fd.params, step_eps, step_phi)
    areas = (step_eps**2, step_phi**2, step_eps * step_phi, step_eps * step_phi)
    for name, value, ref, area in zip(("g_ee", "g_pp", "g_ep", "f_ep"),
                                      (fd.g_ee, fd.g_pp, fd.g_ep, fd.f_ep), slow, areas):
        assert abs(value - ref) <= max(FD_RELATIVE * abs(ref),
                                       FD_ROUNDING * DIST_ZERO / area), (name, value, ref)


def test_perturbation_ops_hermitian_and_parity_conserving():
    p = ModelParams(delta=1.2, kerr=0.03, eps=0.8, phi=0.9, n_cut=24)
    for dense in dense_drive_derivatives(p):
        assert np.max(np.abs(dense - dense.conj().T)) == 0.0
        v = np.zeros(p.dim, dtype=complex)
        v[::2] = 1.0
        assert np.max(np.abs((dense @ v)[1::2])) == 0.0


def test_perturbation_ops_match_derivative_stencil():
    p = ModelParams(delta=1.1, kerr=0.02, eps=0.7, phi=0.5, n_cut=20)
    h = 1e-6
    d_eps = (dense_hamiltonian(p.replace(eps=p.eps + h))
             - dense_hamiltonian(p.replace(eps=p.eps - h))) / (2 * h)
    d_phi = (dense_hamiltonian(p.replace(phi=p.phi + h))
             - dense_hamiltonian(p.replace(phi=p.phi - h))) / (2 * h)
    exact_eps, exact_phi = dense_drive_derivatives(p)
    np.testing.assert_allclose(exact_eps, d_eps, atol=1e-7)
    np.testing.assert_allclose(exact_phi, d_phi, atol=1e-7)


def test_spectral_no_drive_closed_form():
    # Single virtual transition |0> -> |2>: Q_ee = (delta^2/2) / (2 delta + 2 K)^2.
    r = qgt_spectral(ModelParams(delta=1.0, kerr=0.01, eps=0.0, n_cut=64))
    assert r.g_ee == pytest.approx(0.5 / 2.02**2, abs=1e-12)
    assert r.g_pp == 0.0
    assert r.f_ep == 0.0
    r0 = qgt_spectral(ModelParams(delta=1.0, kerr=0.0, eps=0.0, n_cut=64))
    assert r0.g_ee == pytest.approx(0.125, abs=1e-12)


def test_result_views_and_invariants():
    r = qgt_spectral(ModelParams.from_size(200, 0.9, phi=0.7, n_cut=400))
    assert all(type(x) is float for x in (r.g_ee, r.g_pp, r.g_ep, r.f_ep))
    # the linear-response metric has an exactly zero off-diagonal, never -0
    assert r.g_ep == 0.0 and not np.signbit(r.g_ep)
    g = np.array([[r.g_ee, r.g_ep], [r.g_ep, r.g_pp]])
    assert min(np.linalg.eigvalsh(g)) >= -1e-9 * max(1.0, np.trace(g))
    assert r.gap > 0


def test_spectral_matches_analytic_limit():
    # Finite-size corrections scale like 1/L; at L = 1000 they sit near 1%.
    limit = normal_phase_qgt_limit(0.6)
    r = qgt_spectral(ModelParams.from_size(1000, 0.6, n_cut=800))
    assert r.g_ee == pytest.approx(limit[0, 0].real, rel=0.02)
    assert r.g_pp == pytest.approx(limit[1, 1].real, rel=0.02)
    assert r.f_ep == pytest.approx(-2.0 * limit[0, 1].imag, rel=0.02)
    # documented deviation at L = 500: about 2.1% below the limit
    r500 = qgt_spectral(ModelParams.from_size(500, 0.6, n_cut=800))
    dev = r500.g_ee / limit[0, 0].real - 1.0
    assert dev == pytest.approx(-0.0206, abs=0.002)


def test_phi_independence_of_tensor():
    # the kernel works at phi = 0; the spectral sum runs at each phi
    base = ModelParams.from_size(300, 0.9, n_cut=800)
    ref = qgt_spectral(base)
    for phi in (0.25, np.pi / 4, np.pi / 2, np.pi):
        r = qgt_sum_over_states(base.replace(phi=phi))
        assert abs(r.g_ee / ref.g_ee - 1.0) <= 1e-8
        assert abs(r.g_pp / ref.g_pp - 1.0) <= 1e-8
        assert abs(r.f_ep / ref.f_ep - 1.0) <= 1e-8


def test_fd_metric_at_zero_drive():
    fd = qgt_fd(ModelParams(delta=1.0, kerr=0.0, eps=0.0, n_cut=64),
                step_eps=1e-3, step_phi=1e-3)
    assert fd.method == "fd"
    assert fd.g_ee == pytest.approx(0.125, abs=1e-4)
    assert abs(fd.g_pp) <= 1e-10
    assert abs(fd.g_ep) <= 1e-10


def test_method_triangle_reference_point():
    p = ModelParams.from_size(300, 0.9, n_cut=800)
    spectral = qgt_spectral(p)
    fd = qgt_fd(p)
    assert fd.g_ee == pytest.approx(spectral.g_ee, rel=1e-5)
    assert fd.g_pp == pytest.approx(spectral.g_pp, rel=1e-5)
    assert fd.f_ep == pytest.approx(spectral.f_ep, rel=1e-4)


def test_plaquette_orientation_antisymmetry():
    # Mirroring phi reverses the loop orientation, so the measured phase
    # (hence the curvature estimate) must flip sign exactly.
    p = ModelParams.from_size(200, 0.8, phi=0.4, n_cut=400)
    _, (fam,) = _even_ground_family([p], 1e-4)
    plain = curvature_fd(fam, p.eps, p.phi, 1e-4, 1e-3)
    mirrored = curvature_fd(lambda e, ph: fam(e, -ph), p.eps, -p.phi, 1e-4, 1e-3)
    assert mirrored == pytest.approx(-plain, rel=1e-10)
    assert qgt_fd(p, 1e-4, 1e-3).f_ep == pytest.approx(plain)


def test_plaquette_vanishes_at_zero_drive():
    fd = qgt_fd(ModelParams(delta=1.0, kerr=0.0, eps=0.0, n_cut=64),
                step_eps=1e-3, step_phi=1e-3)
    assert abs(fd.f_ep) <= 1e-8


def test_fidelity_susceptibility_values():
    chi = fidelity_susceptibility(ModelParams(delta=1.0, kerr=0.0, eps=0.0, n_cut=64),
                                  step_eps=1e-3)
    assert chi == pytest.approx(0.125, abs=1e-4)
    p = ModelParams.from_size(500, 0.95, n_cut=800)
    assert fidelity_susceptibility(p) == pytest.approx(qgt_spectral(p).g_ee, rel=1e-5)


def test_fidelity_far_from_criticality():
    # 0.501 is a stencil satellite of 0.5 at step 2e-3, seeded from it
    _, (fam,) = _even_ground_family([ModelParams.from_size(200, 0.5, n_cut=400)], 2e-3)
    overlap = abs(np.vdot(fam(0.5, 0.0), fam(0.501, 0.0)))
    assert overlap > 0.999999


def test_step_guards():
    p = ModelParams.from_size(200, 0.5, n_cut=400)
    # 3e-7 puts the overlap deficit around 1e-14, squarely in the
    # unresolvable band between rounding noise and the precision floor
    with pytest.raises(StepSizeError):
        qgt_fd(p, step_eps=3e-7, step_phi=3e-7)
    with pytest.raises(StepSizeError):
        qgt_fd(p, step_eps=0.5, step_phi=0.5)  # quadratic regime left


# eps = 0 and h/4 take the boundary stencils, the others the centred ones
STENCIL_EPS = [0.0, H_EPS / 4.0, H_EPS / 2.0, 0.55, 0.97]


@pytest.mark.parametrize("eps", STENCIL_EPS)
def test_stencils_request_exactly_stencil_eps(eps):
    p = ModelParams.from_size(150, eps, phi=0.4, n_cut=300)
    family = lazy_even_ground_family(p)
    requested = set()

    def recording(e, phi):
        requested.add(e)
        return family(e, phi)

    metric_fd(recording, eps, p.phi, H_EPS, H_PHI)
    curvature_fd(recording, eps, p.phi, H_EPS, H_PHI)
    assert requested == stencil_eps(eps, H_EPS)
    if eps < H_EPS / 2.0:
        spelled = {eps, eps + H_EPS, eps + H_EPS / 2.0, 0.0, H_EPS, H_EPS / 2.0}
    else:
        lo, lo_half = eps - H_EPS / 2.0, eps - H_EPS / 4.0
        spelled = {eps, lo, lo + H_EPS, lo_half, lo_half + H_EPS / 2.0}
    assert stencil_eps(eps, H_EPS) == spelled


@pytest.mark.parametrize("eps", STENCIL_EPS)
def test_stacked_family_equals_lazy_reference(eps):
    # the stacked family, alone and in a row with a neighbour as the qgt sweep
    # builds it, gives the same bits: its centre is the row-of-one bisected
    # solve bit for bit, and each seeded satellite agrees with it to rounding
    p = ModelParams.from_size(150, eps, phi=0.4, n_cut=300)
    lazy = lazy_even_ground_family(p)
    ground, (alone,) = _even_ground_family([p], H_EPS)
    _, (shared, _) = _even_ground_family([p, p.replace(eps=eps + 0.01)], H_EPS)
    for e in stencil_eps(eps, H_EPS):
        u = alone(e, p.phi)
        assert np.array_equal(shared(e, p.phi), u)
        if e == eps:
            assert np.array_equal(u, lazy(e, p.phi))
        else:
            assert np.abs(u - lazy(e, p.phi)).max() <= 1e-13
    assert ground.vectors.shape == (1, ground.block.size)
    with pytest.raises(KeyError):
        alone(eps + 1e-3, p.phi)
    fd = qgt_fd(p)
    assert ([[fd.g_ee, fd.g_ep], [fd.g_ep, fd.g_pp]]
            == metric_fd(alone, eps, p.phi, H_EPS, H_PHI).tolist())
    assert fd.f_ep == curvature_fd(alone, eps, p.phi, H_EPS, H_PHI)
    assert_fd_matches_bisected(fd)


@pytest.mark.parametrize("size", [60, 300])
def test_fd_row_matches_bisected_slow_path(size):
    # boundary stencils at eps = 0 and h/4, the transition, and both phases
    eps_grid = [0.0, H_EPS / 4.0, 0.5, 0.97, 1.0, 1.03, 1.2, 1.4]
    points = [ModelParams.from_size(size, eps, phi=0.4, n_cut=400) for eps in eps_grid]
    for fd in qgt_fd_row(points):
        assert_fd_matches_bisected(fd)


def test_fd_row_equals_points_alone():
    # one stacked family over boundary (eps = 0, h/4) and centred stencils
    points = [ModelParams.from_size(150, eps, phi=0.4, n_cut=300) for eps in STENCIL_EPS]
    row = qgt_fd_row(points)
    assert len(row) == len(points)
    for r, p in zip(row, points):
        single = qgt_fd(p)
        assert r.params is p and r.method == single.method == "fd"
        assert (r.g_ee, r.g_pp, r.g_ep, r.f_ep) == (
            single.g_ee, single.g_pp, single.g_ep, single.f_ep)
        assert (r.gap, r.mean_n, r.var_n, r.tail_weight, r.cutoff_warning) == (
            single.gap, single.mean_n, single.var_n, single.tail_weight,
            single.cutoff_warning)


@pytest.mark.parametrize("steps", [(np.nan, H_PHI), (H_EPS, np.nan), (np.inf, H_PHI),
                                   (H_EPS, np.inf), (0.0, H_PHI), (H_EPS, -H_PHI)])
def test_steps_must_be_positive_and_finite(steps):
    p = ModelParams.from_size(150, 0.8, phi=0.4, n_cut=300)
    family = lazy_even_ground_family(p)
    for call in (lambda: qgt_fd(p, *steps), lambda: qgt_fd_row([p], *steps),
                 lambda: metric_fd(family, p.eps, p.phi, *steps),
                 lambda: curvature_fd(family, p.eps, p.phi, *steps)):
        with pytest.raises(ValueError, match="steps must be positive and finite"):
            call()


@pytest.mark.parametrize("stencil", [metric_fd, curvature_fd])
def test_nan_state_vector_raises_step_size_error(stencil):
    p = ModelParams.from_size(150, 0.8, phi=0.4, n_cut=300)
    family = lazy_even_ground_family(p)
    corrupt = p.eps - H_EPS / 2.0  # an edge of both stencils

    def state(eps, phi):
        vector = family(eps, phi)
        if eps == corrupt:
            vector = vector.copy()
            vector[3] = np.nan
        return vector

    with pytest.raises(StepSizeError, match="not finite"):
        stencil(state, p.eps, p.phi, H_EPS, H_PHI)


def test_gphiphi_variance_identity():
    rng = np.random.default_rng(21)
    for _ in range(12):
        p = ModelParams.from_size(float(rng.uniform(20, 200)),
                                  float(rng.uniform(0.1, 1.4)),
                                  phi=float(rng.uniform(0, 2 * np.pi)),
                                  n_cut=300)
        # the kernel's g_pp is Var(n)/4; the spectral sum squares dH/dphi
        spectral, oracle = qgt_spectral(p), qgt_sum_over_states(p)
        assert oracle.g_pp == pytest.approx(spectral.g_pp, rel=1e-9)
        assert oracle.g_pp == pytest.approx(oracle.var_n / 4.0, rel=1e-9)


def test_variance_vanishes_at_zero_drive():
    assert qgt_spectral(ModelParams(delta=1.0, kerr=0.01, eps=0.0, n_cut=32)).g_pp == 0.0


def test_gphiphi_against_limit():
    value = qgt_spectral(ModelParams.from_size(500, 0.6, n_cut=800)).g_pp
    assert value == pytest.approx(0.07031, rel=0.02)


def test_peak_grows_with_size():
    from kerrqgt import g_ee_slope, locate_peak
    peaks = []
    for size in (100, 150, 200):
        peak_eps = locate_peak(
            lambda e: g_ee_slope(ModelParams.from_size(size, e, n_cut=400)),
            bracket=(1.0, 1.35))
        peak = qgt_spectral(ModelParams.from_size(size, peak_eps, n_cut=400)).g_ee
        peaks.append(peak / size)
    assert peaks[0] < peaks[1] < peaks[2]
