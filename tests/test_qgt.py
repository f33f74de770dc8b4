"""Spectral and finite-difference routes to the geometric tensor."""

import numpy as np
import pytest

from kerrqgt import (
    ModelParams,
    StepSizeError,
    ground_state_row,
    normal_phase_qgt_limit,
    qgt_fd_row,
    qgt_spectral,
    qgt_spectral_row,
)
from kerrqgt._fd import stencil_eps, tensor_fd
from kerrqgt.qgt import _even_ground_family
from reference import (bisected_qgt_fd, complex_tensor_fd, dense_drive_derivatives,
                       dense_hamiltonian, even_levels, fidelity_susceptibility, gauge_family,
                       lazy_even_ground_vectors, qgt_sum_over_states)
from test_linear_response import GRID

H_EPS, H_PHI = 1e-4, 1e-3
# How closely an fd tensor agrees with another route to the same tensor: the
# spectral route inside the domain, or the all-bisection fd (bisected_qgt_fd)
# anywhere.  Measured over the points of the tests below, g_ee agrees within
# 1.4e-11 relative, g_pp within 7.4e-12 and f_ep within 6.1e-12, the
# stencil's truncation; g_ep is exactly 0 on every route.  Where f_ep vanishes
# (eps = 0) the fd value is a second-order remainder of about 1.5e-12, which
# both fd routes share to 1e-20, so f_ep also gets an absolute floor.
FD_RELATIVE = {"g_ee": 3e-11, "g_pp": 2e-11, "g_ep": 0.0, "f_ep": 2e-11}
FD_FLOOR = np.finfo(float).eps
# The complex slow path on the same vectors: its gauge-phase products round
# each component to eps_mach, so its distances keep about 12 digits (measured
# within 1.6e-12 relative, g_ep within 2.3e-13 of g_ee), and each overlap
# phase of its plaquette rounds to about eps_mach.
COMPLEX_RELATIVE = 5e-12
COMPLEX_PHASE_ROUNDING = 8.0 * np.finfo(float).eps


def tensor(result):
    return result.g_ee, result.g_pp, result.g_ep, result.f_ep


def assert_fd_close(fd, ref):
    """fd's tensor against ref = (g_ee, g_pp, g_ep, f_ep), entry by entry within
    the bounds above; g_ep, which vanishes, is measured against g_ee."""
    scales = (ref[0], ref[1], ref[0], ref[3])
    floors = (0.0, 0.0, 0.0, FD_FLOOR)
    for name, value, r, scale, floor in zip(FD_RELATIVE, tensor(fd), ref, scales, floors):
        assert abs(value - r) <= FD_RELATIVE[name] * abs(scale) + floor, (name, value, r)


def assert_fd_matches_bisected(fd):
    """fd's tensor against the all-bisection slow path bisected_qgt_fd."""
    assert_fd_close(fd, bisected_qgt_fd(fd.params, H_EPS, H_PHI))


def test_perturbation_ops_hermitian_and_parity_conserving():
    p = ModelParams(kerr=0.03, eps=0.8, n_cut=24)
    for dense in dense_drive_derivatives(p, phi=0.9, delta=1.2):
        assert np.max(np.abs(dense - dense.conj().T)) == 0.0
        v = np.zeros(p.dim, dtype=complex)
        v[::2] = 1.0
        assert np.max(np.abs((dense @ v)[1::2])) == 0.0


def test_perturbation_ops_match_derivative_stencil():
    p, phi, delta = ModelParams(kerr=0.02, eps=0.7, n_cut=20), 0.5, 1.1
    h = 1e-6
    d_eps = (dense_hamiltonian(p.replace(eps=p.eps + h), phi, delta)
             - dense_hamiltonian(p.replace(eps=p.eps - h), phi, delta)) / (2 * h)
    d_phi = (dense_hamiltonian(p, phi + h, delta)
             - dense_hamiltonian(p, phi - h, delta)) / (2 * h)
    exact_eps, exact_phi = dense_drive_derivatives(p, phi, delta)
    np.testing.assert_allclose(exact_eps, d_eps, atol=1e-7)
    np.testing.assert_allclose(exact_phi, d_phi, atol=1e-7)


def test_spectral_no_drive_closed_form():
    # Single virtual transition |0> -> |2>: Q_ee = (1/2) / (2 + 2 K)^2.
    r = qgt_spectral(ModelParams(kerr=0.01, eps=0.0, n_cut=64))
    assert r.g_ee == pytest.approx(0.5 / 2.02**2, abs=1e-12)
    assert r.g_pp == 0.0
    assert r.f_ep == 0.0
    r0 = qgt_spectral(ModelParams(kerr=0.0, eps=0.0, n_cut=64))
    assert r0.g_ee == pytest.approx(0.125, abs=1e-12)


def test_result_views_and_invariants():
    r = qgt_spectral(ModelParams.from_size(200, 0.9, n_cut=400))
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
        r = qgt_sum_over_states(base, phi)
        assert abs(r.g_ee / ref.g_ee - 1.0) <= 1e-8
        assert abs(r.g_pp / ref.g_pp - 1.0) <= 1e-8
        assert abs(r.f_ep / ref.f_ep - 1.0) <= 1e-8


def test_fd_metric_at_zero_drive():
    (fd,) = qgt_fd_row(ground_state_row([ModelParams(kerr=0.0, eps=0.0, n_cut=64)]),
                       step_eps=1e-3, step_phi=1e-3)
    assert fd.method == "fd"
    assert fd.g_ee == pytest.approx(0.125, abs=1e-4)
    assert abs(fd.g_pp) <= 1e-10
    assert abs(fd.g_ep) <= 1e-10


def test_method_triangle_reference_point():
    p = ModelParams.from_size(300, 0.9, n_cut=800)
    spectral = qgt_spectral(p)
    fd = qgt_fd_row(ground_state_row([p]))[0]
    assert fd.g_ee == pytest.approx(spectral.g_ee, rel=1e-5)
    assert fd.g_pp == pytest.approx(spectral.g_pp, rel=1e-5)
    assert fd.f_ep == pytest.approx(spectral.f_ep, rel=1e-4)


def test_plaquette_orientation_antisymmetry():
    # Mirroring phi reverses the loop orientation, so the measured phase
    # (hence the curvature estimate) of the complex slow path must flip sign
    # exactly; the real stencil's loop phase runs the same way round.
    p, phi = ModelParams.from_size(200, 0.8, n_cut=400), 0.4
    ground = ground_state_row([p])
    (table,) = _even_ground_family(ground, 1e-4)
    fam = gauge_family(table, ground.levels)
    plain = complex_tensor_fd(fam, p.eps, phi, 1e-4, 1e-3)[3]
    mirrored = complex_tensor_fd(lambda e, ph: fam(e, -ph), p.eps, -phi, 1e-4, 1e-3)[3]
    assert mirrored == pytest.approx(-plain, rel=1e-10)
    assert qgt_fd_row(ground_state_row([p]), 1e-4, 1e-3)[0].f_ep == pytest.approx(plain)


def test_plaquette_vanishes_at_zero_drive():
    (fd,) = qgt_fd_row(ground_state_row([ModelParams(kerr=0.0, eps=0.0, n_cut=64)]),
                       step_eps=1e-3, step_phi=1e-3)
    assert abs(fd.f_ep) <= 1e-8


def test_fidelity_susceptibility_values():
    chi = fidelity_susceptibility(ModelParams(kerr=0.0, eps=0.0, n_cut=64),
                                  step_eps=1e-3)
    assert chi == pytest.approx(0.125, abs=1e-4)
    p = ModelParams.from_size(500, 0.95, n_cut=800)
    assert fidelity_susceptibility(p) == pytest.approx(qgt_spectral(p).g_ee, rel=1e-5)


def test_fidelity_far_from_criticality():
    # 0.501 is a stencil satellite of 0.5 at step 2e-3, seeded from it
    (table,) = _even_ground_family(
        ground_state_row([ModelParams.from_size(200, 0.5, n_cut=400)]), 2e-3)
    overlap = abs(table[0.5] @ table[0.501])
    assert overlap > 0.999999


def test_step_guards():
    p = ModelParams.from_size(200, 0.5, n_cut=400)
    # 3e-9 puts the eps-edge distances at 1.9e-18 and 4.8e-19, below the
    # precision floor, where the entries keep fewer than 6 digits
    with pytest.raises(StepSizeError, match="below the precision floor"):
        qgt_fd_row(ground_state_row([p]), step_eps=3e-9, step_phi=3e-9)
    with pytest.raises(StepSizeError):
        qgt_fd_row(ground_state_row([p]), step_eps=0.5, step_phi=0.5)  # quadratic regime left


# eps = 0 and h/4 take the boundary stencils, the others the centred ones
STENCIL_EPS = [0.0, H_EPS / 4.0, H_EPS / 2.0, 0.55, 0.97]


@pytest.mark.parametrize("eps", STENCIL_EPS)
def test_stencils_request_exactly_stencil_eps(eps):
    p = ModelParams.from_size(150, eps, n_cut=300)
    vectors = lazy_even_ground_vectors(p)
    tensor_fd(vectors, even_levels(p), eps, H_EPS, H_PHI)
    assert vectors.keys() == stencil_eps(eps, H_EPS)
    if eps < H_EPS / 2.0:
        spelled = {eps, eps + H_EPS, eps + H_EPS / 2.0}
    else:
        lo, lo_half = eps - H_EPS / 2.0, eps - H_EPS / 4.0
        spelled = {eps, lo, lo + H_EPS, lo_half, lo_half + H_EPS / 2.0}
    assert stencil_eps(eps, H_EPS) == spelled


@pytest.mark.parametrize("eps", STENCIL_EPS)
def test_stacked_family_equals_lazy_reference(eps):
    # the stacked family, alone and in a row with a neighbour as the qgt sweep
    # builds it, gives the same bits: its centre is the row-of-one bisected
    # solve bit for bit, and each seeded satellite agrees with it to rounding
    p = ModelParams.from_size(150, eps, n_cut=300)
    lazy = lazy_even_ground_vectors(p)
    ground = ground_state_row([p])
    (alone,) = _even_ground_family(ground, H_EPS)
    shared, _ = _even_ground_family(ground_state_row([p, p.replace(eps=eps + 0.01)]), H_EPS)
    assert alone.keys() == shared.keys() == stencil_eps(eps, H_EPS)
    for e, u in alone.items():
        assert np.array_equal(shared[e], u)
        if e == eps:
            assert np.array_equal(u, lazy[e])
        else:
            assert np.abs(u - lazy[e]).max() <= 1e-13
    assert ground.vectors.shape == (1, ground.block.size)
    assert np.array_equal(ground.levels, even_levels(p))
    fd = qgt_fd_row(ground_state_row([p]))[0]
    assert tensor(fd) == tensor_fd(alone, ground.levels, eps, H_EPS, H_PHI)
    assert_fd_matches_bisected(fd)


@pytest.mark.parametrize("size", [60, 300])
def test_fd_row_matches_bisected_slow_path(size):
    # boundary stencils at eps = 0 and h/4, the transition, and both phases
    eps_grid = [0.0, H_EPS / 4.0, 0.5, 0.97, 1.0, 1.03, 1.2, 1.4]
    points = [ModelParams.from_size(size, eps, n_cut=400) for eps in eps_grid]
    for fd in qgt_fd_row(ground_state_row(points)):
        assert_fd_matches_bisected(fd)


# Rows shaped like the qgt-both bench rows: the bench grid 0.95-1.06 shifted
# by up to +-0.005.
BENCH_ROWS = [(150, -0.003), (250, 0.0), (350, 0.004)]


def test_fd_matches_spectral_inside_the_domain():
    # the interior points of the linear-response grid (its K = 0 points leave
    # the quadratic regime at the default steps: g_ee reaches 1e5-1e9) and
    # the bench rows
    rows = [[p] for p in GRID if p.kerr > 0.0 and p.eps > 0.0]
    rows += [[ModelParams.from_size(size, float(eps), n_cut=400)
              for eps in np.linspace(0.95 + shift, 1.06 + shift, 8)]
             for size, shift in BENCH_ROWS]
    for points in rows:
        for fd, spectral in zip(qgt_fd_row(ground_state_row(points)),
                                qgt_spectral_row(ground_state_row(points))):
            assert_fd_close(fd, tensor(spectral))


@pytest.mark.parametrize("eps", [0.0, H_EPS / 4.0])
def test_boundary_stencil_is_second_order(eps):
    # at the eps >= 0 boundary, halving both steps cuts the deviation from
    # the spectral route by 4 for g_ee (measured 4.00) and by more for f_ep,
    # which is odd in eps (measured 7.0-8.0); a first-order rule gives 2
    p = ModelParams.from_size(150, eps, n_cut=300)
    spectral = qgt_spectral(p)
    coarse, fine = (qgt_fd_row(ground_state_row([p]), k * H_EPS, k * H_PHI)[0]
                    for k in (2.0, 1.0))
    for name in ("g_ee", "f_ep"):
        ref = getattr(spectral, name)
        ratio = (getattr(coarse, name) - ref) / (getattr(fine, name) - ref)
        assert 3.5 <= ratio <= 8.5, (name, ratio)
    assert abs(fine.g_ee / spectral.g_ee - 1.0) <= 1e-8


@pytest.mark.parametrize("eps", [H_EPS / 4.0, H_EPS / 2.0, 1e-4, 3e-4, 1e-3, 3e-3])
def test_fd_next_to_zero_drive_matches_spectral(eps):
    # g_pp ~ eps^2 is tiny here, so its phi distance falls far below the
    # eps-edge precision floor, yet it reads one vector and is exact.
    # Measured: within 5e-14 relative on the centred stencil, and within
    # 3.2e-7 (f_ep) on the boundary stencil at h/4, whose rule is second
    # order (an absolute 2e-12).
    p = ModelParams.from_size(150, eps, n_cut=300)
    fd, spectral = qgt_fd_row(ground_state_row([p]))[0], qgt_spectral(p)
    bound = 1e-6 if eps < H_EPS / 2.0 else 1e-13
    for name in ("g_ee", "g_pp", "f_ep"):
        assert abs(getattr(fd, name) / getattr(spectral, name) - 1.0) <= bound, name


def test_fd_tensor_does_not_depend_on_phi():
    # the drive phase is a gauge rotation: the stencil's states differ only by
    # their gauge phases, which its real arithmetic never forms, so the
    # package's phi-free fd tensor is the complex stencil's on the same
    # vectors put on the gauge phases of any phi.  Those phases n phi / 2
    # round in proportion to phi, and so does the complex path's distance
    # across phi (g_pp within 5.1e-12 relative at phi = 4.1, measured).
    for size in (60, 300):
        points = [ModelParams.from_size(size, float(eps), n_cut=400)
                  for eps in np.linspace(0.3, 1.4, 12)]
        ground = ground_state_row(points)
        tables = _even_ground_family(ground, H_EPS)
        for fd, table in zip(qgt_fd_row(ground), tables):
            for phi in (0.4, 4.1):
                slow = complex_tensor_fd(gauge_family(table, ground.levels), fd.params.eps,
                                         phi, H_EPS, H_PHI)
                bound = COMPLEX_RELATIVE * max(1.0, phi)
                for value, ref, scale in zip(tensor(fd)[:3], slow[:3],
                                             (slow[0], slow[1], slow[0])):
                    assert abs(value - ref) <= bound * scale, (phi, value, ref)
                assert abs(fd.f_ep - slow[3]) <= COMPLEX_PHASE_ROUNDING / (H_EPS * H_PHI)


@pytest.mark.parametrize("size", [60, 150, 300])
def test_real_stencil_matches_complex_slow_path(size):
    # tensor_fd against the complex stencil on the same seeded vectors, put on
    # gauge phases at phi = 0.4; the complex path reads g_pp as 0 or rejects
    # its step below eps ~ 1e-3, so the grid starts at 0.3 (the eps = 0
    # boundary is checked against the bisected fd route above)
    points = [ModelParams.from_size(size, eps, n_cut=400)
              for eps in (0.3, 0.55, 0.97, 1.0, 1.03, 1.2, 1.4)]
    ground = ground_state_row(points)
    tables = _even_ground_family(ground, H_EPS)
    for p, table in zip(points, tables):
        real = tensor_fd(table, ground.levels, p.eps, H_EPS, H_PHI)
        slow = complex_tensor_fd(gauge_family(table, ground.levels), p.eps, 0.4,
                                 H_EPS, H_PHI)
        assert real[2] == 0.0
        for value, ref, scale in zip(real[:3], slow[:3], (slow[0], slow[1], slow[0])):
            assert abs(value - ref) <= COMPLEX_RELATIVE * scale, (value, ref)
        assert abs(real[3] - slow[3]) <= COMPLEX_PHASE_ROUNDING / (H_EPS * H_PHI)


def test_fd_row_equals_points_alone():
    # one stacked family over boundary (eps = 0, h/4) and centred stencils
    points = [ModelParams.from_size(150, eps, n_cut=300) for eps in STENCIL_EPS]
    row = qgt_fd_row(ground_state_row(points))
    assert len(row) == len(points)
    for r, p in zip(row, points):
        single = qgt_fd_row(ground_state_row([p]))[0]
        assert r.params is p and r.method == single.method == "fd"
        assert (r.g_ee, r.g_pp, r.g_ep, r.f_ep) == (
            single.g_ee, single.g_pp, single.g_ep, single.f_ep)
        assert (r.gap, r.mean_n, r.var_n, r.tail_weight, r.cutoff_warning) == (
            single.gap, single.mean_n, single.var_n, single.tail_weight,
            single.cutoff_warning)


@pytest.mark.parametrize("steps", [(np.nan, H_PHI), (H_EPS, np.nan), (np.inf, H_PHI),
                                   (H_EPS, np.inf), (0.0, H_PHI), (H_EPS, -H_PHI)])
def test_steps_must_be_positive_and_finite(steps):
    p = ModelParams.from_size(150, 0.8, n_cut=300)
    vectors = lazy_even_ground_vectors(p)
    for call in (lambda: qgt_fd_row(ground_state_row([p]), *steps),
                 lambda: tensor_fd(vectors, even_levels(p), p.eps, *steps)):
        with pytest.raises(ValueError, match="steps must be positive and finite"):
            call()


@pytest.mark.parametrize("read, deps", [("overlap distance", 0.0),
                                        ("plaquette edge overlap", -H_EPS / 2.0)],
                         ids=["distance", "plaquette"])
def test_nan_state_vector_raises_step_size_error(read, deps):
    # a NaN in the centre vector, read first by the phi distance, or at the
    # low eps edge, read first by the plaquette's edge overlap
    p = ModelParams.from_size(150, 0.8, n_cut=300)
    vectors = lazy_even_ground_vectors(p)
    corrupt = vectors[p.eps + deps] = vectors[p.eps + deps].copy()
    corrupt[3] = np.nan
    with pytest.raises(StepSizeError, match=f"{read} .* not finite"):
        tensor_fd(vectors, even_levels(p), p.eps, H_EPS, H_PHI)


def test_gphiphi_variance_identity():
    rng = np.random.default_rng(21)
    for _ in range(12):
        p = ModelParams.from_size(float(rng.uniform(20, 200)),
                                  float(rng.uniform(0.1, 1.4)), n_cut=300)
        phi = float(rng.uniform(0, 2 * np.pi))
        # the kernel's g_pp is Var(n)/4; the spectral sum squares dH/dphi at phi
        spectral, oracle = qgt_spectral(p), qgt_sum_over_states(p, phi)
        assert oracle.g_pp == pytest.approx(spectral.g_pp, rel=1e-9)
        assert oracle.g_pp == pytest.approx(oracle.var_n / 4.0, rel=1e-9)


def test_variance_vanishes_at_zero_drive():
    assert qgt_spectral(ModelParams(kerr=0.01, eps=0.0, n_cut=32)).g_pp == 0.0


def test_gphiphi_against_limit():
    value = qgt_spectral(ModelParams.from_size(500, 0.6, n_cut=800)).g_pp
    assert value == pytest.approx(0.07031, rel=0.02)


def test_peak_grows_with_size():
    from kerrqgt import locate_peak
    from kerrqgt.qgt import g_ee_slope
    peaks = []
    for size in (100, 150, 200):
        peak_eps = locate_peak(
            lambda e: g_ee_slope(ModelParams.from_size(size, e, n_cut=400)),
            bracket=(1.0, 1.35))
        peak = qgt_spectral(ModelParams.from_size(size, peak_eps, n_cut=400)).g_ee
        peaks.append(peak / size)
    assert peaks[0] < peaks[1] < peaks[2]
