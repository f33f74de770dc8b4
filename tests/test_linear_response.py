"""Linear-response tensor kernel and selective ground solves against the
full-spectrum oracles."""

import numpy as np
import pytest
import scipy.linalg

import kerrqgt.eigensolver as eigensolver
from kerrqgt import (
    GapError,
    ModelParams,
    eig_tridiagonal,
    ground_state_row,
    qgt_fd_row,
    qgt_spectral,
    sector_block,
)
from reference import (
    DEGENERACY_TOLERANCE,
    fock_vector,
    full_spectrum,
    lift,
    odd_block,
    qgt_sum_over_states,
    two_sector_race,
)

RELATIVE = 1e-9

GRID = (
    # eps = 0: the block is reducible (diagonal)
    [ModelParams.from_size(150, 0.0, n_cut=400),
     ModelParams(kerr=0.0, eps=0.0, n_cut=200)]
    # deep superradiant: near-degenerate parity minima
    + [ModelParams.from_size(150, eps, n_cut=400) for eps in (1.4, 1.7, 2.0)]
    # around the transition at L = 150..700
    + [ModelParams.from_size(L, eps, n_cut=800)
       for L in (150, 400, 700) for eps in (0.97, 1.0, 1.03)]
    # K = 0 at the critical drive, small gap at large cutoff
    + [ModelParams(kerr=0.0, eps=1.0, n_cut=nc) for nc in (200, 400, 800, 1600)]
)


def _label(p):
    return f"K={p.kerr:.3g}-eps={p.eps:g}-ncut={p.n_cut}"


def _close(value, reference):
    return abs(value - reference) <= RELATIVE * abs(reference)


@pytest.mark.parametrize("p", GRID, ids=_label)
def test_linear_response_matches_sum_over_states(p):
    fast, oracle = qgt_spectral(p), qgt_sum_over_states(p)
    assert fast.method == "spectral"
    for name in ("g_ee", "g_pp", "f_ep", "gap", "mean_n"):
        value, reference = getattr(fast, name), getattr(oracle, name)
        assert _close(value, reference), (name, value, reference)
    assert np.sign(fast.f_ep) == np.sign(oracle.f_ep)
    assert fast.g_ep == 0.0
    assert fast.cutoff_warning == oracle.cutoff_warning
    if p.eps == 0.0:
        assert fast.g_pp == 0.0 and fast.f_ep == 0.0
        assert oracle.g_pp == 0.0 and oracle.f_ep == 0.0


@pytest.mark.parametrize("p", GRID, ids=_label)
def test_ground_state_matches_full_spectrum(p):
    gs = ground_state_row([p])
    parity, _, scale = two_sector_race(p)
    assert parity == "even"
    block = sector_block([p])
    spec = full_spectrum(block)
    vector = lift(spec.eigenvectors[0, :, 0], block.index_map, p, phi=0.7)
    assert abs(gs.energy[0] - spec.eigenvalues[0, 0]) <= 1e-12 * scale
    assert _close(gs.gap[0], spec.eigenvalues[0, 1] - spec.eigenvalues[0, 0])
    assert abs(abs(np.vdot(vector, fock_vector(gs, p, phi=0.7))) - 1.0) <= 1e-12


@pytest.mark.parametrize("p", [
    ModelParams.from_size(150, 0.5, n_cut=60),
    ModelParams.from_size(150, 0.97, n_cut=400),
    ModelParams.from_size(150, 1.4, n_cut=400),
    ModelParams.from_size(300, 1.2, n_cut=120),
    # cutoff warning: the condensate reaches the last retained levels
    ModelParams.from_size(2000, 1.3, n_cut=400),
], ids=_label)
def test_kernel_tail_weight_matches_ground_state(p):
    tensor, gs = qgt_spectral(p), ground_state_row([p])
    assert np.array_equal(gs.levels, np.arange(0, p.n_cut + 1, 2))
    assert tensor.tail_weight == pytest.approx(gs.tail_weight[0], rel=1e-14, abs=0.0)
    assert tensor.cutoff_warning == gs.cutoff_warning[0]


def _bracket_holds(low, norm):
    """Neither gate is looser than in the exact unit max(1, ||T||_2) = norm:
    residuals are measured against a unit no larger, the gap floor and the
    reference's tie-break against one no smaller (and at most 6% larger)."""
    return low.residual_unit[0] <= norm <= low.scale[0] <= 1.06 * norm


def test_selective_spectrum_matches_full():
    p = ModelParams.from_size(300, 1.02, n_cut=800)
    for block in (sector_block([p]), odd_block(p)):
        full, low = full_spectrum(block), eig_tridiagonal(block)
        assert low.eigenvalues.shape == (1, 2)
        assert low.eigenvectors.shape == (1, block.size, 2)
        np.testing.assert_allclose(low.eigenvalues, full.eigenvalues[:, :2],
                                   rtol=0, atol=1e-12 * full.scale[0])
        assert _bracket_holds(low, full.scale[0])
        assert low.max_residual <= 1e-10 * low.residual_unit[0]
        assert low.max_orthogonality_defect <= 1e-10
        overlaps = np.abs(np.sum(low.eigenvectors[0] * full.eigenvectors[0, :, :2],
                                 axis=0))
        np.testing.assert_allclose(overlaps, 1.0, atol=1e-12)


def _exact_norm(block):
    """max(1, ||T||_2) from every eigenvalue of the block (dstev, values only):
    full_spectrum's unit, without the eigenvectors it does not need."""
    lam = scipy.linalg.eigvalsh_tridiagonal(block.diag, block.offdiag[0],
                                            lapack_driver="stev")
    return max(1.0, abs(float(lam[0])), abs(float(lam[-1])))


@pytest.mark.parametrize("n_cut", [200, 800, 1600])
@pytest.mark.parametrize("L", [40, 150, 500, 2000])
def test_spectrum_units_bracket_the_block_norm(L, n_cut):
    for eps in np.linspace(0.0, 1.5, 7):
        p = ModelParams.from_size(L, float(eps), n_cut=n_cut)
        for parity, block in (("even", sector_block([p])), ("odd", odd_block(p))):
            low = eig_tridiagonal(block)
            assert _bracket_holds(low, _exact_norm(block)), (L, eps, n_cut, parity)


def test_even_minimum_is_lowest_in_exact_unit():
    # The two-sector race on GRID, the default phase-diagram grid (L 2000,
    # eps 0:1.5:31, n_cut 800) and the bench one (L 800, eps 0:1.5:31,
    # n_cut 360): the odd minimum never lies below the even one.  Above the
    # transition the sector minima are degenerate, so the tie-break decides.
    eps_grid = np.linspace(0.0, 1.5, 31)
    grids = {"GRID": GRID,
             "default": [ModelParams.from_size(2000, float(e), n_cut=800) for e in eps_grid],
             "bench": [ModelParams.from_size(800, float(e), n_cut=360) for e in eps_grid]}
    decided = dict.fromkeys(grids, 0)
    for name, points in grids.items():
        for p in points:
            parity, sectors, scale = two_sector_race(p)
            assert parity == "even", (name, _label(p))
            assert scale == pytest.approx(
                max(_exact_norm(block) for block, _ in sectors.values()), rel=1e-12)
            e0, o0 = (lam[0] for _, lam in sectors.values())
            decided[name] += abs(e0 - o0) <= DEGENERACY_TOLERANCE * scale
    assert decided["default"] > 0


@pytest.mark.parametrize("p", GRID + [ModelParams.from_size(2000, 0.3, n_cut=200),
                                       ModelParams.from_size(2000, 1.2, n_cut=1200)],
                         ids=_label)
def test_metric_determinant_bounds_the_curvature(p):
    # det g >= (F_ep / 2)^2.  In the even sector g_ee = |y|^2, g_pp = Var(n)/4
    # and F_ep = -y.(n - <n>)u0, so this is Cauchy-Schwarz and holds for every
    # state; the large-L limits of both phases saturate it (at L = 2000 the
    # excess is about 2e-10 of det g at eps = 0.3 and 1e-3 at eps = 1.2).
    r = qgt_spectral(p)
    det = r.g_ee * r.g_pp - r.g_ep**2
    assert det - (r.f_ep / 2.0) ** 2 >= -1e-12 * r.g_ee * r.g_pp, (det, r.f_ep)


def test_gap_floor_raises_named_error(monkeypatch):
    import kerrqgt.qgt as qgt
    import reference
    monkeypatch.setattr(qgt, "GAP_FLOOR", 1.0)
    monkeypatch.setattr(reference, "GAP_FLOOR", 1.0)
    p = ModelParams.from_size(150, 0.9, n_cut=400)
    for kernel in (qgt_spectral, qgt_sum_over_states):
        with pytest.raises(GapError, match="sector gap"):
            kernel(p)
    assert issubclass(GapError, ValueError)


def test_hot_paths_never_decompose_fully(monkeypatch):
    # the package solves through the lowest-pair seam; the reference's full
    # decomposition calls scipy
    calls = []
    pair, original = eigensolver._lowest_pair, scipy.linalg.eigh_tridiagonal

    def pair_spy(diag, off):
        calls.append("i")
        return pair(diag, off)

    def spy(*args, **kwargs):
        calls.append(kwargs.get("select", "a"))
        return original(*args, **kwargs)

    monkeypatch.setattr(eigensolver, "_lowest_pair", pair_spy)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
    p = ModelParams.from_size(150, 0.95, n_cut=400)
    qgt_spectral(p)
    ground_state_row([p])
    qgt_fd_row(ground_state_row([p]))
    assert calls and set(calls) == {"i"}
    # the spy sees a full decomposition when one is made
    full_spectrum(sector_block([p]))
    assert "a" in calls
