"""Peak location, extrapolation fits, power laws, and data collapse."""

from dataclasses import asdict

import numpy as np
import pytest

import kerrqgt.scaling
import reference

from kerrqgt import (
    BracketError,
    CurveFamily,
    FitError,
    GapError,
    ModelParams,
    WindowError,
    collapse_objective,
    extrapolate_critical_point,
    fit_power_law,
    locate_peak,
    nu_convergence,
    optimize_collapse,
    pair_slopes,
    perturbation_dimensions,
    qgt_spectral,
    scaling_pipeline,
)
from kerrqgt.qgt import g_ee_slope
from kerrqgt.scaling import fit_shifted_power, sweep_family
from kerrqgt.sweep import dumps_json, family_from_report, load_scaling_report


def test_locate_peak_parabola():
    # the slope of -(e - 1.02)^2
    x = locate_peak(lambda e: -2.0 * (e - 1.02), bracket=(0.9, 1.1))
    assert x == pytest.approx(1.02, abs=1e-6)
    assert -((x - 1.02) ** 2) == pytest.approx(0.0, abs=1e-10)


def test_locate_peak_monotone_raises():
    with pytest.raises(BracketError):
        locate_peak(lambda e: 1.0, bracket=(0.0, 1.0))
    with pytest.raises(BracketError):
        locate_peak(lambda e: -1.0, bracket=(0.0, 1.0))


def test_locate_peak_matches_grid_scan():
    # Root of the analytic slope vs a brute-force 1e-4-spaced argmax at L = 300.
    def params(e):
        return ModelParams.from_size(300, e, n_cut=800)

    bracket = (1.06, 1.085)
    x = locate_peak(lambda e: g_ee_slope(params(e)), bracket=bracket)
    grid = np.arange(bracket[0], bracket[1] + 5e-5, 1e-4)
    values = [qgt_spectral(params(e)).g_ee for e in grid]
    x_grid = grid[int(np.argmax(values))]
    assert abs(x - x_grid) <= 2e-4


def test_extrapolation_recovers_synthetic_drift():
    sizes = np.array([300.0, 400.0, 500.0, 600.0, 700.0])
    eps_c = 1.008 + 0.5 * sizes ** (-0.8)
    fit = extrapolate_critical_point(sizes, eps_c)
    assert fit.limit == pytest.approx(1.008, abs=1e-6)
    assert fit.amplitude == pytest.approx(0.5, abs=1e-4)
    assert fit.exponent == pytest.approx(0.8, abs=1e-4)
    assert fit.residual < 1e-12


def test_extrapolation_rejects_constant_data():
    with pytest.raises(FitError):
        extrapolate_critical_point([300, 400, 500, 600], [1.0, 1.0, 1.0, 1.0])


def test_fit_power_law_exact():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    fit = fit_power_law(x, 3.0 * x**2)
    assert fit.exponent == pytest.approx(2.0, abs=1e-12)
    assert fit.prefactor == pytest.approx(3.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_power_law_roundtrip_identity():
    rng = np.random.default_rng(9)
    for _ in range(5):
        exponent = float(rng.uniform(-2.0, 3.0))
        prefactor = float(rng.uniform(0.1, 10.0))
        x = np.linspace(1.0, 20.0, 8)
        fit = fit_power_law(x, prefactor * x**exponent)
        assert fit.exponent == pytest.approx(exponent, abs=1e-10)
        assert fit.prefactor == pytest.approx(prefactor, rel=1e-10)


def test_fit_power_law_rejects_nonpositive():
    with pytest.raises(FitError):
        fit_power_law([1.0, 2.0], [1.0, -1.0])
    with pytest.raises(FitError):
        fit_power_law([0.0, 2.0], [1.0, 1.0])


def test_nu_convergence_synthetic():
    sizes = np.array([300.0, 400.0, 500.0, 600.0, 700.0])
    fit = nu_convergence(sizes, 1.51 + 2.0 / sizes)
    assert fit.limit == pytest.approx(1.51, abs=1e-6)
    assert fit.exponent == pytest.approx(1.0, abs=1e-4)


def test_pair_slopes_geometric_assignment():
    sizes = np.array([100.0, 200.0, 400.0])
    values = 2.0 * sizes**1.5
    eff, slopes = pair_slopes(sizes, values)
    np.testing.assert_allclose(slopes, [1.5, 1.5])
    np.testing.assert_allclose(eff, [np.sqrt(2.0) * 100.0, np.sqrt(2.0) * 200.0])


def test_perturbation_dimensions():
    d_eps, d_phi, consistency = perturbation_dimensions(1.325, 0.643, 1.0)
    assert d_eps == pytest.approx(0.3375)
    assert d_phi == pytest.approx(0.6785)
    assert 2.0 - d_eps - d_phi == pytest.approx(0.984)
    assert consistency == pytest.approx(abs(1.0 - 0.984))
    assert perturbation_dimensions(2.0, 2.0, 0.0)[:2] == (0.0, 0.0)


def _exact_family(nu=1.0, delta=2.0):
    # Power-of-two construction: every rescaled interior node of each curve
    # coincides bit-exactly with a node of another curve, so the collapse
    # deviation is exactly zero at the true parameters.
    sizes = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    offsets = 2.0 ** (-12 + np.arange(9))
    grid = 1.0 + offsets
    xs = np.array([(grid - 1.0) * L ** (1.0 / nu) for L in sizes])
    values = np.array([L**delta / (1.0 + x**2) for L, x in zip(sizes, xs)])
    return CurveFamily(sizes=sizes, eps_grid=grid, values=values, observable="g_ee")


def test_collapse_perfect_family_is_zero():
    fam = _exact_family()
    q = collapse_objective(fam, 2.0, 1.0, 1.0)
    assert q < 1e-20


def test_collapse_detuning_nu_raises_objective():
    fam = _exact_family()
    q_true = collapse_objective(fam, 2.0, 1.0, 1.0)
    q_off = collapse_objective(fam, 2.0, 1.1, 1.0)
    assert q_off >= 10.0 * max(q_true, 1e-30)
    assert q_off > 0.0


def test_collapse_reorder_invariance():
    fam = _exact_family()
    shuffled = CurveFamily(sizes=fam.sizes[::-1], eps_grid=fam.eps_grid,
                           values=fam.values[::-1], observable="g_ee")
    q1 = collapse_objective(fam, 2.0, 1.3, 1.0001)
    q2 = collapse_objective(shuffled, 2.0, 1.3, 1.0001)
    assert q1 == q2


def test_collapse_window_error():
    sizes = np.array([10.0, 1e6])
    grid = np.array([2.0, 3.0, 4.0])
    values = np.ones((2, 3))
    fam = CurveFamily(sizes=sizes, eps_grid=grid, values=values, observable="g_ee")
    with pytest.raises(WindowError):
        collapse_objective(fam, 0.0, 0.2, 0.0)


def test_optimize_collapse_recovers_nu():
    fam = _exact_family()
    opt = optimize_collapse(fam, 2.0, (0.7, 1.4), (0.995, 1.005))
    assert opt.nu == pytest.approx(1.0, rel=0.01)
    assert opt.eps_c_star == pytest.approx(1.0, abs=1e-3)


@pytest.fixture(scope="module")
def bench_families():
    # The g_ee and f_ep families of a bench-scale scaling run: sizes 150-350,
    # cutoff 400, eps window 0.95-1.06 in steps of 0.004.
    sizes = np.array([150.0, 200.0, 250.0, 300.0, 350.0])
    grid = np.arange(0.95, 1.06 + 0.002, 0.004)
    rows = sweep_family(sizes, grid, 400)
    return [CurveFamily(sizes=sizes, eps_grid=grid, observable="g_ee",
                        values=np.array([[r.g_ee for r in row] for row in rows])),
            CurveFamily(sizes=sizes, eps_grid=grid, observable="f_ep",
                        values=np.abs([[r.f_ep for r in row] for row in rows]))]


def _outcome(objective, *args):
    """The objective's value, or the WindowError it raises with its message."""
    try:
        return objective(*args)
    except WindowError as exc:
        return WindowError, str(exc)


def _same_as_reference(family, delta_jk, nu, eps_c_star):
    fast = _outcome(collapse_objective, family, delta_jk, nu, eps_c_star)
    slow = _outcome(reference.collapse_objective, family, delta_jk, nu, eps_c_star)
    return fast == slow


def test_collapse_objective_equals_reference_bit_for_bit(bench_families):
    # 5000 random (nu, eps_c*, delta_jk) per family; every tenth eps_c* is a
    # grid point, where each curve has x = 0 and the sort meets ties
    rng = np.random.default_rng(17)
    for family in bench_families:
        grid = family.eps_grid
        draws = []
        for _ in range(5000):
            nu = float(rng.uniform(0.3, 4.0))
            ec = (float(grid[rng.integers(len(grid))]) if rng.random() < 0.1
                  else float(rng.uniform(0.8, 1.3)))
            draws.append((float(rng.uniform(-1.0, 3.0)), nu, ec))
        differ = [d for d in draws if not _same_as_reference(family, *d)]
        assert differ == [], f"{family.observable}: {len(differ)} draws differ, first {differ[:3]}"


def test_collapse_objective_edge_cases_equal_reference(bench_families):
    g_ee = bench_families[0]
    two = CurveFamily(sizes=g_ee.sizes[[0, 4]], eps_grid=g_ee.eps_grid,
                      values=g_ee.values[[0, 4]], observable="g_ee")
    for nu in (0.8, 1.5, 2.5):
        assert _same_as_reference(two, 1.3, nu, 1.0)
    for ec in g_ee.eps_grid[[0, 7, 14, -1]]:
        for family in bench_families:
            assert _same_as_reference(family, 1.0, 1.5, float(ec))
            assert _same_as_reference(family, 4.0 / 3.0, 1.5, float(ec))
    # eps_c* = nan puts no point inside any curve's range
    assert _outcome(collapse_objective, g_ee, 1.3, 1.5, float("nan"))[0] is WindowError
    assert _same_as_reference(g_ee, 1.3, 1.5, float("nan"))


def test_collapse_skips_a_curve_outside_the_others_range():
    # eps_c* = 0 puts every x at (1 ... 1.5) L^{1/nu}: the L = 1000 curve
    # starts at 100, past the largest x of the others (1.5 * 340^{2/3} = 73),
    # while the L = 300 curve still overlaps the L = 320 one.
    sizes = np.array([300.0, 320.0, 340.0, 1000.0])
    grid = np.linspace(1.0, 1.5, 11)
    values = np.array([L * np.exp(-grid) for L in sizes])
    family = CurveFamily(sizes=sizes, eps_grid=grid, values=values, observable="g_ee")
    xs = grid * sizes[:, None] ** (1.0 / 1.5)
    assert xs[3].min() > xs[:3].max()
    value = collapse_objective(family, 1.0, 1.5, 0.0)
    assert np.isfinite(value) and value > 0.0
    assert value == reference.collapse_objective(family, 1.0, 1.5, 0.0)


def test_collapse_of_an_all_zero_family_raises():
    family = CurveFamily(sizes=np.array([100.0, 200.0, 300.0]),
                         eps_grid=np.linspace(0.9, 1.1, 9), values=np.zeros((3, 9)),
                         observable="f_ep")
    for objective in (collapse_objective, reference.collapse_objective):
        with pytest.raises(WindowError, match="identically zero"):
            objective(family, 1.0, 1.5, 1.0)


def test_pipeline_and_stored_family_collapse_equal_with_reference(tmp_path, monkeypatch):
    tiny = dict(sizes=(40, 50, 60, 70, 85), n_cut=200, peak_bracket=(1.05, 1.45),
                collapse_window=(1.05, 1.40), collapse_step=1e-2)
    fast = scaling_pipeline(**tiny)
    path = tmp_path / "scaling_report.json"
    path.write_text(dumps_json(asdict(fast)))
    stored = [family_from_report(load_scaling_report(path), name)
              for name in ("g_ee", "f_ep")]
    # delta_ee is the ordinate exponent the collapse subcommand holds for g_ee
    fast_optima = [optimize_collapse(f, d, (1.2, 1.9), (1.0, 1.3))
                   for f in stored for d in (fast.delta_ee, 1.0)]

    # the reference objective has no early exit, so the seed bound is dropped
    monkeypatch.setattr(kerrqgt.scaling, "collapse_objective",
                        lambda *args, above=None: reference.collapse_objective(*args))
    assert asdict(fast) == asdict(scaling_pipeline(**tiny))
    assert fast_optima == [optimize_collapse(f, d, (1.2, 1.9), (1.0, 1.3))
                           for f in stored for d in (fast.delta_ee, 1.0)]


def test_family_validation():
    with pytest.raises(ValueError, match="at least 2 sizes"):
        CurveFamily(sizes=np.array([1.0]), eps_grid=np.array([0.0, 1.0]),
                    values=np.ones((1, 2)), observable="x")
    with pytest.raises(ValueError):
        CurveFamily(sizes=np.array([1.0, 1.0]), eps_grid=np.array([0.0, 1.0]),
                    values=np.ones((2, 2)), observable="x")
    with pytest.raises(ValueError):
        CurveFamily(sizes=np.array([1.0, 2.0]), eps_grid=np.array([1.0, 0.0]),
                    values=np.ones((2, 2)), observable="x")
    with pytest.raises(ValueError):
        CurveFamily(sizes=np.array([1.0, 2.0]), eps_grid=np.array([0.0, 1.0]),
                    values=np.full((2, 2), np.nan), observable="x")


def test_gap_error_in_pipeline_names_the_point(monkeypatch):
    import kerrqgt.qgt
    monkeypatch.setattr(kerrqgt.qgt, "GAP_FLOOR", 1.0)
    # the first gated solve is the peak search of L = 40, on its cutoff rung
    # 80 below the cap 200 (diagnostics["cutoffs"]["peak"][0])
    with pytest.raises(GapError, match=r"sector gap .* at eps=[0-9.]+, kerr=0.025, "
                                       r"n_cut=80$"):
        scaling_pipeline(sizes=(40, 50, 60, 70, 85), n_cut=200,
                         peak_bracket=(1.05, 1.45), collapse_window=(1.05, 1.40),
                         collapse_step=2e-3)


def test_constant_fit_data_is_named():
    with pytest.raises(FitError, match=r"constant data y = 1 at x = \[0.5, 0.25, 0.125\]"):
        fit_shifted_power(np.array([0.5, 0.25, 0.125]), np.ones(3))


def test_pipeline_names_the_sizes_the_cutoff_gate_drops():
    # at n_cut = 60 the ground state of the two largest sizes reaches the
    # last retained levels at their peaks
    with pytest.raises(FitError, match=r"kept \[40.0, 50.0, 60.0\], dropped \[100.0, 150.0\]"):
        scaling_pipeline(sizes=(40, 50, 60, 100, 150), n_cut=60,
                         peak_bracket=(1.05, 1.45), collapse_window=(1.05, 1.40),
                         collapse_step=2e-3)


@pytest.mark.parametrize("grid, named", [
    (dict(collapse_step=0.0), "got 0.0"),
    (dict(collapse_step=-0.01), "got -0.01"),
    (dict(collapse_step=float("nan")), "got nan"),
    (dict(collapse_step=float("inf")), "got inf"),
    (dict(collapse_window=(1.06, 0.95)), r"got \(1.06, 0.95\)"),
    (dict(collapse_window=(1.0, 1.0)), r"got \(1.0, 1.0\)"),
])
def test_invalid_collapse_grid_fails_before_the_peak_search(monkeypatch, grid, named):
    import kerrqgt.scaling
    slopes = []
    monkeypatch.setattr(kerrqgt.scaling, "g_ee_slope",
                        lambda params: slopes.append(params) or 1.0)
    with pytest.raises(ValueError, match=rf"collapse_(step|window) .* {named}"):
        scaling_pipeline(**{"sizes": (40, 50, 60, 70, 85), "n_cut": 200, **grid})
    assert slopes == []
