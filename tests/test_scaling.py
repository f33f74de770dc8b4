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
    QGTResult,
    WindowError,
    collapse_objective,
    fit_power_law,
    locate_peak,
    optimize_collapse,
    qgt_spectral,
    scaling_pipeline,
)
from kerrqgt.modes import family_from_report, load_scaling_report
from kerrqgt.qgt import g_ee_slope
from kerrqgt.scaling import (_cutoff_ladder, _peaks, drift_fit, fit_peaks, fit_shifted_power,
                             sweep_family)
from kerrqgt.sweep import dumps_json


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
    # the critical-point fit of fit_peaks
    sizes = np.array([300.0, 400.0, 500.0, 600.0, 700.0])
    eps_c = 1.008 + 0.5 * sizes ** (-0.8)
    fit = fit_shifted_power(1.0 / sizes, eps_c)
    assert fit.limit == pytest.approx(1.008, abs=1e-6)
    assert fit.amplitude == pytest.approx(0.5, abs=1e-4)
    assert fit.exponent == pytest.approx(0.8, abs=1e-4)
    assert fit.residual < 1e-12


def test_extrapolation_rejects_constant_data():
    with pytest.raises(FitError):
        fit_shifted_power(1.0 / np.array([300.0, 400.0, 500.0, 600.0]), np.ones(4))


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
    # non-finite data would give a NaN fit
    with pytest.raises(FitError, match=r"points \[1, 2\]: x = \[2.0, inf\], y = \[nan, 3.0\]$"):
        fit_power_law([1.0, 2.0, np.inf], [1.0, np.nan, 3.0])


def _drifting_power(sizes, exponent, c):
    """y = L^exponent exp(-c / L), whose secant slope over sizes L1 < L2 is
    exponent + c (1/L1 - 1/L2) / ln(L2/L1): on a geometric size ladder of
    ratio r, exponent + c (r - 1) / (sqrt(r) ln r) / Lg at the pair's
    geometric mean Lg."""
    return sizes**exponent * np.exp(-c / sizes)


def test_drift_fit_limit_of_a_1_over_L_drift():
    sizes = 100.0 * 2.0 ** np.arange(5)
    pair_sizes, slopes, fit = drift_fit(sizes, _drifting_power(sizes, 1.51, 20.0))
    assert fit.limit == pytest.approx(1.51, abs=1e-6)
    assert fit.exponent == pytest.approx(1.0, abs=1e-4)


def test_drift_fit_pair_sizes_are_geometric_means():
    sizes = np.array([100.0, 200.0, 400.0, 800.0])
    pair_sizes, slopes, _ = drift_fit(sizes, 2.0 * _drifting_power(sizes, 1.5, 10.0))
    np.testing.assert_allclose(pair_sizes, np.sqrt(2.0) * sizes[:-1], rtol=1e-15)
    secants = 1.5 + 10.0 * (1 / sizes[:-1] - 1 / sizes[1:]) / np.log(2.0)
    np.testing.assert_allclose(slopes, secants, rtol=1e-12)


def _synthetic_peak(L, eps, g_ee, g_pp, f_ep):
    return QGTResult(g_ee=g_ee, g_pp=g_pp, g_ep=0.0, f_ep=f_ep, gap=0.1, method="spectral",
                     params=ModelParams.from_size(L, eps), mean_n=L / 10.0, var_n=1.0,
                     tail_weight=0.0, cutoff_warning=False)


def test_fit_peaks_perturbation_dimensions():
    # delta_j = (2 - delta_jj) / 2 and |delta_ep - (2 - delta_eps - delta_phi)|
    sizes = 100.0 * 2.0 ** np.arange(5)
    peaks = [_synthetic_peak(L, 1.0 + 0.3 * L**-0.8, g, 2.0 * L**0.643, -0.5 * L)
             for L, g in zip(sizes, _drifting_power(sizes, 1.325, 20.0))]
    fields, diagnostics, warnings = fit_peaks(sizes, peaks)
    assert fields["delta_ee"] == pytest.approx(1.325, abs=1e-6)
    assert fields["delta_pp"] == pytest.approx(0.643, abs=1e-12)
    assert fields["delta_ep"] == pytest.approx(1.0, abs=1e-12)
    assert fields["delta_eps"] == (2.0 - fields["delta_ee"]) / 2.0
    assert fields["delta_phi"] == (2.0 - fields["delta_pp"]) / 2.0
    assert diagnostics["berry_dimension_consistency"] == abs(
        fields["delta_ep"] - (2.0 - fields["delta_eps"] - fields["delta_phi"]))
    assert fields["delta_eps"] == pytest.approx(0.3375, abs=1e-6)
    assert fields["delta_phi"] == pytest.approx(0.6785)
    assert diagnostics["berry_dimension_consistency"] == pytest.approx(0.016, abs=1e-6)
    assert fields["eps_c_star"] == pytest.approx(1.0, abs=1e-6)
    assert warnings == []


TINY = dict(sizes=(40, 50, 60, 70, 85), n_cut=200, peak_bracket=(1.05, 1.45),
            collapse_window=(1.05, 1.40), collapse_step=1e-2)


@pytest.fixture(scope="module")
def tiny_peaks():
    """(report, sizes, peaks) of one tiny-scale pipeline and its _peaks stage."""
    sizes = np.array(TINY["sizes"], dtype=float)
    peaks, _ = _peaks(sizes, _cutoff_ladder(TINY["n_cut"]), TINY["peak_bracket"])
    return scaling_pipeline(**TINY), sizes, peaks


def test_fit_peaks_reproduces_the_report_bit_for_bit(tiny_peaks):
    report, sizes, peaks = tiny_peaks
    assert not any(r.cutoff_warning for r in peaks)
    fields, diagnostics, warnings = fit_peaks(sizes, peaks)
    assert fields == {k: v for k, v in asdict(report).items() if k in fields}
    assert diagnostics == {k: report.diagnostics[k] for k in diagnostics}
    assert list(diagnostics) == list(report.diagnostics)[6:6 + len(diagnostics)]
    assert warnings == [w for w in report.diagnostics["warnings"] if "drift exponent" in w]


def test_leave_one_size_out_refits_make_no_solve(tiny_peaks, no_eigensolve):
    _, sizes, peaks = tiny_peaks
    for i in range(len(sizes)):
        keep = np.arange(len(sizes)) != i
        fields, _, _ = fit_peaks(sizes[keep], [p for p, k in zip(peaks, keep) if k])
        assert all(np.isfinite(v) for v in fields.values())


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
    fast = scaling_pipeline(**TINY)
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
    assert asdict(fast) == asdict(scaling_pipeline(**TINY))
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
    # a line through constant x has no slope: 0 / 0 in closed form
    with pytest.raises(FitError, match=r"constant or not finite at a scanned exponent b "
                                       r"for x = \[0.5, 0.5, 0.5\]"):
        fit_shifted_power(np.full(3, 0.5), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(FitError, match=r"constant data x = 2 at y = \[1.0, 2.0, 4.0\]"):
        fit_power_law([2, 2, 2], [1.0, 2.0, 4.0])


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
