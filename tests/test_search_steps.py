"""The scaling search's shortcuts, each against the slow path it replaces.

* The exponent screen of fit_shifted_power against the full exact scan
  (reference.scan_exponent, reference.fit_shifted_power).
* The seed bound of optimize_collapse against the objective without it
  (reference.collapse_objective).
* The report's peak tensors against a fresh qgt_spectral at the recorded
  peak and cutoff.
* The read-only sector cache against blocks built from writable arrays.
"""

import numpy as np
import pytest

import kerrqgt.scaling as scaling
import reference
from kerrqgt import (
    FitError,
    InputError,
    ModelParams,
    WindowError,
    eig_tridiagonal,
    qgt_spectral,
    sector_block,
)
from kerrqgt.model import TridiagonalBlock, sector_arrays
from kerrqgt.scaling import (
    CurveFamily,
    collapse_objective,
    fit_shifted_power,
    locate_peak,
    optimize_collapse,
    sweep_family,
)

TINY = dict(sizes=(40, 50, 60, 70, 85), n_cut=200, peak_bracket=(1.05, 1.45),
            collapse_window=(1.05, 1.40), collapse_step=0.01)
BENCH = dict(sizes=(150, 200, 250, 300, 350), n_cut=400, peak_bracket=(0.99, 1.40),
             collapse_window=(0.95, 1.06), collapse_step=0.004)


# ---------------------------------------------------------------------------
# Exponent screen

def _random_fits(count, seed):
    """(x, y) of shifted-power data at 3, 4, 5 and 7 sizes, noiseless to 1e-3 noise."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        n = (3, 4, 5, 7)[t % 4]
        x = 1.0 / np.sort(rng.uniform(30.0, 1000.0, n))
        y = (rng.uniform(-3.0, 3.0)
             + rng.uniform(-2.0, 2.0) * x ** rng.uniform(0.05, 3.2) * 10 ** rng.uniform(0, 3))
        yield x, y + (0.0, 1e-9, 1e-6, 1e-3)[(t // 4) % 4] * rng.normal(size=n)


def test_exponent_screen_picks_the_full_scan_index():
    differ = [(x, y) for x, y in _random_fits(3000, seed=24)
              if scaling._scan_exponent(x, y) != reference.scan_exponent(x, y)]
    assert differ == []


def test_fit_equals_the_full_scan_fit():
    # The polish depends on the data and the scanned index alone, so equal
    # indices give equal fits; a sample checks it end to end.
    for x, y in _random_fits(200, seed=7):
        assert fit_shifted_power(x, y) == reference.fit_shifted_power(x, y)


def test_fit_equals_the_full_scan_fit_on_a_near_tie():
    # Noiseless 3-point data whose exponent b* is placed, by bisection, where
    # the exact residuals at the grid exponents g_j and g_j+1 either side of
    # it are equal up to rounding, far inside the screen's rounding bound:
    # the screen cannot tell them apart and leaves the choice to the exact
    # residuals.
    grid = np.linspace(*scaling.DRIFT_EXPONENT_RANGE, scaling.DRIFT_EXPONENT_SCAN)
    j = 20
    x = 1.0 / np.array([150.0, 250.0, 350.0])

    def data(b):
        return 1.0 + 2.0 * x**b

    def tilt(b):
        y = data(b)
        return (reference._profile_residual(x, y, grid[j])
                - reference._profile_residual(x, y, grid[j + 1]))

    lo, hi = grid[j], grid[j + 1]
    assert tilt(lo) < 0.0 < tilt(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if tilt(mid) < 0.0 else (lo, mid)
    y = data(lo)
    tied = [reference._profile_residual(x, y, b) for b in grid[j:j + 2]]
    assert abs(tied[0] - tied[1]) <= 1e-6 * (scaling.SCREEN_ROUNDING
                                             * np.finfo(float).eps * (y @ y))
    assert reference.scan_exponent(x, y) in (j, j + 1)
    assert scaling._scan_exponent(x, y) == reference.scan_exponent(x, y)
    assert fit_shifted_power(x, y) == reference.fit_shifted_power(x, y)


@pytest.mark.parametrize("x, y, named", [
    ([0.1, 0.2, 0.3, 0.4], [1.0, 2.0, np.nan, 4.0], r"points \[2\]: x = \[0.3\], y = \[nan\]"),
    ([0.1, 0.2, 0.3, 0.4], [1.0, np.inf, 3.0, -np.inf],
     r"points \[1, 3\]: x = \[0.2, 0.4\], y = \[inf, -inf\]"),
    ([0.1, np.inf, 0.3], [1.0, 2.0, 3.0], r"points \[1\]: x = \[inf\], y = \[2.0\]"),
])
def test_non_finite_fit_data_fail_by_name(x, y, named):
    with pytest.raises(FitError, match=f"non-finite fit data at {named}$"):
        fit_shifted_power(x, y)


# ---------------------------------------------------------------------------
# Seed bound of the collapse optimum

@pytest.fixture(scope="module")
def bench_families():
    sizes = np.array(BENCH["sizes"], dtype=float)
    grid = np.arange(0.95, 1.06 + 0.002, 0.004)
    rows = sweep_family(sizes, grid, BENCH["n_cut"])
    return [CurveFamily(sizes=sizes, eps_grid=grid, observable="g_ee",
                        values=np.array([[r.g_ee for r in row] for row in rows])),
            CurveFamily(sizes=sizes, eps_grid=grid, observable="f_ep",
                        values=np.abs([[r.f_ep for r in row] for row in rows]))]


def _unbounded(monkeypatch):
    monkeypatch.setattr(scaling, "collapse_objective",
                        lambda *args, above=None: reference.collapse_objective(*args))


def test_bound_returns_the_value_or_inf_above_it(bench_families):
    rng = np.random.default_rng(3)
    stopped = 0
    for family in bench_families:
        for _ in range(500):
            args = (family, float(rng.uniform(0.5, 2.5)), float(rng.uniform(1.0, 2.0)),
                    float(rng.uniform(0.95, 1.05)))
            value = reference.collapse_objective(*args)
            above = value * float(rng.choice([0.0, 0.5, 0.999999, 1.0, 2.0]))
            bounded = collapse_objective(*args, above=above)
            # the exact value, or inf only when the value exceeds the bound
            assert bounded == value or (value > above and bounded == np.inf)
            stopped += bounded == np.inf
    assert stopped > 0


@pytest.mark.parametrize("delta_jk", [1.0])
def test_seed_bound_keeps_the_optimum(bench_families, monkeypatch, delta_jk):
    ec_range = (0.97, 1.03)
    fast = [optimize_collapse(f, delta_jk, (1.2, 1.9), ec_range) for f in bench_families]
    _unbounded(monkeypatch)
    assert fast == [optimize_collapse(f, delta_jk, (1.2, 1.9), ec_range)
                    for f in bench_families]


def test_seed_bound_keeps_the_window_error(monkeypatch):
    # two curves 1e5 apart in size never overlap at nu <= 0.3
    family = CurveFamily(sizes=np.array([10.0, 1e6]), eps_grid=np.array([2.0, 3.0, 4.0]),
                         values=np.ones((2, 3)), observable="g_ee")
    errors = []
    for patch in (lambda mp: None, _unbounded):
        patch(monkeypatch)
        with pytest.raises(WindowError) as caught:
            optimize_collapse(family, 0.0, (0.2, 0.3), (0.0, 0.01))
        errors.append(str(caught.value))
    assert errors[0] == errors[1] == ("collapse objective is undefined everywhere on "
                                      "the seed grid")


# ---------------------------------------------------------------------------
# Peak tensors

@pytest.mark.parametrize("config", [TINY, BENCH], ids=["tiny", "bench"])
def test_peak_tensor_equals_a_fresh_solve_at_the_peak(config):
    diag = scaling.scaling_pipeline(**config).diagnostics
    for i, (size, eps_c, n_cut) in enumerate(zip(diag["sizes"], diag["eps_c_by_size"],
                                                 diag["cutoffs"]["peak"])):
        fresh = qgt_spectral(ModelParams.from_size(size, eps_c, n_cut=n_cut))
        assert (fresh.g_ee, fresh.g_pp, abs(fresh.f_ep), fresh.mean_n) == (
            diag["g_ee_peak"][i], diag["g_pp_at_peak"][i], diag["f_ep_at_peak"][i],
            diag["nbar_at_peak"][i])


def test_brent_root_is_always_an_evaluated_point():
    # an exact zero at a scan point is returned as that point
    assert locate_peak(lambda x: 1.0 - x, (0.0, 7.0)) == 1.0


# ---------------------------------------------------------------------------
# Sector cache

def test_cached_sector_arrays_are_read_only_and_bounded():
    block = sector_block([ModelParams.from_size(80, 1.1, n_cut=100)])
    for array in (block.diag, block.index_map, *sector_arrays(1.0, 1.0 / 80, 100)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    assert sector_arrays.cache_info().maxsize == 64


def test_block_with_writable_arrays_solves_alike():
    cached = sector_block([ModelParams.from_size(80, eps, n_cut=100) for eps in (0.9, 1.1)])
    own = TridiagonalBlock(size=cached.size, diag=cached.diag.copy(),
                           offdiag=cached.offdiag.copy(), index_map=cached.index_map.copy())
    assert own.diag.flags.writeable and own.index_map.flags.writeable
    a, b = eig_tridiagonal(cached), eig_tridiagonal(own)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    assert np.array_equal(own.diag, cached.diag)


@pytest.mark.parametrize("n_cut", [float("inf"), float("nan"), -float("inf")])
def test_non_finite_cutoff_is_an_input_error(n_cut, monkeypatch):
    message = f"n_cut must be an integer >= 4, got {n_cut}"
    with pytest.raises(InputError, match=message):
        ModelParams(delta=1.0, kerr=0.01, eps=1.0, n_cut=n_cut)
    # the scaling pipeline's cap is checked before any solve
    monkeypatch.setattr(scaling, "ground_state_row", None)
    with pytest.raises(InputError, match=message):
        scaling.scaling_pipeline(**{**TINY, "n_cut": n_cut})
