"""The analytic slope of g_ee and the peak search built on it, each against an
independent slow path: finite differences of the tensor kernel, and a golden
section on g_ee itself."""

import numpy as np
import pytest

import kerrqgt.scaling as scaling
from kerrqgt import GapError, ModelParams, qgt_spectral, scaling_pipeline
from kerrqgt.qgt import g_ee_slope
from kerrqgt.scaling import golden_section_min

SLOPE_GRID = (
    # around the transition at L = 150..700
    [ModelParams.from_size(L, eps, n_cut=800)
     for L in (150, 400, 700) for eps in (0.97, 1.0, 1.03)]
    # away from it, both sides
    + [ModelParams.from_size(300, eps, n_cut=800) for eps in (0.3, 0.7, 1.3)]
    # K = 0 at the critical drive: g_ee grows like n_cut^4
    + [ModelParams(kerr=0.0, eps=1.0, n_cut=nc) for nc in (200, 400, 800, 1600)]
)

PIPELINE = dict(sizes=(40, 50, 60, 70, 85), n_cut=200, peak_bracket=(1.05, 1.45),
                collapse_window=(1.05, 1.40), collapse_step=2e-3)


def _label(p):
    return f"K={p.kerr:.3g}-eps={p.eps:g}-ncut={p.n_cut}"


def _g_ee(p, eps):
    return qgt_spectral(p.replace(eps=eps)).g_ee


@pytest.mark.parametrize("p", SLOPE_GRID, ids=_label)
def test_slope_matches_central_difference(p):
    # Fourth-order central difference; at K = 0 the curve narrows like
    # 1/n_cut^2, so the step does too.
    h = 1e-4 if p.kerr > 0 else 0.1 / p.n_cut**2
    e = p.eps
    fd = (_g_ee(p, e - 2 * h) - 8 * _g_ee(p, e - h)
          + 8 * _g_ee(p, e + h) - _g_ee(p, e + 2 * h)) / (12 * h)
    slope = g_ee_slope(p)
    assert abs(slope - fd) <= 1e-7 * abs(fd), (slope, fd)


@pytest.mark.parametrize("p", [ModelParams.from_size(150, 0.0, n_cut=400),
                               ModelParams(kerr=0.0, eps=0.0, n_cut=200)],
                         ids=_label)
def test_slope_vanishes_at_zero_drive(p):
    # eps -> -eps is the gauge shift phi -> phi + pi, so g_ee is even in eps
    assert g_ee_slope(p) == 0.0


@pytest.fixture(scope="module")
def counted_pipeline():
    # the peak search steps on g_ee_slope
    calls = []
    step = scaling.g_ee_slope

    def spy(params):
        calls.append(params.kerr)
        return step(params)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scaling, "g_ee_slope", spy)
        report = scaling_pipeline(**PIPELINE)
    return report, calls


def test_peaks_match_golden_section_on_g_ee(counted_pipeline):
    # g_ee carries rounding noise of a few 1e-13 relative, so near its flat
    # maximum a golden section on the values alone resolves the peak only to
    # a few 1e-8.  The vertex of a least-squares quartic through 41 samples
    # around the golden-section peak averages that noise out.
    report, _ = counted_pipeline
    lo, hi = PIPELINE["peak_bracket"]
    for size, eps_c in zip(PIPELINE["sizes"], report.diagnostics["eps_c_by_size"]):
        def g_ee(e):
            return qgt_spectral(ModelParams.from_size(size, e, n_cut=200)).g_ee

        grid = np.linspace(lo, hi, 41)
        i = int(np.argmax([g_ee(e) for e in grid]))
        x, _ = golden_section_min(lambda e: -g_ee(e), grid[i - 1], grid[i + 1], tol=1e-10)
        assert abs(eps_c - x) <= 1e-7, (size, eps_c, x)

        offsets = np.linspace(-2e-3, 2e-3, 41)
        fit = np.polynomial.Polynomial.fit(offsets, [g_ee(x + t) for t in offsets], 4)
        roots = fit.deriv().roots()
        vertex = x + min(roots[np.isreal(roots)].real, key=abs)
        assert abs(eps_c - vertex) <= 1e-8, (size, eps_c, vertex)


def test_peak_search_makes_few_slope_evaluations(counted_pipeline):
    _, calls = counted_pipeline
    for size in PIPELINE["sizes"]:
        assert 0 < calls.count(1.0 / size) <= 20, (size, calls.count(1.0 / size))
    assert len(calls) == sum(calls.count(1.0 / s) for s in PIPELINE["sizes"])


def test_slope_gap_floor_raises_named_error(monkeypatch):
    import kerrqgt.qgt as qgt
    monkeypatch.setattr(qgt, "GAP_FLOOR", 1.0)
    with pytest.raises(GapError, match=r"sector gap .* at eps=0.9, kerr=0.00666667, "
                                       r"n_cut=400$"):
        g_ee_slope(ModelParams.from_size(150, 0.9, n_cut=400))
