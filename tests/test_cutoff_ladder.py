"""The scaling pipeline's per-row Fock cutoffs against the fixed-cutoff path.

scaling_pipeline solves each size's peak search and family row at the
smallest rung of its cutoff ladder whose probe, the ground state at the
stage's largest eps, has tail weight at most CUTOFF_MARGIN x TAIL_TOLERANCE,
and moves a row up a rung while any of its points trips the plain tail gate.
The slow path, reference.fixed_cutoff_scaling, solves every row at the cap.
"""

import numpy as np
import pytest

import kerrqgt.scaling as scaling
import reference
from kerrqgt import ModelParams, ground_state_row
from kerrqgt.model import TAIL_TOLERANCE

BENCH = dict(sizes=(150, 200, 250, 300, 350), n_cut=400, peak_bracket=(0.99, 1.40),
             collapse_window=(0.95, 1.06), collapse_step=0.004)
TINY = dict(sizes=(40, 50, 60, 70, 85), n_cut=200, peak_bracket=(1.05, 1.45),
            collapse_window=(1.05, 1.40), collapse_step=0.01)

TENSOR_KEYS = ("g_ee_peak", "g_pp_at_peak", "f_ep_at_peak", "family_g_ee", "family_f_ep")
TENSOR_RELATIVE = 1e-10
HEADLINE_KEYS = ("eps_c_star", "nu", "delta_ee", "delta_pp", "delta_ep", "fit_b")
HEADLINE_RELATIVE = 1e-8
QUALITY_KEYS = ("collapse_quality_gee", "collapse_quality_fep")
QUALITY_RELATIVE = 1e-6


def _assert_matches_fixed_cutoff(report, config):
    fixed = reference.fixed_cutoff_scaling(**config)
    diag, slow = report.diagnostics, fixed.diagnostics
    for key in ("sizes", "family_eps_grid", "warnings", "degraded", "n_cut"):
        assert diag[key] == slow[key], key
    for key in TENSOR_KEYS:
        np.testing.assert_allclose(diag[key], slow[key], rtol=TENSOR_RELATIVE, atol=0,
                                   err_msg=key)
    for keys, rel in ((HEADLINE_KEYS, HEADLINE_RELATIVE), (QUALITY_KEYS, QUALITY_RELATIVE)):
        for key in keys:
            assert getattr(report, key) == pytest.approx(getattr(fixed, key), rel=rel,
                                                         abs=0), key
    cap = config.get("n_cut", scaling.DEFAULT_N_CUT)
    assert slow["cutoffs"] == {stage: [cap] * len(slow["sizes"])
                               for stage in ("peak", "family")}


@pytest.fixture(scope="module")
def bench_report():
    return scaling.scaling_pipeline(**BENCH)


@pytest.mark.parametrize("config", [BENCH, {}], ids=["bench", "defaults"])
def test_adaptive_cutoff_matches_fixed_cutoff_path(config, bench_report):
    report = bench_report if config is BENCH else scaling.scaling_pipeline(**config)
    _assert_matches_fixed_cutoff(report, config)
    cap = config.get("n_cut", scaling.DEFAULT_N_CUT)
    cutoffs = report.diagnostics["cutoffs"]
    ladder = scaling._cutoff_ladder(cap)
    for stage in ("peak", "family"):
        assert len(cutoffs[stage]) == len(report.diagnostics["sizes"])
        assert all(type(n) is int and n in ladder and n < cap for n in cutoffs[stage])


def _probe_passes(size, eps, n_cut):
    tail = ground_state_row([ModelParams.from_size(size, eps, n_cut=n_cut)]).tail_weight[0]
    return tail <= scaling.CUTOFF_MARGIN * TAIL_TOLERANCE


def test_tail_is_monotone_and_rungs_grow_with_size(bench_report):
    # The probe at the stage's largest eps certifies the whole stage only if
    # the tail grows with eps over it; the warm start from the previous size's
    # rung finds the smallest passing rung only if that rung grows with L.
    diag = bench_report.diagnostics
    ladder = scaling._cutoff_ladder(BENCH["n_cut"])
    stages = {"peak": np.linspace(*BENCH["peak_bracket"], 42),
              "family": np.asarray(diag["family_eps_grid"])}
    for stage, grid in stages.items():
        for size, n_cut in zip(diag["sizes"], diag["cutoffs"][stage]):
            tail = ground_state_row([ModelParams.from_size(size, eps, n_cut=n_cut)
                                     for eps in grid]).tail_weight
            assert np.all(np.diff(tail) > 0), (stage, size)
        # searched from the lowest rung, each size picks the rung it was given
        cold = [next(n for n in ladder if n == ladder[-1] or _probe_passes(size, grid[-1], n))
                for size in diag["sizes"]]
        assert cold == diag["cutoffs"][stage]
        assert cold == sorted(cold)


@pytest.fixture
def solved_cutoffs(monkeypatch):
    """(stage, size, n_cut) of every peak and family solve the pipeline makes.

    A peak solve is a run of slope steps at one size and cutoff, recorded once."""
    solved = []
    sweep_family, step = scaling.sweep_family, scaling.g_ee_slope_step

    def family(sizes, eps_grid, n_cut, delta=1.0):
        solved.append(("family", float(sizes[0]), n_cut))
        return sweep_family(sizes, eps_grid, n_cut, delta)

    def peak(params):
        solve = ("peak", params.delta / params.kerr, params.n_cut)
        if solved[-1:] != [solve]:
            solved.append(solve)
        return step(params)

    monkeypatch.setattr(scaling, "sweep_family", family)
    monkeypatch.setattr(scaling, "g_ee_slope_step", peak)
    return solved


def test_a_row_that_trips_the_gate_moves_up_a_rung(monkeypatch, solved_cutoffs):
    # With every probe passing, each stage starts at the previous size's rung
    # (the lowest for the first size) and only the plain gate lifts it.
    monkeypatch.setattr(scaling, "CUTOFF_MARGIN", np.inf)
    report = scaling.scaling_pipeline(**TINY)
    diag = report.diagnostics
    assert not diag["degraded"]
    ladder = scaling._cutoff_ladder(TINY["n_cut"])
    for stage in ("peak", "family"):
        tried = {}
        for solved_stage, size, n_cut in solved_cutoffs:
            if solved_stage == stage:
                tried.setdefault(size, []).append(n_cut)
        assert list(tried) == diag["sizes"]
        start = ladder[0]
        for cuts, final in zip(tried.values(), diag["cutoffs"][stage]):
            # consecutive rungs from the previous size's, ending at the recorded one
            first = ladder.index(start)
            assert cuts == ladder[first:first + len(cuts)] and cuts[-1] == final
            start = final
        assert any(len(cuts) > 1 for cuts in tried.values()), stage


def test_a_point_that_trips_at_the_cap_is_flagged():
    # At the cap 76 the family of L = 85 reaches the last levels at its top
    # eps: both paths solve that row at the cap and flag the same points.
    config = dict(TINY, n_cut=76)
    report = scaling.scaling_pipeline(**config)
    diag = report.diagnostics
    assert diag["degraded"]
    assert diag["warnings"] == ["cutoff-inadequate family point: L=85 eps=1.390000",
                                "cutoff-inadequate family point: L=85 eps=1.400000"]
    assert diag["cutoffs"]["family"][-1] == 76
    _assert_matches_fixed_cutoff(report, config)
