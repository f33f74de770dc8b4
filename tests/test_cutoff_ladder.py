"""The per-row Fock cutoffs of the scaling pipeline and the qgt sweep against
the fixed-cutoff path.

scaling_pipeline solves each size's peak search and family row, and the qgt
sweep each size's row, at the smallest rung of its cutoff ladder whose probe,
the ground state at the stage's largest eps, has tail weight at most
CUTOFF_MARGIN x TAIL_TOLERANCE, and moves a row up a rung while any of its
points trips the plain tail gate.  The slow paths,
reference.fixed_cutoff_scaling and reference.fixed_cutoff_run, solve every row
at the cap.
"""

import dataclasses

import numpy as np
import pytest

import kerrqgt.scaling as scaling
import reference
from kerrqgt import ModelParams, ground_state_row
from kerrqgt.model import TAIL_TOLERANCE
from kerrqgt.sweep import SweepConfig, read_csv, run

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
    sweep_family, step = scaling.sweep_family, scaling.g_ee_slope

    def family(sizes, eps_grid, n_cut, delta=1.0):
        solved.append(("family", float(sizes[0]), n_cut))
        return sweep_family(sizes, eps_grid, n_cut, delta)

    def peak(params):
        solve = ("peak", params.delta / params.kerr, params.n_cut)
        if solved[-1:] != [solve]:
            solved.append(solve)
        return step(params)

    monkeypatch.setattr(scaling, "sweep_family", family)
    monkeypatch.setattr(scaling, "g_ee_slope", peak)
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


# The qgt-both bench grids at seeds 1 and 901 (bench/workloads.py): the eps
# grid 0.95-1.06 shifted by the seed's offset, at the seed's drive phase.
QGT_BENCH = [((0.947438, 1.057438, 8), 3.537288), ((0.945955, 1.055955, 8), 5.581933)]
# At those grids the rows of the rungs 80, 100 and 126 agree with the cap's
# within 8.2e-13 (spectral) and 6.3e-12 (fd) relative in g_ee, g_pp and f_ep,
# and within 3.2e-13 in the gap and mean_n.
QGT_RELATIVE = {"spectral": 3e-12, "fd": 2e-11}
QGT_CONTEXT_RELATIVE = 1e-12
QGT_TENSOR_COLUMNS = {"g_ee": 5, "g_pp": 6, "f_ep": 8}
QGT_CONTEXT_COLUMNS = {"gap": 9, "mean_n": 10}


def _qgt_lines(config, fixed=False):
    solve = reference.fixed_cutoff_run if fixed else run
    path = solve(dataclasses.replace(config, out_dir=config.out_dir + ("-fixed" if fixed
                                                                        else "")))[0]
    return path.read_text().splitlines()


@pytest.mark.parametrize("eps_range, phi", QGT_BENCH, ids=["seed-1", "seed-901"])
def test_qgt_rows_match_fixed_cutoff_path(tmp_path, eps_range, phi):
    config = SweepConfig(mode="qgt", out_dir=str(tmp_path / "qgt"), sizes=(150, 250, 350),
                         eps_range=eps_range, phi=phi, method="both", n_cut=400)
    adaptive, fixed = _qgt_lines(config), _qgt_lines(config, fixed=True)
    assert adaptive[0] == fixed[0] and len(adaptive) == len(fixed) == 1 + 3 * 8 * 2
    rungs = {"150": "80", "250": "100", "350": "126"}
    for line, slow in zip(adaptive[1:], fixed[1:]):
        row, ref = line.split(","), slow.split(",")
        # L, eps, phi, method, g_ep and warn are equal; ncut is the rung
        for column in (0, 1, 2, 4, 7, 11):
            assert row[column] == ref[column]
        assert (row[3], ref[3]) == (rungs[row[0]], "400")
        bounds = [(column, QGT_RELATIVE[row[4]]) for column in QGT_TENSOR_COLUMNS.values()]
        bounds += [(column, QGT_CONTEXT_RELATIVE) for column in QGT_CONTEXT_COLUMNS.values()]
        for column, bound in bounds:
            value, slow_value = float(row[column]), float(ref[column])
            assert abs(value - slow_value) <= bound * abs(slow_value), (column, row, ref)


def test_qgt_grid_that_needs_the_cap_is_byte_identical(tmp_path):
    # the grid of test_phase_diagram_agrees_with_qgt_sweep: its top eps fails
    # every probe below the cap 149, so the row is the fixed-cutoff row, with
    # the same flagged points
    config = SweepConfig(mode="qgt", out_dir=str(tmp_path / "qgt"), sizes=(300,),
                         eps_range=(0.0, 1.5, 41), phi=0.0, method="both", n_cut=149)
    adaptive = _qgt_lines(config)
    assert adaptive == _qgt_lines(config, fixed=True)
    assert any(line.endswith(",cutoff") for line in adaptive)


def test_qgt_row_that_trips_the_gate_moves_up_a_rung(tmp_path, monkeypatch):
    # with every probe passing, the row starts at the lowest rung and only the
    # plain gate lifts it, to the first rung at which no point trips
    monkeypatch.setattr(scaling, "CUTOFF_MARGIN", np.inf)
    config = SweepConfig(mode="qgt", out_dir=str(tmp_path / "qgt"), sizes=(60,),
                         eps_range=(1.2, 1.4, 3), phi=0.0, method="spectral", n_cut=400)
    lines = _qgt_lines(config)
    ladder = scaling._cutoff_ladder(400)
    tripped = [ground_state_row([ModelParams.from_size(60, eps, n_cut=n)
                                 for eps in (1.2, 1.3, 1.4)]).cutoff_warning.any()
               for n in ladder]
    rung = ladder[tripped.index(False)]
    assert rung > ladder[0]
    assert {line.split(",")[3] for line in lines[1:]} == {str(rung)}
    fixed = _qgt_lines(config, fixed=True)
    assert [line.split(",")[11] for line in lines] == [line.split(",")[11] for line in fixed]


def test_qgt_sizes_do_not_depend_on_each_other(tmp_path):
    # each size probes from the lowest rung, so its rows are the same in any
    # order and company of sizes
    by_size = []
    for sizes in ((150, 350), (350, 150)):
        config = SweepConfig(mode="qgt", out_dir=str(tmp_path / "_".join(map(str, sizes))),
                             sizes=sizes, eps_range=(0.95, 1.06, 4), phi=0.3,
                             method="both", n_cut=400)
        rows = read_csv(run(config)[0])[1]
        by_size.append({size: [r for r in rows if r[0] == size] for size in ("150", "350")})
    assert by_size[0] == by_size[1]
    assert {r[3] for r in by_size[0]["150"]} != {r[3] for r in by_size[0]["350"]}
