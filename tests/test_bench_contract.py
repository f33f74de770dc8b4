"""Names the benchmark harness in bench/ traces and gates on.

The tracer wraps package functions by module and name; a rename would drop
its spans, and with no ``eigensolver.eig_tridiagonal`` span its residual gate
is skipped without an error.  These tests fail instead.
"""

import inspect
import sys

import numpy as np
import pytest

import kerrqgt
import kerrqgt.eigensolver
import kerrqgt.oracle
import kerrqgt.scaling
import kerrqgt.sweep
import reference
from kerrqgt import ModelParams, sector_block


def test_eig_tridiagonal_returns_what_the_tracer_reads():
    spec = kerrqgt.eigensolver.eig_tridiagonal(
        sector_block([ModelParams.from_size(150, 0.9, n_cut=200)]))
    assert spec.eigenvalues.shape == (1, 2)
    assert 0.0 <= spec.max_residual <= 1e-10 * spec.residual_unit


@pytest.fixture
def eig_calls(monkeypatch):
    """(rows, block size, seeded) of each eig_tridiagonal call, counted through
    every module binding, as the tracer counts the calls."""
    original = kerrqgt.eigensolver.eig_tridiagonal
    calls = []

    def counted(block, seed=None):
        calls.append((len(block.offdiag), block.size, seed is not None))
        return original(block, seed)

    for name, module in list(sys.modules.items()):
        if name.startswith("kerrqgt") and getattr(module, "eig_tridiagonal", None) is original:
            monkeypatch.setattr(module, "eig_tridiagonal", counted)
    return calls


@pytest.mark.parametrize("kernel", ["qgt_spectral", "ground_state_row", "qgt_fd",
                                    "qgt_fd_row"])
def test_traced_kernels_call_eig_tridiagonal(eig_calls, kernel):
    # qgt_fd is the fd tensor of one point, its centre row included;
    # qgt_fd_row counts only the row kernel's own stencil solve
    params = ModelParams.from_size(150, 0.9, n_cut=200)
    if kernel.startswith("qgt_fd"):
        ground = kerrqgt.ground_state_row([params])
        if kernel == "qgt_fd_row":
            eig_calls.clear()
        kerrqgt.qgt_fd_row(ground)
    else:
        getattr(kerrqgt, kernel)([params] if kernel.endswith("_row") else params)
    assert eig_calls


@pytest.mark.parametrize("method, calls, rows", [("spectral", 1, 8), ("fd", 2, 40),
                                                 ("both", 2, 40)])
def test_qgt_point_eigensolve_count(tmp_path, eig_calls, method, calls, rows):
    # One size of 8 points is one row.  The cutoff probes come first: the top
    # eps as a row of one on the rungs 40, 50, 64 and 80 of the cap 200, up to
    # the first whose tail passes.  At that rung come one bisected centre row
    # of its 8 points, which every method reads, and for the fd rows one
    # seeded solve of the stencil satellites of every point, the 4 eps values
    # of its two edges, which serve every fd entry.
    kerrqgt.sweep.run(kerrqgt.sweep.SweepConfig(
        mode="qgt", out_dir=str(tmp_path), sizes=(150,), eps_range=(0.95, 1.06, 8),
        phi=0.3, n_cut=200, method=method))
    probes, solves = eig_calls[:4], eig_calls[4:]
    assert probes == [(1, n // 2 + 1, False) for n in (40, 50, 64, 80)]
    assert (len(solves), sum(m for m, *_ in solves)) == (calls, rows)
    assert solves[0] == (8, 41, False)
    assert solves[1:] == ([] if method == "spectral" else [(32, 41, True)])


def test_scaling_rows_solve_at_most_half_the_fixed_cutoff_work(monkeypatch, eig_calls):
    # Every cutoff probe is a one-point ground_state_row, so it goes through
    # eig_tridiagonal and the bench's residual gate sees it.  The family rows
    # are ground_state_row calls of many points; only the one-point calls are
    # probes.
    probes = []

    def probe(points, seed=None):
        before = len(eig_calls)
        ground = kerrqgt.eigensolver.ground_state_row(points, seed)
        if len(points) == 1:
            probes.append((eig_calls[before:], (1, points[0].n_cut // 2 + 1, False)))
        return ground

    monkeypatch.setattr(kerrqgt.scaling, "ground_state_row", probe)
    config = dict(sizes=(60, 80, 100, 120), n_cut=240, peak_bracket=(0.99, 1.40),
                  collapse_window=(0.95, 1.06), collapse_step=0.01)
    kerrqgt.scaling.scaling_pipeline(**config)
    adaptive = list(eig_calls)
    assert probes and all(seen == [expected] for seen, expected in probes)
    eig_calls.clear()
    reference.fixed_cutoff_scaling(**config)
    assert all(size == 121 for _, size, _ in eig_calls)
    work = [sum(m * size for m, size, _ in calls) for calls in (adaptive, eig_calls)]
    assert work[0] <= 0.5 * work[1]


def test_pipeline_and_gate_names_exist():
    # bench/checks.py imports these to gate the paper and phase-diagram runs.
    assert callable(kerrqgt.scaling.scaling_pipeline)
    assert callable(kerrqgt.scaling.CurveFamily)
    # checks.py passes the first four positionally; optimize_collapse adds the
    # keyword-only seed bound
    parameters = inspect.signature(kerrqgt.scaling.collapse_objective).parameters
    assert list(parameters) == ["family", "delta_jk", "nu", "eps_c_star", "above"]
    assert parameters["above"].kind is inspect.Parameter.KEYWORD_ONLY
    assert parameters["above"].default is None
    assert abs(kerrqgt.oracle.superradiant_phase(1.0, 1.2, size=800.0).alpha) > 0.0


def test_collapse_objective_counter_sees_every_optimize_collapse_call(monkeypatch):
    # The bench counts scaling.collapse_objective.calls by wrapping this module
    # global.  optimize_collapse must call through it, so that a wrapper sees
    # the seed grid and every in-range polish step, and the reference objective
    # patched in the same way is called exactly as often.  The package objective
    # gets the seed bound; the reference has none, so its wrapper drops it.
    sizes = np.array([40.0, 50.0, 60.0, 70.0])
    grid = np.linspace(0.95, 1.10, 16)
    values = np.array([L / (1.0 + ((grid - 1.0) * L ** (2.0 / 3.0)) ** 2) for L in sizes])
    family = kerrqgt.scaling.CurveFamily(sizes=sizes, eps_grid=grid, values=values,
                                         observable="f_ep")
    counts, optima = [], []
    for objective in (kerrqgt.scaling.collapse_objective, reference.collapse_objective):
        calls = []

        def counted(*args, above=None, objective=objective):
            calls.append(args)
            if objective is reference.collapse_objective:
                return objective(*args)
            return objective(*args, above=above)

        monkeypatch.setattr(kerrqgt.scaling, "collapse_objective", counted)
        optima.append(kerrqgt.scaling.optimize_collapse(family, 1.0, (1.2, 1.9),
                                                        (0.95, 1.05)))
        counts.append(len(calls))
    seeds = np.prod(kerrqgt.scaling.COLLAPSE_SEED_GRID)
    assert counts[0] == counts[1] > seeds
    assert optima[0] == optima[1]
