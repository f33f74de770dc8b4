"""The numerical half of ``sweep.run``: the mode functions and what they read.

``MODES`` maps each computing subcommand to its mode function, which takes
(config, out) and returns ({file name: text}, manifest warnings); each
evaluates its grid points in grid order.  ``sweep.run`` imports this module
only once a manifest check has found a reason to compute, so the command
line loads numpy and the kernels at its first solve.  The k0 mode reads the
scaling report that manifest_scaling.json certifies, and runs the scaling
mode into the same directory through ``sweep.run`` when there is none; so a
k0 run whose own study fails may leave the scaling outputs behind.  In the
qgt mode a grid point whose solve or gap certificate fails (POINT_ERRORS;
the tensor kernels gap-gate every row they read) is dropped with a manifest
warning that names it.  The cutoff probes and the phase diagram, which read
only the photon distribution, are not gap-gated.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .eigensolver import ground_state_row
from .errors import (CutoffError, EigenConvergenceError, GapError, InputError, SchemaError,
                     StepSizeError)
from .model import ModelParams
from .qgt import qgt_fd_row, qgt_spectral_row
from .scaling import (MAX_GRID_POINTS, CurveFamily, ScalingReport, _cutoff_ladder, _k0_cutoffs,
                      _solve_adaptive, k0_pipeline, optimize_collapse, scaling_pipeline)
from .sweep import (DEFAULT_K0_CUTOFFS, K0_REPORT_NAME, PHASE_DIAGRAM_COLUMNS, QGT_COLUMNS,
                    SCALING_REPORT_NAME, SweepConfig, _is_number, _stale, csv_text, dumps_json,
                    read_report, run, uncertified)

# Numerical failures that drop a grid point (reported as manifest warnings);
# anything else is a programming error and propagates.
POINT_ERRORS = (EigenConvergenceError, GapError, StepSizeError)

ModeResult = tuple[dict[str, str], list[str]]


def _check_grid(axes: str, points: int) -> None:
    """InputError, before any point is built, if a grid has over MAX_GRID_POINTS points."""
    if points > MAX_GRID_POINTS:
        raise InputError(f"{axes} grid of {points} points exceeds {MAX_GRID_POINTS}")


def _phase_diagram(config: SweepConfig, out: Path) -> ModeResult:
    """Order-parameter grid rho(eps, phi) at fixed effective size."""
    _check_grid("eps x phi", int(config.eps_range[2]) * int(config.phi_range[2]))
    eps_grid = np.linspace(*config.eps_range[:2], int(config.eps_range[2]))
    phi_grid = np.linspace(*config.phi_range[:2], int(config.phi_range[2]))
    # ModelParams checks the size, cutoff and eps before the screen
    points = [ModelParams.from_size(config.size, eps, n_cut=config.n_cut) for eps in eps_grid]
    eps_max = float(np.max(eps_grid))
    # A screen that rejects hopeless grids (1.3 x the condensate's <n> ~
    # L(eps - 1)/2, plus 50 levels), not a guarantee: it can pass a grid whose
    # top rows come out flagged.  The per-row tail-weight gate is the certificate.
    if eps_max > 1.0:
        required = int(np.ceil(config.size * (eps_max - 1.0) / 2.0 * 1.3 + 50))
        if config.n_cut < required:
            raise CutoffError(f"cutoff check failed at eps={eps_max:g}: "
                              f"need n_cut >= {required}, got {config.n_cut}")

    # H(eps, phi) = G H(eps, 0) G^dagger for the diagonal gauge unitary
    # G = exp(-i n phi / 2), so the photon distribution of the ground state,
    # hence mean_n, rho and the cutoff gate, is exactly phi-independent: one
    # row solve at phi = 0 (one stacked even-sector solve) fills every phi
    # column of every eps row.
    ground = ground_state_row(points)
    rows = [(eps, phi, config.size, config.n_cut, n, n / config.size, "cutoff" if flag else "")
            for eps, n, flag in zip(eps_grid, ground.mean_n.tolist(), ground.cutoff_warning)
            for phi in phi_grid]
    warnings = [f"cutoff-inadequate point: L={config.size:g} eps={eps:g}"
                for eps, flag in zip(eps_grid, ground.cutoff_warning) if flag]
    return {"phase_diagram.csv": csv_text(PHASE_DIAGRAM_COLUMNS, rows)}, warnings


def _rows_or_points(kernels, items) -> list[list]:
    """[kernel(ground) for kernel in kernels], one result per item, where
    ground is the centre row of items, ground_state_row(items).  If ground or
    a kernel's row fails with one of POINT_ERRORS, that kernel reads each item
    as a row of its own, ground_state_row([item]), solved once for all the
    kernels; a failing item gets its exception in place of a result, so only
    that item is dropped."""
    def attempt(call, arg):  # call(arg), or [the POINT_ERRORS exception it raised]
        try:
            return call(arg)
        except POINT_ERRORS as exc:
            return [exc]

    ground, rows, singles = attempt(ground_state_row, items), [], None
    for kernel in kernels:
        row = ground if isinstance(ground, list) else attempt(kernel, ground)
        if not row or isinstance(row[0], Exception):
            if singles is None:
                singles = [attempt(ground_state_row, [item]) for item in items]
            row = [r for s in singles for r in (s if isinstance(s, list) else attempt(kernel, s))]
        rows.append(row)
    return rows


def _qgt(config: SweepConfig, out: Path) -> ModeResult:
    """Tensor components on a (size, eps) grid; the phi column echoes
    config.phi, a gauge that no tensor depends on (see model).  Each size is
    one row at the cutoff _solve_adaptive picks from _cutoff_ladder(n_cut),
    probed at its top eps from the lowest rung: one centre row
    (ground_state_row) of its grid points, which each selected row kernel,
    qgt_spectral_row and/or qgt_fd_row, gap-gates and reads; each eps gets its
    spectral row first, then its fd row.  A point whose centre fails loses
    both rows.  Unlike a scaling stage, a size never starts at the previous
    size's rung, so that its rows do not depend on the other sizes
    (test_qgt_sizes_do_not_depend_on_each_other)."""
    _check_grid("size x eps", len(config.sizes) * int(config.eps_range[2]))
    eps_grid = np.linspace(*config.eps_range[:2], int(config.eps_range[2]))
    kernels = {"spectral": qgt_spectral_row, "fd": qgt_fd_row}
    methods = ["spectral", "fd"] if config.method == "both" else [config.method]
    ladder = _cutoff_ladder(config.n_cut)
    rows, warnings = [], []
    for size in config.sizes:
        points = [ModelParams.from_size(size, eps, n_cut=config.n_cut) for eps in eps_grid]

        def solve(n_cut):
            return _rows_or_points([kernels[method] for method in methods],
                                   [p.replace(n_cut=n_cut) for p in points])

        rung, solved = _solve_adaptive(
            ladder, 0, points[-1], solve,
            lambda rows_by_method: any(not isinstance(r, Exception) and r.cutoff_warning
                                       for results in rows_by_method for r in results))
        for eps, results in zip(eps_grid, zip(*solved)):
            for method, r in zip(methods, results):
                if isinstance(r, Exception):
                    label = " (fd)" if method == "fd" else ""
                    warnings.append(f"L={size:g} eps={eps:g}{label}: {r}")
                    continue
                rows.append((size, eps, config.phi, ladder[rung], r.method, r.g_ee,
                             r.g_pp, r.g_ep, r.f_ep, r.gap, r.mean_n,
                             "cutoff" if r.cutoff_warning else ""))
    # one warning per flagged point, though --method both gives it two rows
    flagged = dict.fromkeys((r[0], r[1]) for r in rows if r[11])
    warnings += [f"cutoff-inadequate point: L={size:g} eps={eps:g}" for size, eps in flagged]
    return {"qgt.csv": csv_text(QGT_COLUMNS, rows)}, warnings


def _scaling(config: SweepConfig, out: Path) -> ModeResult:
    """Full scaling analysis; the JSON report carries the curve families."""
    report = scaling_pipeline(
        sizes=config.sizes, n_cut=config.n_cut,
        peak_bracket=tuple(config.peak_bracket),
        collapse_window=tuple(config.collapse_window),
        collapse_step=config.collapse_step)
    return ({SCALING_REPORT_NAME: dumps_json(asdict(report))},
            list(report.diagnostics["warnings"]))


def load_scaling_report(path: Path) -> ScalingReport:
    """The report in path; SchemaError, naming the key, if a field other than
    diagnostics is not a finite JSON number."""
    keys = [f.name for f in fields(ScalingReport)]
    data = read_report(path, keys)
    for key in keys:
        if key != "diagnostics" and not _is_number(data[key]):
            raise SchemaError(f"{Path(path).name} key {key!r} must be a finite number, "
                              f"got {json.dumps(data[key])}")
    return ScalingReport(**{key: data[key] for key in keys})


def _k0_inputs(echo: dict) -> list:
    """What of a scaling config echo the k0 study reads: the peak bracket fixes
    eps_c by size, hence the k0 inputs; the collapse grid does not enter."""
    return [sorted(echo["sizes"]), echo["n_cut"], echo["peak_bracket"]]


def _k0(config: SweepConfig, out: Path) -> ModeResult:
    """Cutoff-scaling study, its cutoffs checked before any solve, on the
    scaling report in out whose manifest certifies it for these _k0_inputs.
    Otherwise the scaling mode first runs into out, with the k0-only cutoffs
    at their default so that the same scaling flags later find it current,
    and a report that was there gets a warning naming why it is not reused."""
    _k0_cutoffs(config.ncut_list)
    scaling = config.replace(mode="scaling", force=True, ncut_list=DEFAULT_K0_CUTOFFS)
    existing, warnings = out / SCALING_REPORT_NAME, []
    if (reason := _stale(out, scaling, _k0_inputs)) is not None:
        if existing.exists():
            warnings.append(f"{existing.name} is not reused, but computed again: {reason}")
        run(scaling)
    report = k0_pipeline(load_scaling_report(existing), ncut_list=config.ncut_list)
    if report.flagged:
        warnings.append("a power-law fit has r^2 < 0.99")
    if report.diagnostics["delta_nbar_fit"]["boundary_warning"]:
        warnings.append("delta_nbar drift exponent at search-range boundary")
    return {K0_REPORT_NAME: dumps_json(asdict(report))}, warnings


def family_from_report(report: ScalingReport, observable: str,
                       source: str = SCALING_REPORT_NAME) -> CurveFamily:
    """The stored curve family of observable; SchemaError, naming the report
    file source and the family key, if it is missing or malformed."""
    diag = report.diagnostics
    key = {"g_ee": "family_g_ee", "f_ep": "family_f_ep"}.get(observable)
    if key is None or key not in diag:
        raise SchemaError(f"{source} carries no curve family for {observable!r}")
    for axis in ("sizes", "family_eps_grid"):
        if axis not in diag:
            raise SchemaError(f"{source} holds curve family {key!r} without {axis!r}")
    try:
        return CurveFamily(sizes=np.asarray(diag["sizes"], dtype=float),
                           eps_grid=np.asarray(diag["family_eps_grid"], dtype=float),
                           values=np.asarray(diag[key], dtype=float),
                           observable=observable)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{source} key {key!r} holds a malformed curve family: "
                          f"{exc}") from exc


def _collapse(config: SweepConfig, out: Path) -> ModeResult:
    """Collapse optimization on a stored curve family.  A scaling_report.json
    next to a manifest_scaling.json that does not certify it (_stale, for any
    config) is still read, with a manifest warning naming the reason."""
    source = Path(config.input_path) if config.input_path else out / SCALING_REPORT_NAME
    report = load_scaling_report(source)
    warnings = []
    if source.name == SCALING_REPORT_NAME and (warning := uncertified(source, "scaling")):
        warnings.append(warning)
    family = family_from_report(report, config.observable, source.name)
    delta_jk = config.delta_jk
    if delta_jk is None:
        delta_jk = {"g_ee": report.delta_ee, "f_ep": 1.0}[config.observable]
    ec_range = config.ec_range
    if ec_range is None:
        lo = min(report.eps_c_star - 0.01, float(np.min(family.eps_grid)))
        hi = float(np.max(family.eps_grid))
        ec_range = (lo, hi)

    optimum = optimize_collapse(family, delta_jk, tuple(config.nu_range),
                                tuple(ec_range))
    payload = {
        "observable": config.observable,
        "delta_jk": delta_jk,
        "nu": optimum.nu,
        "eps_c_star": optimum.eps_c_star,
        "quality": optimum.quality,
        "boundary_warning": optimum.boundary_warning,
        "source": source.name,
    }
    if optimum.boundary_warning:
        warnings.append("collapse optimum at a search boundary")
    return {f"collapse_{config.observable}.json": dumps_json(payload)}, warnings


MODES = {
    "phase-diagram": _phase_diagram,
    "qgt": _qgt,
    "scaling": _scaling,
    "k0": _k0,
    "collapse": _collapse,
}
