"""Parameter sweeps with CSV/JSON persistence and manifests.

Every subcommand but ``plots`` goes through one entry point, ``run(config)``.
The mode function named by ``config.mode`` in ``MODES`` computes the output
texts, evaluating its grid points in grid order; ``run`` then writes each text
to a temporary name and renames it atomically, and writes the manifest last,
so its presence certifies a completed run.  A rerun whose manifest is current
(_stale finds no reason against it) computes and writes nothing.  The k0 mode
reads the scaling report that manifest_scaling.json certifies, and runs the
scaling mode into the same directory when there is none; so a k0 run whose
own study fails may leave the scaling outputs behind.  In the qgt mode a grid
point whose solve or gap certificate fails (POINT_ERRORS; the tensor kernels
gap-gate every row they read) is dropped with a manifest warning that names
it.  The cutoff probes and the phase diagram, which read only the photon
distribution, are not gap-gated.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, asdict, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .eigensolver import ground_state_row
from .errors import (CutoffError, EigenConvergenceError, GapError, InputError, SchemaError,
                     StepSizeError)
from .model import ModelParams
from .qgt import qgt_fd_row, qgt_spectral_row
from .scaling import (
    CurveFamily,
    ScalingReport,
    DEFAULT_COLLAPSE_STEP,
    DEFAULT_COLLAPSE_WINDOW,
    DEFAULT_K0_CUTOFFS,
    DEFAULT_N_CUT,
    DEFAULT_PEAK_BRACKET,
    DEFAULT_SIZES,
    _cutoff_ladder,
    _k0_cutoffs,
    _solve_adaptive,
    k0_pipeline,
    optimize_collapse,
    scaling_pipeline,
)

# Numerical failures that drop a grid point (reported as manifest warnings);
# anything else is a programming error and propagates.
POINT_ERRORS = (EigenConvergenceError, GapError, StepSizeError)

PHASE_DIAGRAM_COLUMNS = ["eps", "phi", "L", "ncut", "mean_n", "rho", "warn"]
QGT_COLUMNS = ["L", "eps", "phi", "ncut", "method", "g_ee", "g_pp", "g_ep",
               "f_ep", "gap", "mean_n", "warn"]
SCALING_REPORT_NAME = "scaling_report.json"
K0_REPORT_NAME = "k0_report.json"

# mkstemp creates 0600 files; outputs get the mode a plain open() would give.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


# ---------------------------------------------------------------------------
# Deterministic serialization (floats at 17 significant digits)

def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad_in}{json.dumps(str(k))}: {_to_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad_in}{_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def dumps_json(obj) -> str:
    return _to_json(obj) + "\n"


def atomic_write_text(path: Path, text: str) -> None:
    """Write through a uniquely named temporary file in the target directory,
    then rename it over the target; concurrent writers never share a name."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~_UMASK)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def csv_text(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, bool):
                cells.append("1" if value else "0")
            elif isinstance(value, (int, np.integer)):
                cells.append(str(int(value)))
            elif isinstance(value, (float, np.floating)):
                cells.append(fmt_float(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().strip().splitlines()
    if not lines:
        raise SchemaError(f"{path.name} is empty")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _is_number(value) -> bool:
    """A finite JSON number (json reads 1e999 as inf and accepts NaN)."""
    return (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and math.isfinite(value))


def read_json(path: Path, what: str) -> dict:
    """The JSON object in path.  A file that cannot be read, is not JSON or
    holds anything but an object raises SchemaError naming what and path."""
    try:
        loaded = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SchemaError(f"{what} {path} cannot be read: {exc.strerror}") from exc
    except ValueError as exc:  # invalid JSON, or bytes that are not text
        raise SchemaError(f"{what} {path} is not JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise SchemaError(f"{what} {path} holds a JSON {type(loaded).__name__}, "
                          f"not an object")
    return loaded


# ---------------------------------------------------------------------------
# Configuration and manifest

# How a run executes, not what it computes: echoed into the manifest but left
# out of its identity, so changing them alone never forces a recompute.
RUN_ONLY_FIELDS = ("out_dir", "force")


@dataclass(frozen=True)
class SweepConfig:
    """One run's full parameter set; echoed verbatim into the manifest."""

    mode: str
    out_dir: str
    force: bool = False
    delta: float = 1.0
    n_cut: int = DEFAULT_N_CUT
    size: float = 2000.0
    sizes: tuple = DEFAULT_SIZES
    eps_range: tuple = (0.0, 1.5, 31)
    phi_range: tuple = (0.0, 2.0 * np.pi, 24)
    phi: float = 0.0
    method: str = "spectral"
    ncut_list: tuple = DEFAULT_K0_CUTOFFS
    peak_bracket: tuple = DEFAULT_PEAK_BRACKET
    collapse_window: tuple = DEFAULT_COLLAPSE_WINDOW
    collapse_step: float = DEFAULT_COLLAPSE_STEP
    input_path: str | None = None
    observable: str = "g_ee"
    delta_jk: float | None = None
    nu_range: tuple = (1.2, 1.9)
    ec_range: tuple | None = None

    def __post_init__(self):
        if self.method not in ("spectral", "fd", "both"):
            raise InputError(f"unknown method {self.method!r}")
        for name, rng in (("eps_range", self.eps_range), ("phi_range", self.phi_range)):
            if len(rng) == 3 and not math.isfinite(rng[2]):
                raise InputError(f"{name} {rng} has a non-finite step count")
            if len(rng) != 3 or rng[1] < rng[0] or int(rng[2]) < 1:
                raise InputError(f"malformed grid range {rng}")
            if not (math.isfinite(rng[0]) and math.isfinite(rng[1])):
                raise InputError(f"grid range {rng} has a non-finite bound")
            if rng[2] != int(rng[2]):
                raise InputError(f"{name} {rng} has a non-integral step count")
        for name in ("peak_bracket", "collapse_window", "nu_range", "ec_range"):
            pair = getattr(self, name)
            if name == "ec_range" and pair is None:  # read off the report
                continue
            if not (len(pair) == 2 and all(map(math.isfinite, pair)) and pair[0] < pair[1]):
                raise InputError(f"{name} {pair} must be 2 finite numbers lo < hi")

    def echo(self) -> dict:
        raw = asdict(self)
        return {k: list(v) if isinstance(v, tuple) else v for k, v in raw.items()}


def _identity(echo: dict) -> str:
    """Canonical text of the config fields that determine the outputs."""
    return dumps_json({k: v for k, v in echo.items() if k not in RUN_ONLY_FIELDS})


def _manifest_path(out: Path, config: SweepConfig) -> Path:
    """One manifest per mode, and per observable for collapse, whose outputs
    differ by observable and so must not overwrite each other's manifest."""
    suffix = f"_{config.observable}" if config.mode == "collapse" else ""
    return out / f"manifest_{config.mode}{suffix}.json"


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_manifest(out: Path, config: SweepConfig, started: str,
                    warnings: list[str], outputs: list[Path]) -> Path:
    manifest = {
        "mode": config.mode,
        "version": __version__,
        "config": config.echo(),
        "started_at": started,
        "finished_at": _utcnow(),
        "warnings": warnings,
        "outputs": {p.name: sha256_file(p) for p in outputs},
    }
    path = _manifest_path(out, config)
    atomic_write_text(path, dumps_json(manifest))
    return path


def _stale(out: Path, config: SweepConfig, identity=_identity) -> str | None:
    """Why the manifest of config's mode in out does not certify its outputs
    (None if it does): a JSON object of this __version__ whose config echo has
    config's identity, listing outputs that all match their sha256.  An echo
    that is not an object or lacks a field is stale."""
    try:
        manifest = read_json(_manifest_path(out, config), "manifest")
    except SchemaError as exc:  # missing, unreadable, not JSON or not an object
        return str(exc)
    if manifest.get("version") != __version__:
        return f"its manifest is of version {manifest.get('version')!r}, not {__version__!r}"
    echo, outputs = manifest.get("config"), manifest.get("outputs")
    try:
        same = isinstance(echo, dict) and identity(echo) == identity(config.echo())
    except (KeyError, TypeError):  # a field missing, or of the wrong JSON type
        same = False
    if not same:
        return "its manifest was written for another configuration"
    if not (isinstance(outputs, dict) and outputs):
        return "its manifest lists no outputs"
    for name, digest in outputs.items():
        if not (out / name).is_file() or sha256_file(out / name) != digest:
            return "its sha256 differs from the one its manifest records"
    return None


def manifest_is_current(out: Path, config: SweepConfig) -> bool:
    """True when the manifest of config's mode certifies its outputs (_stale)."""
    return _stale(out, config) is None


def run(config: SweepConfig) -> list[Path]:
    """Run ``config.mode`` into ``config.out_dir`` and return the files written.

    Returns [] without computing anything when the manifest is current (see
    manifest_is_current) and ``config.force`` is not set.  The directory is
    made only once the mode has returned, so a rejected run leaves none; but a
    k0 run that has to compute its scaling report writes the scaling outputs
    and their manifest first, and they stay if its own study then fails.
    """
    out = Path(config.out_dir)
    if not config.force and manifest_is_current(out, config):
        return []
    started = _utcnow()
    texts, warnings = MODES[config.mode](config, out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        atomic_write_text(out / name, text)
    paths = [out / name for name in texts]
    _write_manifest(out, config, started, warnings, paths)
    return paths


# ---------------------------------------------------------------------------
# Modes: each maps (config, out) to ({file name: text}, manifest warnings)

ModeResult = tuple[dict[str, str], list[str]]


def _phase_diagram(config: SweepConfig, out: Path) -> ModeResult:
    """Order-parameter grid rho(eps, phi) at fixed effective size."""
    eps_grid = np.linspace(*config.eps_range[:2], int(config.eps_range[2]))
    phi_grid = np.linspace(*config.phi_range[:2], int(config.phi_range[2]))
    # ModelParams checks the size, delta, cutoff and eps before the screen
    points = [ModelParams.from_size(config.size, eps, n_cut=config.n_cut, delta=config.delta)
              for eps in eps_grid]
    eps_max = float(np.max(eps_grid))
    # A screen that rejects hopeless grids (1.3 x the condensate's <n> ~
    # L(eps - 1)/2, plus 50 levels), not a guarantee: it can pass a grid whose
    # top rows come out flagged.  The per-row tail-weight gate is the certificate.
    if eps_max > 1.0:
        required = int(np.ceil(config.size * (eps_max - 1.0) / 2.0 * 1.3 + 50))
        if config.n_cut < required:
            raise CutoffError(
                f"cutoff check failed at grid corner eps={eps_max:g}, "
                f"phi={float(phi_grid[-1]):g}: need n_cut >= {required}, "
                f"got {config.n_cut}")

    # H(eps, phi) = G H(eps, 0) G^dagger for the diagonal gauge unitary
    # G = exp(-i n phi / 2), so the photon distribution of the ground state,
    # hence mean_n, rho and the cutoff gate, is exactly phi-independent: one
    # row solve at phi = 0 (one stacked even-sector solve) fills every phi
    # column of every eps row.
    ground = ground_state_row(points)
    rows = [(eps, phi, config.size, config.n_cut, n, n / config.size, "cutoff" if flag else "")
            for eps, n, flag in zip(eps_grid, ground.mean_n.tolist(), ground.cutoff_warning)
            for phi in phi_grid]
    warnings = [f"cutoff-inadequate point: eps={r[0]:g} phi={r[1]:g}"
                for r in rows if r[6]]
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
    """Tensor components on a (size, eps) grid at fixed phi.  Each size is one
    row at the cutoff _solve_adaptive picks from _cutoff_ladder(n_cut), probed
    at its top eps from the lowest rung: one centre row (ground_state_row) of
    its grid points, which each selected row kernel, qgt_spectral_row and/or
    qgt_fd_row, gap-gates and reads; each eps gets its spectral row first, then
    its fd row.  A point whose centre fails loses both rows."""
    eps_grid = np.linspace(*config.eps_range[:2], int(config.eps_range[2]))
    kernels = {"spectral": qgt_spectral_row, "fd": qgt_fd_row}
    methods = ["spectral", "fd"] if config.method == "both" else [config.method]
    ladder = _cutoff_ladder(config.n_cut)
    rows, warnings = [], []
    for size in config.sizes:
        points = [ModelParams.from_size(size, eps, phi=config.phi, n_cut=config.n_cut,
                                        delta=config.delta) for eps in eps_grid]

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
        sizes=config.sizes, n_cut=config.n_cut, delta=config.delta,
        peak_bracket=tuple(config.peak_bracket),
        collapse_window=tuple(config.collapse_window),
        collapse_step=config.collapse_step)
    return ({SCALING_REPORT_NAME: dumps_json(asdict(report))},
            list(report.diagnostics["warnings"]))


def read_report(path: Path, keys: list[str]) -> dict:
    """The JSON report in path, which must hold every key in keys and, if it
    has diagnostics, hold them as an object; otherwise SchemaError."""
    path = Path(path)
    data = read_json(path, "report")
    for key in keys:
        if key not in data:
            raise SchemaError(f"{path.name} is missing required key {key!r}")
    diag = data.get("diagnostics", {})
    if not isinstance(diag, dict):
        raise SchemaError(f"{path.name} key 'diagnostics' holds a JSON "
                          f"{type(diag).__name__}, not an object")
    return data


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
    return [sorted(echo["sizes"]), echo["n_cut"], echo["delta"], echo["peak_bracket"]]


def _k0(config: SweepConfig, out: Path) -> ModeResult:
    """Cutoff-scaling study, its cutoffs checked before any solve, on the
    scaling report in out whose manifest certifies it for these _k0_inputs.
    Otherwise the scaling mode first runs into out, with the k0-only cutoffs
    at their default so that the same scaling flags later find it current,
    and a report that was there gets a warning naming why it is not reused."""
    _k0_cutoffs(config.ncut_list)
    scaling = replace(config, mode="scaling", force=True, ncut_list=DEFAULT_K0_CUTOFFS)
    existing, warnings = out / SCALING_REPORT_NAME, []
    if (reason := _stale(out, scaling, _k0_inputs)) is not None:
        if existing.exists():
            warnings.append(f"{existing.name} is not reused, but computed again: {reason}")
        run(scaling)
    report = k0_pipeline(load_scaling_report(existing), ncut_list=config.ncut_list,
                         delta=config.delta)
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
    scaling, warnings = replace(config, mode="scaling"), []
    if (source.name == SCALING_REPORT_NAME and _manifest_path(source.parent, scaling).exists()
            and (reason := _stale(source.parent, scaling, identity=lambda echo: None))):
        warnings.append(f"{source.name} is read, but its manifest does not certify it: "
                        f"{reason}")
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
