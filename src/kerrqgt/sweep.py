"""Run configuration, deterministic CSV/JSON serialisation and manifests.

Every subcommand but ``plots`` goes through one entry point, ``run(config)``.
A rerun whose manifest is current (_stale finds no reason against it)
computes and writes nothing.  Otherwise ``run`` imports the mode table
(``modes.MODES``, the numerical half of the package, which loads numpy and
the kernels), and the mode function named by ``config.mode`` computes the
output texts; ``run`` then writes each text to a temporary name and renames
it atomically, and writes the manifest last, so its presence certifies a
completed run.  This module itself imports no numpy, so the command line
parses, checks its inputs and verifies manifests with the standard library
alone.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
import numbers
import os
import tempfile
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Iterable, Sequence

from . import __version__
from .errors import InputError, SchemaError

DEFAULT_SIZES = (300, 400, 500, 600, 700)
DEFAULT_N_CUT = 800
DEFAULT_PEAK_BRACKET = (0.99, 1.40)
DEFAULT_COLLAPSE_WINDOW = (0.95, 1.06)
DEFAULT_COLLAPSE_STEP = 1e-3
DEFAULT_K0_CUTOFFS = (200, 283, 400, 566, 800, 1131, 1600)

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
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        return fmt_float(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    # numpy scalars, checked after the concrete types, which are much faster
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        return fmt_float(obj)
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
            elif isinstance(value, int):
                cells.append(str(int(value)))
            elif isinstance(value, float):
                cells.append(fmt_float(value))
            elif isinstance(value, numbers.Integral):  # numpy scalars, as in _to_json
                cells.append(str(int(value)))
            elif isinstance(value, numbers.Real):
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
    n_cut: int = DEFAULT_N_CUT
    size: float = 2000.0
    sizes: tuple = DEFAULT_SIZES
    eps_range: tuple = (0.0, 1.5, 31)
    phi_range: tuple = (0.0, 2.0 * math.pi, 24)
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
        if not self.sizes:
            raise InputError("sizes is empty: name at least one size")
        if not math.isfinite(self.phi):
            raise InputError("phi must be finite")
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


def uncertified(path: Path, mode: str) -> str | None:
    """A warning that path, an output of mode, is read although the manifest
    of mode next to it does not certify it (_stale, for any config); None when
    the manifest certifies it or there is none."""
    config = SweepConfig(mode=mode, out_dir=str(path.parent))
    if not _manifest_path(path.parent, config).exists():
        return None
    reason = _stale(path.parent, config, identity=lambda echo: None)
    return reason and f"{path.name} is read, but its manifest does not certify it: {reason}"


def run(config: SweepConfig) -> list[Path]:
    """Run ``config.mode`` into ``config.out_dir`` and return the files written.

    Returns [] without computing anything when the manifest certifies the
    outputs (_stale finds no reason against it) and ``config.force`` is not
    set.  The directory is made only once the mode has returned, so a rejected
    run leaves none; but a k0 run that has to compute its scaling report
    writes the scaling outputs and their manifest first, and they stay if its
    own study then fails.
    """
    out = Path(config.out_dir)
    if not config.force and _stale(out, config) is None:
        return []
    from .modes import MODES  # the numerical half: numpy and the kernels load here

    started = _utcnow()
    texts, warnings = MODES[config.mode](config, out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        atomic_write_text(out / name, text)
    paths = [out / name for name in texts]
    _write_manifest(out, config, started, warnings, paths)
    return paths
