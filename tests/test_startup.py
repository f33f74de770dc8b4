"""A CLI run loads numpy at its first solve or stored-family read,
scipy.linalg at its first solve, and never scipy.optimize or scipy.sparse.

The package is split at one import boundary.  kerrqgt/__init__.py resolves
its public names on first access, and cli, sweep, plots and errors import at
import time no numpy and no module of the package that does: the command
line parses its arguments, builds its SweepConfig, verifies manifests and
emits plot scripts with the standard library alone.  sweep.run imports the
mode table (kerrqgt.modes, which imports numpy and the kernels) only once a
manifest check has found a reason to compute.  The eigensolver and the
Sternheimer solve import scipy.linalg (for its LAPACK routines) inside the
functions that call it.  The peak search and the collapse polish are the
package's own (scaling.brent_root and scaling.nelder_mead), so no run loads
scipy.optimize, nor scipy.sparse, which it would bring in.

So `import kerrqgt.cli`, --help, an argparse-level input error, plots and a
no-op rerun load none of the four.  A collapse on a stored family, and an
input error that the model finds (a size of nan), load numpy alone; a run
that solves (a fresh scaling, a k0 with or without its report,
phase-diagram, qgt) loads numpy and scipy.linalg; those runs show that the
probe sees them.  No module of the package imports scipy.sparse (the
Fock-state oracles that used it live in tests/reference.py), and the runs
must not load it through a dependency either.  Each case runs in a fresh
interpreter, because sys.modules of the test process already holds all
four.  The sizes are the bench's ``tiny`` scale.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEFERRED = ("numpy", "scipy.linalg", "scipy.optimize", "scipy.sparse")
SOLVED = ["numpy", "scipy.linalg"]
# the package modules the command line imports before it dispatches a mode
LIGHT = ("__init__", "cli", "errors", "plots", "sweep")

PROBE = f"""\
import json, sys
import kerrqgt.cli as cli
try:
    status = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
except SystemExit as exit:
    status = exit.code
print(json.dumps([status, [m for m in {DEFERRED!r} if m in sys.modules]]))
"""

# a grid step count that only a library caller can pass: the command line
# parses counts with int() and a config file rejects non-finite numbers
CONFIG_PROBE = f"""\
import json, sys
from kerrqgt.errors import InputError
from kerrqgt.sweep import SweepConfig
try:
    SweepConfig(mode="qgt", out_dir="x", eps_range=(0.0, 1.0, float(sys.argv[1])))
    error = None
except InputError as exc:
    error = str(exc)
print(json.dumps([error, [m for m in {DEFERRED!r} if m in sys.modules]]))
"""

SIZES = "40,50,60,70,85"
SCALING = ["scaling", "--L-list", SIZES, "--ncut", "200", "--bracket", "1.05:1.45",
           "--eps-window", "1.05:1.40", "--eps-step", "0.01"]
# case: (argv, a file the run writes, [exit status, deferred modules loaded])
CASES = {
    "import": ([], None, [0, []]),
    "help": (["--help"], None, [0, []]),
    # argparse rejects the step count; ModelParams rejects the size, in the numerical half
    "argparse-error": (["phase-diagram", "--eps", "0:1:x"], None, [2, []]),
    "input-error": (["phase-diagram", "--L", "nan", "--eps", "0:1.5:3"], None, [2, ["numpy"]]),
    "plots": (["plots"], "plot_qgt_peaks.py", [0, []]),
    # the scaling run of scaling_dir again: its manifest verifies, nothing is solved
    "scaling-rerun": (SCALING, None, [0, []]),
    # the polish on scaling_dir's stored g_ee family
    "collapse": (["collapse"], "collapse_g_ee.json", [0, ["numpy"]]),
    "phase-diagram": (["phase-diagram", "--L", "200", "--eps", "0:1.5:7",
                       "--phi", "0:1.5:2", "--ncut", "160"], "phase_diagram.csv", [0, SOLVED]),
    "qgt-both": (["qgt", "--L-list", "40,60", "--eps", "0.95:1.06:3", "--phi", "0.3",
                  "--method", "both", "--ncut", "120"], "qgt.csv", [0, SOLVED]),
    # the same sizes, cutoff and bracket as SCALING, so its report is reused
    "k0-reusing-report": (["k0", "--ncut-list", "60,84,120,170,240", "--L-list", SIZES,
                           "--ncut", "200", "--bracket", "1.05:1.45"], "k0_report.json",
                          [0, SOLVED]),
    # another bracket: the report is solved again, with its peak searches
    "k0-solving-report": (["k0", "--ncut-list", "60,84,120,170,240", "--L-list", SIZES,
                           "--ncut", "200", "--bracket", "1.04:1.45"], "k0_report.json",
                          [0, SOLVED]),
}


def _run(argv, cwd, probe=PROBE):
    """The probe in a fresh interpreter: the JSON list its last line prints."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", probe, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def scaling_dir(tmp_path_factory):
    """A tiny scaling report and its manifest, made in a process of its own:
    a fresh scaling, every solve and search, which loads numpy and
    scipy.linalg alone."""
    out = tmp_path_factory.mktemp("scaling")
    assert _run([*SCALING, "--out", str(out)], out) == [0, SOLVED]
    return out


@pytest.mark.parametrize("case", CASES)
def test_cli_run_leaves_optimize_and_sparse_unloaded(case, tmp_path, scaling_dir):
    argv, output, expected = CASES[case]
    if argv:
        # every run finds a scaling report in its output directory, as in the README flow
        shutil.copytree(scaling_dir, tmp_path, dirs_exist_ok=True)
        argv = [*argv, "--out", str(tmp_path)]
    before = sorted(tmp_path.iterdir())
    assert _run(argv, tmp_path) == expected
    if output:
        assert (tmp_path / output).is_file()
    else:
        assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("steps", ["inf", "nan"])
def test_non_finite_grid_step_count_is_an_input_error(steps, tmp_path):
    assert _run([steps], tmp_path, CONFIG_PROBE) == [
        f"eps_range (0.0, 1.0, {steps}) has a non-finite step count", []]


def _imported_modules(nodes):
    """Every module an import statement among the nodes names; a relative
    import, which only the package's own modules make, as kerrqgt.<name>."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"kerrqgt.{module}".rstrip(".")
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def _import_time_nodes(node):
    """The nodes under node that run when its module is imported: all but
    the bodies of functions."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _import_time_nodes(child)


def _package_sources():
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert sources
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in sources]


def test_no_package_module_imports_sparse():
    offenders = [f"{path.relative_to(ROOT)}: {name}" for path, tree in _package_sources()
                 for name in _imported_modules(ast.walk(tree))
                 if name == "scipy.sparse" or name.startswith("scipy.sparse.")]
    assert offenders == []


def test_no_package_module_imports_scipy_at_import_time():
    sources = _package_sources()
    offenders = [f"{path.relative_to(ROOT)}: {name}" for path, tree in sources
                 for name in _imported_modules(_import_time_nodes(tree))
                 if name == "scipy" or name.startswith("scipy.")]
    assert offenders == []
    # the imports inside the solving functions are there, and the walk above skips them
    inside = {path.name for path, tree in sources
              if "scipy.linalg" in _imported_modules(ast.walk(tree))}
    assert inside == {"eigensolver.py", "qgt.py"}


def _is_numpy(module):
    return module == "numpy" or module.startswith("numpy.")


def test_the_command_line_front_imports_no_numpy_at_import_time():
    sources = {path.stem: tree for path, tree in _package_sources()}
    assert set(LIGHT) < set(sources)
    numerical = {f"kerrqgt.{name}" for name in sources if name not in LIGHT}
    offenders = [f"{name}: {module}" for name in LIGHT
                 for module in _imported_modules(_import_time_nodes(sources[name]))
                 if _is_numpy(module) or module in numerical
                 or module.rpartition(".")[0] in numerical]
    assert offenders == []
    # the numerical modules import numpy with the module, never in a function
    late = [f"{name}: {module}" for name, tree in sources.items()
            for module in _imported_modules(set(ast.walk(tree)) - set(_import_time_nodes(tree)))
            if _is_numpy(module)]
    assert late == []
