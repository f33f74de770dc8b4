"""A CLI run imports scipy.optimize only when it uses it, and never scipy.sparse.

scipy.optimize serves the peak search and the collapse polish; none of the
runs below calls them.  No module of the package imports scipy.sparse (the
Fock-state oracles that used it live in tests/reference.py), and the runs
must not load it through a dependency either.  Each case runs in a fresh
interpreter, because sys.modules of the test process already holds both.
The sizes are the bench's ``tiny`` scale.
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
DEFERRED = ("scipy.optimize", "scipy.sparse")

PROBE = f"""\
import json, sys
import kerrqgt.cli as cli
status = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([status, [m for m in {DEFERRED!r} if m in sys.modules]]))
"""

SIZES = "40,50,60,70,85"
SCALING = ["scaling", "--L-list", SIZES, "--ncut", "200", "--bracket", "1.05:1.45",
           "--eps-window", "1.05:1.40", "--eps-step", "0.01"]
CASES = {
    "import": ([], None),
    "phase-diagram": (["phase-diagram", "--L", "200", "--eps", "0:1.5:7",
                       "--phi", "0:1.5:2", "--ncut", "160"], "phase_diagram.csv"),
    "qgt-both": (["qgt", "--L-list", "40,60", "--eps", "0.95:1.06:3", "--phi", "0.3",
                  "--method", "both", "--ncut", "120"], "qgt.csv"),
    "plots": (["plots"], "plot_qgt_peaks.py"),
    # the same sizes, cutoff and bracket as SCALING, so its report is reused
    "k0-reusing-report": (["k0", "--ncut-list", "60,84,120,170,240", "--L-list", SIZES,
                           "--ncut", "200", "--bracket", "1.05:1.45"], "k0_report.json"),
}


def _run(argv, cwd):
    """cli.main(argv) in a fresh interpreter: [exit status, deferred modules loaded]."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def scaling_dir(tmp_path_factory):
    """A tiny scaling report, made in a process of its own."""
    out = tmp_path_factory.mktemp("scaling")
    status, _ = _run([*SCALING, "--out", str(out)], out)
    assert status == 0
    return out


@pytest.mark.parametrize("case", CASES)
def test_cli_run_leaves_optimize_and_sparse_unloaded(case, tmp_path, scaling_dir):
    argv, output = CASES[case]
    if argv:
        # every run finds a scaling report in its output directory, as in the README flow
        shutil.copy(scaling_dir / "scaling_report.json", tmp_path)
        argv = [*argv, "--out", str(tmp_path)]
    assert _run(argv, tmp_path) == [0, []]
    if output:
        assert (tmp_path / output).is_file()


def _imported_modules(path):
    """Every module an import statement of the source file names."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_package_module_imports_sparse():
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert sources
    offenders = [f"{path.relative_to(ROOT)}: {name}" for path in sources
                 for name in _imported_modules(path)
                 if name == "scipy.sparse" or name.startswith("scipy.sparse.")]
    assert offenders == []
