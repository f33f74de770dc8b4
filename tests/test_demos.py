"""Every script in demos/ and every example in README.md runs against the
package in src/: the demos and the Python quick start to completion, and each
`kerrqgt ...` command line of the README's bash blocks through the parser and
the config assembly of the command line, which compute nothing."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from kerrqgt.cli import assemble_config, build_parser

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()


def readme_blocks(language: str) -> list[str]:
    """The code blocks of README.md fenced as language, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


COMMANDS = [shlex.split(line, comments=True)[1:] for block in readme_blocks("bash")
            for line in block.splitlines() if line.startswith("kerrqgt ")]


def run_python(args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "MPLBACKEND": "Agg"}
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    run_python([str(demo)], tmp_path)


def test_readme_examples_are_found():
    assert [argv[0] for argv in COMMANDS] == ["phase-diagram", "qgt", "scaling", "k0",
                                              "collapse", "plots"]
    assert len(readme_blocks("python")) == 1


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_readme_command_line_is_accepted(argv):
    assemble_config(build_parser().parse_args(argv))


def test_readme_quick_start_runs(tmp_path):
    run_python(["-c", readme_blocks("python")[0]], tmp_path)
