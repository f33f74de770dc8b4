"""Smoke test of the benchmark at tiny sizes.

Checks the output contract (last-line JSON keys, metric names and units as
BENCHMARK.json declares them), that failed correctness checks are counted,
and that the benchmark refuses to run without the program's sources.  It
never gates on timings.  Run from the repository root:

    python -m pytest bench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_spec_names_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    for name in workloads.NAMES:
        assert workloads.build(name, "bench", 1).steps


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_result_schema(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float)) and math.isfinite(reported["value"])
    if workload == "paper":
        # The paper's tolerances do not hold at tiny sizes: the misses must be counted.
        assert result["failed"] > 0 and not result["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "qgt-both", 0)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_checks_count_failures():
    passed = checks.within("x", 1.004, 1.0, 0.01)
    missed = checks.within("x", 1.02, 1.0, 0.01)
    bound = checks.at_most("y", 3.0, 2.0)
    assert passed.ok and not missed.ok and not bound.ok
    attempted, failed, used = checks.summarize(
        [passed, missed, bound, checks.holds("z", False)])
    assert (attempted, failed) == (4, 3)
    assert used == pytest.approx(2.0)
