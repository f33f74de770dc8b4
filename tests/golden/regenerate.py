"""The golden outputs that tests/test_golden.py and tests/test_golden_csv.py
check, and how far BLAS moves them.

    PYTHONPATH=src python tests/golden/regenerate.py              # rewrite all four files
    PYTHONPATH=src python tests/golden/regenerate.py --print      # both reports, as JSON
    PYTHONPATH=src python tests/golden/regenerate.py --print-csv  # both CSV texts, as JSON
    PYTHONPATH=src python tests/golden/regenerate.py --spread native Haswell Nehalem

scaling_report.json is scaling_pipeline() at its defaults and k0_report.json
is k0_pipeline on that report at the default cutoffs, each serialised as the
CLI writes it.  phase_diagram.csv and qgt.csv are the CLI runs of CSV_ARGV:
the bench's phase-diagram and qgt-both command lines at seed 901, without
their --threads, which has no effect.  --spread reruns every file in child
processes, one for each pair of an OPENBLAS_CORETYPE kernel given (native
leaves the variable unset) and a numpy SIMD dispatch: native, and
AVX2_DISPATCH, which makes numpy run its AVX2 loops as on a CPU without
AVX-512.  The variables are set for the children only.  It prints, per
field, the largest relative move from the committed files.  A report field
is a key path with list indices left out, so each curve family is one field;
a CSV field is a column.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMES = ("scaling_report.json", "k0_report.json")
CSV_ARGV = {
    "phase_diagram.csv": ["phase-diagram", "--L", "800", "--eps", "0.000000:1.500000:31",
                          "--phi", "2.679081:5.333116:4", "--ncut", "360"],
    "qgt.csv": ["qgt", "--L-list", "150,250,350", "--eps", "0.945955:1.055955:8",
                "--phi", "5.581933", "--method", "both", "--ncut", "400"],
}
# CSV columns that are not numbers, compared exactly
TEXT_COLUMNS = ("method", "warn")
# numpy's AVX-512 dispatch targets disabled: numpy then runs its AVX2 loops
# (names that a CPU or a numpy build lacks are ignored)
AVX2_DISPATCH = {"NPY_DISABLE_CPU_FEATURES": "AVX512F,AVX512CD,AVX512VL,AVX512BW,AVX512DQ,"
                 "AVX512_SKX,AVX512_CLX,AVX512_CNL,AVX512_ICL,AVX512_SPR,X86_V4"}


def report_texts() -> dict[str, str]:
    """{file name: serialised report} of the default scaling and k0 runs."""
    from kerrqgt.scaling import k0_pipeline, scaling_pipeline
    from kerrqgt.sweep import dumps_json

    scaling = scaling_pipeline()
    return {NAMES[0]: dumps_json(asdict(scaling)),
            NAMES[1]: dumps_json(asdict(k0_pipeline(scaling)))}


def csv_texts() -> dict[str, str]:
    """{file name: text} of the CLI runs of CSV_ARGV, each in a fresh directory."""
    from kerrqgt.cli import assemble_config, build_parser
    from kerrqgt.sweep import run

    texts = {}
    for name, argv in CSV_ARGV.items():
        with tempfile.TemporaryDirectory() as out:
            [path] = run(assemble_config(build_parser().parse_args([*argv, "--out", out])))
            texts[name] = path.read_text()
    return texts


def csv_columns(text: str) -> dict[str, list[str]]:
    """{column name: its cells, top to bottom} of a CSV text."""
    header, *rows = [line.split(",") for line in text.splitlines()]
    if any(len(row) != len(header) for row in rows):
        raise ValueError("a row has another number of cells than the header")
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def leaves(obj, path: str = ""):
    """(field, value) of every scalar in a parsed report, in file order."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for value in obj:
            yield from leaves(value, path)
    else:
        yield path, obj


def child_reports(variables: dict[str, str], flag: str = "--print") -> dict:
    """What this script prints with flag (the parsed reports by default) in a
    fresh interpreter with the environment variables set (as
    {"OPENBLAS_CORETYPE": "Nehalem"} or AVX2_DISPATCH), importing the
    kerrqgt that this process imports."""
    import kerrqgt

    source = str(Path(kerrqgt.__file__).resolve().parents[1])
    env = {**os.environ, **variables,
           "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), flag],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def relative_moves(golden: dict, other: dict) -> dict[str, float]:
    """Largest |other - golden| / |golden| per numeric field (0 where both are 0)."""
    pairs = list(zip(leaves(golden), leaves(other), strict=True))
    if any(f != g for (f, _), (g, _) in pairs):
        raise ValueError("the reports differ in their fields")
    moves: dict[str, float] = {}
    for (field, a), (_, b) in pairs:
        if isinstance(a, (int, float)) and not isinstance(a, bool):
            move = 0.0 if a == b else abs(b - a) / abs(a) if a else float("inf")
            moves[field] = max(moves.get(field, 0.0), move)
    return moves


def csv_moves(golden: str, other: str) -> dict[str, float]:
    """Largest relative move per numeric column, as relative_moves does."""
    want, got = csv_columns(golden), csv_columns(other)
    if list(want) != list(got) or any(len(want[c]) != len(got[c]) for c in want):
        raise ValueError("the CSV texts differ in their columns or rows")
    if any(want[c] != got[c] for c in TEXT_COLUMNS if c in want):
        raise ValueError("the CSV texts differ in a text column")
    return {column: max(relative_moves([float(v) for v in want[column]],
                                       [float(v) for v in got[column]]).values(), default=0.0)
            for column in want if column not in TEXT_COLUMNS}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--print", action="store_true", dest="print_only")
    parser.add_argument("--print-csv", action="store_true")
    parser.add_argument("--spread", nargs="+", metavar="CORETYPE")
    args = parser.parse_args(argv)
    if args.print_only:
        print(json.dumps({name: json.loads(text) for name, text in report_texts().items()}))
    elif args.print_csv:
        print(json.dumps(csv_texts()))
    elif args.spread:
        golden = {name: (HERE / name).read_text() for name in [*NAMES, *CSV_ARGV]}
        worst: dict[str, float] = {}
        runs = [{**({} if coretype == "native" else {"OPENBLAS_CORETYPE": coretype}),
                 **dispatch} for coretype in args.spread for dispatch in ({}, AVX2_DISPATCH)]
        for variables in runs:
            reports, texts = child_reports(variables), child_reports(variables, "--print-csv")
            moves = {name: relative_moves(json.loads(golden[name]), reports[name])
                     for name in NAMES}
            moves.update({name: csv_moves(golden[name], texts[name]) for name in CSV_ARGV})
            for name, fields in moves.items():
                for field, move in fields.items():
                    key = f"{name}:{field}"
                    worst[key] = max(worst.get(key, 0.0), move)
        for key, move in worst.items():
            print(f"{key}\t{move:.2g}")
    else:
        for name, text in {**report_texts(), **csv_texts()}.items():
            (HERE / name).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
