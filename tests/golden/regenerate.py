"""The golden reports that tests/test_golden.py checks, and how far BLAS moves them.

    PYTHONPATH=src python tests/golden/regenerate.py            # rewrite both files
    PYTHONPATH=src python tests/golden/regenerate.py --print    # both reports, as JSON
    PYTHONPATH=src python tests/golden/regenerate.py --spread Haswell Nehalem

scaling_report.json is scaling_pipeline() at its defaults and k0_report.json
is k0_pipeline on that report at the default cutoffs, each serialised as the
CLI writes it.  --spread reruns both reports in one child process per
OPENBLAS_CORETYPE given (the variable is set for the child only) and prints,
per field, the largest relative move from the committed files.  A field is
a key path with list indices left out, so each curve family is one field.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMES = ("scaling_report.json", "k0_report.json")


def report_texts() -> dict[str, str]:
    """{file name: serialised report} of the default scaling and k0 runs."""
    from kerrqgt.scaling import k0_pipeline, scaling_pipeline
    from kerrqgt.sweep import dumps_json

    scaling = scaling_pipeline()
    return {NAMES[0]: dumps_json(asdict(scaling)),
            NAMES[1]: dumps_json(asdict(k0_pipeline(scaling)))}


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


def child_reports(coretype: str) -> dict[str, dict]:
    """The parsed reports of a fresh interpreter under OPENBLAS_CORETYPE=coretype,
    importing the kerrqgt that this process imports."""
    import kerrqgt

    source = str(Path(kerrqgt.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--print"],
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


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--print", action="store_true", dest="print_only")
    parser.add_argument("--spread", nargs="+", metavar="CORETYPE")
    args = parser.parse_args(argv)
    if args.print_only:
        print(json.dumps({name: json.loads(text) for name, text in report_texts().items()}))
    elif args.spread:
        golden = {name: json.loads((HERE / name).read_text()) for name in NAMES}
        worst: dict[str, float] = {}
        for coretype in args.spread:
            other = child_reports(coretype)
            for name in NAMES:
                for field, move in relative_moves(golden[name], other[name]).items():
                    key = f"{name}:{field}"
                    worst[key] = max(worst.get(key, 0.0), move)
        for key, move in worst.items():
            print(f"{key}\t{move:.2g}")
    else:
        for name, text in report_texts().items():
            (HERE / name).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
