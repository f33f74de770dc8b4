"""phase_diagram.csv and qgt.csv against the committed golden files.

tests/golden/regenerate.py wrote the files from the CLI runs of its CSV_ARGV
(the bench's phase-diagram and qgt-both command lines at seed 901) and
recomputes them here.  The header, the row count and the text columns
(method, warn) must match exactly; every other cell must lie within the
relative tolerance of its column.  The tolerances follow tests/test_golden.py:
about 10x the largest relative move over the same 18 OPENBLAS_CORETYPE
kernels, each set in a child process (`regenerate.py --spread`), with the
floor 1e-12 for a computed column that no kernel moved by 1e-13, and exact
comparison for the columns that the command line sets and for the cutoff
rung the ladder picks.  The measured move follows each tolerance: no column
moved by more than 7.7e-16.  Bytes are reported, not gated on.
"""

from golden.regenerate import CSV_ARGV, HERE, TEXT_COLUMNS, csv_columns, csv_texts

EXACT = 0.0
FLOOR = 1e-12

TOLERANCES = {
    "phase_diagram.csv": {
        "eps": EXACT,
        "phi": EXACT,
        "L": EXACT,
        "ncut": EXACT,
        "mean_n": FLOOR,  # 0
        "rho": FLOOR,  # 0
    },
    "qgt.csv": {
        "L": EXACT,
        "eps": EXACT,
        "phi": EXACT,
        "ncut": EXACT,  # the rung of the cutoff ladder; 0
        "g_ee": FLOOR,  # 6.8e-16
        "g_pp": FLOOR,  # 4.9e-16
        "g_ep": FLOOR,  # 0
        "f_ep": FLOOR,  # 7.7e-16
        "gap": FLOOR,  # 0
        "mean_n": FLOOR,  # 0
    },
}


def mismatches(name: str, golden: str, other: str) -> list[str]:
    """Each cell of CSV name where other leaves the golden text or tolerance."""
    want, got = csv_columns(golden), csv_columns(other)
    if list(want) != list(got):
        return [f"{name}: header {list(got)}, golden {list(want)}"]
    if any(len(want[column]) != len(got[column]) for column in want):
        return [f"{name}: {len(next(iter(got.values())))} rows, "
                f"golden {len(next(iter(want.values())))}"]
    bad = []
    for column in want:
        for row, (a, b) in enumerate(zip(want[column], got[column])):
            if column in TEXT_COLUMNS:
                ok = a == b
            else:
                ok = abs(float(b) - float(a)) <= TOLERANCES[name][column] * abs(float(a))
            if not ok:
                bad.append(f"{name}:{column} row {row} = {b}, golden {a}")
    return bad


def test_every_numeric_column_has_a_tolerance():
    for name in CSV_ARGV:
        header = list(csv_columns((HERE / name).read_text()))
        assert set(header) - set(TEXT_COLUMNS) == set(TOLERANCES[name])


def test_csv_outputs_match_the_golden_files():
    texts = csv_texts()
    print("bytes identical to the golden files:",
          {name: text == (HERE / name).read_text() for name, text in texts.items()})
    assert [m for name, text in texts.items()
            for m in mismatches(name, (HERE / name).read_text(), text)] == []
