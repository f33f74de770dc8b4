"""Runners, persistence, manifests, determinism, CLI wiring, plot emission."""

import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

import kerrqgt.cli
import kerrqgt.eigensolver as eigensolver
import kerrqgt.qgt as qgt
import kerrqgt.modes as modes
import kerrqgt.sweep as sweep
from kerrqgt import ModelParams, ground_state_row, sector_block
from kerrqgt.cli import (
    assemble_config,
    build_parser,
    main,
    parse_int_list,
    parse_pair,
    parse_range,
)
from kerrqgt.errors import CutoffError, EigenConvergenceError, GapError, SchemaError
from kerrqgt.plots import emit_plots
from kerrqgt.scaling import ScalingReport
from kerrqgt.sweep import (
    SweepConfig,
    dumps_json,
    fmt_float,
    _stale,
    read_csv,
    run,
    sha256_file,
)
from reference import fock_vector, mean_photon

SMALL_SCALING = dict(sizes=(40, 50, 60, 70, 85), n_cut=200,
                     peak_bracket=(1.05, 1.45), collapse_window=(1.05, 1.40),
                     collapse_step=2e-3)


def test_fmt_float_17_digits():
    assert fmt_float(0.1) == "0.10000000000000001"
    assert fmt_float(1.0) == "1"
    assert float(fmt_float(np.pi)) == np.pi  # round-trip exact


def test_dumps_json_shape():
    text = dumps_json({"a": 1, "b": [0.5, True, None], "c": {"d": "x"}})
    parsed = json.loads(text)
    assert parsed == {"a": 1, "b": [0.5, True, None], "c": {"d": "x"}}


def test_parse_helpers():
    assert parse_range("0:1.5:31") == (0.0, 1.5, 31)
    assert parse_pair("1.2:1.9") == (1.2, 1.9)
    assert parse_int_list("100,200") == (100, 200)
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        parse_range("0:1")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_pair("2:1")


def test_phase_diagram_run(tmp_path):
    cfg = SweepConfig(mode="phase-diagram", out_dir=str(tmp_path),
                      size=200.0, n_cut=160, eps_range=(0.0, 1.2, 7),
                      phi_range=(0.0, np.pi, 4))
    files = run(cfg)
    header, rows = read_csv(files[0])
    assert header == ["eps", "phi", "L", "ncut", "mean_n", "rho", "warn"]
    assert len(rows) == 7 * 4
    # drive-phase independence of the order parameter at fixed eps
    by_eps = {}
    for row in rows:
        by_eps.setdefault(row[0], []).append(float(row[5]))
    for values in by_eps.values():
        assert max(values) - min(values) <= 1e-6
    # normal phase region stays dark
    for row in rows:
        if float(row[0]) <= 0.5:
            assert float(row[5]) < 1e-2


def test_phase_diagram_solves_once_per_eps(tmp_path, monkeypatch):
    rows_solved, pairs = [], []
    monkeypatch.setattr(modes, "ground_state_row",
                        lambda row: rows_solved.append(row) or ground_state_row(row))
    original = eigensolver._lowest_pair

    def pair_solve(diag, off):
        pairs.append((len(diag), off.copy()))
        return original(diag, off)

    monkeypatch.setattr(eigensolver, "_lowest_pair", pair_solve)
    size, n_cut = 200.0, 160
    eps_grid = np.linspace(0.0, 1.2, 7)
    cfg = SweepConfig(mode="phase-diagram", out_dir=str(tmp_path),
                      size=size, n_cut=n_cut, eps_range=(0.0, 1.2, 7),
                      phi_range=(0.0, 2.0 * np.pi, 5))
    _, rows = read_csv(run(cfg)[0])
    # one row of points, and one even-sector lowest-pair solve per eps
    assert len(rows_solved) == 1
    assert [p.eps for p in rows_solved[0]] == list(eps_grid)
    expected = [sector_block([ModelParams.from_size(size, eps, n_cut=n_cut)])
                for eps in eps_grid]
    assert len(pairs) == len(expected) == 7
    for (size_solved, off), block in zip(pairs, expected):
        assert size_solved == block.size
        assert np.array_equal(off, block.offdiag[0])
    phis = [fmt_float(phi) for phi in np.linspace(0.0, 2.0 * np.pi, 5)]
    for i in range(7):
        row_set = rows[5 * i:5 * (i + 1)]
        assert [r[1] for r in row_set] == phis
        # every phi column repeats the phi = 0 one byte for byte
        assert all(r[:1] + r[2:] == row_set[0][:1] + row_set[0][2:] for r in row_set)
        # and agrees with a separate ground-state solve, put on the gauge
        # phases of its own phi
        for r in row_set:
            p = ModelParams.from_size(size, float(r[0]), n_cut=n_cut)
            gs = ground_state_row([p])
            n_mean = mean_photon(fock_vector(gs, p, float(r[1])))
            assert abs(float(r[4]) - n_mean) <= 1e-12 * n_mean
            assert abs(float(r[5]) - n_mean / size) <= 1e-12 * n_mean / size
            assert r[6] == ("cutoff" if gs.cutoff_warning[0] else "")


def test_phase_diagram_cutoff_precheck(tmp_path):
    cfg = SweepConfig(mode="phase-diagram", out_dir=str(tmp_path), size=2000.0,
                      n_cut=100, eps_range=(0.0, 1.5, 4), phi_range=(0.0, 1.0, 2))
    with pytest.raises(ValueError, match="cutoff check failed at eps=1.5"):
        run(cfg)


def test_phase_diagram_cutoff_check_raises_cutoff_error(tmp_path):
    cfg = SweepConfig(mode="phase-diagram", out_dir=str(tmp_path), size=2000.0,
                      n_cut=100, eps_range=(0.0, 1.5, 4), phi_range=(0.0, 1.0, 2))
    with pytest.raises(CutoffError, match=r"^cutoff check failed at eps=1.5: need n_cut >= 700, "
                                          r"got 100$"):
        run(cfg)
    assert not list(tmp_path.glob("manifest_*"))


def test_phase_diagram_agrees_with_qgt_sweep(tmp_path):
    # Both read <n> and the cutoff flag off the same even-sector ground state,
    # also at the flagged points of a grid the cutoff pre-check accepts.
    grid = ["--eps", "0:1.5:41", "--ncut", "149"]
    assert main(["phase-diagram", "--out", str(tmp_path / "pd"), "--L", "300",
                 "--phi", "0:0:1", *grid]) == 0
    assert main(["qgt", "--out", str(tmp_path / "qgt"), "--L-list", "300", "--phi", "0",
                 *grid]) == 0

    def by_point(path):
        header, rows = read_csv(path)
        size, eps, mean_n, warn = (header.index(c) for c in ("L", "eps", "mean_n", "warn"))
        return {(r[size], r[eps]): (r[mean_n], r[warn]) for r in rows}

    pd = by_point(tmp_path / "pd" / "phase_diagram.csv")
    qgt = by_point(tmp_path / "qgt" / "qgt.csv")
    assert len(pd) == len(qgt) == 41 and pd.keys() == qgt.keys()
    assert any(warn for _, warn in pd.values())
    assert pd == qgt


def test_qgt_sweep_rows_and_methods(tmp_path):
    cfg = SweepConfig(mode="qgt", out_dir=str(tmp_path), sizes=(60, 80),
                      eps_range=(0.5, 0.9, 3), phi=0.3, method="both", n_cut=160)
    files = run(cfg)
    header, rows = read_csv(files[0])
    assert header[:5] == ["L", "eps", "phi", "ncut", "method"]
    spectral = [r for r in rows if r[4] == "spectral"]
    fd = [r for r in rows if r[4] == "fd"]
    assert len(spectral) == 2 * 3 and len(fd) == 2 * 3
    for s, f in zip(spectral, fd):
        for col in (5, 6, 8):  # g_ee, g_pp, f_ep
            a, b = float(s[col]), float(f[col])
            assert abs(a - b) <= 1e-4 * max(abs(a), abs(b), 1e-9)


def test_qgt_both_interleaves_the_single_method_rows(tmp_path):
    # --method both reads one centre row per size for both routes, yet writes
    # the rows of --method spectral and --method fd byte for byte, spectral
    # first at each eps; the grid has the eps = 0 boundary stencil and the
    # symmetry-broken phase
    lines = {}
    for method in ("spectral", "fd", "both"):
        cfg = SweepConfig(mode="qgt", out_dir=str(tmp_path / method), sizes=(60, 150),
                          eps_range=(0.0, 1.4, 8), phi=0.3, method=method, n_cut=400)
        lines[method] = run(cfg)[0].read_text().splitlines()
    header, *spectral = lines["spectral"]
    assert [float(line.split(",")[1]) for line in spectral[:8]][::7] == [0.0, 1.4]
    assert lines["fd"][0] == lines["both"][0] == header
    assert len(spectral) == len(lines["fd"]) - 1 == 16
    assert lines["both"][1:] == [line for pair in zip(spectral, lines["fd"][1:])
                                 for line in pair]


@pytest.mark.parametrize("fail", ["gap-gate", "solve"])
def test_both_solves_each_point_of_a_failing_row_once(tmp_path, monkeypatch, fail):
    # When the centre row fails, each eps is read as a row of its own:
    # --method both solves that row once for both kernels, so it makes as
    # many one-point solves (and unseeded one-row eig_tridiagonal calls, the
    # cutoff probes among them) as one method alone, and it gives the warnings of
    # spectral and fd, spectral first at each eps.  The raised gap floor fails
    # the centre row and 4 of the 8 points in both kernels; the solve error
    # fails the centre row and the row of one at the third eps.
    grid = np.linspace(0.95, 1.06, 8)
    if fail == "gap-gate":
        monkeypatch.setattr(qgt, "GAP_FLOOR", 3.56e-3)
    solve, calls = modes.ground_state_row, []
    eig, bisections = eigensolver.eig_tridiagonal, []

    def counted_eig(block, seed=None):
        bisections.append(block.offdiag.shape[0] == 1 and seed is None)
        return eig(block, seed)

    def counted(points, seed=None):
        calls.append(len(points))
        if fail == "solve" and (len(points) > 1 or points[0].eps == grid[2]):
            raise EigenConvergenceError("no certified pair")
        return solve(points, seed)

    monkeypatch.setattr(modes, "ground_state_row", counted)
    monkeypatch.setattr(eigensolver, "eig_tridiagonal", counted_eig)
    singles, bisected, warnings = {}, {}, {}
    for method in ("spectral", "fd", "both"):
        calls.clear()
        bisections.clear()
        out = tmp_path / method
        run(SweepConfig(mode="qgt", out_dir=str(out), sizes=(150,), eps_range=(0.95, 1.06, 8),
                        phi=0.3, method=method, n_cut=200))
        singles[method] = calls.count(1)
        bisected[method] = sum(bisections)
        warnings[method] = json.loads((out / "manifest_qgt.json").read_text())["warnings"]
    assert singles == {"spectral": 8, "fd": 8, "both": 8}
    assert bisected["both"] == bisected["spectral"] == bisected["fd"]
    assert len(warnings["spectral"]) == len(warnings["fd"]) == (4 if fail == "gap-gate" else 1)
    assert warnings["both"] == [w for pair in zip(warnings["spectral"], warnings["fd"])
                                for w in pair]


def test_qgt_csv_has_no_negative_zero(tmp_path):
    # the spectral g_ep is an exact zero, and so is its f_ep at eps = 0; each
    # is written 0, never -0, whatever the sign of the f_ep beside it
    cfg = SweepConfig(mode="qgt", out_dir=str(tmp_path), sizes=(60, 80),
                      eps_range=(0.0, 1.2, 4), phi=0.3, method="both", n_cut=160)
    rows = read_csv(run(cfg)[0])[1]
    assert [cell for r in rows for cell in r if cell == "-0"] == []
    spectral = [r for r in rows if r[4] == "spectral"]
    assert [r[7] for r in spectral] == ["0"] * len(spectral)
    assert [r[8] for r in spectral if r[1] == "0"] == ["0", "0"]
    assert sum(float(r[8]) > 0 for r in spectral) == 6


def test_qgt_sweep_thread_determinism(tmp_path):
    out1, out4 = tmp_path / "t1", tmp_path / "t4"
    for out, threads in ((out1, "1"), (out4, "4")):
        assert main(["qgt", "--out", str(out), "--threads", threads,
                     "--L-list", "60,80,100", "--eps", "0.8:1.3:5", "--phi", "0",
                     "--method", "spectral", "--ncut", "200"]) == 0
    assert (out1 / "qgt.csv").read_bytes() == (out4 / "qgt.csv").read_bytes()


def test_cli_starts_no_thread_pool(tmp_path, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise RuntimeError("a sweep started a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    small_scaling = ["--L-list", "40,50,60,70,85", "--ncut", "200"]
    for argv in (
        ["phase-diagram", "--L", "200", "--ncut", "160", "--eps", "0:1.2:4",
         "--phi", "0:3:2"],
        ["qgt", "--L-list", "60,80", "--eps", "0.5:0.9:2", "--method", "both",
         "--ncut", "160"],
        ["scaling", *small_scaling, "--bracket", "1.05:1.45",
         "--eps-window", "1.05:1.40", "--eps-step", "0.002"],
        ["k0", *small_scaling, "--ncut-list", "60,84,120,170,240"],
    ):
        assert main([*argv, "--out", str(tmp_path / argv[0]), "--threads", "4"]) == 0
    for output in ("phase-diagram/phase_diagram.csv", "qgt/qgt.csv",
                   "scaling/scaling_report.json", "k0/k0_report.json"):
        assert (tmp_path / output).exists()


def test_scaling_run_manifest_and_idempotence(tmp_path):
    cfg = SweepConfig(mode="scaling", out_dir=str(tmp_path), **SMALL_SCALING)
    files = run(cfg)
    assert files and files[0].name == "scaling_report.json"
    report = json.loads(files[0].read_text())
    for key in ["eps_c_star", "fit_a", "fit_b", "nu", "delta_ee", "delta_pp",
                "delta_ep", "delta_eps", "delta_phi", "collapse_quality_gee",
                "collapse_quality_fep", "diagnostics"]:
        assert key in report
    cutoffs = report["diagnostics"]["cutoffs"]
    assert report["diagnostics"]["n_cut"] == SMALL_SCALING["n_cut"]
    assert [len(cutoffs[stage]) for stage in ("peak", "family")] == [5, 5]

    manifest_path = tmp_path / "manifest_scaling.json"
    assert manifest_path.exists()
    manifest = json.loads(manifest_path.read_text())
    assert manifest["outputs"]["scaling_report.json"] == sha256_file(files[0])
    assert _stale(tmp_path, cfg) is None

    # unchanged config: no-op
    assert run(cfg) == []
    # force: reruns and rewrites
    forced = run(cfg.replace(force=True))
    assert forced and forced[0].exists()
    # changed config: manifest no longer current
    changed = cfg.replace(collapse_step=1e-3)
    assert _stale(tmp_path, changed) is not None


def test_report_floats_have_17_significant_digits(tmp_path):
    cfg = SweepConfig(mode="scaling", out_dir=str(tmp_path), **SMALL_SCALING)
    run(cfg)
    text = (tmp_path / "scaling_report.json").read_text()
    match = re.search(r'"eps_c_star": ([0-9.eE+-]+)', text)
    mantissa = match.group(1).replace("-", "").replace(".", "").split("e")[0].lstrip("0")
    assert len(mantissa) == 17


def test_cli_end_to_end(tmp_path, monkeypatch):
    out = tmp_path / "run"
    rc = main(["scaling", "--out", str(out), "--L-list", "40,50,60,70,85",
               "--ncut", "200", "--bracket", "1.05:1.45",
               "--eps-window", "1.05:1.40", "--eps-step", "0.002",
               "--threads", "2"])
    assert rc == 0
    assert "cutoffs" in json.loads((out / "scaling_report.json").read_text())["diagnostics"]

    # k0 at the same sizes, cutoff and peak bracket reuses the scaling report
    rebuilt = []
    original = modes.scaling_pipeline
    monkeypatch.setattr(modes, "scaling_pipeline",
                        lambda **kw: rebuilt.append(1) or original(**kw))
    rc = main(["k0", "--out", str(out), "--ncut-list", "60,84,120,170,240",
               "--L-list", "40,50,60,70,85", "--ncut", "200", "--bracket", "1.05:1.45"])
    assert rc == 0
    assert rebuilt == []
    k0 = json.loads((out / "k0_report.json").read_text())
    for key in ("gamma1", "gamma2", "alpha_exp", "delta_nbar", "beta1",
                "beta2", "beta1_prime", "beta2_prime"):
        assert key in k0
    assert k0["diagnostics"]["scaling_eps_c_star"] == pytest.approx(
        json.loads((out / "scaling_report.json").read_text())["eps_c_star"])

    rc = main(["collapse", "--out", str(out), "--observable", "g_ee",
               "--nu-range", "1.2:1.9"])
    assert rc == 0
    collapse = json.loads((out / "collapse_g_ee.json").read_text())
    assert 1.2 <= collapse["nu"] <= 1.9

    rc = main(["plots", "--out", str(out)])
    assert rc == 0
    scripts = sorted(p.name for p in out.glob("plot_*.py"))
    assert scripts == ["plot_curvature.py", "plot_k0.py", "plot_qgt_peaks.py",
                       "plot_scaling_fits.py"]

    # every file a script reads is listed in a manifest of this run set
    listed = set()
    for mpath in out.glob("manifest_*.json"):
        listed.update(json.loads(mpath.read_text())["outputs"])
    for script in scripts:
        text = (out / script).read_text()
        for ref in re.findall(r'here / "([^"]+)"', text):
            if not ref.endswith(".png"):
                assert ref in listed, f"{script} references unlisted {ref}"


def test_cli_config_file_and_override(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "sizes": [60, 80], "eps_range": [0.5, 0.7, 2], "phi": 0.1,
        "method": "spectral", "n_cut": 120, "out_dir": str(tmp_path / "a"),
    }))
    rc = main(["qgt", "--config", str(config_path), "--phi", "0.4"])
    assert rc == 0
    header, rows = read_csv(tmp_path / "a" / "qgt.csv")
    assert all(float(r[2]) == 0.4 for r in rows)  # CLI overrides config file
    assert len(rows) == 4


def test_cli_config_file_mode_must_match_subcommand(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"mode": "collapse"}))
    out = tmp_path / "out"
    rc = main(["phase-diagram", "--config", str(config_path), "--out", str(out),
               "--L", "200", "--ncut", "160", "--eps", "0:1.2:4", "--phi", "0:3:2"])
    assert rc == 2
    assert re.fullmatch(r"kerrqgt phase-diagram: error: config file \S+ is for mode "
                        r"'collapse', not for 'phase-diagram'\n", capsys.readouterr().err)
    assert not out.exists()
    args = build_parser().parse_args(["collapse", "--config", str(config_path)])
    assert assemble_config(args).mode == "collapse"


@pytest.mark.parametrize("entries, message", [
    ({"ncut": 100, "L": 50}, r"unknown keys: 'ncut' \(the --ncut flag; its field is "
                             r"'n_cut'\), 'L' \(the --L flag; its field is 'size'\)"),
    ({"n_cut": 100, "colour": "red"}, r"unknown keys: 'colour'$"),
    ({"delta": 1.0}, r"unknown keys: 'delta'$"),  # energies are in units of the detuning
])
def test_config_file_unknown_keys_schema_error(tmp_path, entries, message):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(entries))
    args = build_parser().parse_args(["phase-diagram", "--config", str(config_path)])
    with pytest.raises(SchemaError, match=message):
        assemble_config(args)


@pytest.mark.parametrize("mode, text, message", [
    ("phase-diagram", '{"n_cut": 1e999}',
     r"config file \S+: 'n_cut' must be a finite number, got inf"),
    ("qgt", '{"sizes": [40, "x"]}',
     r"config file \S+: 'sizes' must be a list of finite numbers, got \[40, 'x'\]"),
    ("k0", '{"ncut_list": [200, NaN]}',
     r"config file \S+: 'ncut_list' must be a list of finite numbers, got \[200, nan\]"),
    # counts that used to be truncated: 2.7 ran a 2-point grid, 200.5 the cutoff 200
    ("qgt", '{"eps_range": [0.9, 1.0, 2.7]}',
     r"eps_range \(0.9, 1.0, 2.7\) has a non-integral step count"),
    ("phase-diagram", '{"phi_range": [0.0, 1.0, 3.5]}',
     r"phi_range \(0.0, 1.0, 3.5\) has a non-integral step count"),
    ("k0", '{"ncut_list": [200.5, 283, 400, 566, 800]}',
     r"ncut_list \[200.5, 283, 400, 566, 800\] has a non-integral cutoff"),
    # used to write a qgt.csv of only a header, and its manifest
    ("qgt", '{"sizes": []}', r"sizes is empty: name at least one size"),
], ids=["infinite-n_cut", "sizes-with-a-string", "nan-in-ncut_list", "fractional-eps-steps",
        "fractional-phi-steps", "fractional-k0-cutoff", "empty-sizes"])
def test_config_file_bad_value_exits_2_naming_the_key(tmp_path, capsys, monkeypatch, mode, text,
                                                      message):
    def solve(*args, **kwargs):
        raise AssertionError("a tridiagonal eigensolve was made")

    monkeypatch.setattr(eigensolver, "_lowest_pair", solve)
    monkeypatch.setattr(eigensolver, "_seeded_pairs", solve)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(text)
    out = tmp_path / "out"
    assert main([mode, "--config", str(config_path), "--out", str(out)]) == 2
    assert re.fullmatch(rf"kerrqgt {mode}: error: {message}\n", capsys.readouterr().err)
    assert not out.exists()


def test_config_file_integral_float_counts_are_accepted(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"eps_range": [0.95, 1.05, 2.0], "sizes": [40],
                                       "n_cut": 120}))
    assert main(["qgt", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
    assert len(read_csv(tmp_path / "out" / "qgt.csv")[1]) == 2
    assert kerrqgt.scaling._k0_cutoffs([240, 60.0, 84, 120, 170]) == [60, 84, 120, 170, 240]


def test_every_config_field_has_a_file_value_check():
    for name, (_, kind) in sweep.FIELDS.items():
        assert kind.partition(" | ")[0] in kerrqgt.cli.FILE_VALUES, name


def test_config_file_must_hold_an_object(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps([["n_cut", 100]]))
    args = build_parser().parse_args(["qgt", "--config", str(config_path)])
    with pytest.raises(SchemaError, match="holds a JSON list, not an object"):
        assemble_config(args)


# Every pair field is checked when the config is built, before any mode reads
# it or solves anything.
@pytest.mark.parametrize("argv, entries, named", [
    (["collapse"], {"ec_range": [1.0]}, "ec_range (1.0,)"),
    (["scaling"], {"peak_bracket": [1.05, 1.2, 1.45]}, "peak_bracket (1.05, 1.2, 1.45)"),
    (["scaling"], {"collapse_window": [1.05]}, "collapse_window (1.05,)"),
    (["collapse"], {"nu_range": [1.2, 1.5, 1.9]}, "nu_range (1.2, 1.5, 1.9)"),
    (["k0"], {"peak_bracket": [1.4, 0.99]}, "peak_bracket (1.4, 0.99)"),
    (["collapse"], {"ec_range": [1.0, 1.0]}, "ec_range (1.0, 1.0)"),
    (["scaling", "--bracket", "nan:1.4"], {}, "peak_bracket (nan, 1.4)"),
], ids=["short-ec_range", "long-peak_bracket", "short-collapse_window", "long-nu_range",
        "reversed-peak_bracket", "zero-width-ec_range", "nan-bracket-flag"])
def test_pair_fields_hold_two_finite_numbers_lo_below_hi(tmp_path, capsys, monkeypatch, argv,
                                                         entries, named):
    for module in (qgt, kerrqgt.scaling, modes):
        monkeypatch.setattr(module, "ground_state_row", None)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(entries))
    out = tmp_path / "out"
    assert main(argv + ["--config", str(config_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"kerrqgt {argv[0]}: error: {named} must be 2 finite "
                                       f"numbers lo < hi\n")
    assert not out.exists()


def test_boundary_flags_of_the_shifted_power_fits_are_warned(tmp_path, monkeypatch):
    fit = kerrqgt.scaling.fit_shifted_power
    monkeypatch.setattr(kerrqgt.scaling, "fit_shifted_power",
                        lambda x, y: replace(fit(x, y), boundary_warning=True))
    out = tmp_path / "out"
    run(SweepConfig(mode="scaling", out_dir=str(out), **SMALL_SCALING))
    run(SweepConfig(mode="k0", out_dir=str(out), ncut_list=(60, 84, 120, 170, 240),
                    **SMALL_SCALING))
    warnings = {mode: json.loads((out / f"manifest_{mode}.json").read_text())["warnings"]
                for mode in ("scaling", "k0")}
    assert warnings == {
        "scaling": ["critical-point drift exponent at search-range boundary",
                    "delta_ee drift exponent at search-range boundary",
                    "nu drift exponent at search-range boundary"],
        "k0": ["delta_nbar drift exponent at search-range boundary"]}


def test_k0_manifest_carries_the_warnings_of_a_report_it_computes(tmp_path, monkeypatch):
    fit = kerrqgt.scaling.fit_shifted_power
    monkeypatch.setattr(kerrqgt.scaling, "fit_shifted_power",
                        lambda x, y: replace(fit(x, y), boundary_warning=True))
    out = tmp_path / "out"
    run(SweepConfig(mode="k0", out_dir=str(out), ncut_list=(60, 84, 120, 170, 240),
                    **SMALL_SCALING))
    # the report's warnings go to the manifest of the scaling run that wrote it
    warnings = {mode: json.loads((out / f"manifest_{mode}.json").read_text())["warnings"]
                for mode in ("scaling", "k0")}
    assert warnings == {
        "scaling": ["critical-point drift exponent at search-range boundary",
                    "delta_ee drift exponent at search-range boundary",
                    "nu drift exponent at search-range boundary"],
        "k0": ["delta_nbar drift exponent at search-range boundary"]}


def test_config_file_legacy_threads_key_is_dropped(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"threads": 4, "n_cut": 120}))
    args = build_parser().parse_args(["qgt", "--config", str(config_path), "--threads", "2"])
    config = assemble_config(args)
    assert config.n_cut == 120 and "threads" not in config.echo()


def test_emit_plots_empty_csv_schema_error(tmp_path):
    (tmp_path / "phase_diagram.csv").write_text("")
    with pytest.raises(SchemaError, match="phase_diagram.csv is empty"):
        emit_plots(tmp_path)


def test_collapse_input_missing_key_schema_error(tmp_path, capsys):
    keys = ["eps_c_star", "fit_a", "fit_b", "nu", "delta_ee", "delta_pp", "delta_ep",
            "delta_eps", "delta_phi", "collapse_quality_gee", "collapse_quality_fep"]
    report = {key: 1.0 for key in keys if key != "fit_a"}
    report["diagnostics"] = {}
    source = tmp_path / "report.json"
    source.write_text(json.dumps(report))
    rc = main(["collapse", "--out", str(tmp_path / "c"), "--input", str(source)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "kerrqgt collapse: error: report.json is missing required key 'fit_a'\n")


def test_emit_plots_schema_error(tmp_path):
    (tmp_path / "phase_diagram.csv").write_text(
        "eps,phi,L,ncut,mean_n,warn\n0,0,10,20,0,\n")
    with pytest.raises(SchemaError, match="rho"):
        emit_plots(tmp_path)


@pytest.mark.parametrize("name, report, key", [
    ("scaling_report.json", {"eps_c_star": 1.0}, "nu"),
    ("k0_report.json", {"gamma1": 1.0, "gamma2": 1.0, "alpha_exp": 1.0,
                        "delta_nbar": 1.0, "diagnostics": {}}, "diagnostics.ncut_list"),
], ids=["top-level", "diagnostics"])
def test_emit_plots_names_missing_report_key(tmp_path, name, report, key):
    (tmp_path / name).write_text(json.dumps(report))
    with pytest.raises(SchemaError, match=f"^{name} is missing required key '{key}'$"):
        emit_plots(tmp_path)


# Inputs that used to end in a traceback, or in rows no solve had checked;
# each fails before any eigensolve.
UNTRUSTED_INPUTS = {
    "infinite-size": (["phase-diagram", "--L", "inf", "--eps", "0:1.5:3"],
                      "size must be finite, got inf"),
    "nan-size": (["phase-diagram", "--L", "nan", "--eps", "0:1.5:3"],
                 "size must be positive, got nan"),
    "infinite-phi-bound": (["phase-diagram", "--L", "40", "--eps", "0:1:2", "--phi", "0:inf:3",
                            "--ncut", "100"], "grid range (0.0, inf, 3) has a non-finite bound"),
    "nan-eps-bound": (["phase-diagram", "--L", "40", "--eps", "nan:1:2", "--ncut", "100"],
                      "grid range (nan, 1.0, 2) has a non-finite bound"),
    "nan-phi": (["qgt", "--L-list", "40", "--eps", "0.5:0.9:2", "--phi", "nan", "--ncut", "100"],
                "phi must be finite"),
    "infinite-phi": (["qgt", "--L-list", "40", "--eps", "0.5:0.9:2", "--phi", "inf",
                      "--ncut", "100"], "phi must be finite"),
    "collapse-grid-too-fine": (["scaling", "--eps-step", "1e-300"],
                               "collapse grid of 1.1e+299 points exceeds 100000; raise "
                               "collapse_step or narrow collapse_window"),
    "phase-diagram-grid-too-large": (["phase-diagram", "--eps", "0:1:1001", "--phi", "0:1:100"],
                                     "eps x phi grid of 100100 points exceeds 100000"),
    "qgt-grid-too-large": (["qgt", "--L-list", "40,50", "--eps", "0:1:50001", "--ncut", "40"],
                           "size x eps grid of 100002 points exceeds 100000"),
    # the collapse rescales the sizes by L^(1/nu): nu = 0 divided by zero
    "zero-nu-bound": (["collapse", "--nu-range", "0:2"],
                      "nu_range (0.0, 2.0) must be 2 finite numbers 0 < lo < hi"),
    "negative-nu-bound": (["collapse", "--nu-range=-1:2"],
                          "nu_range (-1.0, 2.0) must be 2 finite numbers 0 < lo < hi"),
    "nan-delta-jk": (["collapse", "--delta-jk", "nan"], "delta_jk must be finite, got nan"),
    "infinite-delta-jk": (["collapse", "--delta-jk", "inf"], "delta_jk must be finite, got inf"),
}


@pytest.mark.parametrize("argv, message", [
    (["scaling", "--eps-step", "0"], "collapse_step must be positive and finite, got 0.0"),
    (["phase-diagram", "--L", "2000", "--eps", "0:1.5:3", "--ncut", "100"],
     "cutoff check failed at eps=1.5: need n_cut >= 700, got 100"),
    (["qgt", "--config", "{dir}/method.json"], "unknown method 'xyz'"),
    (["qgt", "--config", "{dir}/text.json"], "config file {dir}/text.json is not JSON: "
                                             "Expecting value: line 1 column 1 (char 0)"),
    (["qgt", "--config", "{dir}/missing.json"],
     "config file {dir}/missing.json cannot be read: No such file or directory"),
    (["phase-diagram", "--L", "-5"], "size must be positive, got -5.0"),
    (["scaling", "--L-list", "0,1,2,3"], "size must be positive, got 0.0"),
    (["collapse"], "report {dir}/out/scaling_report.json cannot be read: "
                   "No such file or directory"),
    (["collapse", "--input", "{dir}/text.json"],
     "report {dir}/text.json is not JSON: Expecting value: line 1 column 1 (char 0)"),
    (["collapse", "--input", "{dir}/text-field.json"],
     'text-field.json key \'eps_c_star\' must be a finite number, got "x"'),
    (["collapse", "--input", "{dir}/bool-field.json"],
     "bool-field.json key 'nu' must be a finite number, got true"),
    (["collapse", "--config", "{dir}/nu-range.json"],
     "nu_range (0, 2) must be 2 finite numbers 0 < lo < hi"),
    *[(argv, message) for argv, message in UNTRUSTED_INPUTS.values()],
], ids=["collapse-step", "cutoff", "config-method", "config-not-json", "config-missing",
        "negative-size", "zero-size", "collapse-no-report", "collapse-input-not-json",
        "collapse-input-text-field", "collapse-input-bool-field", "config-zero-nu-bound",
        *UNTRUSTED_INPUTS])
def test_cli_input_error_is_one_line_with_status_2(tmp_path, capsys, argv, message):
    (tmp_path / "method.json").write_text('{"method": "xyz"}')
    (tmp_path / "text.json").write_text("not json")
    (tmp_path / "nu-range.json").write_text('{"nu_range": [0, 2]}')
    report = {**{f.name: 1.0 for f in fields(ScalingReport)}, "diagnostics": {}}
    (tmp_path / "text-field.json").write_text(json.dumps({**report, "eps_c_star": "x"}))
    (tmp_path / "bool-field.json").write_text(json.dumps({**report, "nu": True}))
    argv = [arg.format(dir=tmp_path) for arg in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"kerrqgt {argv[0]}: error: {message.format(dir=tmp_path)}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("case", UNTRUSTED_INPUTS)
def test_untrusted_inputs_fail_before_any_solve(tmp_path, monkeypatch, case):
    def solve(*args, **kwargs):
        raise AssertionError("a tridiagonal eigensolve was made")

    monkeypatch.setattr(eigensolver, "_lowest_pair", solve)
    monkeypatch.setattr(eigensolver, "_seeded_pairs", solve)
    assert main(UNTRUSTED_INPUTS[case][0] + ["--out", str(tmp_path / "out")]) == 2


# An --out that is, or lies below, a regular file used to end in a traceback
# from mkdir once every output had been computed.
@pytest.mark.parametrize("below", ["", "sub"], ids=["a-file", "below-a-file"])
def test_out_naming_a_file_fails_before_the_manifest_check(tmp_path, capsys, monkeypatch,
                                                            below):
    def forbidden(*args, **kwargs):
        raise AssertionError("the run went on past its output directory")

    for module, name in ((sweep, "_stale"), (eigensolver, "_lowest_pair"),
                         (eigensolver, "_seeded_pairs")):
        monkeypatch.setattr(module, name, forbidden)
    blocker = tmp_path / "taken"
    blocker.write_text("a file")
    out = blocker / below
    assert main(["phase-diagram", "--L", "40", "--eps", "0:1:2", "--ncut", "100",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"kerrqgt phase-diagram: error: output directory {out} "
                                       f"cannot be made: {blocker} is not a directory\n")
    assert blocker.read_text() == "a file"


@pytest.mark.parametrize("mode", ["plots"])
def test_corrupt_report_in_out_is_one_line_with_status_2(tmp_path, capsys, mode):
    # --out already holds a corrupt scaling report next to a valid phase
    # diagram: the run stops before it writes a file or a manifest
    out = tmp_path / "out"
    out.mkdir()
    (out / "scaling_report.json").write_text('{"eps_c_star": 1.0,')
    (out / "phase_diagram.csv").write_text(",".join(sweep.PHASE_DIAGRAM_COLUMNS) + "\n")
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert main([mode, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(rf"kerrqgt {mode}: error: report {re.escape(str(out))}/"
                        rf"scaling_report.json is not JSON: [^\n]+\n", captured.err)
    assert captured.out == ""
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize("mode", ["plots", "collapse"])
def test_non_object_diagnostics_is_one_line_with_status_2(tmp_path, capsys, mode):
    out = tmp_path / "out"
    out.mkdir()
    report = {f.name: 1.0 for f in fields(ScalingReport)}
    report["diagnostics"] = 5
    (out / "scaling_report.json").write_text(json.dumps(report))
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert main([mode, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"kerrqgt {mode}: error: scaling_report.json key 'diagnostics' "
                            f"holds a JSON int, not an object\n")
    assert captured.out == ""
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize("report", [
    '{"eps_c_star": 1.0,',
    json.dumps({**{f.name: 1.0 for f in fields(ScalingReport)}, "diagnostics": 5}),
], ids=["not-json", "non-object-diagnostics"])
def test_k0_replaces_a_report_its_manifest_does_not_certify(tmp_path, report):
    # a corrupt report in --out that no manifest certifies is not read: k0
    # runs the scaling mode over it, and the report it leaves verifies
    out = tmp_path / "out"
    out.mkdir()
    (out / "scaling_report.json").write_text(report)
    (out / "phase_diagram.csv").write_text(",".join(sweep.PHASE_DIAGRAM_COLUMNS) + "\n")
    config = SweepConfig(mode="k0", out_dir=str(out), ncut_list=(60, 84, 120, 170, 240),
                         **SMALL_SCALING)
    assert run(config) == [out / "k0_report.json"]
    assert json.loads((out / "manifest_k0.json").read_text())["warnings"] == [
        f"scaling_report.json is not reused, but computed again: manifest "
        f"{out}/manifest_scaling.json cannot be read: No such file or directory"]
    assert _stale(out, SweepConfig(mode="scaling", out_dir=str(out),
                                   **SMALL_SCALING)) is None
    assert json.loads((out / "scaling_report.json").read_text())["diagnostics"]["sizes"] == [
        40.0, 50.0, 60.0, 70.0, 85.0]
    assert (out / "phase_diagram.csv").read_text() == (
        ",".join(sweep.PHASE_DIAGRAM_COLUMNS) + "\n")


@pytest.mark.parametrize("sizes, values, reason", [
    ([100.0], [[1.0, 2.0]], "a curve family needs at least 2 sizes"),
    ([100.0, 200.0], [[1.0, 2.0]], "values must have shape (n_sizes, n_grid)"),
    ([100.0, 100.0], [[1.0, 2.0], [1.5, 2.5]], "sizes must be distinct"),
], ids=["one-size", "shape-mismatch", "repeated-sizes"])
def test_malformed_stored_family_is_one_line_with_status_2(tmp_path, capsys, sizes, values,
                                                           reason):
    report = {f.name: 1.0 for f in fields(ScalingReport)}
    report["diagnostics"] = {"sizes": sizes, "family_eps_grid": [1.0, 1.1],
                             "family_g_ee": values}
    source = tmp_path / "R.json"
    source.write_text(json.dumps(report))
    out = tmp_path / "out"
    assert main(["collapse", "--out", str(out), "--input", str(source)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"kerrqgt collapse: error: R.json key 'family_g_ee' holds a "
                            f"malformed curve family: {reason}\n")
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["R.json"]


def test_cli_numerical_error_keeps_its_traceback(tmp_path, monkeypatch):
    # GapError is a ValueError but not an InputError: main must not swallow it
    def gap(config):
        raise GapError("sector gap below the floor")

    monkeypatch.setattr(kerrqgt.cli, "run", gap)
    with pytest.raises(GapError, match="sector gap"):
        main(["qgt", "--out", str(tmp_path)])


def test_generated_plot_scripts_run(tmp_path):
    pytest.importorskip("matplotlib")
    cfg = SweepConfig(mode="phase-diagram", out_dir=str(tmp_path), size=100.0,
                      n_cut=120, eps_range=(0.0, 1.2, 5), phi_range=(0.0, 3.0, 3))
    run(cfg)
    emit_plots(tmp_path)
    proc = subprocess.run([sys.executable, str(tmp_path / "plot_phase_diagram.py")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "phase_diagram.png").exists()


# A stand-in for matplotlib: every figure and axes call is accepted and does
# nothing, and savefig writes an empty file, so a plot script runs all of its
# own code (imports, reads, array arithmetic) without the real package.
_STUB_MATPLOTLIB = {
    "__init__.py": "def use(*args, **kwargs):\n    pass\n",
    "pyplot.py": '''import numpy as np


class _Anything:
    def __getattr__(self, name):
        if name.startswith("__"):
            raise AttributeError(name)
        return lambda *args, **kwargs: _Anything()


class _Figure(_Anything):
    def savefig(self, path, **kwargs):
        open(path, "wb").close()


def subplots(nrows=1, ncols=1, **kwargs):
    axes = np.array([_Anything() for _ in range(nrows * ncols)], dtype=object)
    return _Figure(), axes[0] if axes.size == 1 else axes.reshape(nrows, ncols).squeeze()
''',
}


def test_every_generated_plot_script_runs_on_stub_matplotlib(tmp_path):
    out = tmp_path / "out"
    run(SweepConfig(mode="phase-diagram", out_dir=str(out), size=100.0, n_cut=120,
                    eps_range=(0.0, 1.2, 5), phi_range=(0.0, 3.0, 3)))
    run(SweepConfig(mode="qgt", out_dir=str(out), sizes=(60, 80),
                    eps_range=(0.5, 0.9, 3), n_cut=160))
    run(SweepConfig(mode="scaling", out_dir=str(out), **SMALL_SCALING))
    run(SweepConfig(mode="k0", out_dir=str(out), ncut_list=(60, 84, 120, 170, 240),
                    **SMALL_SCALING))
    scripts = emit_plots(out)
    assert sorted(path.name for path in scripts) == [
        "plot_curvature.py", "plot_k0.py", "plot_phase_diagram.py", "plot_qgt_peaks.py",
        "plot_scaling_fits.py"]

    stub = tmp_path / "stub" / "matplotlib"
    stub.mkdir(parents=True)
    for name, text in _STUB_MATPLOTLIB.items():
        (stub / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(stub.parent)}
    for script in scripts:
        # a template error fails here with its line, before the script runs
        compile(script.read_text(), script.name, "exec")
        proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, f"{script.name}: {proc.stderr}"
        png = re.search(r'savefig\(here / "([^"]+)"', script.read_text()).group(1)
        assert (out / png).exists(), f"{script.name} wrote no {png}"
