"""Run bookkeeping: which errors drop a grid point, atomic writes and their
order, manifest identity under reruns, and reuse of a prior scaling report by
the k0 study."""

import dataclasses
import json
import re
import shutil
import threading

import numpy as np
import pytest

import kerrqgt
import kerrqgt.eigensolver as eigensolver
import kerrqgt.modes as modes
import kerrqgt.qgt
import kerrqgt.scaling
import kerrqgt.sweep as sweep
from kerrqgt import ModelParams, sector_block
from kerrqgt._fd import stencil_eps
from kerrqgt.qgt import DEFAULT_STEP_EPS
from kerrqgt.cli import main
from kerrqgt.errors import GapError, StepSizeError
from kerrqgt.plots import emit_plots
from kerrqgt.scaling import K0Report
from kerrqgt.sweep import (
    SweepConfig,
    atomic_write_text,
    _stale,
    read_csv,
    run,
)


def _qgt_config(tmp_path, method="spectral"):
    return SweepConfig(mode="qgt", out_dir=str(tmp_path), sizes=(60,),
                       eps_range=(0.5, 0.9, 2), method=method, n_cut=160)


def _manifest_warnings(out, mode):
    return json.loads((out / f"manifest_{mode}.json").read_text())["warnings"]


def test_gap_error_drops_point_with_warning(tmp_path, monkeypatch):
    monkeypatch.setattr(kerrqgt.qgt, "GAP_FLOOR", 1.0)
    files = run(_qgt_config(tmp_path))
    assert read_csv(files[0])[1] == []
    warnings = _manifest_warnings(tmp_path, "qgt")
    assert len(warnings) == 2
    assert all("sector gap" in w and w.startswith("L=60 eps=") for w in warnings)


def test_step_size_error_drops_fd_row_only(tmp_path, monkeypatch):
    def too_small(*args, **kwargs):
        raise StepSizeError("overlap distance below the precision floor")

    monkeypatch.setattr(kerrqgt.qgt, "tensor_fd", too_small)
    files = run(_qgt_config(tmp_path, method="both"))
    rows = read_csv(files[0])[1]
    assert [r[4] for r in rows] == ["spectral", "spectral"]
    warnings = _manifest_warnings(tmp_path, "qgt")
    assert len(warnings) == 2 and all("(fd)" in w for w in warnings)


@pytest.mark.parametrize("target", ["qgt_spectral_row", "tensor_fd"])
def test_programming_errors_propagate(tmp_path, monkeypatch, target):
    def broken(*args, **kwargs):
        raise TypeError("unsupported operand")

    # the qgt mode binds the spectral row kernel; qgt_fd_row looks tensor_fd up in qgt
    monkeypatch.setattr(modes if target == "qgt_spectral_row" else kerrqgt.qgt, target, broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        run(_qgt_config(tmp_path, method="both"))
    assert not (tmp_path / "qgt.csv").exists()
    assert not (tmp_path / "manifest_qgt.json").exists()


def test_row_gap_error_retries_point_by_point(tmp_path, monkeypatch):
    config = SweepConfig(mode="qgt", out_dir=str(tmp_path / "plain"), sizes=(60, 80),
                         eps_range=(0.5, 0.9, 3), method="both", n_cut=160)
    plain = read_csv(run(config)[0])[1]
    row_kernel = modes.qgt_spectral_row

    def gap_at_one_point(ground):
        if any(p.eps == 0.7 and p.kerr == 1.0 / 80 for p in ground.points):
            raise GapError("sector gap below the floor")
        return row_kernel(ground)

    monkeypatch.setattr(modes, "qgt_spectral_row", gap_at_one_point)
    patched = dataclasses.replace(config, out_dir=str(tmp_path / "patched"))
    rows = read_csv(run(patched)[0])[1]
    # the failure is in the spectral kernel, not in the centre row that both
    # routes read, so the fd row of the point survives
    dropped = [r for r in plain if r[0] == "80" and float(r[1]) == 0.7 and r[4] == "spectral"]
    assert len(dropped) == 1
    assert rows == [r for r in plain if r not in dropped]
    assert _manifest_warnings(tmp_path / "patched", "qgt") == [
        "L=80 eps=0.7: sector gap below the floor"]


def test_nan_solve_drops_only_its_point(tmp_path, monkeypatch):
    config = SweepConfig(mode="qgt", out_dir=str(tmp_path / "plain"), sizes=(60, 80),
                         eps_range=(0.5, 0.9, 3), method="both", n_cut=160)
    plain = run(config)[0].read_text().splitlines()
    # L = 80 is solved at the rung 50 of its cutoff ladder, below the cap 160
    target = sector_block([ModelParams.from_size(80, 0.7, n_cut=50)])
    eigensolve = eigensolver._lowest_pair

    def nan_at_target(diag, off):
        lam, vec = eigensolve(diag, off)
        if np.array_equal(diag, target.diag) and np.allclose(off, target.offdiag[0]):
            vec = vec.copy()
            vec[3, 0] = np.nan
        return lam, vec

    monkeypatch.setattr(eigensolver, "_lowest_pair", nan_at_target)
    patched = dataclasses.replace(config, out_dir=str(tmp_path / "patched"))
    lines = run(patched)[0].read_text().splitlines()
    dropped = [line for line in plain if line.startswith("80,0.69999999999999996,")]
    assert [line.split(",")[4] for line in dropped] == ["spectral", "fd"]
    assert [line.split(",")[3] for line in dropped] == ["50", "50"]
    assert lines == [line for line in plain if line not in dropped]
    # the failing centre row of the size is redone point by point: the
    # point's own centre is solved once as a row of one, and both routes fail on it
    warnings = _manifest_warnings(tmp_path / "patched", "qgt")
    assert len(warnings) == 2
    assert warnings[0].startswith("L=80 eps=0.7: even block of size 26, row 0: residual nan")
    assert warnings[1].startswith("L=80 eps=0.7 (fd): even block of size 26, row 0: "
                                  "residual nan")


def test_nan_stencil_state_drops_only_its_fd_row(tmp_path, monkeypatch):
    # a NaN vector at one stencil eps off the grid, after its seeded pair was
    # certified, fails the size's stacked satellite solve; the point-by-point
    # retry then drops that point's fd row alone
    config = SweepConfig(mode="qgt", out_dir=str(tmp_path / "plain"), sizes=(60, 80),
                         eps_range=(0.5, 0.9, 3), method="both", n_cut=160)
    plain = run(config)[0].read_text().splitlines()
    eps = float(np.linspace(0.5, 0.9, 3)[1])
    stencil = max(stencil_eps(eps, DEFAULT_STEP_EPS))
    assert stencil != eps
    # at the rung 50 that L = 80 is solved at
    target = sector_block([ModelParams.from_size(80, stencil, n_cut=50)])
    seeded_pairs = eigensolver._seeded_pairs

    def nan_at_target(diag, offdiag, seed, lam, vec):
        ok = seeded_pairs(diag, offdiag, seed, lam, vec)
        for m, off in enumerate(offdiag):
            if np.array_equal(diag, target.diag) and np.array_equal(off, target.offdiag[0]):
                assert ok[m]
                vec[m, 0, 3] = np.nan
        return ok

    monkeypatch.setattr(eigensolver, "_seeded_pairs", nan_at_target)
    patched = dataclasses.replace(config, out_dir=str(tmp_path / "patched"))
    lines = run(patched)[0].read_text().splitlines()
    dropped = [line for line in plain if line.startswith("80,0.69999999999999996,")
               and line.split(",")[4] == "fd"]
    assert len(dropped) == 1
    assert lines == [line for line in plain if line not in dropped]
    warnings = _manifest_warnings(tmp_path / "patched", "qgt")
    assert len(warnings) == 1
    # the point's satellites are its 4 stencil eps besides its own, ascending
    assert warnings[0].startswith("L=80 eps=0.7 (fd): even block of size 26, row 3: "
                                  "residual nan")


def test_one_cutoff_warning_per_point_with_both_methods(tmp_path):
    files = run(SweepConfig(mode="qgt", out_dir=str(tmp_path), sizes=(200,),
                            eps_range=(1.2, 1.3, 2), n_cut=60, method="both"))
    assert [r[4] + r[11] for r in read_csv(files[0])[1]] == ["spectralcutoff", "fdcutoff"] * 2
    assert _manifest_warnings(tmp_path, "qgt") == [
        "cutoff-inadequate point: L=200 eps=1.2", "cutoff-inadequate point: L=200 eps=1.3"]


def test_rejected_run_leaves_no_output_directory(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="collapse_step must be positive"):
        run(SweepConfig(mode="scaling", out_dir=str(out), collapse_step=0.0))
    assert not out.exists()


def test_atomic_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_text(target, "first\n")
    atomic_write_text(target, "second\n")
    assert target.read_text() == "second\n"
    assert list(tmp_path.glob("*.tmp")) == []
    plain = tmp_path / "plain.json"
    plain.write_text("x")
    assert target.stat().st_mode == plain.stat().st_mode


def test_atomic_write_cleans_up_on_failure(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    target.write_text("old\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(sweep.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        atomic_write_text(target, "new\n")
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_plot_scripts_written_atomically(tmp_path, monkeypatch):
    (tmp_path / "phase_diagram.csv").write_text(
        ",".join(sweep.PHASE_DIAGRAM_COLUMNS) + "\n0,0,10,20,0,0,\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(sweep.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        emit_plots(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["phase_diagram.csv"]


@pytest.mark.parametrize("shared", [False, True], ids=["own-files", "one-file"])
def test_concurrent_writers_do_not_collide(tmp_path, shared):
    names = ["shared.txt" if shared else f"file_{i}.txt" for i in range(4)]
    errors = []

    def writer(index):
        try:
            for round_ in range(50):
                atomic_write_text(tmp_path / names[index], f"{index} {round_}\n" * 200)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(len(names))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    for index, name in enumerate(names):
        text = (tmp_path / name).read_text()
        if shared:  # one writer's last complete text wins
            assert text in {f"{i} 49\n" * 200 for i in range(len(names))}
        else:
            assert text == f"{index} 49\n" * 200
    assert list(tmp_path.glob("*.tmp")) == []


# ---------------------------------------------------------------------------
# k0 reuse of scaling_report.json

K0_BASE = dict(sizes=(40, 50, 60, 70, 85), n_cut=200, peak_bracket=(1.05, 1.45),
               collapse_window=(1.05, 1.40), collapse_step=2e-3,
               ncut_list=(60, 84, 120, 170, 240))


def test_thread_count_alone_does_not_recompute(tmp_path, capsys):
    argv = ["qgt", "--out", str(tmp_path), "--L-list", "60", "--eps", "0.5:0.9:2",
            "--ncut", "160"]
    assert main(argv + ["--threads", "1"]) == 0
    assert "wrote" in capsys.readouterr().out
    manifest = (tmp_path / "manifest_qgt.json").read_bytes()
    assert main(argv + ["--threads", "2"]) == 0
    assert "are current" in capsys.readouterr().out
    assert (tmp_path / "manifest_qgt.json").read_bytes() == manifest


def test_plain_rerun_after_force_is_a_no_op(tmp_path):
    cfg = _qgt_config(tmp_path)
    run(cfg)
    assert run(dataclasses.replace(cfg, force=True))
    echoed = json.loads((tmp_path / "manifest_qgt.json").read_text())["config"]
    assert echoed["force"] is True
    assert run(cfg) == []


def test_manifest_identity_ignores_out_dir_but_not_physics(tmp_path):
    first = tmp_path / "first"
    cfg = _qgt_config(first)
    run(cfg)
    moved = tmp_path / "moved"
    shutil.copytree(first, moved)
    assert _stale(moved, dataclasses.replace(cfg, out_dir=str(moved))) is None
    other = "its manifest was written for another configuration"
    assert _stale(first, dataclasses.replace(cfg, n_cut=170)) == other
    assert _stale(first, SweepConfig(**{**cfg.__dict__, "phi": 0.1})) == other
    manifest_path = first / "manifest_qgt.json"
    manifest = json.loads(manifest_path.read_text())
    manifest_path.write_text(json.dumps({**manifest, "version": "0.0.0"}))
    assert _stale(first, cfg) is not None


def _damage_manifest(path, damage):
    if damage == "array":
        path.write_text("[1, 2]")
    elif damage == "outputs list":
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps({**manifest, "outputs": list(manifest["outputs"])}))
    elif damage == "no outputs":
        path.write_text(json.dumps({**json.loads(path.read_text()), "outputs": {}}))
    else:
        path.write_bytes(b"\xff\xfe not utf-8")


@pytest.mark.parametrize("damage", ["array", "outputs list", "no outputs", "not utf-8"])
def test_damaged_manifest_reruns_the_mode(tmp_path, capsys, damage):
    argv = ["qgt", "--out", str(tmp_path), "--L-list", "60", "--eps", "0.5:0.9:2",
            "--ncut", "160"]
    assert main(argv) == 0
    csv_path, manifest_path = tmp_path / "qgt.csv", tmp_path / "manifest_qgt.json"
    expected = csv_path.read_bytes()
    csv_path.unlink()
    _damage_manifest(manifest_path, damage)
    assert main(argv) == 0
    assert csv_path.read_bytes() == expected
    manifest = json.loads(manifest_path.read_text())
    assert manifest["outputs"] == {"qgt.csv": sweep.sha256_file(csv_path)}
    assert main(argv) == 0
    assert capsys.readouterr().out.count("wrote") == 2


def test_manifest_echo_with_a_delta_field_is_recomputed_once(tmp_path, capsys):
    # an echo holding a field that no config has, such as the detuning of
    # runs made before energies were in units of it, is another configuration
    argv = ["qgt", "--out", str(tmp_path), "--L-list", "60", "--eps", "0.5:0.9:2",
            "--ncut", "160"]
    assert main(argv) == 0
    manifest_path = tmp_path / "manifest_qgt.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["delta"] = 1.0
    manifest_path.write_text(json.dumps(manifest))
    assert main(argv) == 0
    assert "delta" not in json.loads(manifest_path.read_text())["config"]
    assert main(argv) == 0
    assert capsys.readouterr().out.count("wrote") == 2


def _write_report(out, **diag_overrides):
    diagnostics = {
        "sizes": [float(s) for s in K0_BASE["sizes"]], "n_cut": K0_BASE["n_cut"],
        "peak_bracket": list(K0_BASE["peak_bracket"]),
        "collapse_window": list(K0_BASE["collapse_window"]),
        "collapse_step": K0_BASE["collapse_step"], "source": "on disk",
    }
    diagnostics.update(diag_overrides)
    keys = ["eps_c_star", "fit_a", "fit_b", "nu", "delta_ee", "delta_pp", "delta_ep",
            "delta_eps", "delta_phi", "collapse_quality_gee", "collapse_quality_fep"]
    report = {key: 1.0 for key in keys}
    report["diagnostics"] = diagnostics
    path = out / sweep.SCALING_REPORT_NAME
    path.write_text(json.dumps(report))
    # the manifest of the scaling run that would have written the report, so
    # that it certifies the report and k0 may reuse it
    config = SweepConfig(mode="scaling", out_dir=str(out), **{
        **{k: v for k, v in K0_BASE.items() if k != "ncut_list"}, **diag_overrides})
    (out / "manifest_scaling.json").write_text(json.dumps(
        {"version": kerrqgt.__version__, "config": config.echo(),
         "outputs": {path.name: sweep.sha256_file(path)}}))


@pytest.fixture
def k0_spies(monkeypatch):
    seen = {"rebuilt": [], "scaling": []}

    def fake_scaling_pipeline(**kwargs):
        seen["rebuilt"].append(kwargs)
        return kerrqgt.scaling.ScalingReport(**{k: 0.0 for k in (
            "eps_c_star", "fit_a", "fit_b", "nu", "delta_ee", "delta_pp", "delta_ep",
            "delta_eps", "delta_phi", "collapse_quality_gee", "collapse_quality_fep")},
            diagnostics={"source": "rebuilt", "warnings": []})

    def fake_k0_pipeline(scaling=None, **kwargs):
        seen["scaling"].append(scaling.diagnostics["source"])
        return K0Report(gamma1=4.0, gamma2=3.0, alpha_exp=1.0, delta_nbar=0.33,
                        beta1=1.3, beta2=1.0, beta1_prime=1.3, beta2_prime=1.0,
                        flagged=False,
                        diagnostics={"delta_nbar_fit": {"boundary_warning": False}})

    monkeypatch.setattr(modes, "scaling_pipeline", fake_scaling_pipeline)
    monkeypatch.setattr(modes, "k0_pipeline", fake_k0_pipeline)
    return seen


def test_k0_recomputes_report_with_other_peak_bracket(tmp_path, k0_spies):
    _write_report(tmp_path, peak_bracket=[0.99, 1.40])
    run(SweepConfig(mode="k0", out_dir=str(tmp_path), **K0_BASE))
    assert k0_spies["scaling"] == ["rebuilt"]
    assert k0_spies["rebuilt"][0]["peak_bracket"] == K0_BASE["peak_bracket"]


def test_k0_reuses_report_with_other_collapse_grid(tmp_path, k0_spies):
    _write_report(tmp_path, collapse_step=4e-3, collapse_window=[0.95, 1.06])
    run(SweepConfig(mode="k0", out_dir=str(tmp_path), **K0_BASE))
    assert k0_spies["scaling"] == ["on disk"]
    assert k0_spies["rebuilt"] == []


def test_k0_reuses_report_for_unsorted_sizes(tmp_path, k0_spies):
    # the scaling report stores its sizes sorted
    _write_report(tmp_path)
    run(SweepConfig(mode="k0", out_dir=str(tmp_path),
                    **{**K0_BASE, "sizes": K0_BASE["sizes"][::-1]}))
    assert k0_spies["scaling"] == ["on disk"]
    assert k0_spies["rebuilt"] == []


def _tamper(out):
    path = out / sweep.SCALING_REPORT_NAME
    path.write_text(json.dumps({**json.loads(path.read_text()), "delta_ee": 99.0}))


def _other_version(out):
    path = out / "manifest_scaling.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "version": "0.0.9"}))


def _echo_without_sizes(out):
    path = out / "manifest_scaling.json"
    manifest = json.loads(path.read_text())
    del manifest["config"]["sizes"]
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("damage, reason", [
    (None, None),
    (_tamper, "its sha256 differs from the one its manifest records"),
    (_other_version, f"its manifest is of version '0.0.9', not '{kerrqgt.__version__}'"),
    (lambda out: (out / "manifest_scaling.json").unlink(),
     "manifest .*manifest_scaling.json cannot be read: No such file or directory"),
    (_echo_without_sizes, "its manifest was written for another configuration"),
], ids=["verified", "tampered", "other-version", "no-manifest", "echo-without-sizes"])
def test_k0_reuses_only_a_report_its_manifest_verifies(tmp_path, k0_spies, damage, reason):
    _write_report(tmp_path)
    if damage:
        damage(tmp_path)
    run(SweepConfig(mode="k0", out_dir=str(tmp_path), **K0_BASE))
    assert k0_spies["scaling"] == ["on disk" if damage is None else "rebuilt"]
    warnings = _manifest_warnings(tmp_path, "k0")
    if damage is None:
        assert warnings == []
    else:
        [warning] = warnings
        assert re.fullmatch(f"scaling_report.json is not reused, but computed again: {reason}",
                            warning)


def test_k0_runs_into_one_directory_solve_the_scaling_report_once(tmp_path, monkeypatch,
                                                                   capsys):
    # the first k0 run writes the scaling report it computes, with its
    # manifest; the second reuses it, and so does the scaling run they imply
    calls, pipeline = [], modes.scaling_pipeline
    monkeypatch.setattr(modes, "scaling_pipeline",
                        lambda **kwargs: calls.append(kwargs) or pipeline(**kwargs))
    argv = ["--L-list", "40,50,60,70,85", "--ncut", "200", "--bracket", "1.05:1.45",
            "--out", str(tmp_path)]
    assert main(["k0", *argv, "--ncut-list", "60,84,120,170,240"]) == 0
    assert main(["k0", *argv, "--ncut-list", "60,84,120,170,240,340"]) == 0
    assert len(calls) == 1
    before = {path.name: path.stat().st_mtime_ns for path in tmp_path.iterdir()}
    capsys.readouterr()
    assert main(["scaling", *argv]) == 0
    assert "are current" in capsys.readouterr().out
    assert {path.name: path.stat().st_mtime_ns for path in tmp_path.iterdir()} == before
    assert len(calls) == 1


def test_repeated_sizes_fail_before_any_solve(tmp_path, capsys, no_eigensolve):
    out = tmp_path / "out"
    assert main(["scaling", "--out", str(out), "--L-list", "40,40,50,60,70",
                 "--ncut", "200", "--bracket", "1.05:1.45", "--eps-window", "1.05:1.40",
                 "--eps-step", "0.01"]) == 2
    assert capsys.readouterr().err == (
        "kerrqgt scaling: error: the scaling pipeline needs distinct sizes, "
        "got [40.0, 40.0, 50.0, 60.0, 70.0]\n")
    assert not out.exists()


def test_k0_repeated_cutoffs_fail(tmp_path, capsys, monkeypatch, k0_spies, no_eigensolve):
    # the scaling report on disk is reused; the cutoff study itself is real
    _write_report(tmp_path)
    monkeypatch.setattr(modes, "k0_pipeline", kerrqgt.scaling.k0_pipeline)
    assert main(["k0", "--out", str(tmp_path), "--L-list", "40,50,60,70,85",
                 "--ncut", "200", "--bracket", "1.05:1.45", "--ncut-list", "60,60,60,60,60"]) == 2
    assert capsys.readouterr().err == (
        "kerrqgt k0: error: the cutoff study needs distinct cutoffs, got [60, 60, 60, 60, 60]\n")
    assert k0_spies["rebuilt"] == []
    assert not (tmp_path / sweep.K0_REPORT_NAME).exists()


# ---------------------------------------------------------------------------
# Write order of run(), every mode at small sizes; k0 and collapse read a
# scaling report made beforehand in the same directory

SMALL_RUNS = {
    "phase-diagram": dict(size=200.0, n_cut=160, eps_range=(0.0, 1.2, 4),
                          phi_range=(0.0, 3.0, 2)),
    "qgt": dict(sizes=(60,), eps_range=(0.5, 0.9, 2), method="both", n_cut=160),
    "scaling": {k: v for k, v in K0_BASE.items() if k != "ncut_list"},
    "k0": K0_BASE,
    "collapse": {},
}


@pytest.mark.parametrize("mode", list(SMALL_RUNS))
def test_run_writes_manifest_last(tmp_path, monkeypatch, mode):
    if mode in ("k0", "collapse"):
        run(SweepConfig(mode="scaling", out_dir=str(tmp_path), **SMALL_RUNS["scaling"]))
    writes = []
    write = sweep.atomic_write_text
    monkeypatch.setattr(sweep, "atomic_write_text",
                        lambda path, text: writes.append(path) or write(path, text))
    files = run(SweepConfig(mode=mode, out_dir=str(tmp_path), **SMALL_RUNS[mode]))
    manifest = "manifest_collapse_g_ee" if mode == "collapse" else f"manifest_{mode}"
    assert files and writes == [*files, tmp_path / f"{manifest}.json"]
    outputs = json.loads(writes[-1].read_text())["outputs"]
    assert list(outputs) == [path.name for path in files]


def test_collapse_manifests_are_kept_per_observable(tmp_path, capsys):
    run(SweepConfig(mode="scaling", out_dir=str(tmp_path), **SMALL_RUNS["scaling"]))
    argv = ["collapse", "--out", str(tmp_path), "--observable"]
    for observable in ("g_ee", "f_ep"):
        main(argv + [observable])
        assert f"collapse_{observable}.json" in capsys.readouterr().out
    before = (tmp_path / "collapse_g_ee.json").stat().st_mtime_ns
    main(argv + ["g_ee"])
    printed = capsys.readouterr().out
    assert "are current" in printed and "wrote" not in printed
    assert (tmp_path / "collapse_g_ee.json").stat().st_mtime_ns == before
    for observable in ("g_ee", "f_ep"):
        manifest = json.loads((tmp_path / f"manifest_collapse_{observable}.json").read_text())
        assert list(manifest["outputs"]) == [f"collapse_{observable}.json"]


def _append_newline(out):
    path = out / sweep.SCALING_REPORT_NAME
    path.write_text(path.read_text() + "\n")


@pytest.mark.parametrize("damage, reason", [
    (None, None),
    (lambda out: (out / "manifest_scaling.json").unlink(), None),
    (_append_newline, "its sha256 differs from the one its manifest records"),
    (_other_version, f"its manifest is of version '0.0.9', not '{kerrqgt.__version__}'"),
], ids=["verified", "no-manifest", "edited", "other-version"])
def test_collapse_warns_of_a_report_its_manifest_does_not_certify(tmp_path, damage, reason):
    # the report is read in every case; a missing manifest is no reason to warn
    run(SweepConfig(mode="scaling", out_dir=str(tmp_path), **SMALL_RUNS["scaling"]))
    if damage:
        damage(tmp_path)
    assert run(SweepConfig(mode="collapse", out_dir=str(tmp_path)))
    assert _manifest_warnings(tmp_path, "collapse_g_ee") == ([] if reason is None else [
        f"scaling_report.json is read, but its manifest does not certify it: {reason}"])


PLOT_INPUTS = {"phase_diagram.csv": "phase-diagram", "qgt.csv": "qgt",
               "scaling_report.json": "scaling", "k0_report.json": "k0"}


@pytest.fixture(scope="module")
def plot_inputs(tmp_path_factory):
    """A directory with every plot input, each next to the manifest of its mode."""
    out = tmp_path_factory.mktemp("plot_inputs")
    for mode in PLOT_INPUTS.values():
        run(SweepConfig(mode=mode, out_dir=str(out), **SMALL_RUNS[mode]))
    return out


def _edit_inputs(out):
    for name in PLOT_INPUTS:
        (out / name).write_text((out / name).read_text() + "\n")


def _other_versions(out):
    for mode in PLOT_INPUTS.values():
        path = out / f"manifest_{mode}.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "version": "0.0.9"}))


def _drop_manifests(out):
    for mode in PLOT_INPUTS.values():
        (out / f"manifest_{mode}.json").unlink()


@pytest.mark.parametrize("damage, reason", [
    (None, None),
    (_drop_manifests, None),
    (_edit_inputs, "its sha256 differs from the one its manifest records"),
    (_other_versions, f"its manifest is of version '0.0.9', not '{kerrqgt.__version__}'"),
], ids=["verified", "no-manifest", "edited", "other-version"])
def test_plots_warn_of_inputs_their_manifests_do_not_certify(tmp_path, capsys, plot_inputs,
                                                             damage, reason):
    # every input is read and every script written in each case; a missing
    # manifest is no reason to warn
    shutil.copytree(plot_inputs, tmp_path, dirs_exist_ok=True)
    if damage:
        damage(tmp_path)
    assert main(["plots", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr()
    assert printed.err == "".join(
        f"kerrqgt plots: warning: {name} is read, but its manifest does not certify it: "
        f"{reason}\n" for name in PLOT_INPUTS if reason is not None)
    assert sorted(line.rpartition("/")[2] for line in printed.out.splitlines()) == [
        "plot_curvature.py", "plot_k0.py", "plot_phase_diagram.py", "plot_qgt_peaks.py",
        "plot_scaling_fits.py"]


def test_report_without_cutoffs_serves_k0_collapse_and_plots(tmp_path, monkeypatch):
    # A report written before the cutoff ladder has no diagnostics["cutoffs"];
    # the k0 study still reuses it, and collapse and plots still read it.
    files = run(SweepConfig(mode="scaling", out_dir=str(tmp_path),
                            **{k: v for k, v in K0_BASE.items() if k != "ncut_list"}))
    report = json.loads(files[0].read_text())
    assert set(report["diagnostics"].pop("cutoffs")) == {"peak", "family"}
    files[0].write_text(sweep.dumps_json(report))
    # as its own manifest would have recorded it
    manifest_path = tmp_path / "manifest_scaling.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"][files[0].name] = sweep.sha256_file(files[0])
    manifest_path.write_text(json.dumps(manifest))

    def rebuilt(**kwargs):
        raise AssertionError("the scaling report was rebuilt")

    monkeypatch.setattr(modes, "scaling_pipeline", rebuilt)
    assert run(SweepConfig(mode="k0", out_dir=str(tmp_path), **K0_BASE))
    k0 = json.loads((tmp_path / sweep.K0_REPORT_NAME).read_text())
    assert k0["diagnostics"]["scaling_eps_c_star"] == report["eps_c_star"]
    for observable in ("g_ee", "f_ep"):
        assert run(SweepConfig(mode="collapse", out_dir=str(tmp_path),
                               observable=observable))
    assert sorted(p.name for p in emit_plots(tmp_path)) == [
        "plot_curvature.py", "plot_k0.py", "plot_qgt_peaks.py", "plot_scaling_fits.py"]
