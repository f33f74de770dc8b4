"""Acceptance suite: every headline result at its stated tolerance.

Each criterion is one test that prints a single PASS/FAIL line (plus the
individual checks behind it).  The finite-size pipeline at the default sizes
runs once per session and is shared across criteria.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from kerrqgt import (
    ModelParams,
    collapse_objective,
    eig_tridiagonal,
    ground_state_row,
    k0_pipeline,
    normal_phase,
    qgt_fd_row,
    qgt_spectral,
    scaling_pipeline,
    sector_block,
    superradiant_phase,
)
from kerrqgt.cli import main
from kerrqgt.scaling import CurveFamily
from reference import (displaced_squeezed_cat, fidelity_susceptibility, fock_vector,
                       mean_photon, odd_block, qgt_sum_over_states, squeezed_vacuum_fock)

_timings = {}


def _report(name, checks):
    # pytest runs with -rP (see pyproject), so these lines appear in the
    # summary of passing runs as well as live with -s
    ok_all = all(ok for _, ok, _ in checks)
    lines = [f"[acceptance] {name}: {'PASS' if ok_all else 'FAIL'}"]
    lines += [f"    {'ok  ' if ok else 'FAIL'} {label}: {detail}"
              for label, ok, detail in checks]
    print("\n".join(lines))
    assert ok_all, f"{name} failed"


@pytest.fixture(scope="module")
def report():
    start = time.time()
    rep = scaling_pipeline()
    _timings["scaling"] = time.time() - start
    return rep


@pytest.fixture(scope="module")
def k0(report):
    start = time.time()
    rep = k0_pipeline(scaling=report)
    _timings["k0"] = time.time() - start
    return rep


def test_criterion_1_critical_point(report):
    elapsed = _timings["scaling"]
    ec = report.eps_c_star
    diag = report.diagnostics
    rescaled_peaks = np.asarray(diag["g_ee_peak"]) / np.asarray(diag["sizes"])
    _report("1 critical point", [
        ("eps_c* = 1.008 +/- 0.010", abs(ec - 1.008) <= 0.010, f"{ec:.6f}"),
        ("peak g_ee/L grows with L", bool(np.all(np.diff(rescaled_peaks) > 0)),
         np.array2string(rescaled_peaks, precision=4)),
        ("runtime <= 5 min", elapsed <= 300.0, f"{elapsed:.0f} s"),
    ])


def test_criterion_2_correlation_length(report):
    nu, dee = report.nu, report.delta_ee
    rel = abs(dee - 2.0 / nu) / (2.0 / nu)
    sigma = report.diagnostics["delta_ee_sigma"]
    _report("2 correlation-length exponent", [
        ("nu = 1.510 +/- 0.05", abs(nu - 1.510) <= 0.05, f"{nu:.5f}"),
        ("delta_ee = 1.325 +/- 0.05", abs(dee - 1.325) <= 0.05, f"{dee:.5f}"),
        ("2/nu consistency <= 3%", rel <= 0.03, f"{100 * rel:.3f}%"),
        ("delta_ee = 2/nu within drift uncertainty",
         abs(dee - 2.0 / nu) <= sigma, f"|diff| {abs(dee - 2/nu):.4f} <= {sigma:.4f}"),
    ])


def test_criterion_3_secondary_dimensions(report):
    dpp, dep = report.delta_pp, report.delta_ep
    nu_prime = report.diagnostics["f_collapse_optimum"]["nu"]
    d_eps, d_phi = report.delta_eps, report.delta_phi
    predicted = 2.0 - d_eps - d_phi
    _report("3 secondary dimensions", [
        ("delta_pp = 0.643 +/- 0.05", abs(dpp - 0.643) <= 0.05, f"{dpp:.5f}"),
        ("delta_ep = 1.0 +/- 0.05", abs(dep - 1.0) <= 0.05, f"{dep:.5f}"),
        ("curvature collapse nu' = 1.5 +/- 0.05", abs(nu_prime - 1.5) <= 0.05,
         f"{nu_prime:.5f}"),
        ("delta_eps = 0.3375 +/- 0.01", abs(d_eps - 0.3375) <= 0.01, f"{d_eps:.5f}"),
        ("delta_phi = 0.6785 +/- 0.02", abs(d_phi - 0.6785) <= 0.02, f"{d_phi:.5f}"),
        ("predicted curvature dimension = 0.984 +/- 0.03",
         abs(predicted - 0.984) <= 0.03, f"{predicted:.5f}"),
    ])


def test_criterion_4_collapse_quality(report):
    # Fig-2(b)-style comparison: ordinate tied to 2/nu, abscissa to 1/nu,
    # evaluated at this pipeline's fitted critical point (which criteria 1-2
    # pin to the quoted values within tolerance).
    diag = report.diagnostics
    family = CurveFamily(sizes=np.asarray(diag["sizes"]),
                         eps_grid=np.asarray(diag["family_eps_grid"]),
                         values=np.asarray(diag["family_g_ee"]),
                         observable="g_ee")
    ec, nu = report.eps_c_star, report.nu
    q_fit = collapse_objective(family, 2.0 / nu, nu, ec)
    ratios = {}
    for nu_wrong in (1.3, 1.7):
        q = collapse_objective(family, 2.0 / nu_wrong, nu_wrong, ec)
        ratios[nu_wrong] = q / q_fit
    _report("4 data-collapse quality", [
        (f"objective at nu={nu_wrong} at least 5x worse",
         ratios[nu_wrong] >= 5.0, f"{ratios[nu_wrong]:.1f}x")
        for nu_wrong in (1.3, 1.7)
    ])


def test_criterion_5_k0_study(k0):
    beta1_rel = abs(k0.beta1 - k0.beta1_prime) / k0.beta1
    beta2_rel = abs(k0.beta2 - k0.beta2_prime) / k0.beta2
    elapsed = _timings["k0"]
    _report("5 cutoff-scaling study (K=0)", [
        ("gamma1 = 3.996 +/- 0.05", abs(k0.gamma1 - 3.996) <= 0.05, f"{k0.gamma1:.5f}"),
        ("gamma2 = 2.997 +/- 0.05", abs(k0.gamma2 - 2.997) <= 0.05, f"{k0.gamma2:.5f}"),
        ("alpha = 0.998 +/- 0.01", abs(k0.alpha_exp - 0.998) <= 0.01,
         f"{k0.alpha_exp:.5f}"),
        ("delta_nbar = 0.330 +/- 0.02", abs(k0.delta_nbar - 0.330) <= 0.02,
         f"{k0.delta_nbar:.5f}"),
        ("|beta1 - beta1'|/beta1 <= 3%", beta1_rel <= 0.03, f"{100 * beta1_rel:.2f}%"),
        ("|beta2 - beta2'|/beta2 <= 3%", beta2_rel <= 0.03, f"{100 * beta2_rel:.2f}%"),
        ("fits not flagged (r^2 >= 0.99)", not k0.flagged,
         str(k0.diagnostics["r_squared"])),
        ("k0 stage runtime <= 2 min", elapsed <= 120.0, f"{elapsed:.0f} s"),
    ])


def test_criterion_6_property_suite():
    start = time.time()
    rng = np.random.default_rng(2024)
    checks = []

    # phi independence of |Q_jk| at 20 random points: the kernel at phi = 0
    # against the spectral sum at a random phi
    worst = 0.0
    for _ in range(20):
        p0 = ModelParams.from_size(float(rng.uniform(20, 150)),
                                   float(rng.uniform(0.1, 1.4)), n_cut=256)
        ref = qgt_spectral(p0)
        r = qgt_sum_over_states(p0, float(rng.uniform(0.05, 2 * np.pi)))
        for a, b in ((r.g_ee, ref.g_ee), (r.g_pp, ref.g_pp),
                     (abs(r.f_ep), abs(ref.f_ep))):
            if abs(b) > 1e-14:
                worst = max(worst, abs(a / b - 1.0))
    checks.append(("phi independence <= 1e-8 (20 points)", worst <= 1e-8,
                   f"worst {worst:.2e}"))

    # method triangle at 10 non-critical points
    worst = 0.0
    for _ in range(10):
        size = float(rng.uniform(80, 300))
        eps = float(rng.choice([rng.uniform(0.3, 0.9), rng.uniform(1.25, 1.5)]))
        p = ModelParams.from_size(size, eps, n_cut=400)
        spectral = qgt_spectral(p)
        fd = qgt_fd_row(ground_state_row([p]))[0]
        worst = max(worst,
                    abs(fd.g_ee / spectral.g_ee - 1.0),
                    abs(fd.g_pp / spectral.g_pp - 1.0),
                    abs(fd.f_ep / spectral.f_ep - 1.0))
    checks.append(("method triangle <= 1e-4 (10 points)", worst <= 1e-4,
                   f"worst {worst:.2e}"))

    # g_pp = Var(n)/4 (the kernel) against the spectral sum of |<u_n|dH/dphi|u0>|^2
    # at 50 random points, each at a random phase
    worst = 0.0
    for _ in range(50):
        p = ModelParams.from_size(float(rng.uniform(10, 100)),
                                  float(rng.uniform(0.05, 1.5)), n_cut=200)
        phi = float(rng.uniform(0, 2 * np.pi))
        spectral = qgt_spectral(p)
        if spectral.g_pp > 1e-14:
            worst = max(worst, abs(qgt_sum_over_states(p, phi).g_pp / spectral.g_pp - 1.0))
    checks.append(("g_pp = Var(n)/4 <= 1e-9 (50 points)", worst <= 1e-9,
                   f"worst {worst:.2e}"))

    # chi_F = g_ee at 10 points; chi_F comes from full_spectrum (dstev) overlaps
    worst = 0.0
    for _ in range(10):
        p = ModelParams.from_size(float(rng.uniform(200, 500)),
                                  float(rng.uniform(0.6, 1.0)), n_cut=400)
        worst = max(worst, abs(fidelity_susceptibility(p) / qgt_spectral(p).g_ee - 1.0))
    checks.append(("chi_F = g_ee <= 1e-5 (10 points)", worst <= 1e-5,
                   f"worst {worst:.2e}"))

    # analytic handoffs: fidelities and gaps
    fid_n, fid_s, gap_dev = 1.0, 1.0, 0.0
    for eps in (0.3, 0.6, 0.8):
        p = ModelParams.from_size(500, eps, n_cut=800)
        target = squeezed_vacuum_fock(normal_phase(1.0, eps).r, 800)
        fid_n = min(fid_n, abs(np.vdot(target, fock_vector(ground_state_row([p]), p))))
        even, odd = eig_tridiagonal(sector_block([p])), eig_tridiagonal(odd_block(p))
        cross = odd.eigenvalues[0, 0] - even.eigenvalues[0, 0]
        gap_dev = max(gap_dev, abs(cross / normal_phase(1.0, eps).omega_e - 1.0))
    for eps in (1.3, 2.0):
        p = ModelParams.from_size(500, eps, n_cut=800)
        gs = ground_state_row([p])
        sol = superradiant_phase(1.0, eps, size=500.0)
        cat = displaced_squeezed_cat(sol.alpha, sol.r, 800)
        fid_s = min(fid_s, abs(np.vdot(cat, fock_vector(gs, p))))
        gap_dev = max(gap_dev, abs(gs.gap[0] / sol.omega_e - 1.0))
    checks.append(("normal-phase handoff fidelity > 0.999", fid_n > 0.999,
                   f"min {fid_n:.6f}"))
    checks.append(("broken-phase handoff fidelity > 0.99", fid_s > 0.99,
                   f"min {fid_s:.6f}"))
    checks.append(("gaps match excitation energies within 5%", gap_dev <= 0.05,
                   f"worst {100 * gap_dev:.2f}%"))

    # eps = 0 closed forms to 1e-10
    worst = 0.0
    for kerr in (0.0, 0.01):
        r = qgt_spectral(ModelParams(kerr=kerr, eps=0.0, n_cut=64))
        expected = 1.0 / (2.0 * (2.0 + 2.0 * kerr) ** 2)
        worst = max(worst, abs(r.g_ee - expected), abs(r.g_pp), abs(r.f_ep))
    checks.append(("eps=0 closed forms to 1e-10", worst <= 1e-10, f"worst {worst:.2e}"))

    # order parameter at L = 2000
    p = ModelParams.from_size(2000, 1.3, n_cut=800)
    value = mean_photon(fock_vector(ground_state_row([p]), p)) / 2000.0
    ok_condensate = abs(value / 0.15 - 1.0) <= 0.05
    dark = max(mean_photon(fock_vector(ground_state_row([q]), q)) / 2000.0
               for q in (ModelParams.from_size(2000, eps, n_cut=800) for eps in (0.5, 0.9)))
    checks.append(("rho(eps=1.3, L=2000) = 0.15 within 5%", ok_condensate,
                   f"{value:.5f}"))
    checks.append(("rho < 1e-3 for eps <= 0.9 at L=2000", dark < 1e-3, f"max {dark:.2e}"))

    elapsed = time.time() - start
    checks.append(("property suite runtime < 1 min", elapsed < 60.0, f"{elapsed:.0f} s"))
    _report("6 property suite", checks)


CRITERION_7_ARGS = ["scaling", "--L-list", "40,50,60,70,85", "--ncut", "200",
                    "--bracket", "1.05:1.45", "--eps-window", "1.05:1.40",
                    "--eps-step", "0.002", "--threads", "2"]


def test_criterion_7_determinism(tmp_path):
    # Two fresh processes that differ only in their BLAS/OpenMP thread count,
    # and a run in this process after a first one has filled the sector cache
    # (a kernel that wrote into a cached array would change it).
    root = Path(__file__).resolve().parents[1]
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = {**os.environ, "PYTHONPATH": str(root / "src"),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "kerrqgt.cli", *CRITERION_7_ARGS,
                               "--out", str(out)], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs[f"{threads} BLAS thread(s)"] = (out / "scaling_report.json").read_bytes()
    assert main([*CRITERION_7_ARGS, "--out", str(tmp_path / "warm-up")]) == 0
    assert main([*CRITERION_7_ARGS, "--out", str(tmp_path / "warm")]) == 0
    outputs["warm cache"] = (tmp_path / "warm" / "scaling_report.json").read_bytes()
    first, *others = outputs.values()
    _report("7 determinism", [
        (f"scaling_report.json byte-identical for {' vs '.join(outputs)}",
         all(other == first for other in others), f"{len(first)} bytes"),
    ])
