"""Correctness gates of the benchmark, run on each iteration's output files
outside the timed region.

Every gate is one ``Check``.  A numeric gate also reports the share of its
tolerance it used, ``|value - reference| / tolerance`` (or ``value / limit``
for a one-sided bound); the benchmark's ``tolerance_used`` is the largest.
Dropped grid points and manifest warnings are failed checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

# Acceptance targets of criteria 1-5 (README "Acceptance suite").
PAPER_TARGETS = {
    "eps_c_star": (1.008, 0.010),
    "nu": (1.510, 0.05),
    "delta_ee": (1.325, 0.05),
    "delta_pp": (0.643, 0.05),
    "delta_ep": (1.0, 0.05),
    "nu_prime": (1.5, 0.05),
    "delta_eps": (0.3375, 0.01),
    "delta_phi": (0.6785, 0.02),
    "curvature_dimension": (0.984, 0.03),
    "gamma1": (3.996, 0.05),
    "gamma2": (2.997, 0.05),
    "alpha": (0.998, 0.01),
    "delta_nbar": (0.330, 0.02),
}
RELATIVE_CONSISTENCY = 0.03
COLLAPSE_RATIO_MIN = 5.0
PLOT_SCRIPTS = ("plot_qgt_peaks.py", "plot_scaling_fits.py", "plot_curvature.py",
                "plot_k0.py")

PHI_INVARIANCE = 1e-8
DARK_RHO_MAX = 1e-3
DARK_EPS_MAX = 0.9
ORACLE_EPS_MIN = 1.2
ORACLE_RELATIVE = 0.05

METHOD_RELATIVE = 1e-4
GRID_MATCH = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    used: float | None = None
    detail: str = ""


def within(name: str, value: float, target: float, tol: float) -> Check:
    used = abs(value - target) / tol
    return Check(name, used <= 1.0, used, f"{value:.6g} vs {target:g} +/- {tol:g}")


def at_most(name: str, value: float, limit: float) -> Check:
    used = value / limit
    return Check(name, used <= 1.0, used, f"{value:.3g} <= {limit:g}")


def holds(name: str, condition: bool, detail: str = "") -> Check:
    return Check(name, bool(condition), None, detail)


def summarize(checks: list[Check]) -> tuple[int, int, float]:
    """(attempted, failed, tolerance used)."""
    used = [c.used for c in checks if c.used is not None]
    return len(checks), sum(not c.ok for c in checks), max(used, default=0.0)


# ---------------------------------------------------------------------------
# Shared gates

def manifest_checks(out: Path, mode: str) -> list[Check]:
    """The manifest exists, every listed output hashes to its recorded digest,
    and each warning it carries is a failure."""
    path = out / f"manifest_{mode}.json"
    if not path.is_file():
        return [holds(f"manifest_{mode} present", False)]
    manifest = json.loads(path.read_text())
    outputs = manifest.get("outputs", {})
    checks = [holds(f"manifest_{mode} lists outputs", bool(outputs))]
    for name, digest in outputs.items():
        target = out / name
        ok = target.is_file() and hashlib.sha256(target.read_bytes()).hexdigest() == digest
        checks.append(holds(f"manifest_{mode} hash of {name}", ok))
    checks += [holds(f"manifest_{mode} warning", False, w) for w in manifest.get("warnings", [])]
    return checks


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def _match(rows: list[dict], keys: dict) -> list[dict]:
    return [r for r in rows
            if all(abs(float(r[k]) - v) <= GRID_MATCH * max(1.0, abs(v))
                   for k, v in keys.items())]


# ---------------------------------------------------------------------------
# Workload gates

def check_paper(out: Path, params: dict, steps: dict) -> list[Check]:
    """Acceptance criteria 1-5, report bookkeeping and the no-op rerun."""
    from kerrqgt.scaling import CurveFamily, collapse_objective

    report = json.loads((out / "scaling_report.json").read_text())
    k0 = json.loads((out / "k0_report.json").read_text())
    diag = report["diagnostics"]
    nu, dee = report["nu"], report["delta_ee"]
    values = {
        "eps_c_star": report["eps_c_star"], "nu": nu, "delta_ee": dee,
        "delta_pp": report["delta_pp"], "delta_ep": report["delta_ep"],
        "nu_prime": diag["f_collapse_optimum"]["nu"],
        "delta_eps": report["delta_eps"], "delta_phi": report["delta_phi"],
        "curvature_dimension": 2.0 - report["delta_eps"] - report["delta_phi"],
        "gamma1": k0["gamma1"], "gamma2": k0["gamma2"], "alpha": k0["alpha_exp"],
        "delta_nbar": k0["delta_nbar"],
    }
    checks = [within(name, values[name], *PAPER_TARGETS[name]) for name in PAPER_TARGETS]

    checks.append(at_most("2/nu consistency", abs(dee - 2.0 / nu) / (2.0 / nu),
                          RELATIVE_CONSISTENCY))
    checks.append(at_most("beta1 consistency",
                          abs(k0["beta1"] - k0["beta1_prime"]) / abs(k0["beta1"]),
                          RELATIVE_CONSISTENCY))
    checks.append(at_most("beta2 consistency",
                          abs(k0["beta2"] - k0["beta2_prime"]) / abs(k0["beta2"]),
                          RELATIVE_CONSISTENCY))
    rescaled = [g / L for g, L in zip(diag["g_ee_peak"], diag["sizes"])]
    checks.append(holds("peak g_ee/L grows with L",
                        all(b > a for a, b in zip(rescaled, rescaled[1:]))))

    family = CurveFamily(sizes=diag["sizes"], eps_grid=diag["family_eps_grid"],
                         values=diag["family_g_ee"], observable="g_ee")
    ec = report["eps_c_star"]
    best = collapse_objective(family, 2.0 / nu, nu, ec)
    for nu_wrong in (1.3, 1.7):
        ratio = collapse_objective(family, 2.0 / nu_wrong, nu_wrong, ec) / best
        checks.append(at_most(f"collapse at nu={nu_wrong} >= {COLLAPSE_RATIO_MIN:g}x worse",
                              COLLAPSE_RATIO_MIN / ratio, 1.0))

    checks.append(holds("k0 fits not flagged", k0["flagged"] is False))
    checks.append(holds("scaling report not degraded", diag["degraded"] is False))
    checks.append(holds("scaling sizes as requested",
                        diag["sizes"] == [float(s) for s in params["sizes"]]))
    checks.append(holds("k0 cutoffs as requested",
                        k0["diagnostics"]["ncut_list"] == list(params["ncut_list"])))
    checks += manifest_checks(out, "scaling") + manifest_checks(out, "k0")
    checks += [holds(f"{name} emitted", (out / name).is_file()) for name in PLOT_SCRIPTS]

    rerun = steps["rerun"]
    checks.append(holds("unchanged rerun writes no files", not rerun["changed"],
                        ", ".join(rerun["changed"])))
    checks.append(holds("unchanged rerun reports current outputs",
                        "are current" in rerun["stdout"]))
    return checks


def paper_points(out: Path) -> int:
    diag = json.loads((out / "scaling_report.json").read_text())["diagnostics"]
    k0 = json.loads((out / "k0_report.json").read_text())["diagnostics"]
    return (len(diag["sizes"]) * len(diag["family_eps_grid"]) + len(diag["sizes"])
            + len(k0["ncut_list"]))


def check_phase_diagram(out: Path, params: dict, steps: dict) -> list[Check]:
    """Every grid row present and unflagged; rho independent of phi, dark below
    threshold, and on the superradiant oracle far above it."""
    from kerrqgt.oracle import superradiant_phase

    rows = read_rows(out / "phase_diagram.csv")
    size = params["size"]
    checks = []
    for eps in params["eps"]:
        rhos = []
        for phi in params["phi"]:
            found = _match(rows, {"eps": eps, "phi": phi})
            ok = len(found) == 1 and found[0]["warn"] == ""
            checks.append(holds(f"row eps={eps:.4f} phi={phi:.4f}", ok,
                                found[0]["warn"] if len(found) == 1 else f"{len(found)} rows"))
            if len(found) == 1:
                rhos.append(float(found[0]["rho"]))
        if not rhos:
            continue
        ref = rhos[0]
        spread = max(abs(r - ref) for r in rhos) / abs(ref) if ref else max(map(abs, rhos))
        checks.append(at_most(f"rho phi-independent at eps={eps:.4f}", spread, PHI_INVARIANCE))
        if eps <= DARK_EPS_MAX:
            checks.append(at_most(f"rho dark at eps={eps:.4f}", max(rhos), DARK_RHO_MAX))
        if eps >= ORACLE_EPS_MIN:
            alpha = superradiant_phase(1.0, eps, size=size).alpha
            oracle = abs(alpha) ** 2 / size
            checks.append(at_most(f"rho vs oracle at eps={eps:.4f}",
                                  abs(max(rhos) / oracle - 1.0), ORACLE_RELATIVE))
    checks += manifest_checks(out, "phase-diagram")
    return checks


def phase_diagram_points(out: Path) -> int:
    return len(read_rows(out / "phase_diagram.csv"))


def check_qgt_both(out: Path, params: dict, steps: dict) -> list[Check]:
    """Both methods at every point, and the spectral sum agreeing with the
    finite-difference stencils."""
    rows = read_rows(out / "qgt.csv")
    checks = []
    for size in params["sizes"]:
        for eps in params["eps"]:
            found = {r["method"]: r for r in _match(rows, {"L": size, "eps": eps})}
            for method in ("spectral", "fd"):
                row = found.get(method)
                checks.append(holds(f"{method} row L={size} eps={eps:.5f}",
                                    row is not None and row["warn"] == "",
                                    "" if row is None else row["warn"]))
            if len(found) != 2:
                continue
            spec, fd = found["spectral"], found["fd"]
            for key in ("g_ee", "g_pp", "f_ep"):
                s, f = float(spec[key]), float(fd[key])
                checks.append(at_most(f"{key} fd vs spectral L={size} eps={eps:.5f}",
                                      abs(f / s - 1.0), METHOD_RELATIVE))
            g_ee = float(spec["g_ee"])
            checks.append(at_most(f"g_ep fd vs spectral L={size} eps={eps:.5f}",
                                  abs(float(fd["g_ep"]) - float(spec["g_ep"])) / g_ee,
                                  METHOD_RELATIVE))
    checks += manifest_checks(out, "qgt")
    return checks


def qgt_points(out: Path) -> int:
    return len({(r["L"], r["eps"]) for r in read_rows(out / "qgt.csv")})


CHECKS = {
    "paper": (check_paper, paper_points),
    "phase-diagram": (check_phase_diagram, phase_diagram_points),
    "qgt-both": (check_qgt_both, qgt_points),
}
