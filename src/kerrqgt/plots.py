"""Emission of self-contained matplotlib scripts for the standard figures.

Each generated script reads only data files written by ``sweep.run`` and
saves a PNG next to the data; all are built from one template (_script).
Generation fails with SchemaError, before any script is written, when an
input file cannot be read or lacks a required column or key; of the scripts,
only the phase-diagram one checks its input again.  An input that the
manifest of the mode writing it does not certify (sweep.uncertified) is still
read, with a warning on stderr; one without a manifest is read silently.
"""

from __future__ import annotations

import sys
from pathlib import Path

from .errors import SchemaError
from .sweep import (K0_REPORT_NAME, PHASE_DIAGRAM_COLUMNS, QGT_COLUMNS, SCALING_REPORT_NAME,
                    atomic_write_text, read_csv, read_report, uncertified)


def _script(doc: str, data_file: str, body: str, png: str) -> str:
    """A plot script with docstring doc: it reads data_file next to it (a CSV
    as rows, a JSON report as report and its diagnostics as diag), runs body,
    which draws on fig, and saves fig there as png."""
    module, read = "csv", f'rows = list(csv.DictReader(open(here / "{data_file}")))\n'
    if data_file.endswith(".json"):
        module, read = "json", (f'report = json.loads((here / "{data_file}").read_text())\n'
                                'diag = report["diagnostics"]\n')
    return (f'"""{doc}"""\nimport {module}\nfrom pathlib import Path\n\n'
            'import matplotlib\nmatplotlib.use("Agg")\nimport matplotlib.pyplot as plt\n'
            'import numpy as np\n\nhere = Path(__file__).resolve().parent\n'
            + read + body
            + f'fig.tight_layout()\nfig.savefig(here / "{png}", dpi=160)\n'
            f'print("wrote", here / "{png}")\n')


_PHASE_SCRIPT = _script("Phase diagram: order parameter rho over the (eps, phi) grid.",
                        "phase_diagram.csv", '''\
required = ["eps", "phi", "L", "ncut", "mean_n", "rho", "warn"]
missing = [c for c in required if c not in rows[0]]
if missing:
    raise SystemExit(f"phase_diagram.csv is missing columns: {missing}")

eps = np.array([float(r["eps"]) for r in rows])
phi = np.array([float(r["phi"]) for r in rows])
rho = np.array([float(r["rho"]) for r in rows])
eps_ax = np.unique(eps)
phi_ax = np.unique(phi)
grid = rho.reshape(len(eps_ax), len(phi_ax))

fig, (ax0, ax1) = plt.subplots(1, 2, figsize=(10, 4))
mesh = ax0.pcolormesh(eps_ax, phi_ax, grid.T, shading="nearest", cmap="viridis")
fig.colorbar(mesh, ax=ax0, label=r"$\\rho = \\langle n \\rangle / L$")
ax0.set_xlabel(r"$\\varepsilon$")
ax0.set_ylabel(r"$\\phi$")
ax0.set_title("order parameter")
for j in range(0, len(phi_ax), max(1, len(phi_ax) // 4)):
    ax1.plot(eps_ax, grid[:, j], label=rf"$\\phi$ = {phi_ax[j]:.2f}")
ax1.set_xlabel(r"$\\varepsilon$")
ax1.set_ylabel(r"$\\rho$")
ax1.legend(fontsize=8)
''', "phase_diagram.png")

_PEAKS_SCRIPT = _script(
    "Rescaled metric curves with the extrapolated critical point, plus collapse.",
    "scaling_report.json", '''\
sizes = np.array(diag["sizes"])
grid = np.array(diag["family_eps_grid"])
gee = np.array(diag["family_g_ee"])
nu, ec = report["nu"], report["eps_c_star"]

fig, (ax0, ax1) = plt.subplots(1, 2, figsize=(10, 4))
for i, L in enumerate(sizes):
    ax0.plot(grid, gee[i] / L, label=f"L = {L:g}")
ax0.set_xlabel(r"$\\varepsilon$")
ax0.set_ylabel(r"$g_{\\varepsilon\\varepsilon} / L$")
ax0.legend(fontsize=8, loc="upper right")
inset = ax0.inset_axes([0.14, 0.52, 0.33, 0.4])
inset.plot(1.0 / sizes, diag["eps_c_by_size"], "o", ms=3)
xs = np.linspace(0, float(np.max(1.0 / sizes)), 100)
inset.plot(xs, report["eps_c_star"] + report["fit_a"] * xs ** report["fit_b"], "-")
inset.set_xlabel("1/L", fontsize=7)
inset.set_ylabel(r"$\\varepsilon_c(L)$", fontsize=7)
inset.tick_params(labelsize=6)

for i, L in enumerate(sizes):
    x = (grid - ec) * L ** (1.0 / nu)
    ax1.plot(x, gee[i] * L ** (-2.0 / nu), label=f"L = {L:g}")
ax1.set_xlabel(r"$L^{1/\\nu} (\\varepsilon - \\varepsilon_c^*)$")
ax1.set_ylabel(r"$g_{\\varepsilon\\varepsilon} L^{-2/\\nu}$")
ax1.set_title(f"collapse at nu = {nu:.3f}, eps_c* = {ec:.4f}")
ax1.legend(fontsize=8)
''', "qgt_peaks.png")

_FITS_SCRIPT = _script("Exponent fits: local correlation-length estimates and the g_pp dimension.",
                       "scaling_report.json", '''\
sizes = np.array(diag["sizes"])
pair_sizes = np.array(diag["pair_sizes"])
nus = 2.0 / np.array(diag["pair_slopes_gee"])

fig, (ax0, ax1) = plt.subplots(1, 2, figsize=(10, 4))
ax0.plot(1.0 / pair_sizes, nus, "o", label="local estimates")
fit = diag["nu_fit"]
xs = np.linspace(0, float(np.max(1.0 / pair_sizes)), 200)
ax0.plot(xs, report["nu"] + fit["amplitude"] * xs ** fit["exponent"], "-",
         label=f"fit, limit {report['nu']:.4f}")
ax0.set_xlabel("1/L")
ax0.set_ylabel(r"$\\nu$")
ax0.legend(fontsize=8)

gpp = np.array(diag["g_pp_at_peak"])
ax1.plot(np.log(sizes), np.log(gpp), "o")
slope = report["delta_pp"]
b = np.mean(np.log(gpp) - slope * np.log(sizes))
ax1.plot(np.log(sizes), slope * np.log(sizes) + b, "-", label=f"slope {slope:.4f}")
ax1.set_xlabel("ln L")
ax1.set_ylabel(r"$\\ln g_{\\phi\\phi}$")
ax1.legend(fontsize=8)
''', "scaling_fits.png")

_CURVATURE_SCRIPT = _script("Berry curvature curves and their collapse at fixed dimension 1.",
                            "scaling_report.json", '''\
sizes = np.array(diag["sizes"])
grid = np.array(diag["family_eps_grid"])
fep = np.array(diag["family_f_ep"])
opt = diag["f_collapse_optimum"]

fig, (ax0, ax1) = plt.subplots(1, 2, figsize=(10, 4))
for i, L in enumerate(sizes):
    ax0.plot(grid, fep[i] / L, label=f"L = {L:g}")
ax0.set_xlabel(r"$\\varepsilon$")
ax0.set_ylabel(r"$|F_{\\varepsilon\\phi}| / L$")
ax0.legend(fontsize=8)

for i, L in enumerate(sizes):
    x = (grid - opt["eps_c_star"]) * L ** (1.0 / opt["nu"])
    ax1.plot(x, fep[i] / L, label=f"L = {L:g}")
ax1.set_xlabel(r"$L^{1/\\nu'} (\\varepsilon - \\varepsilon_c^*)$")
ax1.set_ylabel(r"$|F_{\\varepsilon\\phi}| L^{-\\Delta_{\\varepsilon\\phi}}$")
ax1.set_title(f"collapse at nu' = {opt['nu']:.3f}")
ax1.legend(fontsize=8)
''', "curvature.png")

_K0_SCRIPT = _script("Cutoff-scaling panels at zero Kerr nonlinearity (log-log fits).",
                     "k0_report.json", '''\
nc = np.array(diag["ncut_list"], dtype=float)

panels = [
    ("g_ee", report["gamma1"], "g_ee"),
    ("f_ep", report["gamma2"], "|F|"),
    ("nbar", report["alpha_exp"], "nbar"),
]
fig, axes = plt.subplots(2, 2, figsize=(9, 7))
for ax, (key, slope, label) in zip(axes.flat, panels):
    y = np.array(diag[key])
    ax.plot(np.log(nc), np.log(y), "o")
    b = np.mean(np.log(y) - slope * np.log(nc))
    ax.plot(np.log(nc), slope * np.log(nc) + b, "-", label=f"slope {slope:.4f}")
    ax.set_xlabel(r"$\\ln N_{cut}$")
    ax.set_ylabel(f"ln {label}")
    ax.legend(fontsize=8)

ax = axes.flat[3]
ax.plot(1.0 / np.array(diag["nbar_pair_sizes"]), diag["nbar_pair_slopes"], "o",
        label="local exponents")
ax.axhline(report["delta_nbar"], ls="--", label=f"limit {report['delta_nbar']:.4f}")
ax.set_xlabel("1/L")
ax.set_ylabel("photon-number exponent")
ax.legend(fontsize=8)
''', "k0_scaling.png")


def _check_schema(path: Path, keys: list[str], diag_keys: list[str]) -> None:
    """SchemaError unless path has every key: of a CSV, as a column; of a
    report, at its top level, and every diag_key in its diagnostics."""
    if path.suffix == ".csv":
        header, _ = read_csv(path)
        missing = [f"column {key!r}" for key in keys if key not in header]
    else:
        diag = read_report(path, keys).get("diagnostics", {})
        missing = [f"key 'diagnostics.{key}'" for key in diag_keys if key not in diag]
    if missing:
        raise SchemaError(f"{path.name} is missing required {missing[0]}")


# each input: the mode whose manifest certifies it, its required keys and
# diagnostics keys (or CSV columns), and the scripts drawn from it
_INPUTS = {
    "phase_diagram.csv": ("phase-diagram", PHASE_DIAGRAM_COLUMNS, [],
                          {"plot_phase_diagram.py": _PHASE_SCRIPT}),
    "qgt.csv": ("qgt", QGT_COLUMNS, [], {}),
    SCALING_REPORT_NAME: ("scaling", ["eps_c_star", "nu", "fit_a", "fit_b", "delta_pp"],
                          ["family_eps_grid", "family_g_ee", "family_f_ep", "pair_sizes",
                           "pair_slopes_gee", "eps_c_by_size", "g_pp_at_peak",
                           "f_collapse_optimum", "nu_fit"],
                          {"plot_qgt_peaks.py": _PEAKS_SCRIPT,
                           "plot_scaling_fits.py": _FITS_SCRIPT,
                           "plot_curvature.py": _CURVATURE_SCRIPT}),
    K0_REPORT_NAME: ("k0", ["gamma1", "gamma2", "alpha_exp", "delta_nbar"],
                     ["ncut_list", "g_ee", "f_ep", "nbar", "nbar_pair_sizes",
                      "nbar_pair_slopes"], {"plot_k0.py": _K0_SCRIPT}),
}


def emit_plots(out_dir) -> list[Path]:
    """Write one plot script per figure whose input data exists in out_dir."""
    out = Path(out_dir)
    scripts = {}
    for name, (mode, keys, diag_keys, figures) in _INPUTS.items():
        if (out / name).exists():
            _check_schema(out / name, keys, diag_keys)
            if warning := uncertified(out / name, mode):
                print(f"kerrqgt plots: warning: {warning}", file=sys.stderr)
            scripts.update(figures)
    for name, script in scripts.items():
        atomic_write_text(out / name, script)
    return [out / name for name in scripts]
