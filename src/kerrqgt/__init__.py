"""Ground-state geometry of a parametrically driven Kerr resonator.

Exact diagonalization in the truncated Fock basis, the quantum geometric
tensor over the drive coordinates by linear response and gauge-invariant
finite differences, closed-form oracles in both phases, and the full
finite-size-scaling analysis (critical point, exponents, data collapse,
cutoff scaling at zero nonlinearity).

The public names in ``__all__`` resolve on first access (PEP 562): ``import
kerrqgt`` loads no numpy, and ``kerrqgt.X`` imports the module that defines X.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the module that defines them, in the order of __all__
_EXPORTS = {
    "model": ("ModelParams", "TridiagonalBlock", "pair_coupling", "sector_block"),
    "eigensolver": ("GroundState", "Spectrum", "eig_tridiagonal", "ground_state_row"),
    "oracle": ("NormalPhaseSolution", "SuperradiantSolution", "normal_phase",
               "normal_phase_qgt_limit", "superradiant_phase", "superradiant_qgt_limit"),
    "qgt": ("QGTResult", "qgt_fd_row", "qgt_spectral", "qgt_spectral_row"),
    "scaling": ("CollapseOptimum", "CurveFamily", "K0Report", "PowerLawFit", "ScalingReport",
                "ShiftedPowerFit", "collapse_objective", "fit_power_law", "k0_pipeline",
                "locate_peak", "optimize_collapse", "scaling_pipeline"),
    "errors": ("BracketError", "CutoffError", "EigenConvergenceError", "FitError",
               "GapError", "InputError", "SchemaError", "StepSizeError", "WindowError"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
