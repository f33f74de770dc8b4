"""Ground-state geometry of a parametrically driven Kerr resonator.

Exact diagonalization in the truncated Fock basis, the quantum geometric
tensor over the drive coordinates by linear response and gauge-invariant
finite differences, closed-form oracles in both phases, and the full
finite-size-scaling analysis (critical point, exponents, data collapse,
cutoff scaling at zero nonlinearity).
"""

__version__ = "0.1.0"

from .errors import (
    BracketError,
    CutoffError,
    EigenConvergenceError,
    FitError,
    GapError,
    InputError,
    SchemaError,
    StepSizeError,
    WindowError,
)
from .model import (
    ModelParams,
    TridiagonalBlock,
    pair_coupling,
    sector_block,
)
from .eigensolver import (
    GroundState,
    Spectrum,
    eig_tridiagonal,
    ground_state_row,
)
from .oracle import (
    NormalPhaseSolution,
    SuperradiantSolution,
    normal_phase,
    normal_phase_qgt_limit,
    superradiant_phase,
    superradiant_qgt_limit,
)
from .qgt import (
    QGTResult,
    qgt_fd_row,
    qgt_spectral,
    qgt_spectral_row,
)
from .scaling import (
    CollapseOptimum,
    CurveFamily,
    K0Report,
    PowerLawFit,
    ScalingReport,
    ShiftedPowerFit,
    collapse_objective,
    fit_power_law,
    k0_pipeline,
    locate_peak,
    optimize_collapse,
    scaling_pipeline,
)

__all__ = [
    "__version__",
    "ModelParams", "TridiagonalBlock", "pair_coupling", "sector_block",
    "GroundState", "Spectrum", "eig_tridiagonal", "ground_state_row",
    "NormalPhaseSolution", "SuperradiantSolution", "normal_phase",
    "normal_phase_qgt_limit", "superradiant_phase", "superradiant_qgt_limit",
    "QGTResult", "qgt_fd_row", "qgt_spectral", "qgt_spectral_row",
    "CollapseOptimum", "CurveFamily", "K0Report", "PowerLawFit", "ScalingReport",
    "ShiftedPowerFit", "collapse_objective", "fit_power_law", "k0_pipeline",
    "locate_peak", "optimize_collapse", "scaling_pipeline",
    "BracketError", "CutoffError", "EigenConvergenceError", "FitError",
    "GapError", "InputError", "SchemaError", "StepSizeError", "WindowError",
]
