"""Exception types shared across the package."""


class BracketError(ValueError):
    """A 1D search bracket does not contain an interior extremum."""


class WindowError(ValueError):
    """Rescaled curves share no abscissa overlap."""


class StepSizeError(ValueError):
    """A finite-difference step is too small (precision loss) or too large."""


class GapError(ValueError):
    """A sector gap is too small, relative to the spectral scale, for linear response."""


class EigenConvergenceError(RuntimeError):
    """The tridiagonal eigensolver failed to converge or missed its accuracy bounds."""


class CutoffError(ValueError):
    """A Fock-space construction does not fit below the requested cutoff."""


class FitError(ValueError):
    """Fit input is degenerate (e.g. constant data leaves an exponent unidentifiable)."""


class SchemaError(ValueError):
    """A data file is missing columns required by a consumer."""
