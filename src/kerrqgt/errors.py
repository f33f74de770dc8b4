"""Exception types shared across the package."""


class InputError(ValueError):
    """The input of a run cannot be used; the CLI reports it as one line."""


class BracketError(InputError):
    """A 1D search bracket does not contain an interior extremum."""


class WindowError(InputError):
    """Rescaled curves share no abscissa overlap."""


class StepSizeError(ValueError):
    """A finite-difference step is too small (precision loss) or too large."""


class GapError(ValueError):
    """A ground row's sector gap is too small, relative to its spectral scale, for
    either tensor route: linear response or the overlap stencil."""


class EigenConvergenceError(RuntimeError):
    """The tridiagonal eigensolver failed to converge or missed its accuracy bounds."""


class CutoffError(InputError):
    """A Fock-space construction does not fit below the requested cutoff."""


class FitError(InputError):
    """Fit input is degenerate (e.g. constant data leaves an exponent unidentifiable)."""


class SchemaError(InputError):
    """A data file is missing columns required by a consumer."""
