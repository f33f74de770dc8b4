"""Finite-size-scaling toolkit: peaks, extrapolations, exponents, data collapse.

Each pseudo-critical peak of g_ee is the root of its analytic slope
(qgt.g_ee_slope), bracketed by a coarse sign scan and found by Brent's method.
All fitters are deterministic, closed-form least squares combined with scanned
and golden-section 1D searches; no stochastic optimization is used anywhere.
The end-to-end pipelines assemble the critical point, the correlation-length
exponent, the scaling dimensions of the geometric tensor, the data-collapse
qualities, and the cutoff-scaling study without Kerr nonlinearity.  The
finite-Kerr pipeline solves each size at the smallest Fock cutoff of a fixed
ladder that the tail gate certifies, up to the cap it is given.  Its family
rows and peak steps go through the tensor kernels, which gap-gate every row
they read (qgt.GAP_FLOOR); a cutoff probe reads only the tail weight of an
ungated ground_state_row.

Two shortcuts skip work that cannot change a result, each checked in the
tests against the slow path it replaces, and each kept because taking it
out was measured to slow the pipeline:

* fit_shifted_power screens its grid exponents in closed form and computes
  the exact lstsq residual only for those within a rounding bound of the
  screened minimum (_scan_exponent; against the full exact scan,
  reference.scan_exponent and reference.fit_shifted_power).  The full scan
  made a warm bench-scale scaling_pipeline 3.3 ms (of 39 ms) slower;
* optimize_collapse passes the best seed value so far to collapse_objective,
  which stops a seed once a lower bound of its value exceeds it (against
  the unbounded reference.collapse_objective).  Unbounded seeds cost a
  further 3.3 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .eigensolver import ground_state_row
from .errors import BracketError, FitError, InputError, WindowError
from .model import ModelParams, TAIL_TOLERANCE
from .qgt import g_ee_slope, qgt_spectral, qgt_spectral_row, QGTResult

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

DEFAULT_SIZES = (300, 400, 500, 600, 700)
DEFAULT_N_CUT = 800
DEFAULT_PEAK_BRACKET = (0.99, 1.40)
DEFAULT_COLLAPSE_WINDOW = (0.95, 1.06)
DEFAULT_COLLAPSE_STEP = 1e-3
# the most eps points a collapse grid may have (the default grid has 111)
MAX_COLLAPSE_POINTS = 100_000
DEFAULT_K0_CUTOFFS = (200, 283, 400, 566, 800, 1131, 1600)
DRIFT_EXPONENT_RANGE = (0.1, 3.0)
DRIFT_EXPONENT_SCAN = 61
# Rounding bound of fit_shifted_power's exponent screen, in units of
# eps x sum(y^2): the screened and the lstsq residual of a grid exponent each
# differ from the exact one by a few such units (at most 3.4 of them between
# the two, over 6000 random fits of 3 to 7 points).
SCREEN_ROUNDING = 1024
PEAK_SCAN_POINTS = 8
PEAK_XTOL = 1e-12
BRENT_RTOL = 4 * float(np.finfo(float).eps)  # scipy brentq's defaults
BRENT_MAXITER = 100
COLLAPSE_SEED_GRID = (15, 9)  # (nu, eps_c*) points seeding the polish
# Fock cutoffs that scaling_pipeline may solve a row at below its cap n_cut:
# even rungs about 1.25x apart.  The cap itself is always the last rung.
CUTOFF_RUNGS = (40, 50, 64, 80, 100, 126, 158, 198, 248, 310, 388, 486, 608, 760,
                950, 1188, 1486, 1858)
# A rung passes a stage's probe when the tail weight there is at most
# CUTOFF_MARGIN x TAIL_TOLERANCE.
CUTOFF_MARGIN = 1e-4


# ---------------------------------------------------------------------------
# 1D searches

def golden_section_min(f: Callable[[float], float], lo: float, hi: float,
                       tol: float) -> tuple[float, float]:
    c = hi - GOLDEN * (hi - lo)
    d = lo + GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + GOLDEN * (hi - lo)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def brent_root(f: Callable[[float], float], xa: float, xb: float, xtol: float) -> float:
    """Root of f in [xa, xb] by Brent's method, ported from scipy's brentq.c:
    the same abscissae in the same order, so the root is always one that f was
    evaluated at.  Raises BracketError on a same-sign bracket, ValueError on a
    NaN value and RuntimeError after BRENT_MAXITER steps."""
    def value(x):
        if np.isnan(fx := float(f(x))):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if np.signbit(fpre) == np.signbit(fcur):
        raise BracketError(f"f({xa:.6g}) = {fpre:.6g} and f({xb:.6g}) = {fcur:.6g} have one sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and np.signbit(fpre) != np.signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = np.inf  # an inf step bisects
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's step is then inf or NaN
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry  # a good short step
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Brent's method did not converge in {BRENT_MAXITER} steps; last x={xcur}")


def nelder_mead(f: Callable[[np.ndarray], float], x0: Sequence[float], xatol: float,
                fatol: float, maxiter: int) -> tuple[np.ndarray, float]:
    """Minimum (x, f(x)) near x0 by scipy's non-adaptive Nelder-Mead without
    bounds, ported line for line (the same points in the same order); it stops
    within xatol and fatol of the best vertex or after maxiter iterations."""
    x0 = np.asarray(x0, dtype=float).ravel()
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(x) for x in sim], dtype=float)
    # scipy sorts the first simplex twice: here and at the loop's top
    ind = np.argsort(fsim)
    sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    for k in range(maxiter):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
        if k == maxiter - 1 or (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        # reflect, expand, contract and shrink by 1, 2, 1/2 and 1/2
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            inside = not fxr < fsim[-1]
            xc = 0.5 * xbar + 0.5 * sim[-1] if inside else 1.5 * xbar - 0.5 * sim[-1]
            fxc = f(xc)
            if fxc < fsim[-1] if inside else fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                fsim[1:] = [f(x) for x in sim[1:]]
    return sim[0], float(np.min(fsim))


def locate_peak(slope: Callable[[float], float], bracket: tuple[float, float]) -> float:
    """Maximum of a curve, found as the root of its slope.

    A sign scan of PEAK_SCAN_POINTS points from lo stops at the first interval
    where the slope turns from positive to non-positive; Brent's method then
    finds the root inside it (to PEAK_XTOL), reusing the two scanned endpoint
    values.

    Raises BracketError on an empty bracket, when the slope is not positive
    at lo (no rise into the bracket) and when it never turns (no interior
    maximum).
    """
    lo, hi = bracket
    if not hi > lo:
        raise BracketError(f"empty bracket {bracket}")
    xs = np.linspace(lo, hi, PEAK_SCAN_POINTS).tolist()
    known = {lo: slope(lo)}
    if not known[lo] > 0.0:
        raise BracketError(f"slope {known[lo]:.6g} is not positive at the bracket "
                           f"start {lo:.6g}; no rise into bracket {bracket}")
    for a, b in zip(xs, xs[1:]):
        known[b] = slope(b)
        if known[b] <= 0.0:
            return brent_root(lambda x: known[x] if x in known else slope(x), a, b,
                              xtol=PEAK_XTOL)
    raise BracketError(f"slope stays positive across bracket {bracket}; "
                       f"no interior maximum")


# ---------------------------------------------------------------------------
# Fits

@dataclass(frozen=True)
class ShiftedPowerFit:
    """Least-squares fit of y = limit + amplitude * x^exponent."""

    limit: float
    amplitude: float
    exponent: float
    residual: float
    boundary_warning: bool


def _profile_residual(x: np.ndarray, y: np.ndarray, b: float) -> float:
    """Least residual sum of squares of y = limit + amplitude * x^b at fixed b (lstsq)."""
    basis = np.column_stack([np.ones_like(x), x**b])
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return float(np.sum((basis @ coef - y) ** 2))


def _scan_exponent(x: np.ndarray, y: np.ndarray) -> int:
    """Index of the DRIFT_EXPONENT_SCAN grid exponent of least _profile_residual
    (the first, on a tie), as the full scan picks it.

    A closed-form screen, the centred residual Syy - Suy^2 / Suu of every grid
    exponent in one array pass, rules out each exponent whose screened residual
    exceeds the screened minimum by more than twice SCREEN_ROUNDING x eps x
    sum(y^2), a bound on the rounding error of either residual; the exact
    residual is computed for the rest only.  A NaN screen rules out nothing.
    """
    grid = np.linspace(*DRIFT_EXPONENT_RANGE, DRIFT_EXPONENT_SCAN)
    du = x ** grid[:, None]
    du -= du.mean(axis=1, keepdims=True)
    dy = y - y.mean()
    with np.errstate(divide="ignore", invalid="ignore"):
        screened = dy @ dy - (du @ dy) ** 2 / np.einsum("gn,gn->g", du, du)
    bound = 2.0 * SCREEN_ROUNDING * np.finfo(float).eps * (y @ y)
    near = np.flatnonzero(~(screened > screened.min() + bound))
    return int(near[int(np.argmin([_profile_residual(x, y, b) for b in grid[near]]))])


def fit_shifted_power(x: np.ndarray, y: np.ndarray) -> ShiftedPowerFit:
    """Profiled linear least squares over (limit, amplitude) with a scanned
    (_scan_exponent) and golden-refined search over the exponent in
    DRIFT_EXPONENT_RANGE.  Non-finite data raise FitError."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 3:
        raise FitError("shifted power fit needs at least 3 points")
    bad = ~(np.isfinite(x) & np.isfinite(y))
    if bad.any():
        raise FitError(f"non-finite fit data at points {np.flatnonzero(bad).tolist()}: "
                       f"x = {x[bad].tolist()}, y = {y[bad].tolist()}")
    if np.ptp(y) == 0.0:
        raise FitError(f"constant data y = {y[0]:.17g} at x = {x.tolist()} leaves "
                       f"the exponent unidentifiable")

    def residual(b):
        return _profile_residual(x, y, b)

    n_scan = DRIFT_EXPONENT_SCAN
    grid = np.linspace(*DRIFT_EXPONENT_RANGE, n_scan)
    i = _scan_exponent(x, y)
    b, _ = golden_section_min(residual, grid[max(i - 1, 0)], grid[min(i + 1, n_scan - 1)],
                              tol=1e-10)
    basis = np.column_stack([np.ones_like(x), x**b])
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    boundary = bool(i == 0 or i == n_scan - 1)
    return ShiftedPowerFit(limit=float(coef[0]), amplitude=float(coef[1]),
                           exponent=float(b), residual=residual(b),
                           boundary_warning=boundary)


def extrapolate_critical_point(sizes: Sequence[float],
                               eps_c_of_size: Sequence[float]) -> ShiftedPowerFit:
    """Fit eps_c(L) = eps_c* + a L^{-b}; the limit field is eps_c*."""
    sizes = np.asarray(sizes, dtype=float)
    eps_c = np.asarray(eps_c_of_size, dtype=float)
    if len(sizes) < 4:
        raise FitError("critical-point extrapolation needs at least 4 sizes")
    return fit_shifted_power(1.0 / sizes, eps_c)


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    prefactor: float
    r_squared: float


def fit_power_law(x: Sequence[float], y: Sequence[float]) -> PowerLawFit:
    """Ordinary least squares on (ln x, ln y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise FitError("power-law fit requires strictly positive data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    model = slope * lx + intercept
    ss_res = float(np.sum((ly - model) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return PowerLawFit(exponent=float(slope), prefactor=float(np.exp(intercept)),
                       r_squared=float(r2))


def nu_convergence(sizes: Sequence[float], values: Sequence[float]) -> ShiftedPowerFit:
    """Extrapolate per-size estimates to the infinite-size limit.

    Fits values = a (1/size)^b + c and returns c in the limit field; used for
    the correlation-length exponent and any other drifting local estimate.
    Three points make the fit exactly determined (the minimum-length case of
    secant slopes from four sizes); more points overdetermine it.
    """
    sizes = np.asarray(sizes, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(sizes) < 3:
        raise FitError("convergence extrapolation needs at least 3 points")
    return fit_shifted_power(1.0 / sizes, values)


def pair_slopes(sizes: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-log secant slopes of consecutive size pairs.

    Each secant is a centered estimate of d ln y / d ln L at the geometric
    mean of its pair, which is returned as the effective size.
    """
    sizes = np.asarray(sizes, dtype=float)
    values = np.asarray(values, dtype=float)
    slopes = np.diff(np.log(values)) / np.diff(np.log(sizes))
    effective = np.sqrt(sizes[1:] * sizes[:-1])
    return effective, slopes


def perturbation_dimensions(delta_ee: float, delta_pp: float,
                            delta_ep: float) -> tuple[float, float, float]:
    """Scaling dimensions of the two drive perturbations and a consistency gap.

    delta_j = (2 - delta_jj) / 2 for j in (eps, phi); the returned consistency
    is |delta_ep - (2 - delta_eps - delta_phi)|.
    """
    delta_eps = (2.0 - delta_ee) / 2.0
    delta_phi = (2.0 - delta_pp) / 2.0
    consistency = abs(delta_ep - (2.0 - delta_eps - delta_phi))
    return delta_eps, delta_phi, consistency


# ---------------------------------------------------------------------------
# Data collapse

@dataclass(frozen=True)
class CurveFamily:
    """Observable curves on a shared eps grid, one row per size."""

    sizes: np.ndarray
    eps_grid: np.ndarray
    values: np.ndarray
    observable: str

    def __post_init__(self):
        sizes = np.asarray(self.sizes, dtype=float)
        grid = np.asarray(self.eps_grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(sizes), len(grid)):
            raise ValueError("values must have shape (n_sizes, n_grid)")
        order = np.argsort(sizes, kind="stable")
        sizes, vals = sizes[order], vals[order]
        if len(sizes) < 2:
            raise ValueError("a curve family needs at least 2 sizes")
        if np.any(np.diff(sizes) <= 0):
            raise ValueError("sizes must be distinct")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("eps grid must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise ValueError("family contains non-finite values")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "eps_grid", grid)
        object.__setattr__(self, "values", vals)


def collapse_objective(family: CurveFamily, delta_jk: float, nu: float,
                       eps_c_star: float, *, above: float | None = None) -> float:
    """Spread of the rescaled curves around their pooled master curve.

    Curves are rescaled to y L^{-delta_jk} against x = (eps - eps_c*) L^{1/nu};
    each curve is compared with the piecewise-linear interpolant through all
    other curves' points, restricted to their abscissa range.  The mean squared
    deviation is normalized by the mean squared rescaled value, making the
    objective invariant under a common rescaling and hence comparable across
    different delta_jk.  Lower is better; zero means exact collapse.

    All points are sorted once per call.  A stable sort keeps ties in curve
    order, so dropping curve i from it gives the stable sort of the other
    curves.  Each curve's x is non-decreasing, so the points of curve i
    inside the others' range form one slice.

    With above given, the return is inf as soon as the value is certain to
    exceed above: after each curve, total / (C G) / scale is a lower bound
    of the value (C curves of G points; total only grows and at most C G
    points are counted), and rounding is monotone, so the bound holds in
    floating point too.  Any value at most above is returned exactly.
    """
    powers = np.array([(L ** (1.0 / nu), L ** (-delta_jk)) for L in family.sizes])
    xs = (family.eps_grid - eps_c_star) * powers[:, :1]
    ys = family.values * powers[:, 1:]
    scale = float((ys.ravel() ** 2).mean())
    bounded = above is not None and scale > 0.0
    order = np.argsort(xs.ravel(), kind="stable")
    sorted_x, sorted_y, labels = xs.ravel()[order], ys.ravel()[order], order // xs.shape[1]
    total, count = 0.0, 0
    for i, (x, y) in enumerate(zip(xs, ys)):
        others = labels != i
        other_x, other_y = sorted_x[others], sorted_y[others]
        first, last = other_x[0], other_x[-1]
        lo = int(x.searchsorted(first, side="left"))
        hi = int(x.searchsorted(last, side="right"))
        # A NaN bound (nu or eps_c* NaN) contains no point.
        if not (lo < hi and first <= last):
            continue
        interp = np.interp(x[lo:hi], other_x, other_y)
        total += float(((y[lo:hi] - interp) ** 2).sum())
        count += hi - lo
        if bounded and total / xs.size / scale > above:
            return np.inf
    if count == 0:
        raise WindowError("rescaled curves share no abscissa overlap")
    if scale == 0.0:
        raise WindowError("rescaled family is identically zero")
    return (total / count) / scale


@dataclass(frozen=True)
class CollapseOptimum:
    nu: float
    eps_c_star: float
    quality: float
    boundary_warning: bool


def optimize_collapse(family: CurveFamily, delta_jk: float,
                      nu_range: tuple[float, float],
                      ec_range: tuple[float, float]) -> CollapseOptimum:
    """Minimize the collapse objective over (nu, eps_c*) at the fixed ordinate
    exponent delta_jk.

    A coarse grid seeds a Nelder-Mead polish with a fixed initial
    simplex, so the result is deterministic.  Each seed is evaluated with the
    best value so far as collapse_objective's bound, so a seed that cannot
    win stops early; the seed kept is the first smallest value, as without
    the bound.
    """

    def objective(point, above=None):
        nu, ec = float(point[0]), float(point[1])
        if not (nu_range[0] <= nu <= nu_range[1] and ec_range[0] <= ec <= ec_range[1]):
            return np.inf
        try:
            return collapse_objective(family, delta_jk, nu, ec, above=above)
        except WindowError:
            return np.inf

    nus = np.linspace(nu_range[0], nu_range[1], COLLAPSE_SEED_GRID[0])
    ecs = np.linspace(ec_range[0], ec_range[1], COLLAPSE_SEED_GRID[1])
    best = None
    for n in nus:
        for e in ecs:
            value = objective((n, e), above=None if best is None else best[0])
            if best is None or value < best[0]:
                best = (value, n, e)
    if not np.isfinite(best[0]):
        raise WindowError("collapse objective is undefined everywhere on the seed grid")
    x, quality = nelder_mead(objective, [best[1], best[2]], xatol=1e-7, fatol=1e-16,
                             maxiter=800)
    nu, ec = float(x[0]), float(x[1])
    margin = 1e-3
    boundary = bool(
        nu - nu_range[0] < margin * (nu_range[1] - nu_range[0])
        or nu_range[1] - nu < margin * (nu_range[1] - nu_range[0])
        or ec - ec_range[0] < margin * (ec_range[1] - ec_range[0])
        or ec_range[1] - ec < margin * (ec_range[1] - ec_range[0]))
    return CollapseOptimum(nu=nu, eps_c_star=ec, quality=quality,
                           boundary_warning=boundary)


# ---------------------------------------------------------------------------
# End-to-end pipelines

@dataclass(frozen=True)
class ScalingReport:
    """Fitted critical point, exponent, and scaling dimensions with diagnostics.

    delta_ee is the converged (size-extrapolated) dimension, matching the
    convention that nu and delta_ee describe the infinite-size limit; the raw
    five-point fit is kept in diagnostics as delta_ee_global.  delta_pp and
    delta_ep are plain log-log fits of the values at the pseudo-critical
    points, where the drift is mild.
    """

    eps_c_star: float
    fit_a: float
    fit_b: float
    nu: float
    delta_ee: float
    delta_pp: float
    delta_ep: float
    delta_eps: float
    delta_phi: float
    collapse_quality_gee: float
    collapse_quality_fep: float
    diagnostics: dict = field(repr=False)


def sweep_family(sizes: Sequence[float], eps_grid: np.ndarray, n_cut: int,
                 delta: float = 1.0) -> list[list[QGTResult]]:
    """Spectral tensor on sizes x eps_grid, one row kernel call per size."""
    rows = ([ModelParams.from_size(L, e, n_cut=n_cut, delta=delta) for e in eps_grid]
            for L in sizes)
    return [qgt_spectral_row(ground_state_row(points)) for points in rows]


def _cutoff_ladder(cap: int) -> list[int]:
    """The rungs of CUTOFF_RUNGS below cap, then cap."""
    return [n for n in CUTOFF_RUNGS if n < cap] + [int(cap)]


def _solve_adaptive(ladder: list[int], start: int, probe: ModelParams,
                    solve: Callable[[int], object], tripped: Callable[[object], bool]):
    """(rung, result) of one stage of one size (a scaling stage or a qgt row).

    From rung start, the first rung below the cap at which the ground state of
    probe has tail weight at most CUTOFF_MARGIN x TAIL_TOLERANCE is solved
    (the cap if none is); while tripped(result), the stage moves up a rung and
    is solved again, up to the cap.
    """
    top = len(ladder) - 1
    rung = start
    while rung < top and not (
            ground_state_row([probe.replace(n_cut=ladder[rung])]).tail_weight[0]
            <= CUTOFF_MARGIN * TAIL_TOLERANCE):
        rung += 1
    result = solve(ladder[rung])
    while rung < top and tripped(result):
        rung += 1
        result = solve(ladder[rung])
    return rung, result


def scaling_pipeline(sizes: Sequence[float] = DEFAULT_SIZES,
                     n_cut: int = DEFAULT_N_CUT,
                     delta: float = 1.0,
                     peak_bracket: tuple[float, float] = DEFAULT_PEAK_BRACKET,
                     collapse_window: tuple[float, float] = DEFAULT_COLLAPSE_WINDOW,
                     collapse_step: float = DEFAULT_COLLAPSE_STEP) -> ScalingReport:
    """Full finite-size-scaling analysis at the given sizes.

    Stages: per-size peak location of g_ee, critical-point extrapolation,
    exponent fits (converged delta_ee and nu from secant slopes, global fits
    for delta_pp and delta_ep at the pseudo-critical points), the data-collapse
    qualities on a shared eps window, and the curvature-collapse optimum.
    An invalid collapse grid raises InputError before any point is computed.

    n_cut is a cap.  Each size's peak search and family row run at the
    cutoff _solve_adaptive picks from _cutoff_ladder(n_cut), probed at the
    top of the peak bracket and of the family grid and searched from the
    previous size's rung; diagnostics["cutoffs"] records them per kept size.
    """
    lo, hi = collapse_window
    if not (np.isfinite(collapse_step) and collapse_step > 0):
        raise InputError(f"collapse_step must be positive and finite, got {collapse_step}")
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise InputError(f"collapse_window must be finite with lo < hi, got {(lo, hi)}")
    if not (hi - lo) / collapse_step < MAX_COLLAPSE_POINTS:
        raise InputError(f"collapse grid of {(hi - lo) / collapse_step + 1:.3g} points exceeds "
                         f"{MAX_COLLAPSE_POINTS}; raise collapse_step or narrow "
                         f"collapse_window")
    sizes = np.asarray(sorted(sizes), dtype=float)
    if len(sizes) < 4:
        raise FitError("the scaling pipeline needs at least 4 sizes")
    if np.any(np.diff(sizes) == 0):
        raise FitError(f"the scaling pipeline needs distinct sizes, got {sizes.tolist()}")
    # a bad delta or cap raises ModelParams' InputError before any solve
    ModelParams(delta=delta, kerr=0.0, eps=0.0, n_cut=n_cut)

    ladder = _cutoff_ladder(n_cut)
    warnings: list[str] = []
    peak_eps, peak_results, peak_cuts = [], [], []
    rung = 0
    for L in sizes:
        def peak(n):
            ec = locate_peak(lambda e: g_ee_slope(ModelParams.from_size(
                L, e, n_cut=n, delta=delta)), peak_bracket)
            return ec, qgt_spectral(ModelParams.from_size(L, ec, n_cut=n, delta=delta))

        rung, (ec, res) = _solve_adaptive(
            ladder, rung, ModelParams.from_size(L, peak_bracket[1], delta=delta),
            peak, lambda found: found[1].cutoff_warning)
        if res.cutoff_warning:
            warnings.append(f"cutoff-inadequate point excluded: L={L:g} eps={ec:.6f}")
        peak_eps.append(ec)
        peak_results.append(res)
        peak_cuts.append(ladder[rung])

    keep = np.array([not r.cutoff_warning for r in peak_results])
    degraded = bool(np.any(~keep))
    sizes_kept = sizes[keep]
    if len(sizes_kept) < 4:
        raise FitError(f"fewer than 4 sizes survive the cutoff-adequacy gate: "
                       f"kept {sizes_kept.tolist()}, dropped {sizes[~keep].tolist()} "
                       f"(tail weight above {TAIL_TOLERANCE:g} at their peaks)")
    ecs = np.array(peak_eps)[keep]
    g_peak = np.array([r.g_ee for r in peak_results])[keep]
    gpp_peak = np.array([r.g_pp for r in peak_results])[keep]
    fep_peak = np.abs([r.f_ep for r in peak_results])[keep]
    nbar_peak = np.array([r.mean_n for r in peak_results])[keep]

    crit = extrapolate_critical_point(sizes_kept, ecs)
    if crit.boundary_warning:
        warnings.append("critical-point drift exponent at search-range boundary")

    eff_sizes, slopes = pair_slopes(sizes_kept, g_peak)
    dee_fit = nu_convergence(eff_sizes, slopes)
    nu_fit = nu_convergence(eff_sizes, 2.0 / slopes)
    for name, fit in (("delta_ee", dee_fit), ("nu", nu_fit)):
        if fit.boundary_warning:
            warnings.append(f"{name} drift exponent at search-range boundary")
    dee_global = fit_power_law(sizes_kept, g_peak)
    dpp_fit = fit_power_law(sizes_kept, gpp_peak)
    dep_fit = fit_power_law(sizes_kept, fep_peak)
    delta_eps, delta_phi, consistency = perturbation_dimensions(
        dee_fit.limit, dpp_fit.exponent, dep_fit.exponent)

    eps_grid = np.arange(collapse_window[0], collapse_window[1] + collapse_step / 2,
                         collapse_step)
    grid_results, family_cuts = [], []
    rung = 0
    for L in sizes_kept:
        rung, row = _solve_adaptive(
            ladder, rung, ModelParams.from_size(L, eps_grid[-1], delta=delta),
            lambda n: sweep_family([L], eps_grid, n, delta)[0],
            lambda row: any(r.cutoff_warning for r in row))
        grid_results.append(row)
        family_cuts.append(ladder[rung])
    flagged = [(L, e) for L, row in zip(sizes_kept, grid_results)
               for e, r in zip(eps_grid, row) if r.cutoff_warning]
    if flagged:
        degraded = True
        warnings.extend(f"cutoff-inadequate family point: L={L:g} eps={e:.6f}"
                        for L, e in flagged[:20])

    fam_g = CurveFamily(sizes=sizes_kept, eps_grid=eps_grid,
                        values=np.array([[r.g_ee for r in row] for row in grid_results]),
                        observable="g_ee")
    fam_f = CurveFamily(sizes=sizes_kept, eps_grid=eps_grid,
                        values=np.abs([[r.f_ep for r in row] for row in grid_results]),
                        observable="f_ep")
    quality_gee = collapse_objective(fam_g, dee_fit.limit, nu_fit.limit, crit.limit)
    quality_fep = collapse_objective(fam_f, dep_fit.exponent, nu_fit.limit, crit.limit)

    ec_span = (min(crit.limit - 0.01, float(np.min(ecs)) - 0.02),
               float(np.max(ecs)) + 0.01)
    f_optimum = optimize_collapse(fam_f, 1.0, (1.2, 1.9), ec_span)
    if f_optimum.boundary_warning:
        warnings.append("curvature collapse optimum at a search boundary")

    diagnostics = {
        "sizes": [float(s) for s in sizes_kept],
        "n_cut": int(n_cut),
        "cutoffs": {"peak": [n for n, k in zip(peak_cuts, keep) if k],
                    "family": family_cuts},
        "delta": float(delta),
        "peak_bracket": [float(peak_bracket[0]), float(peak_bracket[1])],
        "collapse_window": [float(collapse_window[0]), float(collapse_window[1])],
        "collapse_step": float(collapse_step),
        "eps_c_by_size": [float(v) for v in ecs],
        "g_ee_peak": [float(v) for v in g_peak],
        "g_pp_at_peak": [float(v) for v in gpp_peak],
        "f_ep_at_peak": [float(v) for v in fep_peak],
        "nbar_at_peak": [float(v) for v in nbar_peak],
        "pair_sizes": [float(v) for v in eff_sizes],
        "pair_slopes_gee": [float(v) for v in slopes],
        "delta_ee_global": dee_global.exponent,
        "delta_ee_sigma": abs(dee_global.exponent - dee_fit.limit),
        "delta_ee_fit": {"amplitude": dee_fit.amplitude, "exponent": dee_fit.exponent,
                         "residual": dee_fit.residual},
        "nu_fit": {"amplitude": nu_fit.amplitude, "exponent": nu_fit.exponent,
                   "residual": nu_fit.residual},
        "crit_fit_residual": crit.residual,
        "r_squared": {"delta_ee_global": dee_global.r_squared,
                      "delta_pp": dpp_fit.r_squared, "delta_ep": dep_fit.r_squared},
        "berry_dimension_consistency": consistency,
        "f_collapse_optimum": {"nu": f_optimum.nu, "eps_c_star": f_optimum.eps_c_star,
                               "quality": f_optimum.quality},
        "family_eps_grid": [float(v) for v in eps_grid],
        "family_g_ee": [[float(v) for v in row] for row in fam_g.values],
        "family_f_ep": [[float(v) for v in row] for row in fam_f.values],
        "degraded": degraded,
        "warnings": warnings,
    }
    return ScalingReport(
        eps_c_star=crit.limit, fit_a=crit.amplitude, fit_b=crit.exponent,
        nu=nu_fit.limit, delta_ee=dee_fit.limit, delta_pp=dpp_fit.exponent,
        delta_ep=dep_fit.exponent, delta_eps=delta_eps, delta_phi=delta_phi,
        collapse_quality_gee=quality_gee, collapse_quality_fep=quality_fep,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class K0Report:
    """Cutoff-scaling study at zero Kerr nonlinearity, tied back to the
    finite-Kerr pipeline through the photon-number scaling relations."""

    gamma1: float
    gamma2: float
    alpha_exp: float
    delta_nbar: float
    beta1: float
    beta2: float
    beta1_prime: float
    beta2_prime: float
    flagged: bool
    diagnostics: dict = field(repr=False)


def _k0_cutoffs(ncut_list: Sequence[float]) -> list[int]:
    """The cutoffs of the K = 0 study as sorted ints; FitError unless they
    are at least 5 distinct integral values (2.0 counts as 2)."""
    if not all(n == int(n) for n in ncut_list):
        raise FitError(f"ncut_list {list(ncut_list)} has a non-integral cutoff")
    ncut_list = sorted(int(n) for n in ncut_list)
    if len(ncut_list) < 5:
        raise FitError("the cutoff study needs at least 5 cutoffs")
    if len(set(ncut_list)) < len(ncut_list):
        raise FitError(f"the cutoff study needs distinct cutoffs, got {ncut_list}")
    return ncut_list


def k0_pipeline(scaling: ScalingReport,
                ncut_list: Sequence[int] = DEFAULT_K0_CUTOFFS,
                delta: float = 1.0) -> K0Report:
    """Cutoff scaling of the tensor at the K=0 critical drive eps = 1.

    Without Kerr nonlinearity the truncation itself plays the role of the
    system size, so the tail-weight gate is deliberately not applied here.
    eps is never taken above 1 in this mode.  The finite-Kerr part (the
    photon-number dimension and the scaling dimensions entering beta-prime)
    is read off scaling, the report of scaling_pipeline.
    """
    ncut_list = _k0_cutoffs(ncut_list)
    points = [qgt_spectral(ModelParams(delta=delta, kerr=0.0, eps=1.0, n_cut=nc))
              for nc in ncut_list]
    g_fit = fit_power_law(ncut_list, [p.g_ee for p in points])
    f_fit = fit_power_law(ncut_list, [abs(p.f_ep) for p in points])
    n_fit = fit_power_law(ncut_list, [p.mean_n for p in points])
    flagged = bool(min(g_fit.r_squared, f_fit.r_squared, n_fit.r_squared) < 0.99)

    diag = scaling.diagnostics
    eff_sizes, n_slopes = pair_slopes(np.asarray(diag["sizes"]),
                                      np.asarray(diag["nbar_at_peak"]))
    dn_fit = nu_convergence(eff_sizes, n_slopes)
    delta_nbar = dn_fit.limit

    beta1 = n_fit.exponent * g_fit.exponent
    beta2 = n_fit.exponent * f_fit.exponent
    beta1_prime = scaling.delta_ee / delta_nbar
    beta2_prime = scaling.delta_ep / delta_nbar

    diagnostics = {
        "ncut_list": [int(n) for n in ncut_list],
        "g_ee": [float(p.g_ee) for p in points],
        "f_ep": [float(abs(p.f_ep)) for p in points],
        "nbar": [float(p.mean_n) for p in points],
        "r_squared": {"gamma1": g_fit.r_squared, "gamma2": f_fit.r_squared,
                      "alpha": n_fit.r_squared},
        "nbar_pair_sizes": [float(v) for v in eff_sizes],
        "nbar_pair_slopes": [float(v) for v in n_slopes],
        "delta_nbar_fit": {"amplitude": dn_fit.amplitude, "exponent": dn_fit.exponent,
                           "residual": dn_fit.residual,
                           "boundary_warning": dn_fit.boundary_warning},
        "scaling_eps_c_star": scaling.eps_c_star,
        "scaling_delta_ee": scaling.delta_ee,
        "scaling_delta_ep": scaling.delta_ep,
    }
    return K0Report(gamma1=g_fit.exponent, gamma2=f_fit.exponent,
                    alpha_exp=n_fit.exponent, delta_nbar=delta_nbar,
                    beta1=beta1, beta2=beta2,
                    beta1_prime=beta1_prime, beta2_prime=beta2_prime,
                    flagged=flagged, diagnostics=diagnostics)
