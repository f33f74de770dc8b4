"""Finite-size-scaling toolkit: peaks, extrapolations, exponents, data collapse.

Each pseudo-critical peak of g_ee is the root of its analytic slope
(qgt.g_ee_slope), bracketed by a coarse sign scan and found by Brent's method.
Every fit is one closed-form least-squares line (_line), alone or profiled
over a scanned and golden-section exponent; no stochastic optimization is
used anywhere.

scaling_pipeline runs in stages: _peaks (the tensor at each size's peak),
fit_peaks (the critical point, the correlation-length exponent and the
scaling dimensions of the geometric tensor, fitted to the peaks alone, so a
refit on fewer sizes solves nothing), the family rows (the tensor on the
collapse window), then the data-collapse qualities.  k0_pipeline, the
cutoff-scaling study without Kerr nonlinearity, takes delta_nbar from the
same drift_fit as delta_ee.  The finite-Kerr stages solve each size at the
smallest Fock cutoff of a fixed ladder that the tail gate certifies, up to
the cap they are given.  The family rows and peak steps go through the
tensor kernels, which gap-gate every row they read (qgt.GAP_FLOOR); a cutoff
probe reads only the tail weight of an ungated ground_state_row.

fit_shifted_power scans its grid exponents exactly, the centred _line
residual of every one in one array pass (against the reference residuals,
reference.scan_exponent and reference.fit_shifted_power).  One shortcut
skips work that cannot change a result, checked in the tests against the
slow path it replaces and kept because taking it out was measured to slow
the pipeline: optimize_collapse passes the best seed value so far to
collapse_objective, which stops a seed once a lower bound of its value
exceeds it (against the unbounded reference.collapse_objective).  Unbounded
seeds made a warm bench-scale scaling_pipeline 3.3 ms (of 39 ms) slower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .eigensolver import ground_state_row
from .errors import BracketError, FitError, InputError, WindowError
from .model import ModelParams, TAIL_TOLERANCE
from .qgt import g_ee_slope, qgt_spectral, qgt_spectral_row, QGTResult
from .sweep import (DEFAULT_COLLAPSE_STEP, DEFAULT_COLLAPSE_WINDOW, DEFAULT_K0_CUTOFFS,
                    DEFAULT_N_CUT, DEFAULT_PEAK_BRACKET, DEFAULT_SIZES)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# the most points of any grid: collapse eps (111 by default), eps x phi, size x eps
MAX_GRID_POINTS = 100_000
DRIFT_EXPONENT_RANGE = (0.1, 3.0)
DRIFT_EXPONENT_SCAN = 61
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
    """Root of f in [xa, xb] by Brent's method, a port of scipy's brentq.c:
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


def _line(u: np.ndarray, y: np.ndarray) -> tuple:
    """(intercept, slope, residual) of the least-squares line y = intercept +
    slope * u along the last axis of u, for each row of its leading axes.

    Centred: the slope is du.dy / du.du of the deviations from the means, and
    the residual sum of squares is summed over the centred residuals
    dy - slope du in a second pass.
    """
    u_mean, y_mean = u.mean(axis=-1, keepdims=True), y.mean()
    du, dy = u - u_mean, y - y_mean
    slope = (du * dy).sum(axis=-1) / (du * du).sum(axis=-1)
    residual = ((dy - slope[..., None] * du) ** 2).sum(axis=-1)
    return y_mean - slope * u_mean[..., 0], slope, residual


def _scan_exponent(x: np.ndarray, y: np.ndarray) -> int:
    """Index of the DRIFT_EXPONENT_SCAN grid exponent of least residual (the
    first, on a tie): the exact _line residual of every grid exponent in one
    array pass.  FitError unless every residual is finite, as when x is
    constant (no slope) or x^b is not real (x < 0) or overflows."""
    grid = np.linspace(*DRIFT_EXPONENT_RANGE, DRIFT_EXPONENT_SCAN)
    with np.errstate(all="ignore"):
        residuals = _line(x ** grid[:, None], y)[2]
    if not np.isfinite(residuals).all():
        raise FitError(f"x^b is constant or not finite at a scanned exponent b "
                       f"for x = {x.tolist()}")
    return int(np.argmin(residuals))


def fit_shifted_power(x: np.ndarray, y: np.ndarray) -> ShiftedPowerFit:
    """Profiled linear least squares (_line) over (limit, amplitude) with a
    scanned (_scan_exponent) and golden-refined search over the exponent in
    DRIFT_EXPONENT_RANGE.  Non-finite data, constant y, and x for which x^b
    is constant or not finite at a grid exponent (_scan_exponent) raise
    FitError."""
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

    n_scan = DRIFT_EXPONENT_SCAN
    grid = np.linspace(*DRIFT_EXPONENT_RANGE, n_scan)
    i = _scan_exponent(x, y)
    b, _ = golden_section_min(lambda b: float(_line(x**b, y)[2]),
                              grid[max(i - 1, 0)], grid[min(i + 1, n_scan - 1)], tol=1e-10)
    limit, amplitude, residual = _line(x**b, y)
    return ShiftedPowerFit(limit=float(limit), amplitude=float(amplitude),
                           exponent=float(b), residual=float(residual),
                           boundary_warning=bool(i == 0 or i == n_scan - 1))


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    prefactor: float
    r_squared: float


def fit_power_law(x: Sequence[float], y: Sequence[float]) -> PowerLawFit:
    """Ordinary least squares (_line) on (ln x, ln y).  Data that are not
    positive and finite, and constant x, raise FitError."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    bad = ~((x > 0) & (y > 0) & np.isfinite(x) & np.isfinite(y))
    if bad.any():
        raise FitError(f"power-law fit requires positive finite data; points "
                       f"{np.flatnonzero(bad).tolist()}: x = {x[bad].tolist()}, "
                       f"y = {y[bad].tolist()}")
    if np.ptp(x) == 0.0:
        raise FitError(f"constant data x = {x[0]:.17g} at y = {y.tolist()} leaves "
                       f"the exponent unidentifiable")
    lx, ly = np.log(x), np.log(y)
    intercept, slope, ss_res = _line(lx, ly)
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return PowerLawFit(exponent=float(slope), prefactor=float(np.exp(intercept)),
                       r_squared=float(r2))


def drift_fit(sizes: Sequence[float],
              values: Sequence[float]) -> tuple[np.ndarray, np.ndarray, ShiftedPowerFit]:
    """(pair_sizes, slopes, fit) of the size-extrapolated log-log slope of values.

    Each secant slope of consecutive sizes is a centred estimate of
    d ln y / d ln L at the geometric mean of its pair, its pair size;
    fit_shifted_power(1 / pair_sizes, slopes) carries the slope to infinite
    size in its limit field; four sizes (three slopes) determine it exactly.
    """
    sizes = np.asarray(sizes, dtype=float)
    slopes = np.diff(np.log(np.asarray(values, dtype=float))) / np.diff(np.log(sizes))
    pair_sizes = np.sqrt(sizes[1:] * sizes[:-1])
    return pair_sizes, slopes, fit_shifted_power(1.0 / pair_sizes, slopes)


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
    the bound.  A nu_range that is not 0 < lo < hi raises InputError.
    """
    if not 0 < nu_range[0] < nu_range[1] < np.inf:  # the sizes are rescaled by L^(1/nu)
        raise InputError(f"nu_range ({nu_range[0]}, {nu_range[1]}) must be 2 finite numbers "
                         f"0 < lo < hi")

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


def sweep_family(sizes: Sequence[float], eps_grid: np.ndarray,
                 n_cut: int) -> list[list[QGTResult]]:
    """Spectral tensor on sizes x eps_grid, one row kernel call per size."""
    rows = ([ModelParams.from_size(L, e, n_cut=n_cut) for e in eps_grid] for L in sizes)
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


def _solve_sizes(sizes: np.ndarray, ladder: list[int], top: float,
                 solve: Callable[[float, int], object], tripped: Callable[[object], bool]):
    """(results, cutoffs): solve(L, n_cut) of each size and the rung it was
    solved at (_solve_adaptive), probed at eps = top and searched from the
    previous size's rung."""
    results, cutoffs, rung = [], [], 0
    for L in sizes:
        rung, result = _solve_adaptive(ladder, rung, ModelParams.from_size(L, top),
                                       lambda n: solve(L, n), tripped)
        results.append(result)
        cutoffs.append(ladder[rung])
    return results, cutoffs


def _peaks(sizes: np.ndarray, ladder: list[int],
           bracket: tuple[float, float]) -> tuple[list[QGTResult], list[int]]:
    """(peaks, cutoffs): the qgt_spectral tensor at each size's g_ee peak, and
    the rung it was solved at, probed at the top of the bracket."""
    def peak(L, n):
        ec = locate_peak(lambda e: g_ee_slope(ModelParams.from_size(L, e, n_cut=n)), bracket)
        return qgt_spectral(ModelParams.from_size(L, ec, n_cut=n))

    return _solve_sizes(sizes, ladder, bracket[1], peak, lambda r: r.cutoff_warning)


def fit_peaks(sizes: Sequence[float],
              peaks: Sequence[QGTResult]) -> tuple[dict, dict, list[str]]:
    """(fields, diagnostics, warnings) of the fits to the tensors at the peaks.

    The critical point is the 1/L extrapolation of the peak positions; delta_ee
    and nu the drift_fit limits of the g_ee peaks' secant slopes, as slope and
    as 2 / slope; delta_pp and delta_ep (and delta_ee_global) plain log-log
    fits.  fields are the ScalingReport fields of these fits.  Pure: it solves
    nothing, so a leave-one-size-out refit is a call on fewer peaks.
    """
    sizes = np.asarray(sizes, dtype=float)
    ecs = np.array([r.params.eps for r in peaks])
    g_peak = np.array([r.g_ee for r in peaks])
    gpp_peak = np.array([r.g_pp for r in peaks])
    fep_peak = np.abs([r.f_ep for r in peaks])
    warnings = []
    crit = fit_shifted_power(1.0 / sizes, ecs)
    if crit.boundary_warning:
        warnings.append("critical-point drift exponent at search-range boundary")
    pair_sizes, slopes, dee_fit = drift_fit(sizes, g_peak)
    nu_fit = fit_shifted_power(1.0 / pair_sizes, 2.0 / slopes)
    for name, fit in (("delta_ee", dee_fit), ("nu", nu_fit)):
        if fit.boundary_warning:
            warnings.append(f"{name} drift exponent at search-range boundary")
    dee_global = fit_power_law(sizes, g_peak)
    dpp_fit = fit_power_law(sizes, gpp_peak)
    dep_fit = fit_power_law(sizes, fep_peak)
    # delta_j = (2 - delta_jj) / 2 for the perturbations j in (eps, phi)
    delta_eps = (2.0 - dee_fit.limit) / 2.0
    delta_phi = (2.0 - dpp_fit.exponent) / 2.0

    fields = dict(eps_c_star=crit.limit, fit_a=crit.amplitude, fit_b=crit.exponent,
                  nu=nu_fit.limit, delta_ee=dee_fit.limit, delta_pp=dpp_fit.exponent,
                  delta_ep=dep_fit.exponent, delta_eps=delta_eps, delta_phi=delta_phi)
    diagnostics = {
        "eps_c_by_size": [float(v) for v in ecs],
        "g_ee_peak": [float(v) for v in g_peak],
        "g_pp_at_peak": [float(v) for v in gpp_peak],
        "f_ep_at_peak": [float(v) for v in fep_peak],
        "nbar_at_peak": [float(r.mean_n) for r in peaks],
        "pair_sizes": [float(v) for v in pair_sizes],
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
        "berry_dimension_consistency": abs(dep_fit.exponent - (2.0 - delta_eps - delta_phi)),
    }
    return fields, diagnostics, warnings


def scaling_pipeline(sizes: Sequence[float] = DEFAULT_SIZES,
                     n_cut: int = DEFAULT_N_CUT,
                     peak_bracket: tuple[float, float] = DEFAULT_PEAK_BRACKET,
                     collapse_window: tuple[float, float] = DEFAULT_COLLAPSE_WINDOW,
                     collapse_step: float = DEFAULT_COLLAPSE_STEP) -> ScalingReport:
    """Full finite-size-scaling analysis at the given sizes.

    Stages: _peaks (the g_ee peak of each size), fit_peaks (critical point,
    exponents and scaling dimensions from the peaks kept by the cutoff gate),
    the family rows (the tensor on the shared eps window), then the two
    data-collapse qualities and the curvature-collapse optimum.  An invalid
    collapse grid raises InputError before any point is computed.

    n_cut is a cap.  Each size's peak search and family row run at the
    cutoff _solve_sizes picks from _cutoff_ladder(n_cut);
    diagnostics["cutoffs"] records them per kept size.
    """
    lo, hi = collapse_window
    if not (np.isfinite(collapse_step) and collapse_step > 0):
        raise InputError(f"collapse_step must be positive and finite, got {collapse_step}")
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise InputError(f"collapse_window must be finite with lo < hi, got {(lo, hi)}")
    if not (hi - lo) / collapse_step < MAX_GRID_POINTS:
        raise InputError(f"collapse grid of {(hi - lo) / collapse_step + 1:.3g} points exceeds "
                         f"{MAX_GRID_POINTS}; raise collapse_step or narrow "
                         f"collapse_window")
    sizes = np.asarray(sorted(sizes), dtype=float)
    if len(sizes) < 4:
        raise FitError("the scaling pipeline needs at least 4 sizes")
    if np.any(np.diff(sizes) == 0):
        raise FitError(f"the scaling pipeline needs distinct sizes, got {sizes.tolist()}")
    # a bad cap raises ModelParams' InputError before any solve
    ModelParams(kerr=0.0, eps=0.0, n_cut=n_cut)
    ladder = _cutoff_ladder(n_cut)

    peaks, peak_cuts = _peaks(sizes, ladder, peak_bracket)
    keep = np.array([not r.cutoff_warning for r in peaks])
    warnings = [f"cutoff-inadequate point excluded: L={L:g} eps={r.params.eps:.6f}"
                for L, r in zip(sizes, peaks) if r.cutoff_warning]
    sizes_kept = sizes[keep]
    if len(sizes_kept) < 4:
        raise FitError(f"fewer than 4 sizes survive the cutoff-adequacy gate: "
                       f"kept {sizes_kept.tolist()}, dropped {sizes[~keep].tolist()} "
                       f"(tail weight above {TAIL_TOLERANCE:g} at their peaks)")
    fields, fit_diagnostics, fit_warnings = fit_peaks(
        sizes_kept, [r for r, k in zip(peaks, keep) if k])
    warnings += fit_warnings

    eps_grid = np.arange(lo, hi + collapse_step / 2, collapse_step)
    rows, family_cuts = _solve_sizes(sizes_kept, ladder, eps_grid[-1],
                                     lambda L, n: sweep_family([L], eps_grid, n)[0],
                                     lambda row: any(r.cutoff_warning for r in row))
    flagged = [(L, e) for L, row in zip(sizes_kept, rows)
               for e, r in zip(eps_grid, row) if r.cutoff_warning]
    warnings.extend(f"cutoff-inadequate family point: L={L:g} eps={e:.6f}"
                    for L, e in flagged[:20])
    fam_g = CurveFamily(sizes=sizes_kept, eps_grid=eps_grid,
                        values=np.array([[r.g_ee for r in row] for row in rows]),
                        observable="g_ee")
    fam_f = CurveFamily(sizes=sizes_kept, eps_grid=eps_grid,
                        values=np.abs([[r.f_ep for r in row] for row in rows]),
                        observable="f_ep")
    nu, ec = fields["nu"], fields["eps_c_star"]
    quality_gee = collapse_objective(fam_g, fields["delta_ee"], nu, ec)
    quality_fep = collapse_objective(fam_f, fields["delta_ep"], nu, ec)
    ecs = fit_diagnostics["eps_c_by_size"]
    f_optimum = optimize_collapse(fam_f, 1.0, (1.2, 1.9),
                                  (min(ec - 0.01, min(ecs) - 0.02), max(ecs) + 0.01))
    if f_optimum.boundary_warning:
        warnings.append("curvature collapse optimum at a search boundary")

    diagnostics = {
        "sizes": [float(s) for s in sizes_kept],
        "n_cut": int(n_cut),
        "cutoffs": {"peak": [n for n, k in zip(peak_cuts, keep) if k],
                    "family": family_cuts},
        "peak_bracket": [float(peak_bracket[0]), float(peak_bracket[1])],
        "collapse_window": [float(lo), float(hi)],
        "collapse_step": float(collapse_step),
        **fit_diagnostics,
        "f_collapse_optimum": {"nu": f_optimum.nu, "eps_c_star": f_optimum.eps_c_star,
                               "quality": f_optimum.quality},
        "family_eps_grid": [float(v) for v in eps_grid],
        "family_g_ee": [[float(v) for v in row] for row in fam_g.values],
        "family_f_ep": [[float(v) for v in row] for row in fam_f.values],
        "degraded": bool(len(sizes_kept) < len(sizes) or flagged),
        "warnings": warnings,
    }
    return ScalingReport(**fields, collapse_quality_gee=quality_gee,
                         collapse_quality_fep=quality_fep, diagnostics=diagnostics)


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
                ncut_list: Sequence[int] = DEFAULT_K0_CUTOFFS) -> K0Report:
    """Cutoff scaling of the tensor at the K=0 critical drive eps = 1.

    Without Kerr nonlinearity the truncation itself plays the role of the
    system size, so the tail-weight gate is deliberately not applied here.
    eps is never taken above 1 in this mode.  The finite-Kerr part (the
    photon-number dimension and the scaling dimensions entering beta-prime)
    is read off scaling, the report of scaling_pipeline.
    """
    ncut_list = _k0_cutoffs(ncut_list)
    points = [qgt_spectral(ModelParams(kerr=0.0, eps=1.0, n_cut=nc)) for nc in ncut_list]
    g_fit = fit_power_law(ncut_list, [p.g_ee for p in points])
    f_fit = fit_power_law(ncut_list, [abs(p.f_ep) for p in points])
    n_fit = fit_power_law(ncut_list, [p.mean_n for p in points])
    flagged = bool(min(g_fit.r_squared, f_fit.r_squared, n_fit.r_squared) < 0.99)

    diag = scaling.diagnostics
    eff_sizes, n_slopes, dn_fit = drift_fit(diag["sizes"], diag["nbar_at_peak"])
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
