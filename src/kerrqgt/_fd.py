"""Gauge-invariant finite-difference geometric tensor on an arbitrary state family.

tensor_fd takes a callable state(eps, phi) -> normalized complex vector and
works only with phase-aligned distances and closed-loop overlap products, so
the result is insensitive to the phase convention of the family.
stencil_eps lists the eps values it evaluates the family at, so that a family
can solve them all up front.  Steps must be positive and finite
(ValueError); a distance or edge overlap that is not finite, as from a NaN
state vector, raises StepSizeError.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import StepSizeError

# Rounding leaves about 1e-30 on a distance; the ones below DIST_ZERO (g_pp's
# next to eps = 0) count as zero.  Below DIST_FLOOR the steps are too small:
# the distances keep 8 digits, but the plaquette on the same steps, whose
# overlap phases round to about eps_mach, keeps only 4-6.
DIST_ZERO = 5e-16
DIST_FLOOR = 1e-13
DIST_CEIL = 1e-3
EDGE_OVERLAP_FLOOR = 1e-3


def _check_steps(*steps) -> None:
    for step in steps:
        if not 0.0 < step < np.inf:
            raise ValueError(f"steps must be positive and finite, got {step}")


def _edges(eps: float, step_eps: float):
    """(forward, edges): whether eps is at the eps >= 0 boundary, and the
    (e_lo, e_hi) eps edge of each of tensor_fd's scales (widths h, h/2),
    centred on eps inside the domain and starting at eps at the boundary."""
    forward = eps - step_eps / 2.0 < 0.0
    edges = []
    for he in (step_eps, step_eps / 2.0):
        lo = eps if forward else eps - he / 2.0
        edges.append((lo, lo + he))
    return forward, edges


def stencil_eps(eps: float, step_eps: float) -> set[float]:
    """Every eps at which tensor_fd evaluates the state family around eps, as
    the exact floats it asks for: eps, and lo = eps - he/2 and lo + he for he
    in (h, h/2); at the eps >= 0 boundary eps, eps + h and eps + h/2."""
    _check_steps(step_eps)
    return {float(eps)} | {float(e) for edge in _edges(eps, step_eps)[1] for e in edge}


def _distance(u1: np.ndarray, u2: np.ndarray) -> float:
    """|| u1 - e^{i theta} u2 ||^2, with e^{i theta} the phase that aligns u2
    with u1 (1 if <u1|u2> = 0): the leading squared line element
    2 (1 - |<u1|u2>|) between two points, without the cancellation of
    1 - |<u1|u2>|."""
    diff = u1 - cmath.rect(1.0, -cmath.phase(np.vdot(u1, u2))) * u2
    d = float(np.vdot(diff, diff).real)
    if not math.isfinite(d):
        raise StepSizeError(f"overlap distance {d} is not finite")
    if d <= DIST_ZERO:
        return 0.0
    if d < DIST_FLOOR:
        raise StepSizeError(
            f"overlap distance {d:.1e} is below the precision floor; "
            "increase the finite-difference step")
    if d / 2.0 > DIST_CEIL:
        raise StepSizeError(
            f"overlap distance {d:.1e} is too large for a quadratic expansion; "
            "decrease the finite-difference step")
    return d


def _loop_phase(corners) -> float:
    """-arg of the overlap product around the corners, in order."""
    product = 1.0 + 0.0j
    for a, b in zip(corners, corners[1:] + corners[:1]):
        ov = complex(np.vdot(a, b))
        if not cmath.isfinite(ov):
            raise StepSizeError(f"plaquette edge overlap {ov} is not finite")
        if abs(ov) < EDGE_OVERLAP_FLOOR:
            raise StepSizeError(
                f"plaquette edge overlap {abs(ov):.1e} is near zero; decrease the step")
        product *= ov
    return -cmath.phase(product)


def tensor_fd(state, eps: float, phi: float, step_eps: float,
              step_phi: float) -> tuple[float, float, float, float]:
    """(g_ee, g_pp, g_ep, f_ep) at (eps, phi) by one two-scale overlap stencil.

    At the scales (h, h_phi) and (h/2, h_phi/2) the stencil reads one eps edge
    (e_lo, e_hi) and its four corners (e_lo or e_hi, phi -+ h_phi/2).  g_ee is
    the distance along the edge at phi, g_pp the distance across phi at eps,
    g_ep the polarization of the two mixed distances between corners, and
    f_ep the phase of the overlap product around the corners, counterclockwise
    in (eps, phi), over the plaquette's area.  Each scale's entries are
    second order about the edge's centre, and one rule combines them:
    (4 T(h/2) - T(h)) / 3 inside the domain, where the edge is centred on eps;
    2 T(h/2) - T(h) at the eps >= 0 boundary, where it starts at eps and the
    combination cancels the first-order offset of its centre.
    """
    _check_steps(step_eps, step_phi)
    forward, edges = _edges(eps, step_eps)
    scales = []
    for he, hp, (e_lo, e_hi) in zip((step_eps, step_eps / 2.0),
                                    (step_phi, step_phi / 2.0), edges):
        lo_m, lo_p, hi_m, hi_p = (state(e, phi + s * hp / 2.0)
                                  for e in (e_lo, e_hi) for s in (-1.0, 1.0))
        d_e = _distance(state(e_lo, phi), state(e_hi, phi))
        d_p = _distance(state(eps, phi - hp / 2.0), state(eps, phi + hp / 2.0))
        loop = _loop_phase([lo_m, hi_m, hi_p, lo_p])
        d_mixed = _distance(lo_m, hi_p) - _distance(lo_p, hi_m)
        scales.append(np.array([d_e / he**2, d_p / hp**2, d_mixed / (4.0 * he * hp),
                                loop / (he * hp)]))
    t_h, t_half = scales
    return tuple(map(float, 2.0 * t_half - t_h if forward else (4.0 * t_half - t_h) / 3.0))
