"""Gauge-invariant finite-difference geometric tensor in real arithmetic.

A state is u(eps, phi) = v(eps) e^{-i n phi / 2}: the real even-sector vector
v(eps) on its Fock levels n, times the gauge phases of the drive phase
(model).  tensor_fd takes the map eps -> v and the levels, and writes its
phase-aligned distances and closed-loop overlap products out in real
arithmetic on the v, so phi drops out: between a e^{-i n phi1 / 2} and
b e^{-i n phi2 / 2} the distance is, without cancellation,
sum (a - b)^2 + 4 a b sin^2((theta_n - alpha) / 2), with
theta_n = n (phi2 - phi1) / 2 and alpha the aligning phase.  stencil_eps lists the eps values tensor_fd asks for,
so that a family can solve them all up front.  Steps must be positive and
finite (ValueError); a distance or loop overlap that is not finite, as from
a NaN vector, raises StepSizeError.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import StepSizeError

# The eps-edge distance and dp are as precise as the difference of two solved
# vectors: at edge distances of at least DIST_FLOOR every entry keeps 6 digits
# (within 6.5e-7 of the spectral route at L 60-300, eps 0.3-1.2, h down to
# 1e-11; 2.8e-6 just below).  The phi distance needs no floor.
DIST_FLOOR = 1e-17
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
    """Every eps at which tensor_fd reads the family around eps, as the exact
    floats it asks for: eps, and lo = eps - he/2 and lo + he for he in
    (h, h/2); at the eps >= 0 boundary eps, eps + h and eps + h/2."""
    _check_steps(step_eps)
    return {float(eps)} | {float(e) for edge in _edges(eps, step_eps)[1] for e in edge}


def _checked(d: float, floor: float = 0.0) -> float:
    """The distance d, if it is finite, at least floor, and small enough for
    the quadratic expansion; StepSizeError otherwise."""
    if not math.isfinite(d):
        raise StepSizeError(f"overlap distance {d} is not finite")
    if d < floor:
        raise StepSizeError(
            f"overlap distance {d:.1e} is below the precision floor; "
            "increase the finite-difference step")
    if d / 2.0 > DIST_CEIL:
        raise StepSizeError(
            f"overlap distance {d:.1e} is too large for a quadratic expansion; "
            "decrease the finite-difference step")
    return d


def _overlap(ov: complex) -> complex:
    """ov, an overlap of the plaquette loop, if it is finite and not near zero."""
    if not cmath.isfinite(ov):
        raise StepSizeError(f"plaquette edge overlap {ov} is not finite")
    if abs(ov) < EDGE_OVERLAP_FLOOR:
        raise StepSizeError(
            f"plaquette edge overlap {abs(ov):.1e} is near zero; decrease the step")
    return ov


def tensor_fd(vectors, levels: np.ndarray, eps: float, step_eps: float,
              step_phi: float) -> tuple[float, float, float, float]:
    """(g_ee, g_pp, g_ep, f_ep) at eps by one two-scale overlap stencil on the
    real vectors vectors[e] over the Fock levels levels.

    At the scales (h, h_phi) and (h/2, h_phi/2) the stencil reads one eps edge
    (e_lo, e_hi) with vectors a and b (of one sign convention, a.b > 0), its
    plaquette's corners being (e_lo or e_hi, phi -+ h_phi/2).  With
    theta_n = n h_phi / 2, g_ee is the distance sum (a - b)^2 along the edge,
    g_pp the distance 4 sum v^2 sin^2((theta_n - beta) / 2) across phi at
    v = vectors[eps], beta = arg sum v^2 e^{i theta_n}, and g_ep is 0: the
    two mixed distances are equal term by term for real a and b.  f_ep is
    the loop phase arg c_lo - arg c_hi, counterclockwise in (eps, phi), of
    c = sum p e^{-i theta_n} with p = a^2 or b^2, over the plaquette's area;
    it is -arg(1 + dc / c_lo), dc the sum over dp = (b - a)(b + a), so the
    small difference of two phases is never formed by subtraction.

    Each scale's entries are second order about the edge's centre; one rule
    combines them: (4 T(h/2) - T(h)) / 3 inside the domain, 2 T(h/2) - T(h)
    at the eps >= 0 boundary, which cancels the first-order offset there.
    """
    _check_steps(step_eps, step_phi)
    forward, edges = _edges(eps, step_eps)
    v2 = vectors[eps] ** 2
    scales = []
    for he, hp, (e_lo, e_hi) in zip((step_eps, step_eps / 2.0),
                                    (step_phi, step_phi / 2.0), edges):
        theta = levels * (hp / 2.0)
        cos, sin = np.cos(theta), np.sin(theta)
        beta = math.atan2(v2 @ sin, v2 @ cos)
        d_p = _checked(4.0 * float(v2 @ np.sin((theta - beta) / 2.0) ** 2))
        a, b = vectors[e_lo], vectors[e_hi]
        _overlap(float(a @ b))
        p_lo, dp = a * a, (b - a) * (b + a)
        c_lo = _overlap(complex(p_lo @ cos, -(p_lo @ sin)))
        dc = complex(dp @ cos, -(dp @ sin))
        _overlap(c_lo + dc)
        loop = -cmath.phase(1.0 + dc / c_lo)
        d_e = _checked(float((b - a) @ (b - a)), DIST_FLOOR)
        scales.append(np.array([d_e / he**2, d_p / hp**2, loop / (he * hp)]))
    t_h, t_half = scales
    g_ee, g_pp, f_ep = 2.0 * t_half - t_h if forward else (4.0 * t_half - t_h) / 3.0
    return float(g_ee), float(g_pp), 0.0, float(f_ep)
