"""Gauge-invariant finite-difference stencils on an arbitrary state family.

Every routine takes a callable state(eps, phi) -> normalized complex vector
and works only with overlap magnitudes or closed-loop overlap products, so the
results are insensitive to the phase convention of the family.
"""

from __future__ import annotations

import numpy as np

from .errors import StepSizeError

# Distances below this are pure rounding noise; between this and DIST_FLOOR
# the measurement has lost too many digits to be trusted.
DIST_ZERO = 5e-16
DIST_FLOOR = 1e-13
DIST_CEIL = 1e-3
EDGE_OVERLAP_FLOOR = 1e-3


def _distance(state, p1, p2) -> float:
    """2 (1 - |<u1|u2>|), the leading squared line element between two points."""
    ov = abs(np.vdot(state(*p1), state(*p2)))
    d = 2.0 * (1.0 - ov)
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


def metric_fd(state, eps: float, phi: float, step_eps: float, step_phi: float) -> np.ndarray:
    """2x2 quantum metric over (eps, phi) by overlap distances.

    Diagonals come from same-direction distances, the off-diagonal from the
    polarization of the two mixed directions.  Two step scales are combined by
    Richardson extrapolation; at the eps >= 0 boundary the eps stencils fall
    back to forward differences with the matching linear combination.
    """
    if step_eps <= 0 or step_phi <= 0:
        raise ValueError("steps must be positive")
    forward = eps - step_eps / 2.0 < 0.0

    def entries(he, hp):
        e_lo = eps if forward else eps - he / 2.0
        e_hi = e_lo + he
        d_e = _distance(state, (e_lo, phi), (e_hi, phi))
        d_p = _distance(state, (eps, phi - hp / 2.0), (eps, phi + hp / 2.0))
        d_pp = _distance(state, (e_lo, phi - hp / 2.0), (e_hi, phi + hp / 2.0))
        d_pm = _distance(state, (e_lo, phi + hp / 2.0), (e_hi, phi - hp / 2.0))
        return np.array([d_e / he**2, d_p / hp**2, (d_pp - d_pm) / (4.0 * he * hp)])

    g1 = entries(step_eps, step_phi)
    g2 = entries(step_eps / 2.0, step_phi / 2.0)
    g = 2.0 * g2 - g1 if forward else (4.0 * g2 - g1) / 3.0
    return np.array([[g[0], g[2]], [g[2], g[1]]])


def _plaquette(state, e_lo, e_hi, phi, step_phi) -> float:
    corners = [
        state(e_lo, phi - step_phi / 2.0),
        state(e_hi, phi - step_phi / 2.0),
        state(e_hi, phi + step_phi / 2.0),
        state(e_lo, phi + step_phi / 2.0),
    ]
    product = 1.0 + 0.0j
    for i in range(4):
        ov = np.vdot(corners[i], corners[(i + 1) % 4])
        if abs(ov) < EDGE_OVERLAP_FLOOR:
            raise StepSizeError(
                f"plaquette edge overlap {abs(ov):.1e} is near zero; decrease the step")
        product *= ov
    return float(-np.angle(product) / ((e_hi - e_lo) * step_phi))


def curvature_fd(state, eps: float, phi: float, step_eps: float, step_phi: float) -> float:
    """Berry curvature from the phase of the overlap product around one plaquette.

    Corners are ordered counterclockwise in the (eps, phi) plane; the result is
    gauge invariant and converges to the curvature as the steps shrink.  When
    the plaquette would cross eps < 0 it is pushed to the boundary and two
    scales are combined to extrapolate back to the requested point.
    """
    if step_eps <= 0 or step_phi <= 0:
        raise ValueError("steps must be positive")
    if eps - step_eps / 2.0 >= 0.0:
        # eps values exactly as metric_fd spells them, so a shared state
        # family solves them once
        e_lo = eps - step_eps / 2.0
        return _plaquette(state, e_lo, e_lo + step_eps, phi, step_phi)
    # boundary: plaquette centers sit at h/2 and h/4; extrapolate linearly to eps
    full = _plaquette(state, 0.0, step_eps, phi, step_phi)
    half = _plaquette(state, 0.0, step_eps / 2.0, phi, step_phi / 2.0)
    c_full, c_half = step_eps / 2.0, step_eps / 4.0
    return half + (half - full) * (eps - c_half) / (c_half - c_full)

