"""Gauge-invariant finite-difference stencils on an arbitrary state family.

Every routine takes a callable state(eps, phi) -> normalized complex vector
and works only with overlap magnitudes or closed-loop overlap products, so the
results are insensitive to the phase convention of the family.  stencil_eps
lists the eps values the stencils evaluate the family at, so that a family
can solve them all up front.  Steps must be positive and finite
(ValueError); a distance or edge overlap that is not finite, as from a NaN
state vector, raises StepSizeError.
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


def _check_steps(*steps) -> None:
    for step in steps:
        if not 0.0 < step < np.inf:
            raise ValueError(f"steps must be positive and finite, got {step}")


def _edges(eps: float, step_eps: float):
    """(forward, metric, plaquettes): whether eps is at the eps >= 0 boundary,
    where the stencils difference forward, and the (e_lo, e_hi) eps edges of
    metric_fd's two scales (widths h, h/2) and of curvature_fd's plaquettes.
    Inside the domain the plaquette shares the first metric edge."""
    if eps - step_eps / 2.0 >= 0.0:
        metric = [(eps - he / 2.0, eps - he / 2.0 + he) for he in (step_eps, step_eps / 2.0)]
        return False, metric, metric[:1]
    return (True, [(eps, eps + step_eps), (eps, eps + step_eps / 2.0)],
            [(0.0, step_eps), (0.0, step_eps / 2.0)])


def stencil_eps(eps: float, step_eps: float) -> set[float]:
    """Every eps at which metric_fd and curvature_fd evaluate the state family
    around eps, as the exact floats they ask for: eps, and lo = eps - he/2 and
    lo + he for he in (h, h/2); at the eps >= 0 boundary eps, eps + h,
    eps + h/2, 0, h and h/2."""
    _check_steps(step_eps)
    _, metric, plaquettes = _edges(eps, step_eps)
    return {float(eps)} | {float(e) for edge in metric + plaquettes for e in edge}


def _distance(state, p1, p2) -> float:
    """2 (1 - |<u1|u2>|), the leading squared line element between two points."""
    ov = abs(np.vdot(state(*p1), state(*p2)))
    d = 2.0 * (1.0 - ov)
    if not np.isfinite(d):
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


def metric_fd(state, eps: float, phi: float, step_eps: float, step_phi: float) -> np.ndarray:
    """2x2 quantum metric over (eps, phi) by overlap distances.

    Diagonals come from same-direction distances, the off-diagonal from the
    polarization of the two mixed directions.  Two step scales are combined by
    Richardson extrapolation; at the eps >= 0 boundary the eps stencils fall
    back to forward differences with the matching linear combination.
    """
    _check_steps(step_eps, step_phi)
    forward, edges, _ = _edges(eps, step_eps)

    def entries(he, hp, e_lo, e_hi):
        d_e = _distance(state, (e_lo, phi), (e_hi, phi))
        d_p = _distance(state, (eps, phi - hp / 2.0), (eps, phi + hp / 2.0))
        d_pp = _distance(state, (e_lo, phi - hp / 2.0), (e_hi, phi + hp / 2.0))
        d_pm = _distance(state, (e_lo, phi + hp / 2.0), (e_hi, phi - hp / 2.0))
        return np.array([d_e / he**2, d_p / hp**2, (d_pp - d_pm) / (4.0 * he * hp)])

    g1 = entries(step_eps, step_phi, *edges[0])
    g2 = entries(step_eps / 2.0, step_phi / 2.0, *edges[1])
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
        if not np.isfinite(ov):
            raise StepSizeError(f"plaquette edge overlap {ov} is not finite")
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
    _check_steps(step_eps, step_phi)
    forward, _, edges = _edges(eps, step_eps)
    if not forward:
        return _plaquette(state, *edges[0], phi, step_phi)
    # boundary: plaquette centers sit at h/2 and h/4; extrapolate linearly to eps
    full = _plaquette(state, *edges[0], phi, step_phi)
    half = _plaquette(state, *edges[1], phi, step_phi / 2.0)
    c_full, c_half = step_eps / 2.0, step_eps / 4.0
    return half + (half - full) * (eps - c_half) / (c_half - c_full)

