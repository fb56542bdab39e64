"""Closed-form free flight between two bounces.

Inside the disc the reduced radial motion obeys r'' = c^2 / r^3 with the
first integral A = rdot^2 + c^2/r^2 (twice the energy), giving

    r(t)     = sqrt((A^2 (t+B)^2 + c^2) / A),
    theta(t) = theta0 + arctan-antiderivative of c / r^2.

Fixing r = R at both endpoints determines (A, B) in closed form; the
physically admissible branch leaves the boundary inward.  Everything here
is algebra on (t0, t1, c, profile): no integrator, no discretisation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import DomainError, PreconditionError
from .radius import RadiusProfile, _ends, bounds, sigma_limits


@dataclass(frozen=True)
class FlightSegment:
    """One straight flight: r(t0) = R(t0), r(t1) = R(t1), r < R in between."""

    t0: float
    t1: float
    c: float
    A: float  # 2E, first integral
    B: float  # time offset of closest approach
    theta0: float
    dtheta: float  # angular advance over the segment, in (pi/2, pi]

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def energy(self) -> float:
        return 0.5 * self.A

    @property
    def speed(self) -> float:
        return math.sqrt(self.A)

    @property
    def chord_length(self) -> float:
        return self.duration * self.speed


def _check_arguments(t0: float, t1: float, c: float) -> None:
    """Finite times t0 < t1 and a momentum c >= 0."""
    if not t1 > t0:
        raise PreconditionError(f"need t1 > t0, got {t0}, {t1}")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise PreconditionError(f"flight times must be finite, got {t0}, {t1}")
    if math.isnan(c):
        raise PreconditionError(f"angular momentum c must be a number, got {c}")
    if c < 0:
        raise PreconditionError("angular momentum must be >= 0")


def validate_window(t0: float, t1: float, c: float, profile: RadiusProfile,
                    eps: float) -> dict:
    """Check the three sufficient conditions for the flight to exist.

    Each condition is 0 < tau < limit with tau = t1 - t0, for the limits
    momentum eps r_min^2 / c (inf at c = 0), slope r_min / (2 ||Rdot||) and
    curvature 2 sqrt(1 + sqrt(1 - eps^2)) r_min / sqrt(||(R^2)''||).
    Returns {"tau", "momentum", "slope", "curvature", "ok"}, with each
    condition as {"limit", "ok"} and "ok" true when all three hold.
    """
    _check_arguments(t0, t1, c)
    b = bounds(profile, eps)
    tau = t1 - t0
    momentum = eps * b.r_min ** 2 / c if c > 0 else math.inf
    limits = (momentum, *sigma_limits(eps, b.r_min, b.dR_norm, b.ddR2_norm))
    conditions = {name: {"limit": limit, "ok": 0.0 < tau < limit}
                  for name, limit in zip(("momentum", "slope", "curvature"), limits)}
    return {"tau": tau, **conditions,
            "ok": all(cond["ok"] for cond in conditions.values())}


def make_segment(profile: RadiusProfile, t0: float, t1: float, c: float,
                 theta0: float = 0.0) -> FlightSegment:
    """The admissible flight from t0 to t1, with R evaluated once per endpoint.

    With S = sqrt(R0^2 R1^2 - c^2 tau^2), A = (R0^2 + R1^2 + 2 S) / tau^2 and
    the inward branch A (t0 + B) = -(R0^2 + S) / tau; the outward branch
    never yields a bouncing solution and is discarded.  The polar angle
    advances by pi - arctan(c tau / S).
    """
    _check_arguments(t0, t1, c)
    tau = t1 - t0
    r0, r1 = _ends(profile.radius, t0, t1)
    disc = r0 * r0 * r1 * r1 - c * c * tau * tau
    if disc <= 0.0:
        raise DomainError(
            f"window violation: R0^2 R1^2 - c^2 tau^2 = {disc} <= 0 for tau = {tau}")
    s = math.sqrt(disc)
    tau2 = tau * tau
    a = (r0 * r0 + r1 * r1 + 2.0 * s) / tau2 if tau2 > 0.0 else math.inf
    if not math.isfinite(a):
        raise DomainError(f"flight too short: A = (R0^2 + R1^2 + 2 S) / tau^2 "
                          f"overflows for tau = {tau}")
    b_off = -(t0 + (r0 * r0 + s) / (tau * a))
    return FlightSegment(t0=t0, t1=t1, c=c, A=a, B=b_off, theta0=theta0,
                         dtheta=math.pi - math.atan(c * tau / s))


def flight_state(seg: FlightSegment, t: float) -> tuple[float, float, float]:
    """(r, rdot, theta) at time t in [t0, t1].

    theta uses the closed arctangent antiderivative of c/r^2; for c = 0 the
    flight runs along a diameter and theta jumps by pi at the centre.
    """
    if not (seg.t0 <= t <= seg.t1):
        raise DomainError(f"t = {t} outside [{seg.t0}, {seg.t1}]")
    a, b, c = seg.A, seg.B, seg.c
    lin = a * (t + b)
    r = math.sqrt((lin * lin + c * c) / a)
    rdot = lin / r if r > 0 else math.copysign(math.sqrt(a), lin)
    if c > 0:
        theta = seg.theta0 + math.atan(lin / c) - math.atan(a * (seg.t0 + b) / c)
    else:
        theta = seg.theta0 + (math.pi if lin >= 0 else 0.0)
    return r, rdot, theta


def sample_count(seg: FlightSegment, dt: float) -> int:
    """Rows of segment_samples(seg, dt); a dt past the row cap is refused."""
    if not dt > 0:
        raise PreconditionError(f"dt must be positive, got {dt}")
    if not seg.duration / dt <= errors.MAX_COUNT - 1:  # so at most MAX_COUNT rows
        raise PreconditionError(f"dt = {dt} asks for more than {errors.MAX_COUNT} samples "
                                f"of a flight of duration {seg.duration}")
    return max(1, int(math.ceil(seg.duration / dt))) + 1


def segment_samples(seg: FlightSegment, dt: float) -> np.ndarray:
    """sample_count(seg, dt) rows (t, r, theta, x, y), endpoints included."""
    ts = np.linspace(seg.t0, seg.t1, sample_count(seg, dt))
    rows = np.empty((len(ts), 5))
    for i, t in enumerate(ts):
        r, _, theta = flight_state(seg, float(t))
        rows[i] = (t, r, theta, r * math.cos(theta), r * math.sin(theta))
    return rows
