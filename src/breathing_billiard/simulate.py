"""Map-driven simulation of full bouncing orbits.

Each step of the cylinder map is fleshed out with its closed-form flight
segment, so a run carries bounce times, action values, pre/post radial
velocities and the cumulative polar angle, with zero discretisation error.
A run that leaves the map domain mid-way is returned truncated with the
reason attached rather than raised away.

Runs are iterated by bmap.Orbit on (fractional time, integer winding).
Records expose the float lift `t` for display and the exact fraction
`t_frac`; segments are built in reduced coordinates (their t0 equals t_frac).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bmap, flight
from .bmap import CylinderState
from .errors import DomainError, PreconditionError
from .genfun import GenFunContext, grad_h


@dataclass(frozen=True)
class BounceRecord:
    n: int
    t: float        # lifted bounce time (display/export)
    t_frac: float   # exact fractional part, in [0, 1)
    K: float
    rdot_plus: float
    rdot_minus: float
    theta: float
    segment: flight.FlightSegment | None  # outgoing flight in reduced time; None on the last record


@dataclass
class RunResult:
    records: list[BounceRecord]
    completed: bool
    reason: str | None = None


def run(ctx: GenFunContext, s0: CylinderState, n: int) -> RunResult:
    """Iterate the map n steps from s0, building per-bounce segments.

    The angular momentum is c identically along the run (it is a parameter
    of every segment's first integral).  An iterate leaving the map domain
    truncates the run; the initial state being outside raises instead, and
    so does an n whose n + 1 records pass flight._MAX_SAMPLE_ROWS.
    """
    if n + 1 > flight._MAX_SAMPLE_ROWS:
        raise PreconditionError(f"n = {n} asks for {n + 1} bounce records, "
                                f"more than {flight._MAX_SAMPLE_ROWS}")
    orbit = bmap.Orbit(ctx, s0, n)
    profile = ctx.profile
    records: list[BounceRecord] = []
    theta = 0.0
    incoming = None  # rdot(t_n^-) from the previous segment

    def record(i, wind, frac, K, rdot_plus, seg):
        # the first bounce has no incoming flight: use the reflection law
        rdot_minus = (incoming if incoming is not None
                      else -rdot_plus + 2.0 * profile.d_radius(frac))
        return BounceRecord(n=i, t=wind + frac, t_frac=frac, K=K,
                            rdot_plus=rdot_plus, rdot_minus=rdot_minus,
                            theta=theta, segment=seg)

    for i, (wind, frac, K, t1, _) in enumerate(orbit):
        seg = flight.make_segment(profile, frac, t1, ctx.c, theta0=theta)
        _, rdot_plus, _ = flight.flight_state(seg, frac)
        records.append(record(i, wind, frac, K, rdot_plus, seg))
        _, incoming, _ = flight.flight_state(seg, t1)
        theta += seg.dtheta

    # closing record at the final reached bounce
    try:
        rdot_plus = bmap.rdot_plus_from_action(ctx, orbit.frac, orbit.K)
    except DomainError:
        rdot_plus = math.nan
    records.append(record(len(records), orbit.wind, orbit.frac, orbit.K, rdot_plus, None))
    return RunResult(records=records, completed=orbit.reason is None, reason=orbit.reason)


def el_defect(ctx: GenFunContext, flights) -> float:
    """Max discrete Euler-Lagrange defect |d2 h(f_n) + d1 h(f_{n+1})| over
    consecutive flights f_n = (t0, t1); zero on an orbit of the map."""
    grads = [grad_h(ctx, t0, t1) for t0, t1 in flights]
    worst = 0.0
    for (_, d2), (d1, _) in zip(grads, grads[1:]):
        worst = max(worst, abs(d1 + d2))
    return worst


def euler_lagrange_residual(ctx: GenFunContext, records: list[BounceRecord]) -> float:
    """Max discrete Euler-Lagrange defect over the interior bounces,
    evaluated on the exact reduced segment pairs."""
    return el_defect(ctx, [(rec.segment.t0, rec.segment.t1)
                           for rec in records if rec.segment is not None])


def reflection_residual(ctx: GenFunContext, records: list[BounceRecord]) -> float:
    """Max elastic-reflection defect |(rdot+ - Rdot) + (rdot- - Rdot)| over
    bounces with an incoming segment."""
    worst = 0.0
    for rec in records[1:]:
        dr = ctx.profile.d_radius(rec.t_frac)
        worst = max(worst, abs((rec.rdot_plus - dr) + (rec.rdot_minus - dr)))
    return worst


def trajectory_samples(records: list[BounceRecord], dt: float) -> np.ndarray:
    """Cartesian polyline rows (t, x, y) sampled every dt along each segment;
    at most flight._MAX_SAMPLE_ROWS rows in all, checked before any is built."""
    if not records:
        raise PreconditionError("empty record list")
    if not dt > 0:
        raise PreconditionError(f"dt must be positive, got {dt}")
    sampled = [rec for rec in records if rec.segment is not None]
    if not sampled:
        raise PreconditionError("no segments to sample")
    total = sum(flight.sample_count(rec.segment, dt) for rec in sampled)
    if total > flight._MAX_SAMPLE_ROWS:
        raise PreconditionError(f"dt = {dt} asks for {total} samples, "
                                f"more than {flight._MAX_SAMPLE_ROWS}")
    chunks = []
    for rec in sampled:
        rows = flight.segment_samples(rec.segment, dt)[:, [0, 3, 4]]
        rows[:, 0] += round(rec.t - rec.segment.t0)  # reduced time -> lift
        chunks.append(rows)
    return np.vstack(chunks)


def energy_series(records: list[BounceRecord]) -> list[tuple[float, float]]:
    """(t_n, E_n) with E = A/2 on the outgoing segment of each bounce."""
    if not records:
        raise PreconditionError("empty record list")
    return [(rec.t, rec.segment.energy) for rec in records if rec.segment is not None]

