"""The billiard map as an exact symplectic twist map of the cylinder.

States are (t, K) with t the bounce time (real lift) and K = d1 h(t, t1)
the action variable.  The forward map solves d1 h(t0, .) = K0 for the next
bounce time (unique root: d1 h is strictly decreasing in its second slot and
blows up as the gap closes) and sets K1 = -d2 h(t0, t1); the backward map
solves -d2 h(., t1) = K1 the same way.  Both directions, warm or cold, are
the one function _solve: a bracketed Newton solve (_search.solve_monotone)
on the fundamental domain that calls the fused kernel genfun.grad_twist
once per iterate; forward and backward only reduce the lift with one floor.
Its first iterate comes from the flight relation
A tau^2 - 2 I tau = R(t + s tau)^2 - R(t)^2 of the impact map
(_chord_start): a few profile radii put it within about 1e-7 of the root.
The map is defined for K above the cutoff sigma_star = max_t d1 h(t,
t + sigma); images may leave that domain, and _check_domain is the one
check of it.  Orbit is the one loop that iterates the map and the only one
that warm-starts: its guess seeds the flight relation.  It checks the
domain before every step and reports why an orbit stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ._search import _ULP, circle_sup, golden_max, solve_monotone
from .errors import ConvergenceError, DomainError, PreconditionError, check_count
from .genfun import GenFunContext, d1h_edge_grid, grad_h, grad_twist, hess_h
from .radius import grid_size

_EDGE = 1e-9  # relative inset of the root bracket at the strip edges
_SIGMA_STAR_FLOOR = 512  # least sampling grid of the domain cutoff
_IMPACT_MAX_ITER = 64  # flight-time iterates of laederich_map
_CHORD_STEPS = 2  # profile radii of a cold first iterate; a warm one takes one more


@dataclass(frozen=True)
class CylinderState:
    t: float
    K: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.K)):
            raise PreconditionError(f"state must be finite, got t = {self.t}, K = {self.K}")


@dataclass(frozen=True)
class MapJacobian:
    """d(t1, K1)/d(t0, K0); unit determinant up to rounding, negative twist."""

    dt1_dt0: float
    dt1_dK0: float
    dK1_dt0: float
    dK1_dK0: float

    @property
    def det(self) -> float:
        return self.dt1_dt0 * self.dK1_dK0 - self.dt1_dK0 * self.dK1_dt0

    def apply(self, v: tuple[float, float]) -> tuple[float, float]:
        return (self.dt1_dt0 * v[0] + self.dt1_dK0 * v[1],
                self.dK1_dt0 * v[0] + self.dK1_dK0 * v[1])


@lru_cache(maxsize=128)
def sigma_star(ctx: GenFunContext) -> float:
    """Lower action cutoff of the map domain: max over t of d1 h(t, t+sigma).

    The scan is one numpy grid of grid_size(profile, 512) points; circle_sup
    refines it by golden section on grad_h, so the value is one of its own.
    """
    def d1h(t):
        return grad_h(ctx, t, t + ctx.sigma)[0]

    n = grid_size(ctx.profile, _SIGMA_STAR_FLOOR)
    return circle_sup(d1h, d1h_edge_grid(ctx, n), lambda a, b: golden_max(d1h, a, b)[0])[1]


def _chord_start(ctx: GenFunContext, anchor: float, e, K: float, direction: int,
                 guess: float | None) -> float | None:
    """First Newton iterate of the map solve from the state (anchor, K).

    e = ctx.profile.eval(anchor).  The state's impact variable I = R (sqrt(
    Rdot^2 + 2K - c^2/R^2) - s Rdot), s = direction, is the root of the
    action quadratic (rdot_plus_from_action; s = -1 takes the incoming
    velocity, so the flight runs back in time).  The straight flight meets
    the boundary at the time tau of  A tau^2 - 2 I tau = R_far^2 - R^2,
    A = (c^2 + I^2)/R^2, R_far = R(anchor + s tau): a fixed point, iterated
    _CHORD_STEPS times from R_far = R, or from R(guess) when there is a
    guess.  Returns anchor + s tau, or the guess unchanged where a square
    root would not be real; solve_monotone starts at the bracket midpoint
    from a first iterate outside its bracket.
    """
    r, dr, _ = e
    c2, r2 = ctx.c * ctx.c, r * r
    rad = dr * dr + 2.0 * K - c2 / r2
    if not rad > 0.0:
        return guess
    impact = r * (math.sqrt(rad) - direction * dr)
    i2 = impact * impact
    a = (c2 + i2) / r2
    if not a > 0.0:
        return guess
    r_far = r if guess is None else ctx.profile.radius(guess)
    for i in range(_CHORD_STEPS + 1):
        if i:
            r_far = ctx.profile.radius(x)
        disc = i2 + a * (r_far * r_far - r2)
        if not disc > 0.0:
            return guess
        x = anchor + direction * ((impact + math.sqrt(disc)) / a)
    return x


# (far-edge text, action name, strip) of the forward (+1) and backward (-1) solves
_STRIP_TEXT = {1: ("window exhaustion: d1 h(t0, t0+sigma)", "K0", "(t0, t0+sigma)"),
               -1: ("no preimage bracket: -d2 h(t1-sigma, t1)", "K1", "(t1-sigma, t1)")}


def _solve(ctx: GenFunContext, anchor: float, K: float, direction: int,
           guess: float | None = None) -> tuple[float, float]:
    """(time, action) of one map step from (anchor, K), anchor in [0, 1].

    direction +1 solves d1 h(anchor, x) = K for x in (anchor, anchor +
    sigma), -1 solves -d2 h(x, anchor) = K for x in (anchor - sigma,
    anchor).  Either f = (left side) - K falls away from the anchor, so one
    bracketed Newton solve serves both, inset by sigma * _EDGE at the anchor
    and started from the flight relation (_chord_start), which a guess (an
    orbit's warm start) only seeds.  The profile is evaluated at the anchor
    once and at each iterate once.  The far edge is evaluated only to word
    the error when there is no root.  The image action is in increment form,
    K -+ (d1 h + d2 h): equal to -d2 h or d1 h up to the root residual, but
    it conserves K bitwise on time-independent profiles.
    """
    e = ctx.profile.eval(anchor)
    if direction > 0:
        def fdf(x):
            d1, d2, d12 = grad_twist(ctx, anchor, e, x, ctx.profile.eval(x))
            return d1 - K, d12, d1, d2
    else:
        def fdf(x):
            d1, d2, d12 = grad_twist(ctx, x, ctx.profile.eval(x), anchor, e)
            return -d2 - K, -d12, d1, d2

    near = anchor + direction * (ctx.sigma * _EDGE)
    far = anchor + direction * ctx.sigma
    lo, hi = (near, far) if direction > 0 else (far, near)
    noise = 16.0 * _ULP * max(1.0, abs(K))  # of f: 16 ulp of the action
    start = _chord_start(ctx, anchor, e, K, direction, guess)
    x, found, (_, _, d1, d2) = solve_monotone(fdf, lo, hi, direction > 0, noise, start)
    if not found:
        edge, name, strip = _STRIP_TEXT[direction]
        f_far = fdf(far)[0]
        if f_far >= 0.0:
            raise DomainError(f"{edge} = {f_far + K} >= {name} = {K}")
        raise DomainError(f"no bracket for {name} = {K} in {strip}")
    return x, K - direction * (d1 + d2)


def _solve_forward_time(ctx: GenFunContext, t0: float, K0: float,
                        guess: float | None = None) -> tuple[float, float]:
    """(t1, K1) of one forward step from t0 in [0, 1); see _solve.

    It is a function of its own because the benchmark's tracer
    (perfbench/tracer.py) wraps it and names each forward solve cold or
    warm by its guess argument.
    """
    return _solve(ctx, t0, K0, 1, guess)


def _check_domain(ctx: GenFunContext, K: float, state: str = "state") -> float:
    """sigma_star(ctx), after raising DomainError unless K lies above it."""
    s_star = sigma_star(ctx)
    if K <= s_star:
        raise DomainError(f"{state} below map domain: K = {K} <= sigma_star = {s_star}")
    return s_star


def forward(ctx: GenFunContext, s: CylinderState) -> CylinderState:
    """One forward step.  Requires s.K > sigma_star(ctx).

    The step is solved on the fundamental domain t0 in [0, 1):
    generating-function periodicity makes the shift exact, and it keeps root
    precision independent of how far the orbit lift has travelled.  The
    image K may fall at or below sigma_star: the map domain is one-sided,
    so iterability of the image is the caller's check.
    """
    _check_domain(ctx, s.K)
    shift = math.floor(s.t)
    t1, k1 = _solve_forward_time(ctx, s.t - shift, s.K)
    return CylinderState(t=t1 + shift, K=k1)


class Orbit:
    """The one loop that iterates the map: at most n steps from s0.

    The state is kept as (winding, fraction), since a float lift near 1e6
    resolves only ~1e-10 and would spoil every later solve by |d12 h| ulp(t).
    Iterating yields (wind, frac, K, t1, K1) per step: the state at time
    wind + frac, the next bounce time t1 on the same winding and the image
    action.  Afterwards wind, frac and K hold the last state reached, steps
    the steps taken and reason why the orbit stopped early (None if it did
    not): a state that leaves the map domain stops it, while s0 outside the
    domain raises.  Iterate it once.
    """

    def __init__(self, ctx: GenFunContext, s0: CylinderState, n: int):
        n = check_count("n", n, 1)
        self.s_star = _check_domain(ctx, s0.K, "initial state")
        self.ctx, self.n = ctx, n
        self.wind = math.floor(s0.t)
        self.frac = s0.t - self.wind
        self.K = s0.K
        self.steps = 0
        self.reason: str | None = None

    def __iter__(self):
        ctx, s_star = self.ctx, self.s_star
        wind, frac, K = self.wind, self.frac, self.K
        guess = None
        for i in range(self.n):
            if K <= s_star:
                self.reason = (f"left map domain at bounce {i}: K = {K} <= "
                               f"sigma_star = {s_star}")
                return
            try:
                t1, K1 = _solve_forward_time(ctx, frac, K, guess)
            except DomainError as exc:
                self.reason = f"forward step failed at bounce {i}: {exc}"
                return
            yield wind, frac, K, t1, K1
            guess = t1 + (t1 - frac)  # next gap, relative to the new fraction
            m = math.floor(t1)
            wind += m
            frac = t1 - m
            guess -= m
            K = K1
            self.wind, self.frac, self.K, self.steps = wind, frac, K, i + 1


def backward(ctx: GenFunContext, s: CylinderState) -> CylinderState:
    """Preimage under the map: solves -d2 h(t0, t1) = K1 for t0 in (t1-sigma, t1)."""
    shift = math.floor(s.t)
    t0, k0 = _solve(ctx, s.t - shift, s.K, -1)
    return CylinderState(t=t0 + shift, K=k0)


def radial_velocity(ctx: GenFunContext, t: float, K: float) -> tuple[float, float]:
    """(rdot after bounce, rdot before bounce) at the state (t, K).

    Requires K > sigma_star(ctx).  The outgoing velocity is the inward root
    of the action quadratic (rdot_plus_from_action); the incoming one
    follows from the elastic reflection law rdot(-) = -rdot(+) + 2 Rdot(t).
    """
    _check_domain(ctx, K)
    rdot_plus = rdot_plus_from_action(ctx, t, K)
    return rdot_plus, -rdot_plus + 2.0 * ctx.profile.d_radius(t)


def rdot_plus_from_action(ctx: GenFunContext, t: float, K: float) -> float:
    """Outgoing radial velocity directly from the action variable:
    the inward root of K = rdot^2/2 + c^2/(2R^2) - rdot*Rdot."""
    r, dr, _ = ctx.profile.eval(t)
    rad = dr * dr + 2.0 * K - ctx.c * ctx.c / (r * r)
    if rad < 0:
        raise DomainError(f"no real radial velocity at (t, K) = ({t}, {K})")
    return dr - math.sqrt(rad)


def jacobian(ctx: GenFunContext, s: CylinderState,
             t1: float | None = None) -> MapJacobian:
    """Tangent map by implicit differentiation of the defining equations."""
    if t1 is None:
        t1 = forward(ctx, s).t
    shift = math.floor(s.t)
    d11, d12, d22 = hess_h(ctx, s.t - shift, t1 - shift)
    dt1_dt0 = -d11 / d12
    dt1_dK0 = 1.0 / d12
    dK1_dK0 = -d22 / d12
    dK1_dt0 = -d12 - d22 * dt1_dt0
    return MapJacobian(dt1_dt0=dt1_dt0, dt1_dK0=dt1_dK0,
                       dK1_dt0=dK1_dt0, dK1_dK0=dK1_dK0)


# --- cross-check map in impact variables ----------------------------------

def action_to_impact(ctx: GenFunContext, t: float, K: float) -> float:
    """I = -R(t) * rdot(t+), the impact variable paired with the bounce time."""
    return -ctx.profile.radius(t) * rdot_plus_from_action(ctx, t, K)


def impact_to_action(ctx: GenFunContext, t: float, I: float) -> float:
    r, dr, _ = ctx.profile.eval(t)
    rdot = -I / r
    return 0.5 * rdot * rdot + 0.5 * ctx.c * ctx.c / (r * r) - rdot * dr


def laederich_map(ctx: GenFunContext, t0: float, I0: float) -> tuple[float, float]:
    """Independent formulation of the bounce map in (t, I) variables.

    Solves  A tau^2 - 2 I0 tau = R(t1)^2 - R(t0)^2  with A = (c^2+I0^2)/R0^2
    for the next bounce time, then I1 = -I0 - 2 R1 Rdot(t1) + A tau.  Used
    solely as a cross-check of the generating-function map, so it shares no
    code with _solve: tau is iterated as the fixed point tau = (I0 + sqrt(
    I0^2 + A (R(t0 + tau)^2 - R0^2))) / A from R(t0 + tau) = R0 until an
    iterate repeats one of the previous two (a fixed point, or a two-cycle
    at the rounding floor).  As in forward, the step is taken from the
    anchor t0 - floor(t0).
    """
    if I0 <= 0:
        raise PreconditionError(f"impact variable must be positive, got {I0}")
    shift = math.floor(t0)
    anchor = t0 - shift
    r0 = ctx.profile.radius(anchor)
    i2, r02 = I0 * I0, r0 * r0
    a = (ctx.c * ctx.c + i2) / r02
    r1, last, before = r0, None, None
    for _ in range(_IMPACT_MAX_ITER):
        disc = i2 + a * (r1 * r1 - r02)
        if not disc >= 0.0:
            raise DomainError(f"no real flight time from t0 = {t0}: discriminant {disc} < 0")
        tau = (I0 + math.sqrt(disc)) / a
        if not tau <= ctx.sigma:
            raise DomainError("no bounce time found inside the flight window")
        if tau == last or tau == before:
            break
        last, before = tau, last
        r1 = ctx.profile.radius(anchor + tau)
    else:
        raise ConvergenceError(f"impact map: no fixed point of the flight time in "
                               f"{_IMPACT_MAX_ITER} iterates from t0 = {t0}, I0 = {I0}")
    t1 = anchor + tau
    r1, dr1, _ = ctx.profile.eval(t1)
    i1 = -I0 - 2.0 * r1 * dr1 + a * tau
    return t1 + shift, i1
