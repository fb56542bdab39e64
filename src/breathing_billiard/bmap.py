"""The billiard map as an exact symplectic twist map of the cylinder.

States are (t, K) with t the bounce time (real lift) and K = d1 h(t, t1)
the action variable.  The forward map solves d1 h(t0, .) = K0 for the next
bounce time (unique root: d1 h is strictly decreasing in its second slot and
blows up as the gap closes) and sets K1 = -d2 h(t0, t1).  The map is defined
for K above the cutoff sigma_star = max_t d1 h(t, t + sigma); images may
leave that domain.  Orbit is the one loop that iterates the map: it checks
the domain before every step and reports why an orbit stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ._search import circle_sup, solve_monotone
from .errors import DomainError, PreconditionError
from .genfun import GenFunContext, grad_h, hess_h

_EDGE = 1e-9  # relative inset of the root bracket at the strip edges
_SIGMA_STAR_GRID = 512  # sampling grid of the domain cutoff
_IMPACT_SCAN_N = 4096  # bracketing scan of laederich_map over the window


@dataclass(frozen=True)
class CylinderState:
    t: float
    K: float


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
    """Lower action cutoff of the map domain: max over t of d1 h(t, t+sigma)."""
    _, value = circle_sup(lambda t: grad_h(ctx, t, t + ctx.sigma)[0], _SIGMA_STAR_GRID)
    return value


# (far-edge text, action name, strip) of the forward (+1) and backward (-1) solves
_STRIP_TEXT = {1: ("window exhaustion: d1 h(t0, t0+sigma)", "K0", "(t0, t0+sigma)"),
               -1: ("no preimage bracket: -d2 h(t1-sigma, t1)", "K1", "(t1-sigma, t1)")}


def _strip_root(ctx: GenFunContext, f, fprime, anchor: float, direction: int,
                target: float, guess: float | None = None) -> float:
    """Root of f between anchor and anchor + direction * sigma.

    f is the defining equation of one map direction, offset by its target
    action: positive where the gap closes, so at the far edge it must be
    negative, or the target would need a flight longer than sigma.  The near
    end of the bracket sits sigma * _EDGE from the anchor and moves closer by
    1e-3 up to five times.
    """
    edge, name, strip = _STRIP_TEXT[direction]
    far = anchor + direction * ctx.sigma
    f_far = f(far)
    if f_far >= 0.0:
        raise DomainError(f"{edge} = {f_far + target} >= {name} = {target}")
    off = ctx.sigma * _EDGE
    for _ in range(6):
        near = anchor + direction * off
        f_near = f(near)
        if f_near > 0.0:
            break
        off *= 1e-3
    else:
        raise DomainError(f"no bracket for {name} = {target} in {strip}")
    if direction > 0:
        return solve_monotone(f, fprime, near, far, f_near, f_far, guess=guess)
    return solve_monotone(f, fprime, far, near, f_far, f_near, guess=guess)


def _solve_forward_time(ctx: GenFunContext, t0: float, K0: float,
                        guess: float | None = None) -> float:
    """Unique t1 in (t0, t0 + sigma) with d1 h(t0, t1) = K0.

    Solved on the fundamental domain t0 in [0, 1): generating-function
    periodicity makes the shift exact, and it keeps root precision
    independent of how far the orbit lift has travelled.
    """
    shift = math.floor(t0)
    if shift != 0:
        return shift + _solve_forward_time(ctx, t0 - shift, K0,
                                           guess=None if guess is None else guess - shift)
    sigma = ctx.sigma

    def f(t1):
        return grad_h(ctx, t0, t1)[0] - K0

    def fprime(t1):
        return hess_h(ctx, t0, t1)[1]

    def floor_estimate(x, d):
        # achievable |f|: moving the root by one ulp changes f by |f'| ulp(x),
        # plus the evaluation noise of f itself
        return 4.0 * abs(d) * 2.3e-16 * max(1.0, abs(x)) \
            + 16.0 * 2.3e-16 * max(1.0, abs(K0))

    # warm start: pure Newton, valid whenever it converges inside the strip
    # (f is strictly decreasing there, so any root found is the root)
    if guess is not None and t0 < guess < t0 + sigma:
        x = guess
        best_x, best_f = x, math.inf
        d = None
        for _ in range(24):
            fx = f(x)
            if fx == 0.0:
                return x
            stalled = abs(fx) >= best_f
            if not stalled:
                best_x, best_f = x, abs(fx)
            d = fprime(x)
            if stalled and best_f <= floor_estimate(best_x, d):
                return best_x  # converged to the rounding floor
            if d == 0.0:
                break
            x_new = x - fx / d
            if not (t0 < x_new < t0 + sigma) or x_new == x:
                break
            x = x_new
        if d is not None and best_f <= floor_estimate(best_x, d):
            return best_x

    return _strip_root(ctx, f, fprime, t0, 1, K0, guess=guess)


def forward(ctx: GenFunContext, s: CylinderState,
            t1_guess: float | None = None) -> CylinderState:
    """One forward step.  Requires s.K > sigma_star(ctx).

    The image K may fall at or below sigma_star: the map domain is
    one-sided, so iterability of the image is the caller's check.
    """
    s_star = sigma_star(ctx)
    if s.K <= s_star:
        raise DomainError(f"state below map domain: K = {s.K} <= sigma_star = {s_star}")
    # work on the fundamental domain so the degree-one lift is exact
    shift = math.floor(s.t)
    t1, k1 = _step(ctx, s.t - shift, s.K, None if t1_guess is None else t1_guess - shift)
    return CylinderState(t=t1 + shift, K=k1)


def _step(ctx: GenFunContext, t0: float, K0: float,
          guess: float | None) -> tuple[float, float]:
    """(t1, K1) of one forward step from t0 in [0, 1)."""
    t1 = _solve_forward_time(ctx, t0, K0, guess=guess)
    d1, d2 = grad_h(ctx, t0, t1)
    # increment form of K1 = -d2 h: identical up to the root residual of
    # d1 h = K0, but conserves K bitwise on time-independent profiles
    return t1, K0 - (d1 + d2)


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
        if n < 1:
            raise PreconditionError(f"need n >= 1 bounces, got {n}")
        self.s_star = sigma_star(ctx)
        if s0.K <= self.s_star:
            raise DomainError(f"initial state below map domain: K = {s0.K} <= {self.s_star}")
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
                t1, K1 = _step(ctx, frac, K, guess)
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
    if shift != 0:
        inner = backward(ctx, CylinderState(s.t - shift, s.K))
        return CylinderState(inner.t + shift, inner.K)
    t1, k1 = s.t, s.K

    def f(t0):
        return -grad_h(ctx, t0, t1)[1] - k1

    def fprime(t0):
        return -hess_h(ctx, t0, t1)[1]

    t0 = _strip_root(ctx, f, fprime, t1, -1, k1)
    d1, d2 = grad_h(ctx, t0, t1)
    return CylinderState(t=t0, K=k1 + (d1 + d2))


def radial_velocity(ctx: GenFunContext, t: float, K: float) -> tuple[float, float]:
    """(rdot after bounce, rdot before bounce) at the state (t, K).

    The outgoing velocity comes from the closed form of the connecting
    flight; the incoming one follows from the elastic reflection law
    rdot(-) = -rdot(+) + 2 Rdot(t).
    """
    t1 = forward(ctx, CylinderState(t, K)).t
    tau = t1 - t
    r0, dr0, _ = ctx.profile.eval(t)
    r1 = ctx.profile.radius(t1)
    s = math.sqrt(r0 * r0 * r1 * r1 - ctx.c * ctx.c * tau * tau)
    rdot_plus = -(r0 * r0 + s) / (r0 * tau)
    return rdot_plus, -rdot_plus + 2.0 * dr0


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
    solely as a cross-check of the generating-function map.
    """
    from scipy.optimize import brentq

    if I0 <= 0:
        raise PreconditionError(f"impact variable must be positive, got {I0}")
    shift = math.floor(t0)
    if shift != 0:
        t1, i1 = laederich_map(ctx, t0 - shift, I0)
        return t1 + shift, i1
    r0 = ctx.profile.radius(t0)
    a = (ctx.c * ctx.c + I0 * I0) / (r0 * r0)

    def g(tau):
        r1 = ctx.profile.radius(t0 + tau)
        return a * tau * tau - 2.0 * I0 * tau - (r1 * r1 - r0 * r0)

    sigma = ctx.sigma
    lo = sigma * 1e-12
    if g(lo) >= 0.0:
        raise DomainError("impact-map bracket failed at the short-flight end")
    step = sigma / _IMPACT_SCAN_N
    tau_root = None
    prev = lo
    for i in range(1, _IMPACT_SCAN_N + 1):
        tau = i * step
        if g(tau) > 0.0:
            tau_root = brentq(g, prev, tau, xtol=1e-13, rtol=8.9e-16)
            break
        prev = tau
    if tau_root is None:
        raise DomainError("no bounce time found inside the flight window")
    t1 = t0 + tau_root
    r1, dr1, _ = ctx.profile.eval(t1)
    i1 = -I0 - 2.0 * r1 * dr1 + a * tau_root
    return t1, i1
