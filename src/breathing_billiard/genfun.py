"""Generating function of the bounce-to-bounce map.

h(t0, t1) is the reduced-Lagrangian action of the flight joining boundary
hits at t0 and t1 (plus a fixed additive constant c*pi absorbed into the
arctangent branch):

    h = tau*A/2 + c * arctan(c tau / sqrt(R0^2 R1^2 - c^2 tau^2)).

Its first partials are the outgoing/incoming radial actions that define the
cylinder map implicitly; the second partials feed the twist condition, the
map Jacobian and the invariant-curve destruction criterion.  All derivatives
are explicit closed forms (no numerical differentiation); finite-difference
oracles in the test suite guard the transcriptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError
from .radius import ProfileBounds, RadiusProfile, _ends, _grid, bounds as profile_bounds

_C_SLACK = 1.0 + 1e-9  # tolerate the closed end of the admissible c range


@dataclass(frozen=True)
class GenFunContext:
    """Profile bounds + angular momentum + working strip 0 < t1 - t0 <= sigma.

    bounds carries the profile and eps; profile is bounds.profile, kept as a
    plain attribute because every kernel reads it.  sigma defaults to the
    profile's flight-window constant; for constant profiles (sigma = +inf) a
    finite working sigma must be supplied.  The admissible momentum range is
    0 <= c <= eps * r_min^2 / sigma, which keeps the endpoint discriminant
    positive on the whole strip.
    """

    bounds: ProfileBounds
    c: float
    sigma: float
    profile: RadiusProfile = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "profile", self.bounds.profile)
        if math.isnan(self.c):
            raise PreconditionError(f"angular momentum c must be a number, got {self.c}")
        if self.c < 0:
            raise PreconditionError(f"angular momentum must be >= 0, got {self.c}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise PreconditionError("context needs a finite positive sigma "
                                    "(constant profiles: pass a working sigma)")
        # d1 h(t, t + sigma) is about 2 R^2 / sigma^2 at the strip edge
        q = self.bounds.r_max / self.sigma
        if not math.isfinite(2.0 * q * q):
            raise PreconditionError(f"sigma = {self.sigma} too small: d1 h(t, t + sigma) "
                                    f"~ 2 R^2 / sigma^2 overflows, with R <= {self.bounds.r_max}")
        c_max = self.bounds.eps * self.bounds.r_min ** 2 / self.sigma
        if self.c > c_max * _C_SLACK:
            raise PreconditionError(
                f"momentum too large for the strip: c = {self.c} > "
                f"eps*r_min^2/sigma = {c_max}")


def make_context(profile: RadiusProfile, c: float, eps: float,
                 sigma: float | None = None,
                 bounds: ProfileBounds | None = None) -> GenFunContext:
    """Context on the profile's own sigma unless a working sigma is given.

    bounds, when given, must be the profile's bounds at this eps (as held by
    a ClassVerdict); they are computed otherwise.
    """
    if bounds is None:
        bounds = profile_bounds(profile, eps)
    else:
        bounds.check(profile, eps)
    if sigma is None:
        sigma = bounds.sigma
    return GenFunContext(bounds=bounds, c=c, sigma=sigma)


def _core(ctx: GenFunContext, t0: float, e0, t1: float, e1):
    """Shared flight data: tau, radii/derivatives, discriminant root.

    e0 and e1 are the profile triples ctx.profile.eval(t0) and
    ctx.profile.eval(t1), so a caller that holds one endpoint fixed
    evaluates it once.
    """
    tau = t1 - t0
    # the closed upper edge tolerates the rounding of t0 + sigma - t0; a gap
    # whose square underflows to 0 is too short for the kernels' 1 / tau^2
    if not (0.0 < tau <= ctx.sigma * (1.0 + 1e-12) and tau * tau > 0.0):
        raise DomainError(f"(t0, t1) outside strip: tau = {tau}, sigma = {ctx.sigma}")
    r0, dr0, ddr0 = e0
    r1, dr1, ddr1 = e1
    disc = r0 * r0 * r1 * r1 - ctx.c * ctx.c * tau * tau
    # cannot fail under the context momentum bound; a failure means the
    # context was built with an out-of-contract sigma/c pair
    if not disc > 0.0:
        raise DomainError(f"degenerate discriminant {disc} inside the strip")
    return tau, r0, dr0, ddr0, r1, dr1, ddr1, math.sqrt(disc)


def h(ctx: GenFunContext, t0: float, t1: float) -> float:
    """Action value of the flight (t0, t1)."""
    e0, e1 = _ends(ctx.profile.eval, t0, t1)
    return h_ends(ctx, t0, e0, t1, e1)


def h_ends(ctx: GenFunContext, t0: float, e0, t1: float, e1) -> float:
    """h from evaluated endpoints (e = ctx.profile.eval(t)), as grad_twist is grad_h's."""
    tau, r0, _, _, r1, _, _, s = _core(ctx, t0, e0, t1, e1)
    a = (r0 * r0 + r1 * r1 + 2.0 * s) / (tau * tau)
    return 0.5 * tau * a + ctx.c * math.atan(ctx.c * tau / s)


def grad_h(ctx: GenFunContext, t0: float, t1: float) -> tuple[float, float]:
    """(d1 h, d2 h), the first two entries of grad_twist."""
    e0, e1 = _ends(ctx.profile.eval, t0, t1)
    return grad_twist(ctx, t0, e0, t1, e1)[:2]


def d1h_edge_grid(ctx: GenFunContext, n: int):
    """d1 h(t, t + sigma) at t = i/n, i < n, as a numpy array.

    The times and expressions are those of grad_h(ctx, t, t + ctx.sigma),
    on radius._grid arrays, so only np.sin and np.cos may round
    differently.  A gap t + sigma - t that rounds to 0 or a discriminant
    that is not positive at some grid point raises DomainError, as _core
    does, instead of turning into a NaN.
    """
    t0 = np.arange(n) * (1.0 / n)
    tau = (t0 + ctx.sigma) - t0
    if not (tau > 0.0).all():
        raise DomainError(f"(t0, t1) outside strip: tau = {tau.min()}, sigma = {ctx.sigma}")
    r0, dr0, _ = _grid(ctx.profile, n)
    r1, _, _ = _grid(ctx.profile, n, ctx.sigma)
    c2 = ctx.c * ctx.c
    disc = r0 * r0 * r1 * r1 - c2 * tau * tau
    if not (disc > 0.0).all():
        raise DomainError(f"degenerate discriminant {disc.min()} inside the strip")
    u0 = (r0 * r0 + np.sqrt(disc)) / (r0 * tau)
    return 0.5 * c2 / (r0 * r0) + 0.5 * u0 * u0 + dr0 * u0


def hess_h(ctx: GenFunContext, t0: float, t1: float) -> tuple[float, float, float]:
    """(d11 h, d12 h, d22 h) in closed form; d12 h < 0 on the whole strip."""
    e0, e1 = _ends(ctx.profile.eval, t0, t1)
    tau, r0, dr0, ddr0, r1, dr1, ddr1, s = _core(ctx, t0, e0, t1, e1)
    c2 = ctx.c * ctx.c
    tau2 = tau * tau
    u0 = (r0 * r0 + s) / (r0 * tau)
    u1 = (r1 * r1 + s) / (r1 * tau)

    du0_dt1 = r0 * (r1 * dr1 * tau - s - r1 * r1) / (tau2 * s)
    d12 = (u0 + dr0) * du0_dt1

    du0_dt0 = ((2.0 * r0 * dr0 + (r0 * dr0 * r1 * r1 + c2 * tau) / s) * r0 * tau
               - (r0 * r0 + s) * (dr0 * tau - r0)) / (r0 * r0 * tau2)
    d11 = -c2 * dr0 / (r0 ** 3) + (u0 + dr0) * du0_dt0 + ddr0 * u0

    du1_dt1 = ((2.0 * r1 * dr1 + (r1 * dr1 * r0 * r0 - c2 * tau) / s) * r1 * tau
               - (r1 * r1 + s) * (dr1 * tau + r1)) / (r1 * r1 * tau2)
    d22 = c2 * dr1 / (r1 ** 3) + (dr1 - u1) * du1_dt1 + ddr1 * u1
    return d11, d12, d22


def grad_twist(ctx: GenFunContext, t0: float, e0, t1: float, e1) -> tuple[float, float, float]:
    """(d1 h, d2 h, d12 h) from evaluated endpoints (e = ctx.profile.eval(t)).

    d1 h =  c^2/(2 R0^2) + u0^2/2 + Rdot0 * u0   with u0 = (R0^2+S)/(R0 tau),
    d2 h = -c^2/(2 R1^2) - u1^2/2 + Rdot1 * u1   with u1 = (R1^2+S)/(R1 tau);
    u0 = -rdot(t0+) and u1 = +rdot(t1-) of the connecting flight.
    The kernel of the map solves: f and f' of either direction in one call.
    d12 h is hess_h's expression, so its value is bit-identical to hess_h's.
    """
    tau, r0, dr0, _, r1, dr1, _, s = _core(ctx, t0, e0, t1, e1)
    c2 = ctx.c * ctx.c
    u0 = (r0 * r0 + s) / (r0 * tau)
    u1 = (r1 * r1 + s) / (r1 * tau)
    d1 = 0.5 * c2 / (r0 * r0) + 0.5 * u0 * u0 + dr0 * u0
    d2 = -0.5 * c2 / (r1 * r1) - 0.5 * u1 * u1 + dr1 * u1
    d12 = (u0 + dr0) * (r0 * (r1 * dr1 * tau - s - r1 * r1) / (tau * tau * s))
    return d1, d2, d12
