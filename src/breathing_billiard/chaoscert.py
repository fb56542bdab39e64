"""Converse-KAM certification: destroying invariant curves by sign.

On an invariant curve of an exact symplectic twist map the second variation
of the action along its orbits must be nonnegative, so the diagnostic

    a(t, K) = d11 h(t, t_next) + d22 h(t_prev, t)

is positive on every curve.  For profiles in class R_tilde there is a
rotation-number window whose curves, if they existed, would be forced to
carry a point (t_witness, K) with K in an explicit action band; evaluating
a on that band and finding it negative everywhere certifies that no such
curve exists, which is the mechanism behind positive-entropy motion.  A
Lyapunov-exponent estimator supplies numerical evidence for the chaos the
certificate implies.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import bmap
from ._search import solve_monotone
from ._version import VERSION
from .bmap import CylinderState
from .errors import DomainError, PreconditionError, check_count
from .genfun import GenFunContext, hess_h, make_context
from .radius import ClassVerdict, RadiusProfile, classify

DEFAULT_OMEGA_GRID = 33
DEFAULT_K_SAMPLES = 257


class KBand(NamedTuple):
    """Action band forced on invariant curves of rotation number omega."""

    omega: float
    k_lo: float
    k_hi: float


@dataclass
class ChaosCertificate:
    """Outcome of certify.  A refusal keeps NaN or empty in the fields of the
    stages it did not reach, and only the class verdict's margins."""

    profile: RadiusProfile
    eps: float
    c: float
    margins: dict[str, float]
    certified: bool = False
    reason: str | None = None
    t_witness: float = math.nan
    ddR_witness: float = math.nan
    omega_window: tuple[float, float] = (math.nan, math.nan)
    bands: list[KBand] = field(default_factory=list)
    k_range: tuple[float, float] = (math.nan, math.nan)
    widen_margin: float = math.nan
    a_grid: list[tuple[float, float]] = field(default_factory=list)
    a_max: float = math.nan

    def to_dict(self) -> dict:
        return {**asdict(self), "tool_version": VERSION,
                "profile_literal": self.profile.to_json()}


@dataclass(frozen=True)
class LyapunovEstimate:
    lam: float
    steps: int
    completed: bool
    reason: str | None = None  # why the orbit stopped short of n steps


@dataclass
class C0SearchResult:
    c0: float | None
    c_max: float
    tested: list[tuple[float, bool]]
    monotone_observed: bool
    reason: str | None = None


def _verdict(profile: RadiusProfile, eps: float,
             verdict: ClassVerdict | None) -> ClassVerdict:
    """classify(profile, eps), or the given verdict once it is checked to be
    that one."""
    if verdict is None:
        return classify(profile, eps)
    verdict.bounds.check(profile, eps)
    return verdict


def xi_interval(profile: RadiusProfile, eps: float,
                verdict: ClassVerdict | None = None) -> tuple[float, float]:
    """Open rotation-number window attached to the strongest witness: the
    R_tilde verdict's window, which ClassVerdict keeps inside (3, sigma - 1)."""
    return _window(_verdict(profile, eps, verdict))


def _window(verdict: ClassVerdict) -> tuple[float, float]:
    """xi_interval of the profile and eps that verdict.bounds carries."""
    if verdict.klass != "R_tilde":
        raise PreconditionError("profile is not in class R_tilde")
    return verdict.window


def k_band(verdict: ClassVerdict, omega: float) -> KBand:
    """Forced action band for invariant curves of rotation number omega, on
    the profile and eps that verdict.bounds carries."""
    w_lo, w_hi = _window(verdict)
    if not (w_lo < omega < w_hi):
        raise DomainError(f"omega = {omega} outside the window ({w_lo}, {w_hi})")
    b = verdict.bounds
    k_lo = 2.0 * b.r_min ** 2 / (omega + 1.0) ** 2 - 2.0 * b.dR_norm * b.r_max / (omega + 1.0)
    k_hi = 2.0 * b.r_max ** 2 / (omega - 1.0) ** 2 + 2.0 * b.dR_norm * b.r_max / (omega - 1.0)
    return KBand(omega=omega, k_lo=k_lo, k_hi=k_hi)


def a_exact(ctx: GenFunContext, t_bar: float, K: float) -> float:
    """Second-variation diagnostic at (t_bar, K) using the exact neighbour
    bounce times of the map (forward and backward)."""
    s = CylinderState(t_bar, K)
    t1 = bmap.forward(ctx, s).t
    t_m1 = bmap.backward(ctx, s).t
    d11 = hess_h(ctx, t_bar, t1)[0]
    d22 = hess_h(ctx, t_m1, t_bar)[2]
    return d11 + d22


def _sweep(ctx: GenFunContext, t_bar: float, ks):
    """(K, a_exact(ctx, t_bar, K)) for each K of ks in turn: the one loop of
    certify's a(K) samples, at the band edges and on the K grid."""
    return ((k_val, a_exact(ctx, t_bar, k_val)) for k_val in ks)


def alpha_limit(verdict: ClassVerdict, K: float) -> tuple[float, float]:
    """Zero-momentum limit of the diagnostic at the first witness of an
    R_tilde verdict: (limit, upper bound 2 sqrt(2K) (Rddot + K / r_min)).

    Its neighbour times t = t_bar +- (R(t_bar) + R(t)) / sqrt(2K), where the
    neighbour radii are R, are solve_monotone roots on [t_bar +- 2 r_min,
    t_bar +- 2 r_max] / sqrt(2K); the precondition ||Rdot||^2 < 2K < inf
    makes the slope 1 -+ Rdot / sqrt(2K) positive, so each root unique.
    """
    _window(verdict)  # refuses a verdict without a witness, as k_band does
    t_bar, ddr = verdict.witnesses[0]
    b = verdict.bounds
    if not b.dR_norm ** 2 < 2.0 * K < math.inf:
        raise PreconditionError(f"need ||Rdot||^2 = {b.dR_norm ** 2} < 2K < inf, got K = {K}")
    profile = b.profile
    speed = math.sqrt(2.0 * K)
    r_t = profile.radius(t_bar)

    def neighbour_radius(side: float) -> float:
        def fdf(t):
            r, dr, _ = profile.eval(t)
            return t - t_bar - side * (r_t + r) / speed, 1.0 - side * dr / speed, r

        lo, hi = sorted(t_bar + side * 2.0 * r / speed for r in (b.r_min, b.r_max))
        # the bracket holds the one root, so a collapse to rounding width is it too
        return solve_monotone(fdf, lo, hi, False, 0.0)[2][2]

    r_next, r_prev = neighbour_radius(1.0), neighbour_radius(-1.0)
    limit = 2.0 * speed * (ddr + K * (1.0 / (r_prev + r_t) + 1.0 / (r_next + r_t)))
    return limit, 2.0 * speed * (ddr + K / b.r_min)


def certify(profile: RadiusProfile, eps: float, c: float,
            omega_grid: int = DEFAULT_OMEGA_GRID,
            k_samples: int = DEFAULT_K_SAMPLES,
            verdict: ClassVerdict | None = None) -> ChaosCertificate:
    """Full destruction certificate at a concrete momentum c.

    Pipeline: class R_tilde check, strongest stationary witness, rotation
    window, union of forced action bands over an omega grid, then the
    diagnostic sampled across the band union widened by twice the largest
    observed gap between the exact diagnostic and its zero-momentum limit.
    Certified means every sample is negative: any invariant curve with
    rotation number in the window would have to carry a nonnegative value
    inside the band.  verdict, when given, must be classify(profile, eps);
    the profile is classified otherwise.  omega_grid >= 1 and k_samples >= 2
    (one sample would check only the lower end of the K range), and neither
    may pass errors.MAX_COUNT.
    """
    omega_grid = check_count("omega_grid", omega_grid, 1, size=lambda n: n)
    k_samples = check_count("k_samples", k_samples, 2, size=lambda n: n)

    verdict = _verdict(profile, eps, verdict)
    cert = ChaosCertificate(profile=profile, eps=eps, c=c, margins=dict(verdict.margins))
    if verdict.klass != "R_tilde":
        cert.reason = f"profile class is {verdict.klass}, needs R_tilde"
        return cert
    t_bar, ddr = verdict.witnesses[0]
    cert.t_witness, cert.ddR_witness = t_bar, ddr
    b = verdict.bounds
    if not (0.0 < c < b.c_max):
        cert.reason = f"momentum c = {c} outside (0, {b.c_max})"
        return cert

    w_lo, w_hi = cert.omega_window = verdict.window
    omegas = np.linspace(w_lo, w_hi, omega_grid + 2)[1:-1]
    bands = cert.bands = [k_band(verdict, float(w)) for w in omegas]

    # chain margins of the band construction (positive = holds)
    floor_k = 2.0 * b.r_max ** 2 / b.sigma ** 2
    ceil_k = -ddr * b.r_min
    margins = {
        "band_above_floor": min(band.k_lo - floor_k for band in bands),
        "band_below_ceiling": min(ceil_k - band.k_hi for band in bands),
        "band_nonempty": min(band.k_hi - band.k_lo for band in bands),
    }
    ctx = make_context(profile, c, eps, bounds=b)
    where = "band grid"
    try:
        # empirical widening: twice the largest gap between the exact diagnostic
        # and its c->0 limit, observed at the band edges of the omega grid
        edges = [k_val for band in bands for k_val in (band.k_lo, band.k_hi)]
        widen = 2.0 * max(0.0, *(abs(a_val - alpha_limit(verdict, k_val)[0])
                                 for k_val, a_val in _sweep(ctx, t_bar, edges)))
        k_min = min(band.k_lo for band in bands) - widen
        k_max = max(band.k_hi for band in bands) + widen
        s_star = bmap.sigma_star(ctx)
        if k_min <= s_star:
            margins["k_range_clamped_at"] = s_star
            k_min = s_star * (1.0 + 1e-9)
        where = "K grid"
        a_grid = list(_sweep(ctx, t_bar, np.linspace(k_min, k_max, k_samples).tolist()))
    except DomainError as exc:
        cert.reason = f"diagnostic left the map domain on the {where}: {exc}"
        return cert
    a_max = max(a for _, a in a_grid)
    cert.margins = {**margins, "a_max_negative": -a_max, **verdict.margins}
    cert.k_range = (k_min, k_max)
    cert.widen_margin = widen
    cert.a_grid = a_grid
    cert.a_max = a_max
    cert.certified = bool(a_max < 0.0)
    return cert


def c0_search(profile: RadiusProfile, eps: float, iters: int = 20,
              omega_grid: int = DEFAULT_OMEGA_GRID,
              k_samples: int = DEFAULT_K_SAMPLES) -> C0SearchResult:
    """Largest certified momentum: c_max = eps r_min^2 / sigma, then halvings
    down to a certified lo, then bisection between lo and the last refused
    momentum (2 lo, or c_max itself after one halving).

    Monotonicity of the verdict in c is plausible but unproven; the result
    reports whether the tested verdicts happened to be monotone instead of
    asserting it.  The profile is classified once, and every certify call
    reuses that verdict.  The bisection stops early once its midpoint rounds
    to one of its ends, both of them momenta already tested.
    """
    iters = check_count("iters", iters, 0)
    verdict = classify(profile, eps)
    if verdict.klass != "R_tilde":
        return C0SearchResult(c0=None, c_max=math.nan, tested=[],
                              monotone_observed=True,
                              reason=f"profile class is {verdict.klass}, needs R_tilde")
    c_max = verdict.bounds.c_max
    tested: list[tuple[float, bool]] = []

    def ok(c):
        cert = certify(profile, eps, c, omega_grid=omega_grid, k_samples=k_samples,
                       verdict=verdict)
        tested.append((c, cert.certified))
        return cert.certified

    lo = hi = c_max * (1.0 - 1e-9)
    for _ in range(41):  # c_max, then up to 40 halvings
        if ok(lo):
            break
        # the bisection keeps the last refused momentum as its upper end
        hi, lo = lo, 0.5 * lo
    else:
        return C0SearchResult(c0=None, c_max=c_max, tested=tested,
                              monotone_observed=_monotone(tested),
                              reason=f"no certified momentum found down to {hi}")
    # a certified c_max is the answer itself: nothing to bisect
    for _ in range(iters if lo < hi else 0):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return C0SearchResult(c0=lo, c_max=c_max, tested=tested,
                          monotone_observed=_monotone(tested))


def _monotone(tested):
    verdicts = [good for _, good in sorted(tested)]
    return verdicts == sorted(verdicts, reverse=True)


def lyapunov(ctx: GenFunContext, s0: CylinderState, n: int) -> LyapunovEstimate:
    """Largest Lyapunov exponent estimate along the orbit of s0.

    One tangent vector is pushed by the map Jacobian and renormalised each
    step; lam is the average of the log-norms.  An orbit leaving the
    map domain yields a partial estimate with the reason attached.
    """
    orbit = bmap.Orbit(ctx, s0, n)
    v = (1.0, 0.0)
    total = 0.0
    for _, frac, K, t1, _ in orbit:
        # det J = 1, so the pushed unit vector never has zero norm
        v = bmap.jacobian(ctx, CylinderState(frac, K), t1=t1).apply(v)
        norm = math.hypot(v[0], v[1])
        total += math.log(norm)
        v = (v[0] / norm, v[1] / norm)
    steps = orbit.steps
    return LyapunovEstimate(lam=total / steps if steps else math.nan, steps=steps,
                            completed=orbit.reason is None, reason=orbit.reason)


def lyapunov_table(ctx: GenFunContext, k_lo: float, k_hi: float,
                   seeds: int, n: int, seed: int = 0) -> list[dict]:
    """Lyapunov estimates for `seeds` random states in a K band."""
    seeds, seed = check_count("seeds", seeds, 1), check_count("seed", seed, 0)
    if not -math.inf < k_lo < k_hi < math.inf:
        raise PreconditionError(f"need finite k_lo < k_hi, got ({k_lo}, {k_hi})")
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(seeds):
        t0 = float(rng.uniform(0.0, 1.0))
        k0 = float(rng.uniform(k_lo, k_hi))
        est = lyapunov(ctx, CylinderState(t0, k0), n)
        rows.append({"seed_index": i, "t0": t0, "K0": k0, "lambda": est.lam,
                     "steps": est.steps, "completed": est.completed,
                     "reason": est.reason})
    return rows
