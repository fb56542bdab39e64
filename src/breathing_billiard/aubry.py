"""Minimal orbits by direct minimisation of the discrete action.

A (p, q)-periodic configuration is q bounce times with t_{n+q} = t_n + p;
its action is the sum of the generating function over consecutive pairs.
Stationary configurations solve the discrete Euler-Lagrange equations and
are orbits of the billiard map; minimisers are the Aubry-Mather orbits.

The minimiser works on the compact gap box [omega-1, omega+1], which lies
in the strip because 1 < omega < sigma-1 and contains every minimal orbit
with rotation number omega by the universal spacing estimate
|t_n - t_m - (n-m) omega| <= 1, so no extension of the generating function
outside the strip is ever needed.
Projected Gauss-Seidel sweeps (each time minimised on its feasible
interval) rough out the configuration; a damped global Newton solve on the
stationarity system polishes it to machine precision.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._search import golden_max
from .errors import ConvergenceError, DomainError, PreconditionError
from .genfun import GenFunContext, grad_h, h, hess_h
from .simulate import el_defect

_SWEEP_BUDGET = 400  # Gauss-Seidel sweeps per start before the Newton polish
_RESIDUAL_TOL = 1e-8  # a start counts only if its polished residual is below


@dataclass(frozen=True)
class MinimalOrbit:
    p: int
    q: int
    times: tuple[float, ...]  # q times, lift normalised so times[0] in [0, 1)
    Ks: tuple[float, ...]
    action: float
    residual: float
    monotone: bool

    @property
    def omega(self) -> float:
        return self.p / self.q

    def gaps(self) -> list[float]:
        ts = list(self.times) + [self.times[0] + self.p]
        return [ts[i + 1] - ts[i] for i in range(self.q)]


@dataclass(frozen=True)
class HullSample:
    """Sampled hull functions (phi, eta) of a minimal orbit: the dynamics on
    the orbit is conjugated to the rigid rotation xi -> xi + omega."""

    omega: float
    p: int
    q: int
    xs: tuple[float, ...]
    phi: tuple[float, ...]
    eta: tuple[float, ...]


def action(ctx: GenFunContext, times) -> float:
    """Sum of h over consecutive pairs of an increasing time sequence."""
    ts = list(times)
    if len(ts) < 2:
        raise PreconditionError("need at least two times")
    return sum(h(ctx, ts[i], ts[i + 1]) for i in range(len(ts) - 1))


def el_residual(ctx: GenFunContext, times, p: int | None = None) -> float:
    """Max Euler-Lagrange defect |d2 h(t_{n-1}, t_n) + d1 h(t_n, t_{n+1})|.

    With p given the sequence is treated as (p, q)-periodic (wraparound
    pairs included); otherwise only interior nodes are checked.
    """
    ts = list(times)
    if p is not None:
        ts = [ts[-1] - p] + ts + [ts[0] + p]
    if len(ts) < 3:
        raise PreconditionError("need at least three times (or a periodic wrap)")
    return el_defect(ctx, zip(ts, ts[1:]))


def _neighbours(ts, p, j):
    """(t_prev, t_next) of node j in the (p, q)-periodic configuration ts."""
    q = len(ts)
    t_prev = ts[j - 1] if j > 0 else ts[q - 1] - p
    t_next = ts[j + 1] if j < q - 1 else ts[0] + p
    return t_prev, t_next


def _sweep(ctx, ts, p, g_lo, g_hi, xtol):
    """One projected Gauss-Seidel sweep; returns the largest move."""
    q = len(ts)
    moved = 0.0
    for j in range(q):
        t_prev, t_next = _neighbours(ts, p, j)
        lo = max(t_prev + g_lo, t_next - g_hi)
        hi = min(t_prev + g_hi, t_next - g_lo)
        if hi <= lo:
            continue
        pad = 1e-12 * (1.0 + abs(lo) + abs(hi))
        lo, hi = lo + pad, hi - pad
        if hi <= lo:
            continue

        def neg_phi(x):
            return -(h(ctx, t_prev, x) + h(ctx, x, t_next))

        x, _ = golden_max(neg_phi, lo, hi, xtol=xtol)
        # Newton polish on the stationarity equation when interior
        for _ in range(3):
            if not (lo < x < hi):
                break
            f = grad_h(ctx, t_prev, x)[1] + grad_h(ctx, x, t_next)[0]
            d = hess_h(ctx, t_prev, x)[2] + hess_h(ctx, x, t_next)[0]
            if d <= 0.0:
                break
            x_new = x - f / d
            if not (lo <= x_new <= hi) or x_new == x:
                break
            x = x_new
        moved = max(moved, abs(x - ts[j]))
        ts[j] = x
    return moved


def _residual_vec(ctx, ts, p):
    q = len(ts)
    out = np.empty(q)
    for j in range(q):
        t_prev, t_next = _neighbours(ts, p, j)
        out[j] = grad_h(ctx, t_prev, ts[j])[1] + grad_h(ctx, ts[j], t_next)[0]
    return out


def _newton_polish(ctx, ts, p, g_lo, g_hi, max_iter=40):
    """Damped Newton on the full periodic stationarity system."""
    q = len(ts)
    ts = list(ts)
    f = _residual_vec(ctx, ts, p)
    best = float(np.max(np.abs(f)))
    for _ in range(max_iter):
        if best == 0.0:
            break
        jac = np.zeros((q, q))
        for j in range(q):
            t_prev, t_next = _neighbours(ts, p, j)
            d22_prev = hess_h(ctx, t_prev, ts[j])
            d_next = hess_h(ctx, ts[j], t_next)
            jac[j, j] += d22_prev[2] + d_next[0]
            jac[j, (j - 1) % q] += d22_prev[1]
            jac[j, (j + 1) % q] += d_next[1]
        try:
            step = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        improved = False
        for _ in range(8):
            trial = [ts[j] - lam * step[j] for j in range(q)]
            gaps = [(_neighbours(trial, p, j)[1] - trial[j]) for j in range(q)]
            if all(g_lo < g < g_hi for g in gaps):
                try:
                    f_trial = _residual_vec(ctx, trial, p)
                except DomainError:
                    lam *= 0.5
                    continue
                r = float(np.max(np.abs(f_trial)))
                if r < best:
                    ts, f, best = trial, f_trial, r
                    improved = True
                    break
            lam *= 0.5
        if not improved:
            break
    return ts, best


def _env_workers() -> int:
    """Worker count from BB_THREADS; 1 when it is unset or malformed."""
    try:
        return max(1, int(os.environ.get("BB_THREADS", "1")))
    except ValueError:
        return 1


def _descend(args):
    """One multi-start descent; top-level so worker pools can pickle it."""
    ctx, p, ts0, g_lo, g_hi = args
    ts = list(ts0)
    xtol = 1e-4
    for _ in range(_SWEEP_BUDGET):
        moved = _sweep(ctx, ts, p, g_lo, g_hi, xtol)
        if moved < 10.0 * xtol:
            if xtol <= 1e-10:
                break
            xtol = max(xtol * 1e-3, 1e-10)
    ts, residual = _newton_polish(ctx, ts, p, g_lo, g_hi)
    return ts, residual


def periodic_orbit(ctx: GenFunContext, p: int, q: int,
                   starts: int = 16, seed: int = 0,
                   workers: int | None = None) -> MinimalOrbit:
    """Lowest-action stationary (p, q)-configuration over multi-start descent.

    Requires 1 < p/q < sigma - 1 (and sigma > 2).  Gaps are confined to the
    spacing estimate [omega-1, omega+1].  Deterministic given the seed; ties
    in the action within 1e-10 go to the smallest t_0 mod 1.  workers=None
    takes the worker count from BB_THREADS.
    """
    if q < 1:
        raise PreconditionError(f"q must be positive, got {q}")
    if math.gcd(p, q) != 1:
        raise PreconditionError(f"(p, q) = ({p}, {q}) must be coprime")
    sigma = ctx.sigma
    if not sigma > 2:
        raise PreconditionError(f"needs sigma > 2, got {sigma}")
    omega = p / q
    if not (1.0 < omega < sigma - 1.0):
        raise PreconditionError(
            f"rotation number {omega} outside (1, sigma-1) = (1, {sigma - 1})")
    g_lo, g_hi = omega - 1.0, omega + 1.0

    rng = np.random.default_rng(seed)
    amp = 0.45 * min(g_hi - omega, omega - g_lo, 1.0)
    configs = []
    base = [omega * j for j in range(q)]
    configs.append([float(rng.uniform(0.0, 1.0)) + b for b in base])
    for _ in range(max(0, starts - 1)):
        t0 = float(rng.uniform(0.0, 1.0))
        jitter = rng.uniform(-amp, amp, size=q)
        configs.append([t0 + base[j] + float(jitter[j]) for j in range(q)])

    if workers is None:
        workers = _env_workers()
    tasks = [(ctx, p, ts0, g_lo, g_hi) for ts0 in configs]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_descend, tasks))
    else:
        outcomes = [_descend(t) for t in tasks]

    best = None
    best_key = None
    diagnostics = []
    for ts, residual in outcomes:
        diagnostics.append(residual)
        if residual > _RESIDUAL_TOL:
            continue
        shift = math.floor(ts[0])
        ts_norm = [t - shift for t in ts]
        act = sum(h(ctx, *pair) for pair in _pairs(ts_norm, p))
        key = (round(act / 1e-10), ts_norm[0] % 1.0)
        if best is None or key < best_key:
            best, best_key = (ts_norm, residual, act), key
    if best is None:
        raise ConvergenceError(
            f"no start converged below residual {_RESIDUAL_TOL}",
            {"starts": starts, "best_residual": min(diagnostics, default=math.inf)})

    ts_norm, residual, act = best
    ks = tuple(float(grad_h(ctx, a, b)[0]) for a, b in _pairs(ts_norm, p))
    gaps = [b - a for a, b in _pairs(ts_norm, p)]
    return MinimalOrbit(p=p, q=q, times=tuple(float(t) for t in ts_norm), Ks=ks,
                        action=float(act), residual=float(residual),
                        monotone=all(g > 0 for g in gaps))


def _pairs(ts, p):
    full = list(ts) + [ts[0] + p]
    return [(full[i], full[i + 1]) for i in range(len(ts))]


def convergents(omega: float, denom_cap: int, max_terms: int = 32):
    """Continued-fraction convergents p/q of omega with q <= denom_cap."""
    if denom_cap < 1:
        raise PreconditionError(f"denom_cap must be >= 1, got {denom_cap}")
    out = []
    p_prev, q_prev = 1, 0
    p_cur, q_cur = int(math.floor(omega)), 1
    out.append((p_cur, q_cur))
    x = omega - math.floor(omega)
    for _ in range(max_terms):
        if x < 1e-12:
            break
        x = 1.0 / x
        a = int(math.floor(x))
        x -= a
        p_next = a * p_cur + p_prev
        q_next = a * q_cur + q_prev
        if q_next > denom_cap:
            break
        out.append((p_next, q_next))
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_next, q_next
    return out


def hull_samples(ctx: GenFunContext, omega: float, denom_cap: int = 64,
                 starts: int = 8, seed: int = 0,
                 workers: int | None = None) -> HullSample:
    """Hull-function samples from the best rational convergent p/q of omega.

    For rational omega (within float resolution) this is the periodic
    orbit itself; for irrational omega it is the standard approximation of
    the Mather set by periodic minimal orbits, arranged in cyclic order.
    """
    sigma = ctx.sigma
    if not (1.0 < omega < sigma - 1.0):
        raise PreconditionError(
            f"rotation number {omega} outside (1, sigma-1) = (1, {sigma - 1})")
    frac = Fraction(omega).limit_denominator(denom_cap)
    if abs(float(frac) - omega) < 1e-12:
        p, q = frac.numerator, frac.denominator
    else:
        cands = [(pp, qq) for pp, qq in convergents(omega, denom_cap)
                 if 1.0 < pp / qq < sigma - 1.0]
        if not cands:
            raise PreconditionError(
                f"no convergent of {omega} with denominator <= {denom_cap} in window")
        p, q = cands[-1]
    orbit = periodic_orbit(ctx, p, q, starts=starts, seed=seed, workers=workers)
    rot = p / q
    xs, phi, eta = [], [], []
    for n in range(q):
        lift = n * rot
        fl = math.floor(lift)
        xs.append(lift - fl)
        phi.append(orbit.times[n] - fl)
        eta.append(orbit.Ks[n])
    order = sorted(range(q), key=lambda i: xs[i])
    return HullSample(omega=omega, p=p, q=q,
                      xs=tuple(xs[i] for i in order),
                      phi=tuple(phi[i] for i in order),
                      eta=tuple(eta[i] for i in order))
