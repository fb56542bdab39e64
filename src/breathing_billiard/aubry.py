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
Coarse projected Gauss-Seidel sweeps (each time minimised on its feasible
interval by golden section to 1e-4, one profile evaluation a step) rough out
the configuration until no time moves by more than 1e-3; a damped global
Newton solve on the stationarity system, one O(q) solve of its cyclic
tridiagonal Hessian a step, polishes it to machine precision.  Every
converged configuration is labelled from its point of smallest t mod 1, so
an isolated minimum is reported the same whichever start found it.  Where
minimal orbits form a continuous family (every translate of one on a
constant profile), each start settles on its own member: the action is the
same, but the reported phase depends on the starts and so on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import golden_max
from .errors import ConvergenceError, DomainError, PreconditionError, check_count
from .genfun import GenFunContext, grad_h, grad_twist, h, h_ends, hess_h

_SWEEP_BUDGET = 400  # Gauss-Seidel sweeps per start before the Newton polish
_SWEEP_XTOL = 1e-4  # golden-section tolerance of every sweep
_SWEEP_STOP = 1e-3  # sweeping ends once no time moves by more than this
_RESIDUAL_TOL = 1e-8  # a start counts only if its polished residual is below
_POLISH_MAX_ITER = 40  # Newton steps of the polish
_CF_MAX_TERMS = 32  # continued-fraction terms convergents expands at most
_TIE_RTOL = 1e-13  # actions this close (relative) tie; rounding noise is ~4e-16


@dataclass(frozen=True)
class MinimalOrbit:
    p: int
    q: int
    times: tuple[float, ...]  # q times, lift normalised so times[0] in [0, 1)
    Ks: tuple[float, ...]
    action: float
    residual: float  # el_residual of times

    def gaps(self) -> list[float]:
        return [b - a for a, b in _pairs(self.times, self.p)]


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


def el_residual(ctx: GenFunContext, times, p: int) -> float:
    """Max Euler-Lagrange defect |d2 h(t_{n-1}, t_n) + d1 h(t_n, t_{n+1})|
    of the (p, q)-periodic configuration times, wraparound pairs included:
    the largest |entry| of the polish's _residual."""
    ts = list(times)
    if not ts:
        raise PreconditionError("need at least one time")
    if not all(map(math.isfinite, ts)):
        raise DomainError(f"times {ts} outside strip: not finite")
    return max(map(abs, _residual(ctx, ts, p)))


def _pairs(ts, p):
    """Consecutive pairs of the (p, q)-periodic ts, closed by (t_{q-1}, t_0 + p)."""
    return list(zip(ts, [*ts[1:], ts[0] + p]))


def _sweep(ctx, ts, p, g_lo, g_hi):
    """One projected Gauss-Seidel sweep at _SWEEP_XTOL; returns the largest move.
    Each golden-section step evaluates the profile once, at x."""
    evaluate = ctx.profile.eval
    moved = 0.0
    for j in range(len(ts)):
        t_prev = ts[j - 1] if j else ts[-1] - p
        t_next = ts[j + 1] if j + 1 < len(ts) else ts[0] + p
        lo = max(t_prev + g_lo, t_next - g_hi)
        hi = min(t_prev + g_hi, t_next - g_lo)
        pad = 1e-12 * (1.0 + abs(lo) + abs(hi))
        lo, hi = lo + pad, hi - pad
        if hi <= lo:
            continue
        e_prev, e_next = evaluate(t_prev), evaluate(t_next)

        def neg_phi(x):
            e = evaluate(x)
            return -(h_ends(ctx, t_prev, e_prev, x, e) + h_ends(ctx, x, e, t_next, e_next))

        x, _ = golden_max(neg_phi, lo, hi, xtol=_SWEEP_XTOL)
        moved = max(moved, abs(x - ts[j]))
        ts[j] = x
    return moved


def _residual(ctx, ts, p):
    """Stationarity residual of the (p, q)-periodic action: q + 1 profile
    evaluations (eval(t_0 + p) rounds apart from eval(t_0)) and one grad_twist per pair."""
    ends = [ctx.profile.eval(t) for t in [*ts, ts[0] + p]]
    f = [0.0] * len(ts)
    for j, (a, b) in enumerate(_pairs(ts, p)):
        d1, d2, _ = grad_twist(ctx, a, ends[j], b, ends[j + 1])
        f[j] += d1
        f[(j + 1) % len(ts)] += d2
    return f


def _hessian(ctx, ts, p):
    """Hessian of the (p, q)-periodic action, cyclic tridiagonal, as lists
    (diag, off) with off[j] coupling t_j and t_{j+1 mod q}: one hess_h per pair."""
    diag, off = [0.0] * len(ts), []
    for j, (a, b) in enumerate(_pairs(ts, p)):
        d11, d12, d22 = hess_h(ctx, a, b)
        diag[j] += d11
        diag[(j + 1) % len(ts)] += d22
        off.append(d12)
    return diag, off


def _newton_step(diag, off, f):
    """The solution x of H x = f, in O(q), for the Hessian (diag, off) of
    _hessian.  t_0 is eliminated by its Schur complement s = H_00 - r^T B^-1 r:
    B is the tridiagonal block of t_1..t_{q-1}, r is H's column 0 below t_0
    (at q = 2 both couplings), and one unpivoted Thomas factorisation of B
    serves f[1:] and r.  Where |s| <= 1e-12 |H_00|, as on a family of minimal
    orbits (every translate of one on a constant profile), t_0 stays fixed."""
    q = len(diag)
    h00 = diag[0] + 2.0 * off[0] if q == 1 else diag[0]
    r = [(off[0] if i == 1 else 0.0) + (off[-1] if i == q - 1 else 0.0) for i in range(1, q)]
    c, y, z = [0.0], [0.0], [0.0]  # a zero row above B starts the elimination
    for i in range(1, q):  # Thomas on B, whose row i - 1 is t_i's
        w = diag[i] - off[i - 1] * c[-1]
        c.append(off[i] / w)
        y.append((f[i] - off[i - 1] * y[-1]) / w)
        z.append((r[i - 1] - off[i - 1] * z[-1]) / w)
    for i in range(q - 2, 0, -1):
        y[i] -= c[i] * y[i + 1]
        z[i] -= c[i] * z[i + 1]
    s = h00 - sum(a * b for a, b in zip(r, z[1:]))
    x0 = 0.0 if abs(s) <= 1e-12 * abs(h00) else (f[0] - sum(a * b for a, b in zip(r, y[1:]))) / s
    return [x0, *(a - x0 * b for a, b in zip(y[1:], z[1:]))]


def _newton_polish(ctx, ts, p, g_lo, g_hi):
    """Damped Newton on the full periodic stationarity system by _newton_step.
    A failed halving costs one residual: only a step's start builds a Hessian."""
    f = _residual(ctx, ts, p)
    best = max(map(abs, f))
    for _ in range(_POLISH_MAX_ITER):
        if best == 0.0:
            break
        step = _newton_step(*_hessian(ctx, ts, p), f)
        for k in range(8):  # halve the step until the residual drops
            trial = [t - 0.5 ** k * d for t, d in zip(ts, step)]
            if not all(g_lo < t1 - t0 < g_hi for t0, t1 in _pairs(trial, p)):
                continue
            f_trial = _residual(ctx, trial, p)
            r = max(map(abs, f_trial))
            if r < best:
                ts, f, best = trial, f_trial, r
                break
        else:
            break
    return ts


def _check_window(omega, sigma):
    """Raise PreconditionError unless 1 < omega < sigma - 1."""
    if not (1.0 < omega < sigma - 1.0):
        raise PreconditionError(
            f"rotation number {omega} outside (1, sigma-1) = (1, {sigma - 1})")


def periodic_orbit(ctx: GenFunContext, p: int, q: int,
                   starts: int = 16, seed: int = 0,
                   workers: int = 1) -> MinimalOrbit:
    """Lowest-action stationary (p, q)-configuration over multi-start descent.

    Requires 1 < p/q < sigma - 1, which implies sigma > 2, and q <= 1024, which
    bounds the run time: up to 400 sweeps of q golden-section searches a start.
    Gaps are confined to the spacing estimate [omega-1, omega+1].  Each start
    is swept coarsely, polished by Newton and labelled from its point of
    smallest t mod 1, with times[0] in [0, 1); its residual is el_residual
    of those times, which a start must bring to 1e-8 to count, and every
    field reported is read off the returned times.  Actions
    within 1e-13 relative count as tied, and a tie goes to the smaller times[0].
    An isolated minimum is therefore reported whichever start found it; on
    a continuous family of minimal orbits (a constant profile) only the
    action is, and times[0] depends on seed.
    The starts are rigid rotations t_j = (k + phase)/starts + j omega,
    k < starts, run one after another (workers must be 1); phase is 0 for
    seed 0 and one uniform draw of default_rng(seed) otherwise.

    The result is the lowest action among the starts, not a proven minimum.
    Rigid starts are in cyclic order, and the twist condition keeps the
    sweeps order-preserving, so every start descends to a Birkhoff orbit.
    On the find_member(1, 0.05, min_window=1) member at c = 1 with
    starts=8, seeds 0-5 give one action (to 2.4e-10) at (445, 14),
    (571, 18), (664, 21) and (667, 21).  A single start still misses it at
    (445, 14) and (667, 21).
    """
    if workers != 1:
        raise PreconditionError(f"starts run serially: workers must be 1, got {workers}")
    p = check_count("p", p)
    q = check_count("q", q, 1, size=lambda q: q * q)  # caps the sweeps' run time
    starts, seed = check_count("starts", starts, 1), check_count("seed", seed, 0)
    if math.gcd(p, q) != 1:
        raise PreconditionError(f"(p, q) = ({p}, {q}) must be coprime")
    omega = p / q
    _check_window(omega, ctx.sigma)
    g_lo, g_hi = omega - 1.0, omega + 1.0

    phase = float(np.random.default_rng(seed).uniform()) if seed else 0.0
    converged = []
    best_residual = math.inf
    for k in range(starts):
        ts = [(k + phase) / starts + omega * j for j in range(q)]
        for _ in range(_SWEEP_BUDGET):
            if _sweep(ctx, ts, p, g_lo, g_hi) <= _SWEEP_STOP:
                break
        ts = _canonical(_newton_polish(ctx, ts, p, g_lo, g_hi), p)
        residual = el_residual(ctx, ts, p)
        best_residual = min(best_residual, residual)
        if residual <= _RESIDUAL_TOL:
            converged.append((action(ctx, ts + [ts[0] + p]), ts, residual))
    if not converged:
        raise ConvergenceError(
            f"no start converged below residual {_RESIDUAL_TOL}",
            {"starts": starts, "best_residual": best_residual})

    act_min = min(c[0] for c in converged)
    act, ts, residual = min((c for c in converged
                             if c[0] - act_min <= _TIE_RTOL * abs(act_min)),
                            key=lambda c: c[1][0])
    return MinimalOrbit(p=p, q=q, times=tuple(ts),
                        Ks=tuple(grad_h(ctx, a, b)[0] for a, b in _pairs(ts, p)),
                        action=act, residual=residual)


def _canonical(ts, p):
    """The configuration relabelled from its point of smallest t mod 1,
    with the lift shifted so that it starts in [0, 1)."""
    m = min(range(len(ts)), key=lambda j: ts[j] % 1.0)
    shift = math.floor(ts[m])
    return [t - shift for t in ts[m:]] + [t + p - shift for t in ts[:m]]


def convergents(omega: float, denom_cap: int):
    """Continued-fraction convergents p/q of omega with q <= denom_cap."""
    denom_cap = check_count("denom_cap", denom_cap, 1)
    if not math.isfinite(omega):
        raise PreconditionError(f"omega must be finite, got {omega}")
    out = []
    p_prev, q_prev = 1, 0
    p_cur, q_cur = int(math.floor(omega)), 1
    out.append((p_cur, q_cur))
    x = omega - math.floor(omega)
    for _ in range(_CF_MAX_TERMS):
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
                 workers: int = 1) -> HullSample:
    """Hull-function samples from the last in-window convergent p/q of omega
    with q <= denom_cap.

    The convergents of a rational omega end at omega itself, so there this is
    the periodic orbit; for irrational omega it is the standard approximation
    of the Mather set by periodic minimal orbits, arranged in cyclic order.
    """
    sigma = ctx.sigma
    # checked before convergents, so a NaN omega reports the window
    _check_window(omega, sigma)
    cands = [(pp, qq) for pp, qq in convergents(omega, denom_cap)
             if 1.0 < pp / qq < sigma - 1.0]
    if not cands:
        raise PreconditionError(
            f"no convergent of {omega} with denominator <= {denom_cap} in window")
    p, q = cands[-1]
    orbit = periodic_orbit(ctx, p, q, starts=starts, seed=seed, workers=workers)
    rot = p / q
    rows = []
    for n in range(q):
        lift = n * rot
        fl = math.floor(lift)
        rows.append((lift - fl, orbit.times[n] - fl, orbit.Ks[n]))
    # the fractions n p/q mod 1 are distinct, so the sort never compares phi
    xs, phi, eta = zip(*sorted(rows))
    return HullSample(omega=omega, p=p, q=q, xs=xs, phi=phi, eta=eta)
