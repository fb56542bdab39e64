"""Search helpers: golden-section maximisation, sup-norms on the circle from
a sampled grid, and the one bracketed Newton solve for monotone functions
that serves every map step, warm or cold, forward or backward, and every
stationary point and sup-norm critical point of a profile."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ConvergenceError, PreconditionError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
_MAX_ITER = 200  # iteration budget of solve_monotone
_ULP = 2.3e-16  # unit roundoff with a little headroom


def golden_max(f: Callable[[float], float], a: float, b: float,
               xtol: float = 1e-13) -> tuple[float, float]:
    """Golden-section maximisation of f on [a, b]; returns (argmax, max)."""
    h = b - a
    if h <= xtol:
        m = 0.5 * (a + b)
        return m, f(m)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    n = int(math.ceil(math.log(xtol / h) / math.log(_INVPHI)))
    for _ in range(n):
        if fc > fd:
            b, d, fd = d, c, fc
            h *= _INVPHI
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h *= _INVPHI
            d = a + _INVPHI * h
            fd = f(d)
    if fc > fd:
        return c, fc
    return d, fd


def circle_sup(f: Callable[[float], float], vals, refine: Callable) -> tuple[float, float]:
    """Supremum of a smooth 1-periodic function over one period.

    vals holds f sampled at t = i/n, i < n (n >= 3); it locates every local
    maximum up to grid resolution, and refine(a, b) returns the maximum t
    in the two cells (a, b) around each candidate.  A grid point is a
    candidate when it rises above its left neighbour and does not fall to
    its right one, so a plateau is refined once and a constant function not
    at all.  The winner is the first maximum in grid order, with grid point
    0 ahead of its own refinement.  f is read at every refined t and at a
    winning grid point, so the value returned is always one of f's own, and
    vals may come from a vectorised evaluation that rounds differently.
    Returns (argmax in [0,1), sup).
    """
    n = len(vals)
    if n < 3:
        raise PreconditionError(f"circle_sup needs >= 3 grid values, got {n}")
    step = 1.0 / n
    vals = np.asarray(vals, dtype=float)
    wrapped = np.concatenate((vals[-1:], vals, vals[:1]))  # each end's neighbour across t = 1
    items = vals.copy()  # grid values, candidates replaced by their refinement
    refined = {}
    for i in np.flatnonzero((vals > wrapped[:-2]) & (vals >= wrapped[2:])).tolist():
        t = refine((i - 1) * step, (i + 1) * step)
        refined[i] = (t % 1.0, f(t))
        items[i] = refined[i][1]
    best = int(np.argmax(items))
    if not items[best] > vals[0]:
        best = 0
    elif best in refined:
        return refined[best]
    return best * step, f(best * step)


def solve_monotone(fdf: Callable[[float], tuple],
                   lo: float, hi: float, decreasing: bool, noise: float,
                   guess: float | None = None) -> tuple[float, bool, tuple]:
    """Root of a strictly monotone f on the bracket [lo, hi].

    fdf(x) returns a tuple whose first two entries are f(x) and f'(x); one
    call per iterate, and any further entries ride along for the caller.
    Safeguarded Newton from guess when it lies in the bracket, else from
    the midpoint.  decreasing is the known direction of monotonicity, so no
    end of the bracket is evaluated: the sign of f at each iterate shrinks
    the bracket, and a Newton step that leaves it becomes a bisection.  The
    best iterate is returned once |f| stops improving within the rounding
    floor 4 |f'| ulp(x) + noise, noise being the evaluation noise of f.
    Returns (root, reached the floor, fdf(root)); a bracket without a root
    collapses to rounding width at one end and reports False.
    """
    x = guess if guess is not None and lo <= guess <= hi else 0.5 * (lo + hi)
    best_x, best_f, best_v = x, math.inf, None
    for _ in range(_MAX_ITER):
        v = fdf(x)
        fx, d = v[0], v[1]
        if fx == 0.0:
            return x, True, v
        stalled = abs(fx) >= best_f
        if not stalled:
            best_x, best_f, best_v = x, abs(fx), v
        if (fx > 0.0) == decreasing:
            lo = x
        else:
            hi = x
        x_new = x - fx / d if d else math.nan
        if not lo <= x_new <= hi:
            # bisect, unless the bracket is down to rounding width
            collapsed = hi - lo <= 2.0 * _ULP * max(1.0, abs(lo), abs(hi))
            x_new = x if collapsed else 0.5 * (lo + hi)
        if stalled or x_new == x:
            at_floor = best_f <= 4.0 * abs(d) * _ULP * max(1.0, abs(best_x)) + noise
            if at_floor or x_new == x:
                return best_x, at_floor, best_v
        x = x_new
    raise ConvergenceError("monotone solve did not converge",
                           {"lo": lo, "hi": hi, "residual": best_f})
