"""Scalar search helpers: golden-section refinement, sup-norms on the circle,
bracketed root solving for monotone functions."""

from __future__ import annotations

import math
from typing import Callable

from .errors import ConvergenceError, DomainError, PreconditionError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
_SUP_XTOL = 1e-13  # argument tolerance of circle_sup's refinement
_BISECT_XTOL = 1e-12
_MAX_ITER = 200  # iteration budget of bisect_root and solve_monotone


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


def circle_sup(f: Callable[[float], float], grid_n: int = 4096) -> tuple[float, float]:
    """Supremum of a smooth 1-periodic function over one period.

    Dense sampling locates every local maximum up to grid resolution;
    golden-section refinement then pins each candidate.  A grid point is a
    candidate when it rises above its left neighbour and does not fall to
    its right one, so a plateau is refined once and a constant function not
    at all.  Returns (argmax in [0,1), sup).
    """
    if grid_n < 3:
        raise PreconditionError(f"grid_n must be >= 3, got {grid_n}")
    step = 1.0 / grid_n
    vals = [f(i * step) for i in range(grid_n)]
    best_t, best_v = 0.0, vals[0]
    for i in range(grid_n):
        v = vals[i]
        if v > vals[i - 1] and v >= vals[(i + 1) % grid_n]:
            t, fv = golden_max(f, (i - 1) * step, (i + 1) * step, _SUP_XTOL)
            if fv > best_v:
                best_t, best_v = t % 1.0, fv
        elif v > best_v:
            best_t, best_v = i * step, v
    return best_t, best_v


def bisect_root(f: Callable[[float], float], a: float, b: float) -> float:
    """Plain bisection for a sign change bracketed by [a, b], to 1e-12."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise DomainError(f"no sign change on [{a}, {b}]")
    for _ in range(_MAX_ITER):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0 or (b - a) < _BISECT_XTOL:
            return m
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def solve_monotone(f: Callable[[float], float],
                   fprime: Callable[[float], float],
                   lo: float, hi: float,
                   f_lo: float, f_hi: float,
                   guess: float | None = None) -> float:
    """Root of a strictly monotone f with a known sign-changing bracket.

    Safeguarded Newton: every step is clipped to the current bracket, the
    bracket shrinks monotonically, and bisection kicks in whenever Newton
    stalls.  Iterates until |f| stops improving (machine floor).
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        raise DomainError(f"no sign change on [{lo}, {hi}]")
    decreasing = f_lo > 0
    x = guess if (guess is not None and lo < guess < hi) else 0.5 * (lo + hi)
    best_x, best_f = x, math.inf
    for _ in range(_MAX_ITER):
        fx = f(x)
        if fx == 0.0:
            return x
        if abs(fx) < best_f:
            best_x, best_f = x, abs(fx)
        if (fx > 0) == decreasing:
            lo = x
        else:
            hi = x
        if hi - lo <= 4e-16 * max(1.0, abs(lo), abs(hi)):
            return best_x
        d = fprime(x)
        x_new = x - fx / d if d != 0.0 else 0.5 * (lo + hi)
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        if x_new == x or not (lo < x_new < hi):
            return best_x
        x = x_new
    raise ConvergenceError("monotone solve did not converge",
                           {"lo": lo, "hi": hi, "residual": best_f})
