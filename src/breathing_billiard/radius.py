"""Boundary radius profiles of the breathing circle.

A profile is a mean radius plus finitely many sine harmonics,

    R(t) = M + sum_i  d_i * sin(2 pi k_i t),

which is strictly positive, exactly 1-periodic and C-infinity, with
analytic first and second derivatives.  On top of evaluation this module
computes the sup-norms entering the flight-window constant sigma,
classifies profiles into the regularity classes "R" (sigma > 2, enough
for the twist-map machinery) and "R_tilde" (additional deceleration
conditions that force destruction of invariant curves), and constructs
members of the two admissible sine families by searching the mean M.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._search import _ULP, circle_sup, solve_monotone
from .errors import ConvergenceError, PreconditionError

TWO_PI = 2.0 * math.pi
_MEAN_GRID_FACTOR = 1.25  # geometric scan step of find_member
_MEAN_REL_TOL = 1e-3  # find_member refines the mean to 3 significant digits
_BOUNDS_FLOOR = 4096  # least sup-norm grid of bounds
_STATIONARY_FLOOR = 1024  # least sign-change grid of stationary_points
_SAMPLES_PER_PERIOD = 32  # grid points per period of the top harmonic
_GRID_CAP = 1 << 20  # most grid points of any profile scan
_NEAR_ZERO = 1e-12  # |Rdot| below this times sum |d| 2 pi k is checked in scalar


@dataclass(frozen=True)
class RadiusProfile:
    """R(t) = mean + sum of d*sin(2*pi*k*t) harmonics, with mean > sum|d|."""

    mean: float
    harmonics: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        if self.mean <= 0:
            raise PreconditionError(f"mean radius must be positive, got {self.mean}")
        if not math.isfinite(self.mean):
            raise PreconditionError(f"mean radius must be finite, got {self.mean}")
        harm = []
        for k, d in self.harmonics:
            # a whole float such as 1.0 is the integer 1; 1.7 is no frequency
            k_float, d = float(k), float(d)
            if not (k_float.is_integer() and k_float >= 1):
                raise PreconditionError(f"harmonic frequency must be a positive integer, got {k}")
            if not math.isfinite(d):
                raise PreconditionError(f"harmonic amplitude must be finite, got {d}")
            harm.append((int(k_float), d))
        object.__setattr__(self, "harmonics", tuple(harm))
        amplitude = sum(abs(d) for _, d in harm)
        if amplitude >= self.mean:
            raise PreconditionError("profile not strictly positive: mean <= sum |amplitudes|")
        # the flight discriminant takes R0^2 R1^2, and |(R^2)''| <= 4 R |Rddot|
        r_top = self.mean + amplitude
        ddr_top = sum(abs(d) * (TWO_PI * k) * (TWO_PI * k) for k, d in harm)
        if not (math.isfinite(r_top * r_top * r_top * r_top)
                and math.isfinite(4.0 * r_top * ddr_top)):
            raise PreconditionError(f"profile too large: R^4 or 4 R |Rddot| overflows, "
                                    f"with R <= {r_top} and |Rddot| <= {ddr_top}")

    @property
    def is_constant(self) -> bool:
        return all(d == 0.0 for _, d in self.harmonics)

    def eval(self, t: float) -> tuple[float, float, float]:
        """Exact (R, Rdot, Rddot) at time t."""
        r = self.mean
        dr = 0.0
        ddr = 0.0
        for k, d in self.harmonics:
            w = TWO_PI * k
            a = w * t
            s = math.sin(a)
            c = math.cos(a)
            r += d * s
            dr += d * w * c
            ddr -= d * w * w * s
        return r, dr, ddr

    def radius(self, t: float) -> float:
        r = self.mean
        for k, d in self.harmonics:
            r += d * math.sin(TWO_PI * k * t)
        return r

    def d_radius(self, t: float) -> float:
        dr = 0.0
        for k, d in self.harmonics:
            w = TWO_PI * k
            dr += d * w * math.cos(w * t)
        return dr

    def dd_radius(self, t: float) -> float:
        ddr = 0.0
        for k, d in self.harmonics:
            w = TWO_PI * k
            ddr -= d * w * w * math.sin(w * t)
        return ddr

    def dd_radius_sq(self, t: float) -> float:
        """(R^2)'' = 2 (Rdot^2 + R * Rddot)."""
        r, dr, ddr = self.eval(t)
        return 2.0 * (dr * dr + r * ddr)

    def to_json(self) -> str:
        return json.dumps({"mean": self.mean,
                           "harmonics": [[k, d] for k, d in self.harmonics]})

    @classmethod
    def from_json(cls, text: str) -> "RadiusProfile":
        try:
            obj = json.loads(text)
            return cls(mean=float(obj["mean"]),
                       harmonics=tuple((k, d) for k, d in obj.get("harmonics", [])))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise PreconditionError(f"malformed profile literal: {exc}") from exc


@dataclass(frozen=True)
class ProfileBounds:
    """Sup-norms of a profile and the flight-window constant sigma.

    sigma = min( r_min / (2 ||Rdot||),
                 2 sqrt(1 + sqrt(1 - eps^2)) r_min / sqrt(||(R^2)''||) ),
    with the convention +inf when a denominator vanishes (constant profile).
    """

    profile: RadiusProfile  # the profile the norms were computed for
    eps: float
    r_min: float
    r_max: float
    dR_norm: float
    ddR2_norm: float
    sigma: float

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise PreconditionError(f"eps must lie in (0,1), got {self.eps}")
        if not (0.0 < self.r_min <= self.r_max):
            raise PreconditionError("bounds require 0 < r_min <= r_max")
        if not self.sigma > 0:
            raise PreconditionError("sigma must be positive")
        if math.isfinite(self.sigma) and not math.isfinite(self.sigma * self.sigma):
            raise PreconditionError(f"sigma = {self.sigma} overflows when squared")

    @property
    def c_max(self) -> float:
        """Admissible angular momentum bound eps r_min^2 / sigma."""
        return self.eps * self.r_min ** 2 / self.sigma

    def check(self, profile: RadiusProfile, eps: float) -> None:
        """Raise PreconditionError unless these are the bounds of profile at eps."""
        if self.profile != profile:
            raise PreconditionError(f"bounds were computed for the profile "
                                    f"{self.profile.to_json()}, not {profile.to_json()}")
        if self.eps != eps:
            raise PreconditionError(f"bounds were computed at eps = {self.eps}, "
                                    f"not at eps = {eps}")


@dataclass(frozen=True)
class ClassVerdict:
    """Outcome of the class-R / class-R_tilde test.

    witnesses are the stationary points (t, Rddot(t)) whose per-point chain
    (deceleration, window ordering, curvature) has positive slack throughout,
    sorted by |Rddot| descending; margins hold the signed slack of every
    inequality (positive = satisfied), evaluated at the strongest witness, or
    at the strongest stationary point when there is none.
    """

    klass: str  # "none" | "R" | "R_tilde"
    witnesses: tuple[tuple[float, float], ...]
    margins: dict[str, float]
    bounds: ProfileBounds
    degenerate: bool = False
    window: tuple[float, float] | None = None  # (omega_lo, omega_hi) of best witness


def alpha_constant(eps: float) -> float:
    """sqrt(1 + sqrt(1 - eps^2)), the curvature-window constant."""
    if not (0.0 < eps < 1.0):
        raise PreconditionError(f"eps must lie in (0,1), got {eps}")
    return math.sqrt(1.0 + math.sqrt(1.0 - eps * eps))


def grid_size(profile: RadiusProfile, floor: int) -> int:
    """Points on one period for a scan of profile: floor, or 32 per period of
    its top harmonic.  Past 2^20 points it raises PreconditionError instead."""
    n = max(floor, _SAMPLES_PER_PERIOD * max((k for k, d in profile.harmonics if d), default=0))
    if n > _GRID_CAP:
        raise PreconditionError(f"the top harmonic needs {n} grid points, more than {_GRID_CAP}")
    return n


def _grid(profile: RadiusProfile, n: int, shift: float = 0.0):
    """(R, Rdot, Rddot) at t = i/n + shift, i < n, as numpy arrays.

    The times round as the scalar i * (1/n) + shift does, and the
    expressions are those of RadiusProfile.eval, so only np.sin and np.cos
    may round differently from the scalar methods.
    """
    t = np.arange(n) * (1.0 / n) + shift
    r = np.full(n, float(profile.mean))
    dr = np.zeros(n)
    ddr = np.zeros(n)
    for k, d in profile.harmonics:
        w = TWO_PI * k
        a = w * t
        s = np.sin(a)
        r += d * s
        dr += d * w * np.cos(a)
        ddr -= d * w * w * s
    return r, dr, ddr


def bounds(profile: RadiusProfile, eps: float) -> ProfileBounds:
    """Sup-norms by dense sampling plus golden-section refinement.

    grid_size(profile, 4096) points on one period, sampled with numpy; each
    bracketed local extremum is refined with the scalar profile methods to
    ~1e-13 in the argument, i.e. ~1e-10 relative in the value.
    """
    if not (0.0 < eps < 1.0):
        raise PreconditionError(f"eps must lie in (0,1), got {eps}")
    r, dr, ddr = _grid(profile, grid_size(profile, _BOUNDS_FLOOR))
    _, r_max = circle_sup(profile.radius, r)
    _, neg_min = circle_sup(lambda t: -profile.radius(t), -r)
    r_min = -neg_min
    _, dr_norm = circle_sup(lambda t: abs(profile.d_radius(t)), abs(dr))
    _, dd2_norm = circle_sup(lambda t: abs(profile.dd_radius_sq(t)),
                             abs(2.0 * (dr * dr + r * ddr)))
    return ProfileBounds(profile=profile, eps=eps, r_min=r_min, r_max=r_max,
                         dR_norm=dr_norm, ddR2_norm=dd2_norm,
                         sigma=min(sigma_limits(eps, r_min, dr_norm, dd2_norm)))


def sigma_limits(eps: float, r_min: float, dR_norm: float,
                 ddR2_norm: float) -> tuple[float, float]:
    """(slope, curvature) limits on the flight duration; sigma is the smaller:
    r_min / (2 ||Rdot||) and 2 sqrt(1 + sqrt(1 - eps^2)) r_min / sqrt(||(R^2)''||),
    +inf when the norm vanishes."""
    slope = r_min / (2.0 * dR_norm) if dR_norm > 0 else math.inf
    curvature = (2.0 * alpha_constant(eps) * r_min / math.sqrt(ddR2_norm)
                 if ddR2_norm > 0 else math.inf)
    return slope, curvature


def stationary_points(profile: RadiusProfile) -> list[tuple[float, float]]:
    """All roots of Rdot in [0,1), each paired with Rddot there.

    Sign-change bracketing on grid_size(profile, 1024) numpy-sampled
    points, each bracket confirmed with the scalar d_radius, then solved by
    the safeguarded Newton of _search.solve_monotone (f = Rdot, f' = Rddot)
    down to the rounding floor of Rdot; tangential (double) roots are
    outside the contract.
    """
    if profile.is_constant:
        raise PreconditionError("constant profile: every point is stationary")

    f = profile.d_radius
    n = grid_size(profile, _STATIONARY_FLOOR)
    step = 1.0 / n
    _, vals, _ = _grid(profile, n)
    scale = sum(abs(d) * TWO_PI * k for k, d in profile.harmonics)
    # numpy picks the brackets; a value within rounding of 0 may carry the
    # wrong sign, so those brackets go to the scalar test as well
    near0 = abs(vals) <= _NEAR_ZERO * scale
    picked = (vals * np.roll(vals, -1) < 0) | near0 | np.roll(near0, -1)
    noise = 16.0 * _ULP * scale  # of Rdot: 16 ulp of its scale
    roots = []
    for i in np.flatnonzero(picked).tolist():
        a = i * step
        fa, fb = f(a), f(((i + 1) % n) * step)
        if fa == 0.0:
            roots.append(a)
        elif fa * fb < 0:
            roots.append(solve_monotone(lambda x: profile.eval(x)[1:], a, a + step,
                                        fa > 0.0, noise)[0])
    return [(t, profile.dd_radius(t)) for t in roots]


def classify(profile: RadiusProfile, eps: float) -> ClassVerdict:
    """Class test: "R" needs sigma > 2 only; "R_tilde" needs sigma > 4 plus a
    stationary point passing the deceleration, window and curvature chain."""
    b = bounds(profile, eps)
    if profile.is_constant:
        margins = {"sigma_gt_2": math.inf, "sigma_gt_4": math.inf}
        return ClassVerdict(klass="R", witnesses=(), margins=margins,
                            bounds=b, degenerate=True)

    # rotation-number window of a stationary point with curvature ddr: its
    # lower edge needs the deceleration decel > 0, its upper edge is shared
    w_hi = -1.0 + math.sqrt(2.0 * b.r_min ** 2
                            / (2.0 * b.r_max ** 2 / b.sigma ** 2 + b.dR_norm * b.r_max))
    points = []  # (t, ddr, window, signed slack of the per-point chain)
    for t_bar, ddr in stationary_points(profile):
        decel = -(ddr * b.r_min + b.dR_norm * b.r_max)
        edges = (1.0 + math.sqrt(2.0 * b.r_max ** 2 / decel), w_hi) if decel > 0.0 else None
        points.append((t_bar, ddr, edges, {
            "deceleration": decel,
            "window_above_3": (edges[0] - 3.0) if edges else -math.inf,
            "window_nonempty": (edges[1] - edges[0]) if edges else -math.inf,
            "curvature": (-2.0 * b.r_max ** 2 / (b.sigma ** 2 * b.r_min)) - ddr,
        }))
    points.sort(key=lambda pt: -abs(pt[1]))  # stable: ties keep their order
    # all(), not min(): a NaN slack fails the chain wherever it sits
    witnesses = [pt for pt in points if all(m > 0.0 for m in pt[3].values())]
    best = (witnesses or points)[0]

    if b.sigma > 4.0 and witnesses:
        klass = "R_tilde"
    elif b.sigma > 2.0:
        klass = "R"
    else:
        klass = "none"
    return ClassVerdict(
        klass=klass,
        witnesses=tuple((t_bar, ddr) for t_bar, ddr, _, _ in witnesses),
        margins={"sigma_gt_2": b.sigma - 2.0, "sigma_gt_4": b.sigma - 4.0, **best[3]},
        bounds=b,
        window=best[2] if klass == "R_tilde" else None,
    )


# --- constructive sine families ------------------------------------------

def two_harmonic_k_threshold(eps: float) -> float:
    """Least admissible frequency bound k_bar for the two-harmonic family:
    integers k > k_bar are admissible."""
    a2 = alpha_constant(eps) ** 2
    return (a2 + math.sqrt(2.0 * a2 * a2 - 1.0)) / (a2 - 1.0)


def delta_window(k: int) -> tuple[float, float]:
    """Admissible amplitude range (open interval) for frequency k."""
    if k < 1:
        raise PreconditionError(f"k must be a positive integer, got {k}")
    return 1.0 / (4.0 * math.pi ** 2 * (k * k + 1)), 1.0 / (TWO_PI * (k + 1))


def single_harmonic_eps_max() -> float:
    """Largest eps for which the single-harmonic family can reach R_tilde."""
    return math.sqrt(1.0 - 1.0 / (math.pi - 1.0) ** 2)


def sufficient_mean_bound(k: int, delta: float) -> float:
    """Closed-form sufficient lower bound on M (far more conservative than
    the exact classifier)."""
    m1 = max(34.0 * delta, 2.0 * delta + 216.0 * math.pi ** 2 * (k + 1) ** 2)
    g = 4.0 * math.pi ** 2 * delta * (k * k + 1)
    if g <= 1.0:
        raise PreconditionError("amplitude below the admissible window")
    m3 = 2.0 * delta * (g + 1.0) / (g - 1.0)
    return max(m1, m3)


def family_profile(k: int, delta: float, mean: float) -> RadiusProfile:
    """Member of the constructive family: single sine for k = 1, otherwise
    the pair sin(2 pi k t) + sin(2 pi t) with a common amplitude."""
    if k == 1:
        return RadiusProfile(mean=mean, harmonics=((1, delta),))
    return RadiusProfile(mean=mean, harmonics=((k, delta), (1, delta)))


def find_member(k: int, delta: float, eps: float,
                min_window: float | None = None) -> tuple[float, ClassVerdict]:
    """Smallest mean M (on a geometric grid up from max(1, 4 delta), refined
    to 3 significant digits) whose family profile classifies as R_tilde.

    min_window, when given, additionally requires the rotation-number window
    of the strongest witness to be wider than min_window; the certification
    pipeline needs some width to work with, while the bare classifier accepts
    means whose window is arbitrarily thin.
    """
    if min_window is not None and not math.isfinite(min_window):
        raise PreconditionError(f"min_window must be finite, got {min_window}")
    lo_d, hi_d = delta_window(k)
    if k == 1:
        if eps >= single_harmonic_eps_max():
            raise PreconditionError(
                f"single-harmonic family needs eps < {single_harmonic_eps_max():.6f}, got {eps}")
    else:
        k_bar = two_harmonic_k_threshold(eps)
        if k <= k_bar:
            raise PreconditionError(
                f"two-harmonic family needs k > k_bar(eps) = {k_bar:.6f}, got k = {k}")
    if not (lo_d < delta < hi_d):
        raise PreconditionError(
            f"amplitude outside the admissible window ({lo_d:.6g}, {hi_d:.6g}): got {delta}")

    def accept(mean):
        v = classify(family_profile(k, delta, mean), eps)
        if v.klass != "R_tilde":
            return False, v
        if min_window is not None and (v.window is None or
                                       v.window[1] - v.window[0] <= min_window):
            return False, v
        return True, v

    lo, mean = None, max(1.0, 4.0 * delta)
    ok, verdict = accept(mean)
    for _ in range(200):
        if ok:
            break
        lo, mean = mean, mean * _MEAN_GRID_FACTOR
        ok, verdict = accept(mean)
    if not ok:
        raise ConvergenceError("no admissible mean found on the geometric grid",
                               {"last_mean": mean, "k": k, "delta": delta})
    # a start that passes is the answer; otherwise geometric bisection of
    # (lo fail, mean pass) to 3 significant digits
    while lo is not None and mean / lo > 1.0 + _MEAN_REL_TOL:
        mid = math.sqrt(lo * mean)
        ok_mid, v_mid = accept(mid)
        if ok_mid:
            mean, verdict = mid, v_mid
        else:
            lo = mid
    return mean, verdict
