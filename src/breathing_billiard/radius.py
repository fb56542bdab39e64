"""Boundary radius profiles of the breathing circle.

A profile is a mean radius plus finitely many sine harmonics,

    R(t) = M + sum_i  d_i * sin(2 pi k_i t),

which is strictly positive, exactly 1-periodic and C-infinity, with
derivatives in closed form.  On top of evaluation this module
computes the sup-norms entering the flight-window constant sigma,
classifies profiles into the regularity classes "R" (sigma > 2, enough
for the twist-map machinery) and "R_tilde" (additional deceleration
conditions that force destruction of invariant curves), and constructs
members of the two admissible sine families by searching the mean M.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._search import _ULP, circle_sup, solve_monotone
from .errors import ConvergenceError, DomainError, PreconditionError, check_count

TWO_PI = 2.0 * math.pi
_MEAN_GRID_FACTOR = 1.25  # geometric scan step of find_member
_MEAN_REL_TOL = 1e-3  # find_member refines the mean to 3 significant digits
_BOUNDS_FLOOR = 4096  # least profile grid of bounds
_SAMPLES_PER_PERIOD = 32  # grid points per period of the top harmonic


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
        harm, terms = [], []
        for k, d in self.harmonics:
            # a whole float such as 1.0 is the integer 1; 1.7 is no frequency
            k_float, d = float(k), float(d)
            if not (k_float.is_integer() and k_float >= 1):
                raise PreconditionError(f"harmonic frequency must be a positive integer, got {k}")
            if not math.isfinite(d):
                raise PreconditionError(f"harmonic amplitude must be finite, got {d}")
            harm.append((int(k_float), d))
            w = TWO_PI * k_float
            terms.append((w, d, d * w, d * w * w))  # eval's d * w * c is (d * w) * c
        object.__setattr__(self, "harmonics", tuple(harm))
        object.__setattr__(self, "_terms", tuple(terms))  # no field: asdict, ==, repr skip it
        amplitude = sum(abs(d) for _, d in harm)
        if amplitude >= self.mean:
            raise PreconditionError("profile not strictly positive: mean <= sum |amplitudes|")
        # the flight discriminant takes R0^2 R1^2, and |(R^2)''| <= 4 R |Rddot|
        r_low, r_top = self.mean - amplitude, self.mean + amplitude
        ddr_top = sum(abs(d) * (TWO_PI * k) * (TWO_PI * k) for k, d in harm)
        if not (math.isfinite(r_top * r_top * r_top * r_top)
                and math.isfinite(4.0 * r_top * ddr_top)):
            raise PreconditionError(f"profile too large: R^4 or 4 R |Rddot| overflows, "
                                    f"with R <= {r_top} and |Rddot| <= {ddr_top}")
        if r_low * r_low * r_low * r_low < sys.float_info.min:
            raise PreconditionError(f"profile too small: R^4 underflows, with R >= {r_low}")

    @property
    def is_constant(self) -> bool:
        """True when each frequency's n amplitudes sum to 0 within n ulp of their magnitudes."""
        return all(abs(math.fsum(ds)) <= len(ds) * _ULP * math.fsum(map(abs, ds))
                   for ds in ([d for k, d in self.harmonics if k == f] for f, _ in self.harmonics))

    def eval(self, t: float) -> tuple[float, float, float]:
        """Exact (R, Rdot, Rddot) at time t."""
        r = self.mean
        dr = 0.0
        ddr = 0.0
        for w, d, dw, dww in self._terms:
            a = w * t
            s = math.sin(a)
            r += d * s
            dr += dw * math.cos(a)
            ddr -= dww * s
        return r, dr, ddr

    def radius(self, t: float) -> float:
        r = self.mean
        for w, d, _, _ in self._terms:
            r += d * math.sin(w * t)
        return r

    def d_radius(self, t: float) -> float:
        dr = 0.0
        for w, _, dw, _ in self._terms:
            dr += dw * math.cos(w * t)
        return dr

    def dd_radius(self, t: float) -> float:
        return self.eval(t)[2]

    def dd_radius_sq(self, t: float) -> float:
        """(R^2)'' = 2 (Rdot^2 + R * Rddot)."""
        r, dr, ddr = self.eval(t)
        return 2.0 * (dr * dr + r * ddr)

    def to_json(self) -> str:
        return json.dumps({"mean": self.mean,
                           "harmonics": [[k, d] for k, d in self.harmonics]})

    @classmethod
    def from_json(cls, text: str) -> "RadiusProfile":
        """The profile of {"mean": M, "harmonics": [[k, d], ...]}, harmonics
        optional; any other key, and a number given as a bool or a string,
        is refused."""
        try:
            obj = json.loads(text)
            if not isinstance(obj, dict):
                raise TypeError(f"not a JSON object: {text}")
            unknown = sorted(set(obj) - {"mean", "harmonics"})
            if unknown:
                raise ValueError(f"unknown keys {unknown}, the keys are mean and harmonics")
            harmonics = [(k, d) for k, d in obj.get("harmonics", [])]
            for x in (obj["mean"], *(x for h in harmonics for x in h)):
                if isinstance(x, bool) or not isinstance(x, (int, float)):
                    raise TypeError(f"{json.dumps(x)} is not a number")
            return cls(mean=float(obj["mean"]), harmonics=tuple(harmonics))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise PreconditionError(f"malformed profile literal: {exc}") from exc


def _ends(method, t0: float, t1: float):
    """(method(t0), method(t1)) for a method of a profile; a time whose
    phase 2 pi k t overflows is a DomainError.  math.sin raises ValueError
    only on an infinite argument; a NaN time passes through."""
    try:
        return method(t0), method(t1)
    except ValueError as exc:
        raise DomainError(f"(t0, t1) = ({t0}, {t1}) outside strip: infinite time") from exc


@dataclass(frozen=True)
class ProfileBounds:
    """Sup-norms of a profile and the flight-window constant sigma.

    sigma = min( r_min / (2 ||Rdot||),
                 2 sqrt(1 + sqrt(1 - eps^2)) r_min / sqrt(||(R^2)''||) ),
    with the convention +inf when a denominator vanishes (constant profile).
    stationary holds the points r_min and r_max were read at; ==, hash, repr skip it.
    """

    profile: RadiusProfile  # the profile the norms were computed for
    eps: float
    r_min: float
    r_max: float
    dR_norm: float
    ddR2_norm: float
    sigma: float
    stationary: tuple[tuple[float, float], ...] = field(default=(), compare=False, repr=False)

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

    One ranking covers every stationary point (t, Rddot(t)): |Rddot| descending,
    a run of points each within _noise(profile, 2) of the one before ordered by
    time.  witnesses are the points of it whose per-point chain (deceleration,
    window ordering, curvature) has positive slack throughout; margins hold the
    signed slack of every inequality (positive = satisfied) at the first witness,
    or at the first point of the ranking when there is none.  An R_tilde
    verdict has a witness, and its window lies inside (3, sigma - 1), or it
    raises PreconditionError; classify's upper edge is sigma (r_min / r_max)
    / sqrt(1 + ||Rdot|| sigma^2 / (2 r_max)) - 1, and its chain does the rest.
    """

    klass: str  # "none" | "R" | "R_tilde"
    witnesses: tuple[tuple[float, float], ...]
    margins: dict[str, float]
    bounds: ProfileBounds
    degenerate: bool = False
    window: tuple[float, float] | None = None  # (omega_lo, omega_hi) of best witness

    def __post_init__(self):
        w = self.window
        if self.klass == "R_tilde" and not (
                self.witnesses and w and 3.0 < w[0] < w[1] < self.bounds.sigma - 1.0):
            raise PreconditionError(f"an R_tilde verdict needs a witness and a window inside "
                                    f"(3, sigma - 1) = (3, {self.bounds.sigma - 1.0}), "
                                    f"got {self.window}")


def alpha_constant(eps: float) -> float:
    """sqrt(1 + sqrt(1 - eps^2)), the curvature-window constant."""
    if not (0.0 < eps < 1.0):
        raise PreconditionError(f"eps must lie in (0,1), got {eps}")
    return math.sqrt(1.0 + math.sqrt(1.0 - eps * eps))


def grid_size(profile: RadiusProfile, floor: int) -> int:
    """Points on one period for a scan of profile: floor, or 32 per period of
    its top harmonic, checked by check_count before any grid is built."""
    n = max(floor, _SAMPLES_PER_PERIOD * max((k for k, d in profile.harmonics if d), default=0))
    return check_count("the profile grid", n, 1, size=lambda n: n)


def _columns(profile: RadiusProfile, n: int, shift: float = 0.0):
    """Each harmonic's (d sin, d w cos, d w^2 sin) at t = i/n + shift, i < n."""
    t = np.arange(n) * (1.0 / n) + shift
    for w, d, dw, dww in profile._terms:
        a = w * t
        s = np.sin(a)
        yield d * s, dw * np.cos(a), dww * s


def _grid(profile: RadiusProfile, n: int, shift: float = 0.0):
    """(R, Rdot, Rddot) at t = i/n + shift, i < n, as numpy arrays.

    The times round as the scalar i * (1/n) + shift does, and the
    expressions and their order are those of RadiusProfile.eval, so only
    np.sin and np.cos may round differently from the scalar methods.
    """
    return _summed(profile.mean, n, _columns(profile, n, shift))


def _summed(mean: float, n: int, columns):
    """(R, Rdot, Rddot) grids of mean plus the columns, in harmonic order."""
    r, dr, ddr = np.full(n, float(mean)), np.zeros(n), np.zeros(n)
    for s, c, ss in columns:
        r += s
        dr += c
        ddr -= ss
    return r, dr, ddr


def bounds(profile: RadiusProfile, eps: float) -> ProfileBounds:
    """Sup-norms, each read with the scalar method where its derivative is 0:
    r_min and r_max at the stationary points (the mean, norms 0, if constant),
    ||Rdot|| and ||(R^2)''|| at the root of their f' that solve_monotone finds
    next to each local maximum of a grid_size(profile, 4096)-point grid."""
    if not (0.0 < eps < 1.0):
        raise PreconditionError(f"eps must lie in (0,1), got {eps}")
    if profile.is_constant:
        return ProfileBounds(profile, eps, profile.mean, profile.mean, 0.0, 0.0, math.inf)
    return _bounds(profile, eps, _shape(profile))


def _slopes(profile: RadiusProfile, t: float):
    """(Rdot, Rddot, R^(3)) and ((R^2)'', its first two derivatives) at time t."""
    r, dr, ddr, d3r, d4r = profile.mean, 0.0, 0.0, 0.0, 0.0
    for w, d, dw, dww in profile._terms:
        s, c = math.sin(w * t), math.cos(w * t)
        r, dr, ddr = r + d * s, dr + dw * c, ddr - dww * s
        d3r, d4r = d3r - dww * w * c, d4r + dww * w * w * s
    return ((dr, ddr, d3r), (2.0 * (dr * dr + r * ddr), 2.0 * (3.0 * dr * ddr + r * d3r),
                             2.0 * (3.0 * ddr * ddr + 4.0 * dr * d3r + r * d4r)))


def _sup(profile: RadiusProfile, g, which: int, vals, noise: float) -> float:
    """||g|| from its grid vals, refined where |g|' = 0: _slopes(profile, t)[which]
    is (g, g', g''), and noise the evaluation noise of g'."""
    def fdf(t):
        v, d1, d2 = _slopes(profile, t)[which]
        return (d1, d2) if v >= 0.0 else (-d1, -d2)

    return circle_sup(lambda t: abs(g(t)), abs(vals),
                      lambda a, b: solve_monotone(fdf, a, b, True, noise)[0])[1]


def _noise(profile: RadiusProfile, j: int) -> float:
    """16 ulp of sum |d| w^j (1 + w), the rounding of R's j-th derivative: of its
    terms |d| w^j and of their arguments' rounding |d| w^(j+1) t, t < 1."""
    return 16.0 * _ULP * sum(abs(d) * w ** j * (1.0 + w) for w, d, *_ in profile._terms)


def _shape(profile: RadiusProfile):
    """The part of bounds that is free of the mean, for a profile that is not constant:
    each harmonic's d sin grid column, the Rdot and Rddot grids, ||Rdot||, stationary points."""
    n = grid_size(profile, _BOUNDS_FLOOR)
    columns = list(_columns(profile, n))
    _, dr, ddr = _summed(0.0, n, columns)
    return ([s for s, _, _ in columns], dr, ddr,
            _sup(profile, profile.d_radius, 0, dr, _noise(profile, 2)), _stationary(profile, dr))


def _stationary(profile: RadiusProfile, vals):
    """The roots of Rdot in [0,1) and Rddot there: sign changes of its grid vals at
    t = i/n and values within _noise(profile, 1) of 0, each decided with the scalar
    d_radius and solved by solve_monotone (f = Rdot, f' = Rddot) down to that same
    noise; tangential (double) roots are outside the contract."""
    f = profile.d_radius
    n = len(vals)
    step = 1.0 / n
    noise = _noise(profile, 1)
    # numpy picks the brackets by sign (a product of tiny values underflows); a value
    # within the noise of Rdot may carry the wrong sign, so it goes to the scalar test too
    near0 = abs(vals) <= noise
    picked = (np.sign(vals) * np.sign(np.roll(vals, -1)) < 0) | near0 | np.roll(near0, -1)
    roots = []
    for i in np.flatnonzero(picked).tolist():
        a = i * step
        fa, fb = f(a), f(((i + 1) % n) * step)
        if fa == 0.0:
            roots.append(a)
        elif fa < 0.0 < fb or fb < 0.0 < fa:
            roots.append(solve_monotone(lambda x: profile.eval(x)[1:], a, a + step,
                                        fa > 0.0, noise)[0])
    return tuple((t, profile.dd_radius(t)) for t in roots)


def _bounds(profile: RadiusProfile, eps: float, shape) -> ProfileBounds:
    """bounds of a profile that is not constant, from the _shape of a profile
    that differs from it at most in the mean; R's grid is summed here."""
    sines, dr, ddr, dr_norm, stationary = shape
    r = sum(sines, np.full(len(dr), float(profile.mean)))  # _summed's order
    extremes = [profile.radius(t) for t, _ in stationary]
    r_min, r_max = min(extremes), max(extremes)
    # noise of the slope of (R^2)'': its terms are below 10 M sum |d| w^3, M > sum |d|
    dd2_norm = _sup(profile, profile.dd_radius_sq, 1, 2.0 * (dr * dr + r * ddr),
                    10.0 * profile.mean * _noise(profile, 3))
    return ProfileBounds(profile, eps, r_min, r_max, dr_norm, dd2_norm,
                         min(sigma_limits(eps, r_min, dr_norm, dd2_norm)), stationary)


def sigma_limits(eps: float, r_min: float, dR_norm: float,
                 ddR2_norm: float) -> tuple[float, float]:
    """(slope, curvature) limits on the flight duration; sigma is the smaller:
    r_min / (2 ||Rdot||) and 2 sqrt(1 + sqrt(1 - eps^2)) r_min / sqrt(||(R^2)''||),
    +inf when the norm vanishes."""
    slope = r_min / (2.0 * dR_norm) if dR_norm > 0 else math.inf
    curvature = (2.0 * alpha_constant(eps) * r_min / math.sqrt(ddR2_norm)
                 if ddR2_norm > 0 else math.inf)
    return slope, curvature


def classify(profile: RadiusProfile, eps: float) -> ClassVerdict:
    """Class test: "R" needs sigma > 2 only; "R_tilde" needs sigma > 4 plus a
    stationary point passing the deceleration, window and curvature chain."""
    b = bounds(profile, eps)
    if profile.is_constant:
        margins = {"sigma_gt_2": math.inf, "sigma_gt_4": math.inf}
        return ClassVerdict(klass="R", witnesses=(), margins=margins,
                            bounds=b, degenerate=True)
    return _chain(b)


def _chain(b: ProfileBounds) -> ClassVerdict:
    """classify's verdict on a profile that is not constant, from its bounds b."""
    # rotation-number window of a stationary point with curvature ddr: its
    # lower edge needs the deceleration decel > 0, its upper edge is shared
    w_hi = -1.0 + math.sqrt(2.0 * b.r_min ** 2
                            / (2.0 * b.r_max ** 2 / b.sigma ** 2 + b.dR_norm * b.r_max))
    points = []  # (t, ddr, window, signed slack of the per-point chain)
    for t_bar, ddr in b.stationary:
        decel = -(ddr * b.r_min + b.dR_norm * b.r_max)
        edges = (1.0 + math.sqrt(2.0 * b.r_max ** 2 / decel), w_hi) if decel > 0.0 else None
        points.append((t_bar, ddr, edges, {
            "deceleration": decel,
            "window_above_3": (edges[0] - 3.0) if edges else -math.inf,
            "window_nonempty": (edges[1] - edges[0]) if edges else -math.inf,
            "curvature": (-2.0 * b.r_max ** 2 / (b.sigma ** 2 * b.r_min)) - ddr,
        }))
    points.sort(key=lambda pt: -abs(pt[1]))
    # a point whose |Rddot| is within rounding noise of the one before it
    # ties with it, and a run of ties is ordered by time, not by last bits
    noise, runs = _noise(b.profile, 2), []
    for pt in points:
        if runs and abs(runs[-1][-1][1]) - abs(pt[1]) <= noise:
            runs[-1].append(pt)
        else:
            runs.append([pt])
    points = [pt for run in runs for pt in sorted(run, key=lambda pt: pt[0])]
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
    k = check_count("k", k, 1)
    return 1.0 / (4.0 * math.pi ** 2 * (k * k + 1)), 1.0 / (TWO_PI * (k + 1))


def single_harmonic_eps_max() -> float:
    """Largest eps for which the single-harmonic family can reach R_tilde."""
    return math.sqrt(1.0 - 1.0 / (math.pi - 1.0) ** 2)


def _inside(delta: float, window: tuple[float, float]) -> float:
    """The lower edge of window, after raising PreconditionError unless delta
    lies inside that open window."""
    lo, hi = window
    if not (lo < delta < hi):
        raise PreconditionError(
            f"amplitude outside the admissible window ({lo:.6g}, {hi:.6g}): got {delta}")
    return lo


def sufficient_mean_bound(k: int, delta: float) -> float:
    """Closed-form sufficient lower bound on M (far more conservative than
    the exact classifier), for a k and delta that find_member accepts."""
    g = delta / _inside(delta, delta_window(k))  # 4 pi^2 delta (k^2 + 1) > 1
    m1 = max(34.0 * delta, 2.0 * delta + 216.0 * math.pi ** 2 * (k + 1) ** 2)
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
    window = delta_window(k)  # a k that is no count is refused first
    if k == 1:
        if eps >= single_harmonic_eps_max():
            raise PreconditionError(
                f"single-harmonic family needs eps < {single_harmonic_eps_max():.6f}, got {eps}")
    else:
        k_bar = two_harmonic_k_threshold(eps)
        if k <= k_bar:
            raise PreconditionError(
                f"two-harmonic family needs k > k_bar(eps) = {k_bar:.6f}, got k = {k}")
    _inside(delta, window)

    lo, mean = None, max(1.0, 4.0 * delta)
    shape = _shape(family_profile(k, delta, mean))  # the same for every mean

    def accept(mean):
        v = _chain(_bounds(family_profile(k, delta, mean), eps, shape))
        if v.klass != "R_tilde":
            return False, v
        if min_window is not None and v.window[1] - v.window[0] <= min_window:
            return False, v
        return True, v

    for _ in range(201):  # the start, then up to 200 scan steps
        ok, verdict = accept(mean)
        if ok:
            break
        lo, mean = mean, mean * _MEAN_GRID_FACTOR
    else:
        raise ConvergenceError("no admissible mean found on the geometric grid",
                               {"last_mean": lo, "k": k, "delta": delta})
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
