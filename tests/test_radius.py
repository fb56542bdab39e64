import dataclasses
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from breathing_billiard import _search, chaoscert, genfun, radius
from breathing_billiard.errors import ConvergenceError, PreconditionError
from breathing_billiard.radius import ProfileBounds, RadiusProfile

EPS = 0.5
PI2 = math.pi * math.pi


class TestEval:
    def test_constant(self):
        p = RadiusProfile(1.0)
        assert p.eval(0.37) == (1.0, 0.0, 0.0)

    def test_single_harmonic_quarter(self):
        # d/dt (M + d sin(2 pi t)) at t = 1/4: slope 0, curvature -4 pi^2 d
        p = RadiusProfile(2.0, ((1, 0.1),))
        r, dr, ddr = p.eval(0.25)
        assert r == pytest.approx(2.1, abs=1e-15)
        assert dr == pytest.approx(0.0, abs=1e-15)
        assert ddr == pytest.approx(-0.1 * 4 * PI2, rel=1e-14)

    @pytest.mark.parametrize("harmonics", [((1, 0.05),), ((3, 0.05), (1, 0.02)),
                                           ((192, -0.0046), (88, 0.00065))])
    def test_dd_radius_is_eval(self, harmonics):
        p = RadiusProfile(2.0, harmonics)
        for t in np.linspace(-3.0, 3.0, 97):
            assert p.dd_radius(float(t)) == p.eval(float(t))[2]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(harmonics=st.lists(st.tuples(st.integers(1, 300), st.floats(-0.3, 0.3)),
                              min_size=1, max_size=2),
           t=st.floats(-50.0, 50.0))
    def test_methods_are_the_textbook_expressions(self, harmonics, t):
        # the stored products (w, d, d w, d w w) are the ones these
        # expressions form, since d * w * c is (d * w) * c
        p = RadiusProfile(1.0, tuple(harmonics))
        r, dr, ddr = 1.0, 0.0, 0.0
        for k, d in harmonics:
            w = 2.0 * math.pi * k
            r += d * math.sin(w * t)
            dr += d * w * math.cos(w * t)
            ddr -= d * w * w * math.sin(w * t)
        assert p.eval(t) == (r, dr, ddr)
        assert (p.radius(t), p.d_radius(t), p.dd_radius(t)) == (r, dr, ddr)
        assert p.dd_radius_sq(t) == 2.0 * (dr * dr + r * ddr)

    def test_stored_products_are_no_field(self):
        p = RadiusProfile(2.0, ((3, 0.05), (1, 0.02)))
        assert dataclasses.asdict(p) == {"mean": 2.0, "harmonics": ((3, 0.05), (1, 0.02))}
        assert repr(p) == "RadiusProfile(mean=2.0, harmonics=((3, 0.05), (1, 0.02)))"
        assert p == RadiusProfile(2.0, ((3.0, 0.05), (1, 0.02)))
        assert hash(p) == hash(RadiusProfile(2.0, ((3, 0.05), (1, 0.02))))

    def test_periodicity(self):
        p = RadiusProfile(2.0, ((3, 0.05), (1, 0.02)))
        rng = np.random.default_rng(0)
        for t in rng.uniform(-5, 5, size=50):
            a = p.eval(float(t))
            b = p.eval(float(t) + 1.0)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_positivity_guard(self):
        with pytest.raises(PreconditionError):
            RadiusProfile(0.1, ((1, 0.2),))

    def test_whole_float_frequency_is_an_integer(self):
        p = RadiusProfile(9000.0, ((1.0, 0.05),))
        assert p.harmonics == ((1, 0.05),)
        assert type(p.harmonics[0][0]) is int

    @pytest.mark.parametrize("mean, harmonics, field", [
        (9000.0, ((1.7, 0.05),), "frequency"),
        (math.inf, ((1, 0.05),), "mean"),
        (math.nan, ((1, 0.05),), "mean"),
        (9000.0, ((1, math.nan),), "amplitude"),
    ])
    def test_rejected_fields(self, mean, harmonics, field):
        with pytest.raises(PreconditionError, match=field):
            RadiusProfile(mean, harmonics)

    def test_json_round_trip(self):
        p = RadiusProfile(9000.0, ((1, 0.05),))
        assert RadiusProfile.from_json(p.to_json()) == p
        with pytest.raises(PreconditionError):
            RadiusProfile.from_json("{not json")


class TestCancellingHarmonics:
    # amplitudes of one frequency that sum to 0 leave R constant: its norms
    # read 0 and sigma inf, and classify divided by them
    CANCELLING = RadiusProfile(2.0, ((1, 0.1), (1, -0.1)))

    def test_is_constant(self):
        assert self.CANCELLING.is_constant
        assert RadiusProfile(2.0, ((2, 0.05), (1, 0.1), (2, -0.05), (1, -0.1))).is_constant
        assert not RadiusProfile(2.0, ((1, 0.1), (3, 0.01), (1, -0.1))).is_constant
        assert not RadiusProfile(2.0, ((1, 0.1), (1, -0.05))).is_constant

    def test_cancelling_up_to_rounding_is_constant(self):
        # 0.1 + 0.2 - 0.30000000000000004 is -2.8e-17 in exact arithmetic,
        # below the rounding of the three terms: classify read 305 roots of
        # rounding noise, called the profile R_tilde and certify certified it
        p = RadiusProfile(2.0, ((1, 0.1), (1, 0.2), (1, -0.30000000000000004)))
        assert p.is_constant
        assert not RadiusProfile(2.0, ((1, 0.1), (1, -0.09999999999999))).is_constant
        v = radius.classify(p, EPS)
        assert (v.klass, v.degenerate, v.witnesses) == ("R", True, ())
        b = v.bounds
        assert (b.r_min, b.r_max, b.dR_norm, b.ddR2_norm, b.sigma) == (2.0, 2.0, 0.0, 0.0, math.inf)
        cert = chaoscert.certify(p, EPS, 1e-12)
        assert not cert.certified and cert.reason == "profile class is R, needs R_tilde"
        assert chaoscert.c0_search(p, EPS).c0 is None

    def test_verdict_is_the_constant_profile_s(self):
        v = radius.classify(self.CANCELLING, EPS)
        const = radius.classify(RadiusProfile(2.0), EPS)
        assert (v.klass, v.degenerate, v.margins, v.witnesses, v.window) == (
            const.klass, const.degenerate, const.margins, const.witnesses, const.window)
        assert (v.bounds.dR_norm, v.bounds.ddR2_norm, v.bounds.sigma) == (0.0, 0.0, math.inf)
        assert v.bounds.stationary == ()


class TestBounds:
    def test_two_harmonic_closed_forms(self):
        # frequencies k = 5 and 1 peak together, so the extremes and the
        # slope norm have exact closed forms
        m, d, k = 100.0, 0.01, 5
        p = RadiusProfile(m, ((k, d), (1, d)))
        b = radius.bounds(p, EPS)
        assert b.r_min == pytest.approx(m - 2 * d, rel=1e-12)
        assert b.r_max == pytest.approx(m + 2 * d, rel=1e-12)
        assert b.dR_norm == pytest.approx(2 * math.pi * d * (k + 1), rel=1e-10)

    def test_constant_sigma_infinite(self):
        b = radius.bounds(RadiusProfile(1.0), EPS)
        assert b.sigma == math.inf
        assert b.dR_norm == 0.0

    def test_reference_sigma(self, reference_profile):
        # independently recomputed via dense sampling of the closed forms
        b = radius.bounds(reference_profile, EPS)
        ts = np.linspace(0, 1, 2_000_001)
        r = 9000.0 + 0.05 * np.sin(2 * np.pi * ts)
        dr = 0.05 * 2 * np.pi * np.cos(2 * np.pi * ts)
        ddr = -0.05 * 4 * PI2 * np.sin(2 * np.pi * ts)
        dd2 = np.abs(2 * (dr**2 + r * ddr)).max()
        alpha = math.sqrt(1 + math.sqrt(1 - EPS**2))
        sigma_ref = min(r.min() / (2 * np.abs(dr).max()),
                        2 * alpha * r.min() / math.sqrt(dd2))
        assert b.sigma == pytest.approx(sigma_ref, rel=1e-9)
        assert b.sigma == pytest.approx(130.4447, abs=1e-3)

    def test_norms_dominate_samples(self):
        p = RadiusProfile(3.0, ((2, 0.1), (5, 0.03)))
        b = radius.bounds(p, EPS)
        rng = np.random.default_rng(1)
        slack = 1 + 1e-9
        for t in rng.uniform(0, 1, size=10_000):
            r, dr, _ = p.eval(float(t))
            assert b.r_min * (2 - slack) <= r <= b.r_max * slack
            assert abs(dr) <= b.dR_norm * slack
            assert abs(p.dd_radius_sq(float(t))) <= b.ddR2_norm * slack


_EPS_RANGE = r"eps must lie in \(0,1\)"


@pytest.mark.parametrize("call, message", [
    (lambda: RadiusProfile(0.0), "mean radius must be positive"),
    (lambda: RadiusProfile(-1.0, ((1, 0.05),)), "mean radius must be positive"),
    (lambda: ProfileBounds(profile=RadiusProfile(1.0), eps=1.0, r_min=1.0, r_max=1.0,
                           dR_norm=0.0, ddR2_norm=0.0, sigma=math.inf), _EPS_RANGE),
    (lambda: ProfileBounds(profile=RadiusProfile(1.0), eps=0.5, r_min=1.5, r_max=1.0,
                           dR_norm=0.0, ddR2_norm=0.0, sigma=math.inf),
     "bounds require 0 < r_min <= r_max"),
    (lambda: ProfileBounds(profile=RadiusProfile(1.0), eps=0.5, r_min=1.0, r_max=1.0,
                           dR_norm=0.0, ddR2_norm=0.0, sigma=0.0), "sigma must be positive"),
    (lambda: ProfileBounds(profile=RadiusProfile(1.0), eps=0.5, r_min=1.0, r_max=1.0,
                           dR_norm=0.0, ddR2_norm=0.0, sigma=math.nan), "sigma must be positive"),
    (lambda: radius.alpha_constant(0.0), _EPS_RANGE),
    (lambda: radius.bounds(RadiusProfile(1.0), 1.5), _EPS_RANGE),
    (lambda: radius.delta_window(0), "k must be an integer >= 1, got 0"),
    (lambda: radius.sufficient_mean_bound(1, 0.01), "amplitude outside the admissible window"),
    # k and delta are refused as find_member refuses them: the bound read
    # 2131.9 at k = 0 and k = -2, 13324.1 at k = 1.5, and 8527.7 at a delta
    # above the k = 1 window (0.0127, 0.0796)
    (lambda: radius.sufficient_mean_bound(0, 0.05), "k must be an integer >= 1, got 0"),
    (lambda: radius.sufficient_mean_bound(-2, 0.05), "k must be an integer >= 1, got -2"),
    (lambda: radius.sufficient_mean_bound(1.5, 0.05), "k must be an integer >= 1, got 1.5"),
    (lambda: radius.sufficient_mean_bound(1, 0.2), "amplitude outside the admissible window"),
    # the squares of these norms overflowed in classify and in the context
    (lambda: RadiusProfile(1e308, ((1, 1e307),)), "profile too large"),
    (lambda: RadiusProfile(1e200), "profile too large"),
    # classify divided by 2 r_max^2 / sigma^2 + ||Rdot|| r_max, which underflowed to 0
    (lambda: RadiusProfile(1e-200, ((1, 1e-201),)), "profile too small"),
    (lambda: radius.classify(RadiusProfile(1e70, ((1, 1e-300),)), EPS),
     "sigma = .* overflows when squared"),
], ids=["mean-zero", "mean-negative", "bounds-eps", "bounds-r-min-above-r-max",
        "bounds-sigma-zero", "bounds-sigma-nan", "alpha-eps", "bounds-call-eps",
        "delta-window-k0", "mean-bound-below-window", "mean-bound-k0", "mean-bound-k-negative",
        "mean-bound-k-fraction", "mean-bound-above-window", "profile-overflow",
        "constant-overflow", "profile-underflow", "sigma-overflow"])
def test_guard(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()


def _samples(f, n):
    return [f(i * (1.0 / n)) for i in range(n)]


def _golden(f):
    # the golden-section refinement of circle_sup's candidates
    return lambda a, b: _search.golden_max(f, a, b)[0]


class TestCircleSup:
    def test_constant_function_is_not_refined(self):
        calls = []

        def f(t):
            calls.append(t)
            return 2.5

        def refine(a, b):
            raise AssertionError("a constant function was refined")

        assert _search.circle_sup(f, [2.5] * 64, refine) == (0.0, 2.5)
        assert calls == [0.0]  # the winning grid point only

    def test_plateau_refined_once(self):
        refined = []

        def f(t):
            return min(math.sin(2 * math.pi * t), 0.5)

        def refine(a, b):
            refined.append((a, b))
            return _search.golden_max(f, a, b)[0]

        t, v = _search.circle_sup(f, _samples(f, 64), refine)
        assert len(refined) == 1
        assert v == 0.5 and 1 / 12 <= t <= 5 / 12

    def test_refinement_gets_the_two_cells_around_a_candidate(self):
        # and the value at the refined time is f's, not the grid's
        brackets = []

        def refine(a, b):
            brackets.append((a, b))
            return 0.5 * (a + b)

        vals = [0.0] * 16
        vals[5] = 1.0
        assert _search.circle_sup(lambda t: 7.0 * t, vals, refine) == (5 / 16, 7.0 * 5 / 16)
        assert brackets == [(4 / 16, 6 / 16)]

    def test_golden_max_below_xtol_takes_the_midpoint(self):
        calls = []

        def f(t):
            calls.append(t)
            return -t

        a, b = 0.25, 0.25 + 1e-14  # narrower than the default xtol, 1e-13
        m = 0.5 * (a + b)
        assert _search.golden_max(f, a, b) == (m, -m)
        assert calls == [m]

    def test_too_few_values_rejected(self):
        with pytest.raises(PreconditionError):
            _search.circle_sup(math.sin, [0.0, 1.0], _golden(math.sin))

    def test_value_comes_from_f_not_the_grid(self):
        # grid values that round differently pick the bracket only: a
        # winning grid point is re-evaluated, a candidate refined with f
        def f(t):
            return math.cos(2 * math.pi * t)

        vals = [v + 1e-15 for v in _samples(f, 64)]
        assert (_search.circle_sup(f, vals, _golden(f))
                == _search.circle_sup(f, _samples(f, 64), _golden(f)))

        def const(t):
            return 2.5

        assert _search.circle_sup(const, [2.5 + 1e-12] * 64, _golden(const)) == (0.0, 2.5)


def _family_members(count, seed, ks=(1, 2, 3, 5, 8)):
    """Seeded members of both sine families: k cycling over ks, amplitudes
    inside and just outside delta_window, means spanning the R_tilde
    threshold, eps in {0.3, 0.5, 0.9}."""
    rng = random.Random(seed)
    for j in range(count):
        k = ks[j % len(ks)]
        lo, hi = radius.delta_window(k)
        delta = (lo * (hi / lo) ** rng.random(), 0.9 * lo, 1.1 * hi)[j // 5 % 3]
        mean = max(3.0 * delta, 10.0 ** rng.uniform(-0.5, 4.0))
        yield radius.family_profile(k, delta, mean), (0.3, 0.5, 0.9)[j // 15 % 3]


def _scalar_grid(profile, n):
    # the oracle grid: the scalar profile methods at t = i/n
    return tuple(np.array(col) for col in zip(*_samples(profile.eval, n)))


def _scalar_columns(profile, n, shift=0.0):
    # the oracle columns: each harmonic's terms of eval at t = i/n + shift
    ts = [i * (1.0 / n) + shift for i in range(n)]
    for k, d in profile.harmonics:
        w = 2.0 * math.pi * k
        yield (np.array([d * math.sin(w * t) for t in ts]),
               np.array([d * w * math.cos(w * t) for t in ts]),
               np.array([d * w * w * math.sin(w * t) for t in ts]))


class TestNumpyGridMatchesScalarOracle:
    """The numpy grids may only choose which brackets get refined: every
    result equals the one computed from scalar-built grids, bit for bit."""

    def test_family_members(self, monkeypatch):
        members = list(_family_members(210, seed=11))
        numpy_run = [(radius.classify(p, eps), radius.bounds(p, eps).stationary)
                     for p, eps in members]
        monkeypatch.setattr(radius, "_columns", _scalar_columns)
        scalar_run = [(radius.classify(p, eps), radius.bounds(p, eps).stationary)
                      for p, eps in members]
        assert {v.klass for v, _ in numpy_run} == {"none", "R", "R_tilde"}
        assert [i for i, (a, b) in enumerate(zip(numpy_run, scalar_run)) if a != b] == []

    def test_find_member_shared_grids(self, monkeypatch):
        # find_member sums one family's columns for every mean; summed from
        # the scalar columns they are the scalar grid, and the members agree
        cases = [(1, 0.05, 0.5, 1.0), (1, 0.02, 0.3, None), (5, 0.01, 0.5, None),
                 (8, 0.003, 0.5, 1.0)]
        numpy_run = [radius.find_member(k, d, eps, min_window=w) for k, d, eps, w in cases]
        for p, _ in _family_members(10, seed=14):
            n = radius.grid_size(p, 512)
            assert all(np.array_equal(a, b) for a, b in zip(
                radius._summed(p.mean, n, _scalar_columns(p, n)), _scalar_grid(p, n)))
        monkeypatch.setattr(radius, "_columns", _scalar_columns)
        scalar_run = [radius.find_member(k, d, eps, min_window=w) for k, d, eps, w in cases]
        assert scalar_run == numpy_run

    def test_sign_near_zero_is_decided_in_scalar(self, monkeypatch):
        # Rdot is ~1e-17 at the grid points t = 1/4 and 3/4; a grid that
        # rounds every value within the noise of Rdot to the other sign
        # must not lose either root
        p = RadiusProfile(1.0, ((1, 0.05),))
        expected = radius.bounds(p, EPS).stationary
        noise = radius._noise(p, 1)

        def flipped(profile, n, shift=0.0):
            for s, c, ss in _scalar_columns(profile, n, shift):
                yield s, np.where(np.abs(c) <= noise, -c, c), ss

        monkeypatch.setattr(radius, "_columns", flipped)
        assert radius.bounds(p, EPS).stationary == expected
        # the Rdot grid the roots are bracketed on is the flipped one
        n = radius.grid_size(p, radius._BOUNDS_FLOOR)
        dr = radius._shape(p)[1]
        assert np.flatnonzero(np.sign(dr) != np.sign(_scalar_grid(p, n)[1])).tolist() == [
            n // 4, 3 * n // 4]
        assert [round(t, 9) for t, _ in expected] == [0.25, 0.75]

    def test_coarse_grid_and_constant_profile(self, monkeypatch):
        cases = [(p, eps, 256) for p, eps in _family_members(20, seed=12)]
        cases.append((RadiusProfile(3.0), EPS, 4096))

        def run():
            out = []
            for p, eps, floor in cases:
                monkeypatch.setattr(radius, "_BOUNDS_FLOOR", floor)
                out.append(radius.bounds(p, eps))
            return out

        numpy_run = run()
        monkeypatch.setattr(radius, "_columns", _scalar_columns)
        assert run() == numpy_run


# roots of Rdot whose rounding comes mostly from the arguments w t of its terms
ROUNDED_ARGS = RadiusProfile(21.39621944108136, (
    (88, 0.0006474653707743254), (165, 0.0057492653878457225), (192, -0.00462800911803962)))


def _mp_jet(p, t):
    # (R, Rdot, Rddot, R^(3), R^(4)) of p at the mpmath time t, with the exact pi
    jet = [mpmath.mpf(p.mean), 0, 0, 0, 0]
    for k, d in p.harmonics:
        w, d = 2 * mpmath.pi * k, mpmath.mpf(d)
        s, c = mpmath.sin(w * t), mpmath.cos(w * t)
        jet = [jet[0] + d * s, jet[1] + d * w * c, jet[2] - d * w ** 2 * s,
               jet[3] - d * w ** 3 * c, jet[4] + d * w ** 4 * s]
    return jet


# each norm is the sup of a g over one period (r_min is -sup(-R)): g of a
# (R, Rdot, Rddot, ...) jet, float or mpmath; the scalar g; and (g', g'') up
# to the sign of g
_NORMS = {
    "r_min": (lambda j: -j[0], lambda p: lambda t: -p.radius(t), lambda j: (j[1], j[2])),
    "r_max": (lambda j: j[0], lambda p: p.radius, lambda j: (j[1], j[2])),
    "dR_norm": (lambda j: abs(j[1]), lambda p: lambda t: abs(p.d_radius(t)),
                lambda j: (j[2], j[3])),
    "ddR2_norm": (lambda j: abs(2 * (j[1] * j[1] + j[0] * j[2])),
                  lambda p: lambda t: abs(p.dd_radius_sq(t)),
                  lambda j: (3 * j[1] * j[2] + j[0] * j[3],
                             3 * j[2] ** 2 + 4 * j[1] * j[3] + j[0] * j[4])),
}


def _oracle(p, name):
    """The norm in mpmath at 50 digits.  Every local maximum of g on a numpy
    scan of 128 points per period of the top harmonic (4096 at least) is
    refined in float by golden_max; those within 1e-12 relative of the
    largest take six mpmath Newton steps on g' = 0, and g is read there."""
    g, scalar, slopes = _NORMS[name]
    n = max(4096, 128 * max(k for k, _ in p.harmonics))
    t = np.arange(n) / n
    jet = [np.full(n, p.mean), 0 * t, 0 * t]
    for k, d in p.harmonics:
        w = 2 * math.pi * k
        jet = [jet[0] + d * np.sin(w * t), jet[1] + d * w * np.cos(w * t),
               jet[2] - d * w * w * np.sin(w * t)]
    vals = g(jet)
    peaks = [_search.golden_max(scalar(p), (i - 1) / n, (i + 1) / n)
             for i in np.flatnonzero((vals > np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))]
    top = max(v for _, v in peaks)
    best = -mpmath.inf
    with mpmath.workdps(50):
        for t0, v in peaks:
            if v >= top - 1e-12 * abs(top):
                x = mpmath.mpf(t0)
                for _ in range(6):
                    d1, d2 = slopes(_mp_jet(p, x))
                    x -= d1 / d2
                best = max(best, g(_mp_jet(p, x)))
    return -best if name == "r_min" else best


def _noise(p, name):
    """Evaluation noise of a norm: 16 ulp of the scale of its terms, the
    rounding of their arguments w t, t < 1, included, as in the noise of
    the stationary-point solve.  With T_j = sum |d| w^j (1 + w): M + T_0 for r,
    T_1 for ||Rdot||, 4 (T_1^2 + (M + T_0) T_2) for ||(R^2)''||."""
    t = [sum(abs(d) * (2 * math.pi * k) ** j * (1 + 2 * math.pi * k) for k, d in p.harmonics)
         for j in range(3)]
    scale = {"r_min": p.mean + t[0], "r_max": p.mean + t[0], "dR_norm": t[1],
             "ddR2_norm": 4 * (t[1] ** 2 + (p.mean + t[0]) * t[2])}[name]
    return 16 * 2.3e-16 * scale


def _golden_norm(p, name):
    # the golden-section refinement of circle_sup's candidates on bounds' grid
    r, dr, ddr = radius._grid(p, radius.grid_size(p, radius._BOUNDS_FLOOR))
    g, scalar, _ = _NORMS[name]
    f = scalar(p)
    value = _search.circle_sup(f, g([r, dr, ddr]), _golden(f))[1]
    return -value if name == "r_min" else value


def _assert_near_the_oracle(p):
    # each norm within its noise of the oracle, and no further from it than
    # the golden-section refinement plus that noise
    b = radius.bounds(p, EPS)
    for name in _NORMS:
        exact, noise = _oracle(p, name), _noise(p, name)
        err = abs(getattr(b, name) - exact)
        assert err <= noise, (p, name)
        assert err <= abs(_golden_norm(p, name) - exact) + noise, (p, name)


class TestOneScan:
    """bounds reads r_min and r_max at the stationary points it carries, and
    classify and find_member read them there instead of solving again."""

    def test_bounds_carry_the_stationary_points(self):
        # classify's witnesses are points of the bounds it carries, and
        # those are the points bounds itself computes
        for p, eps in _family_members(30, seed=16):
            stationary = radius.bounds(p, eps).stationary
            v = radius.classify(p, eps)
            assert stationary and v.bounds.stationary == stationary
            assert set(v.witnesses) <= set(stationary)
        assert radius.bounds(RadiusProfile(3.0), EPS).stationary == ()

    def test_equality_and_hash_skip_the_points(self, member):
        b = member[2].bounds
        bare = dataclasses.replace(b, stationary=())
        assert b.stationary and bare == b and hash(bare) == hash(b)
        assert "stationary" not in repr(b)
        assert hash(genfun.GenFunContext(bare, 1.0, b.sigma)) == hash(
            genfun.GenFunContext(b, 1.0, b.sigma))

    def test_classify_solves_once(self, monkeypatch):
        # one profile grid: its Rdot column brackets the roots and gives ||Rdot||
        calls = []
        original = radius._columns
        monkeypatch.setattr(radius, "_columns",
                            lambda p, n, shift=0.0: calls.append(p) or original(p, n, shift))
        p = radius.family_profile(5, 0.01, 225.0)
        radius.classify(p, EPS)
        assert calls == [p]

    def test_find_member_builds_one_shape(self, monkeypatch):
        shapes, means = [], []
        original_shape, original_bounds = radius._shape, radius._bounds
        monkeypatch.setattr(radius, "_shape", lambda p: shapes.append(p) or original_shape(p))
        monkeypatch.setattr(radius, "_bounds", lambda p, eps, shape: means.append(
            p.mean) or original_bounds(p, eps, shape))
        radius.find_member(1, 0.05, EPS, min_window=1.0)
        assert len(shapes) == 1 and len(means) > 30


class TestGridSize:
    """Every profile grid has 32 points per period of the top harmonic, and
    at least its floor, so no root or extremum falls between grid points."""

    HIGH = RadiusProfile(1e6, ((2000, 1e-4), (3, 0.01)))

    def test_floor_up_to_harmonic_16(self):
        p = RadiusProfile(10.0, ((16, 1e-3), (1, 0.01)))
        assert [radius.grid_size(p, f) for f in (512, 1024, 4096)] == [512, 1024, 4096]
        assert radius.grid_size(RadiusProfile(10.0, ((17, 1e-3),)), 512) == 544
        assert radius.grid_size(RadiusProfile(10.0, ((99, 0.0),)), 512) == 512

    @pytest.mark.parametrize("profile, roots", [
        (RadiusProfile(1e6, ((700, 1e-3),)), 1400),
        (HIGH, 4000),
    ])
    def test_every_root_at_high_harmonics(self, profile, roots):
        # a fixed 1024-point grid found 648 and 96 of these roots
        n = 256 * max(k for k, _ in profile.harmonics)
        dr = _scalar_grid(profile, n)[1]
        assert int(np.sum(np.roll(dr, 1) * dr < 0)) == roots
        assert len(radius.bounds(profile, EPS).stationary) == roots

    def test_bounds_match_a_fine_scalar_scan(self):
        # a fixed 4096-point grid read ||(R^2)''|| 1.05e-6 low, so sigma high;
        # the reference is the mpmath oracle on a 128-per-period scan
        _assert_near_the_oracle(self.HIGH)

    def test_cap_raises_before_any_grid(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(radius, "_columns", no_grid)
        assert radius.grid_size(RadiusProfile(2.0, ((2 ** 15, 1e-3),)), 512) == 2 ** 20
        for k in (2 ** 15 + 1, 10 ** 18):
            p = RadiusProfile(2.0, ((k, 1e-3),))
            with pytest.raises(PreconditionError, match="more than 1048576"):
                radius.bounds(p, EPS)


class TestNormsAgainstMpmath:
    """Each norm lies within its evaluation noise of the mpmath oracle, and
    no further from it than the golden-section refinement plus that noise;
    TestGridSize checks the k = 2000 profile HIGH the same way."""

    def test_family_members(self):
        for p, _ in _family_members(25, seed=15, ks=(1, 5, 6, 7, 8)):
            _assert_near_the_oracle(p)

    def test_rounded_arguments(self):
        _assert_near_the_oracle(ROUNDED_ARGS)


class TestStationaryPoints:
    def test_single_harmonic(self):
        p = RadiusProfile(1.0, ((1, 0.05),))
        pts = radius.bounds(p, EPS).stationary
        ts = sorted(t for t, _ in pts)
        assert ts == pytest.approx([0.25, 0.75], abs=1e-10)
        dd = dict((round(t, 6), v) for t, v in pts)
        assert dd[0.25] == pytest.approx(-4 * PI2 * 0.05, rel=1e-9)
        assert dd[0.75] == pytest.approx(+4 * PI2 * 0.05, rel=1e-9)

    def test_root_residual(self):
        p = RadiusProfile(5.0, ((7, 0.01), (1, 0.05)))
        for t, _ in radius.bounds(p, EPS).stationary:
            assert abs(p.d_radius(t)) < 1e-10

    def test_roots_reach_the_rounding_floor(self):
        # |Rdot| within the floor of the Newton solve: 4 |Rddot| ulp(t) plus
        # 16 ulp of sum |d| 2 pi k; bisection to 1e-12 left ~|Rddot| 5e-13
        ulp = 2.3e-16
        for p, _ in _family_members(100, seed=13, ks=(1, 5, 6, 7, 8)):
            noise = 16 * ulp * sum(abs(d) * 2 * math.pi * k for k, d in p.harmonics)
            for t, ddr in radius.bounds(p, EPS).stationary:
                assert abs(p.d_radius(t)) <= 4 * abs(ddr) * ulp * max(1.0, abs(t)) + noise

    @pytest.mark.parametrize("mean, harmonics, eps", [
        (21.39621944108136, ((88, 0.0006474653707743254), (165, 0.0057492653878457225),
                             (192, -0.00462800911803962)), 0.062226760471634626),
        (87.53774342299069, ((153, 0.0063700026342398495), (99, 0.014552310546569408)),
         0.23943637801712292),
    ])
    def test_high_harmonic_roots_converge(self, mean, harmonics, eps):
        # the argument w t of a term rounds by ~|d| w^2 t ulp, 2.8e-12 of Rdot
        # in the first profile; a noise of 16 ulp of sum |d| w alone (3.4e-13)
        # kept the solve iterating in a 13-ulp bracket until it gave up
        p = RadiusProfile(mean, harmonics)
        ulp = 2.3e-16
        noise = 16 * ulp * sum(abs(d) * 2 * math.pi * k * (1 + 2 * math.pi * k)
                               for k, d in harmonics)
        points = radius.bounds(p, eps).stationary
        for t, ddr in points:
            assert abs(p.d_radius(t)) <= 4 * abs(ddr) * ulp + noise
        n = radius.grid_size(p, radius._BOUNDS_FLOOR)
        vals = [p.d_radius(i / n) for i in range(n + 1)]
        expected = [brentq(p.d_radius, i / n, (i + 1) / n, xtol=1e-15)
                    for i in range(n) if vals[i] * vals[i + 1] < 0]
        assert [t for t, _ in points] == pytest.approx(expected, rel=0, abs=1e-12)
        assert radius.classify(p, eps).klass == "none"

    def test_roots_match_brentq(self):
        # oracle: brentq to 1e-15 on every scalar sign change of the grid
        for p, _ in _family_members(100, seed=14, ks=(1, 5, 6, 7, 8)):
            n = radius.grid_size(p, radius._BOUNDS_FLOOR)
            step = 1.0 / n
            f = p.d_radius
            vals = [f(i * step) for i in range(n + 1)]
            expected = [brentq(f, i * step, (i + 1) * step, xtol=1e-15)
                        for i in range(n) if vals[i] * vals[i + 1] < 0]
            got = [t for t, _ in radius.bounds(p, EPS).stationary]
            assert got == pytest.approx(expected, rel=0, abs=1e-12)


class TestClassify:
    def test_constant_is_R(self):
        v = radius.classify(RadiusProfile(1.0), EPS)
        assert v.klass == "R"
        assert v.degenerate
        assert v.witnesses == ()

    def test_reference_is_R_tilde(self, reference_profile):
        v = radius.classify(reference_profile, EPS)
        assert v.klass == "R_tilde"
        assert v.witnesses[0][0] == pytest.approx(0.25, abs=1e-9)
        assert all(m > 0 for m in v.margins.values())

    def test_large_amplitude_is_none(self):
        # sigma's slope term is r_min/(2||Rdot||) = 0.8/(0.8 pi) < 2
        v = radius.classify(RadiusProfile(1.0, ((1, 0.2),)), EPS)
        assert v.klass == "none"
        assert v.bounds.sigma < 2

    def test_tilde_implies_R(self, reference_profile):
        v = radius.classify(reference_profile, EPS)
        assert v.klass == "R_tilde"
        assert v.bounds.sigma > 2  # the class-R test passes a fortiori
        assert v.margins["sigma_gt_2"] > 0

    def test_witnesses_tied_within_noise_are_ordered_by_time(self):
        # a mirror pair t and 1.5 - t of a k = 5 member has equal |Rddot| in
        # exact arithmetic; in float the later one is 1 ulp stronger
        p = RadiusProfile(56.91004961141098,
                          ((5, 0.0011492566187772482), (1, 0.0011492566187772482)))
        v, noise = radius.classify(p, EPS), radius._noise(p, 2)
        (t_a, dd_a), (t_b, dd_b) = v.witnesses[-2:]
        assert 0.0 < abs(dd_b) - abs(dd_a) <= noise
        assert t_a == pytest.approx(0.6461, abs=1e-4) and t_b == pytest.approx(0.8539, abs=1e-4)
        for (t0, dd0), (t1, dd1) in zip(v.witnesses, v.witnesses[1:]):
            assert abs(dd0) - abs(dd1) > noise or t0 < t1

    @staticmethod
    def _curvature(v, ddr):
        # the curvature slack of a stationary point; the margins depend on it
        # only through Rddot
        b = v.bounds
        return -2.0 * b.r_max ** 2 / (b.sigma ** 2 * b.r_min) - ddr

    def test_tie_without_witness_reports_the_earlier_point(self):
        # a k = 6 member is odd about t = 1/2, so its strongest pair t and
        # 1 - t has equal |Rddot| in exact arithmetic; in float the later
        # one is 1 ulp stronger, and the verdict has no witness
        p = RadiusProfile(68.8594919076202,
                          ((6, 0.00808371426758667), (1, 0.00808371426758667)))
        v = radius.classify(p, EPS)
        assert v.klass == "R" and v.witnesses == ()
        (t_b, dd_b), (t_a, dd_a) = sorted(v.bounds.stationary, key=lambda pt: -abs(pt[1]))[:2]
        assert t_a == pytest.approx(0.2094, abs=1e-4) and t_b == pytest.approx(0.7906, abs=1e-4)
        assert 0.0 < abs(dd_b) - abs(dd_a) <= radius._noise(p, 2)
        assert v.margins["curvature"] == self._curvature(v, dd_a)
        assert v.margins["deceleration"] == pytest.approx(787.00, abs=0.005)
        assert v.margins["curvature"] == pytest.approx(5.46, abs=0.005)

    def test_verdict_without_witness_reports_the_first_of_its_ties(self):
        # the margins are those of the earliest stationary point whose
        # |Rddot| is within rounding noise of the strongest one
        ties = 0
        for p, eps in _family_members(200, seed=31, ks=(1, 5, 6, 7, 8)):
            v, noise = radius.classify(p, eps), radius._noise(p, 2)
            if v.witnesses or v.degenerate:
                continue
            top = max(abs(dd) for _, dd in v.bounds.stationary)
            run = sorted(pt for pt in v.bounds.stationary if top - abs(pt[1]) <= noise)
            ties += len(run) > 1
            assert v.margins["curvature"] == self._curvature(v, run[0][1])
        assert ties > 10


class TestClassVerdictWindow:
    """An R_tilde verdict has a witness and a window inside (3, sigma - 1):
    classify's always does, and ClassVerdict refuses any other."""

    @staticmethod
    def _window_inside(v):
        w_lo, w_hi = v.window
        return 3.0 < w_lo < w_hi < v.bounds.sigma - 1.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.sampled_from((1, 2, 3, 5, 8)), share=st.floats(0.0, 1.0),
           log_mean=st.floats(1.5, 4.5), eps=st.floats(0.1, 0.9),
           extra=st.lists(st.tuples(st.integers(1, 40), st.floats(-0.3, 0.3)), max_size=2))
    def test_random_multi_harmonic_profiles(self, k, share, log_mean, eps, extra):
        lo, hi = radius.delta_window(k)
        delta = lo * (hi / lo) ** share
        profile = RadiusProfile(10.0 ** log_mean,
                                ((k, delta), *((j, s * delta) for j, s in extra)))
        v = radius.classify(profile, eps)
        assert v.klass != "R_tilde" or self._window_inside(v)

    def test_family_members(self):
        verdicts = [radius.classify(p, eps) for p, eps in _family_members(200, seed=23)]
        tilde = [v for v in verdicts if v.klass == "R_tilde"]
        assert len(tilde) > 50
        assert all(self._window_inside(v) for v in tilde)

    def test_other_windows_are_refused(self, reference_profile):
        v = radius.classify(reference_profile, EPS)
        sigma = v.bounds.sigma
        w_lo, w_hi = v.window
        for window in ((2.0, sigma + 5.0), (w_hi, w_lo), (w_lo, sigma - 1.0), (3.0, w_hi)):
            with pytest.raises(PreconditionError, match="window inside"):
                dataclasses.replace(v, window=window)
        with pytest.raises(PreconditionError, match="needs a witness"):
            dataclasses.replace(v, window=None)
        with pytest.raises(PreconditionError, match="needs a witness"):
            dataclasses.replace(v, witnesses=())
        # only an R_tilde verdict carries the guarantee
        assert dataclasses.replace(v, klass="R", window=None).window is None


class TestFamilyFormulas:
    def test_k_threshold(self):
        # closed form evaluated independently
        a2 = 1 + math.sqrt(1 - 0.25)
        expected = (a2 + math.sqrt(2 * a2 * a2 - 1)) / (a2 - 1)
        got = radius.two_harmonic_k_threshold(0.5)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(4.975, abs=1e-3)
        assert math.ceil(got) == 5

    def test_delta_window_k5(self):
        lo, hi = radius.delta_window(5)
        assert lo == pytest.approx(1 / (4 * PI2 * 26), rel=1e-14)
        assert hi == pytest.approx(1 / (2 * math.pi * 6), rel=1e-14)
        assert lo == pytest.approx(9.75e-4, rel=1e-2)
        assert hi == pytest.approx(2.653e-2, rel=1e-3)

    def test_single_harmonic_threshold(self):
        got = radius.single_harmonic_eps_max()
        assert got == pytest.approx(math.sqrt(1 - 1 / (math.pi - 1) ** 2), rel=1e-14)
        assert got == pytest.approx(0.8839, abs=1e-3)
        assert 0.5 < got  # eps = 0.5 is admissible for the single-harmonic family

    def test_appendix_bound_k1(self):
        # the conservative sufficient bound dwarfs what the classifier needs
        assert radius.sufficient_mean_bound(1, 0.05) == pytest.approx(
            2 * 0.05 + 216 * PI2 * 4, rel=1e-12)


def _classify_scan(k, delta, eps, min_window):
    """find_member's scan and bisection, run with the public classify."""
    def accept(mean):
        v = radius.classify(radius.family_profile(k, delta, mean), eps)
        ok = v.klass == "R_tilde" and (min_window is None
                                       or v.window[1] - v.window[0] > min_window)
        return ok, v

    lo, mean = None, max(1.0, 4.0 * delta)
    while not (found := accept(mean))[0]:
        lo, mean = mean, mean * 1.25
    verdict = found[1]
    while lo is not None and mean / lo > 1.0 + 1e-3:
        mid = math.sqrt(lo * mean)
        ok_mid, v_mid = accept(mid)
        if ok_mid:
            mean, verdict = mid, v_mid
        else:
            lo = mid
    return mean, verdict


class TestFindMember:
    def test_single_harmonic_member(self):
        mean, v = radius.find_member(1, 0.05, EPS)
        assert v.klass == "R_tilde"
        # idempotence: the returned mean re-classifies
        check = radius.classify(radius.family_profile(1, 0.05, mean), EPS)
        assert check.klass == "R_tilde"
        assert mean < radius.sufficient_mean_bound(1, 0.05)

    def test_min_window_variant(self):
        mean, v = radius.find_member(1, 0.05, EPS, min_window=1.0)
        assert v.window is not None
        assert v.window[1] - v.window[0] > 1.0
        mean_plain, _ = radius.find_member(1, 0.05, EPS)
        assert mean > mean_plain

    def test_two_harmonic_member(self):
        mean, v = radius.find_member(5, 0.01, EPS)
        assert v.klass == "R_tilde"
        prof = radius.family_profile(5, 0.01, mean)
        assert len(prof.harmonics) == 2

    def test_rejections_name_the_inequality(self):
        with pytest.raises(PreconditionError, match="k_bar"):
            radius.find_member(3, 0.01, EPS)
        with pytest.raises(PreconditionError, match="window"):
            radius.find_member(5, 0.5, EPS)
        with pytest.raises(PreconditionError, match="single-harmonic"):
            radius.find_member(1, 0.05, 0.95)

    def test_refusal_after_the_whole_scan(self, monkeypatch):
        # no mean passes: the start and 200 scan steps, the last one reported
        means = []
        original = radius._chain

        def never(b):
            means.append(b.profile.mean)
            return dataclasses.replace(original(b), klass="none", window=None)

        monkeypatch.setattr(radius, "_chain", never)
        with pytest.raises(ConvergenceError) as info:
            radius.find_member(1, 0.05, EPS)
        expected = [1.0]
        for _ in range(200):
            expected.append(expected[-1] * 1.25)
        assert means == expected
        assert info.value.diagnostics["last_mean"] == means[-1]

    def test_a_start_that_passes_is_the_answer(self, monkeypatch):
        means = []
        original = radius._chain
        passing = radius.family_profile(1, 0.05, 754.0)
        monkeypatch.setattr(radius, "_chain",
                            lambda b: means.append(b.profile.mean) or original(
                                radius.bounds(passing, EPS)))
        mean, verdict = radius.find_member(1, 0.05, EPS)
        assert means == [1.0] and mean == 1.0 and verdict.klass == "R_tilde"

    def test_every_mean_is_classify_s_verdict(self, monkeypatch):
        # the shared columns, ||Rdot|| and stationary points give, at every
        # mean of the scan and of the bisection, classify's verdict bit for bit
        rng = random.Random(15)
        for j in range(15):
            k = (1, 2, 3, 5, 8)[j % 5]
            lo, hi = radius.delta_window(k)
            delta = lo * (hi / lo) ** rng.uniform(0.05, 0.95)
            eps, min_window = rng.choice((0.3, 0.5)), rng.choice((None, 1.0))
            if k in (2, 3):  # below k_bar(eps) > 4.6: refused before any scan
                with pytest.raises(PreconditionError, match="k_bar"):
                    radius.find_member(k, delta, eps, min_window)
                continue
            seen = []
            original = radius._chain
            monkeypatch.setattr(radius, "_chain", lambda b: seen.append(original(b)) or seen[-1])
            got = radius.find_member(k, delta, eps, min_window)
            monkeypatch.setattr(radius, "_chain", original)
            expected = [radius.classify(v.bounds.profile, eps) for v in seen]
            assert [repr(v) for v in seen] == [repr(v) for v in expected]
            assert got == _classify_scan(k, delta, eps, min_window)

    @pytest.mark.parametrize("min_window", [math.nan, math.inf])
    def test_min_window_must_be_finite(self, min_window):
        # a NaN width compared false and so was ignored without a word
        with pytest.raises(PreconditionError, match="min_window"):
            radius.find_member(1, 0.05, EPS, min_window=min_window)
