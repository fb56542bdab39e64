import math
import random

import numpy as np
import pytest
from scipy.optimize import brentq

from breathing_billiard import _search, radius
from breathing_billiard.errors import PreconditionError
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
    (lambda: radius.alpha_constant(0.0), _EPS_RANGE),
    (lambda: radius.bounds(RadiusProfile(1.0), 1.5), _EPS_RANGE),
    (lambda: radius.delta_window(0), "k must be a positive integer"),
    (lambda: radius.sufficient_mean_bound(1, 0.01), "amplitude below the admissible window"),
    # the squares of these norms overflowed in classify and in the context
    (lambda: RadiusProfile(1e308, ((1, 1e307),)), "profile too large"),
    (lambda: RadiusProfile(1e200), "profile too large"),
    (lambda: radius.classify(RadiusProfile(1e70, ((1, 1e-300),)), EPS),
     "sigma = .* overflows when squared"),
], ids=["mean-zero", "mean-negative", "bounds-eps", "alpha-eps", "bounds-call-eps",
        "delta-window-k0", "mean-bound-below-window", "profile-overflow",
        "constant-overflow", "sigma-overflow"])
def test_guard(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()


def _samples(f, n):
    return [f(i * (1.0 / n)) for i in range(n)]


class TestCircleSup:
    def test_constant_function_is_not_refined(self):
        calls = []

        def f(t):
            calls.append(t)
            return 2.5

        assert _search.circle_sup(f, [2.5] * 64) == (0.0, 2.5)
        assert calls == [0.0]  # the winning grid point only, no golden-section search

    def test_plateau_refined_once(self, monkeypatch):
        refined = []
        golden_max = _search.golden_max

        def spy(f, a, b, xtol):
            refined.append((a, b))
            return golden_max(f, a, b, xtol)

        def f(t):
            return min(math.sin(2 * math.pi * t), 0.5)

        monkeypatch.setattr(_search, "golden_max", spy)
        t, v = _search.circle_sup(f, _samples(f, 64))
        assert len(refined) == 1
        assert v == 0.5 and 1 / 12 <= t <= 5 / 12

    def test_too_few_values_rejected(self):
        with pytest.raises(PreconditionError):
            _search.circle_sup(math.sin, [0.0, 1.0])

    def test_value_comes_from_f_not_the_grid(self):
        # grid values that round differently pick the bracket only: a
        # winning grid point is re-evaluated, a candidate refined with f
        def f(t):
            return math.cos(2 * math.pi * t)

        vals = [v + 1e-15 for v in _samples(f, 64)]
        assert _search.circle_sup(f, vals) == _search.circle_sup(f, _samples(f, 64))
        assert _search.circle_sup(lambda t: 2.5, [2.5 + 1e-12] * 64) == (0.0, 2.5)


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


class TestNumpyGridMatchesScalarOracle:
    """The numpy grids may only choose which brackets get refined: every
    result equals the one computed from scalar-built grids, bit for bit."""

    def test_family_members(self, monkeypatch):
        members = list(_family_members(210, seed=11))
        numpy_run = [(radius.classify(p, eps), radius.stationary_points(p))
                     for p, eps in members]
        monkeypatch.setattr(radius, "_grid", _scalar_grid)
        scalar_run = [(radius.classify(p, eps), radius.stationary_points(p))
                      for p, eps in members]
        assert {v.klass for v, _ in numpy_run} == {"none", "R", "R_tilde"}
        assert [i for i, (a, b) in enumerate(zip(numpy_run, scalar_run)) if a != b] == []

    def test_sign_near_zero_is_decided_in_scalar(self, monkeypatch):
        # Rdot is ~1e-17 at the grid points t = 1/4 and 3/4; a grid that
        # rounds those values to the other sign must not lose either root
        p = RadiusProfile(1.0, ((1, 0.05),))
        expected = radius.stationary_points(p)

        def flipped(profile, n):
            r, dr, ddr = _scalar_grid(profile, n)
            return r, np.where(np.abs(dr) < 1e-15, -dr, dr), ddr

        monkeypatch.setattr(radius, "_grid", flipped)
        assert radius.stationary_points(p) == expected
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
        monkeypatch.setattr(radius, "_grid", _scalar_grid)
        assert run() == numpy_run


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
        assert len(radius.stationary_points(profile)) == roots

    def test_bounds_match_a_fine_scalar_scan(self):
        # a fixed 4096-point grid read ||(R^2)''|| 1.05e-6 low, so sigma high
        p = self.HIGH
        r, dr, ddr = _scalar_grid(p, 128 * 2000)
        scan = (-_search.circle_sup(lambda t: -p.radius(t), -r)[1],
                _search.circle_sup(p.radius, r)[1],
                _search.circle_sup(lambda t: abs(p.d_radius(t)), abs(dr))[1],
                _search.circle_sup(lambda t: abs(p.dd_radius_sq(t)),
                                   abs(2.0 * (dr * dr + r * ddr)))[1])
        b = radius.bounds(p, EPS)
        assert (b.r_min, b.r_max, b.dR_norm, b.ddR2_norm) == scan

    def test_cap_raises_before_any_grid(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(radius, "_grid", no_grid)
        assert radius.grid_size(RadiusProfile(2.0, ((2 ** 15, 1e-3),)), 512) == 2 ** 20
        for k in (2 ** 15 + 1, 10 ** 18):
            p = RadiusProfile(2.0, ((k, 1e-3),))
            for scan in (lambda: radius.bounds(p, EPS), lambda: radius.stationary_points(p)):
                with pytest.raises(PreconditionError, match="more than 1048576"):
                    scan()


class TestStationaryPoints:
    def test_single_harmonic(self):
        p = RadiusProfile(1.0, ((1, 0.05),))
        pts = radius.stationary_points(p)
        ts = sorted(t for t, _ in pts)
        assert ts == pytest.approx([0.25, 0.75], abs=1e-10)
        dd = dict((round(t, 6), v) for t, v in pts)
        assert dd[0.25] == pytest.approx(-4 * PI2 * 0.05, rel=1e-9)
        assert dd[0.75] == pytest.approx(+4 * PI2 * 0.05, rel=1e-9)

    def test_root_residual(self):
        p = RadiusProfile(5.0, ((7, 0.01), (1, 0.05)))
        for t, _ in radius.stationary_points(p):
            assert abs(p.d_radius(t)) < 1e-10

    def test_constant_rejected(self):
        with pytest.raises(PreconditionError):
            radius.stationary_points(RadiusProfile(1.0))

    def test_roots_reach_the_rounding_floor(self):
        # |Rdot| within the floor of the Newton solve: 4 |Rddot| ulp(t) plus
        # 16 ulp of sum |d| 2 pi k; bisection to 1e-12 left ~|Rddot| 5e-13
        ulp = 2.3e-16
        for p, _ in _family_members(100, seed=13, ks=(1, 5, 6, 7, 8)):
            noise = 16 * ulp * sum(abs(d) * 2 * math.pi * k for k, d in p.harmonics)
            for t, ddr in radius.stationary_points(p):
                assert abs(p.d_radius(t)) <= 4 * abs(ddr) * ulp * max(1.0, abs(t)) + noise

    def test_roots_match_brentq(self):
        # oracle: brentq to 1e-15 on every scalar sign change of the grid
        for p, _ in _family_members(100, seed=14, ks=(1, 5, 6, 7, 8)):
            n = radius.grid_size(p, radius._STATIONARY_FLOOR)
            step = 1.0 / n
            f = p.d_radius
            vals = [f(i * step) for i in range(n + 1)]
            expected = [brentq(f, i * step, (i + 1) * step, xtol=1e-15)
                        for i in range(n) if vals[i] * vals[i + 1] < 0]
            got = [t for t, _ in radius.stationary_points(p)]
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

    @pytest.mark.parametrize("min_window", [math.nan, math.inf])
    def test_min_window_must_be_finite(self, min_window):
        # a NaN width compared false and so was ignored without a word
        with pytest.raises(PreconditionError, match="min_window"):
            radius.find_member(1, 0.05, EPS, min_window=min_window)
