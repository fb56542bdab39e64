import math

import numpy as np
import pytest
from scipy.integrate import quad

from breathing_billiard import flight, radius
from breathing_billiard.errors import DomainError, PreconditionError

EPS = 0.5


def random_valid_windows(profile, c, eps, count, seed):
    """(t0, t1) pairs passing the window check, spread over one period."""
    b = radius.bounds(profile, eps)
    limit = min(b.sigma, eps * b.r_min**2 / c if c > 0 else math.inf)
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        t0 = float(rng.uniform(0, 1))
        tau = float(rng.uniform(0.05, 0.98)) * limit
        rep = flight.validate_window(t0, t0 + tau, c, profile, eps)
        if rep["ok"]:
            out.append((t0, t0 + tau))
    return out


class TestValidateWindow:
    def test_static_momentum_condition(self, static_profile):
        rep = flight.validate_window(0.0, 3.0, 0.1, static_profile, EPS)
        assert rep["momentum"]["limit"] == pytest.approx(5.0)
        assert rep["slope"]["limit"] == math.inf
        assert rep["curvature"]["limit"] == math.inf
        assert rep["ok"]
        rep = flight.validate_window(0.0, 5.5, 0.1, static_profile, EPS)
        assert not rep["momentum"]["ok"] and not rep["ok"]

    def test_reference_long_window_fails(self, reference_profile):
        rep = flight.validate_window(0.0, 200.0, 1.0, reference_profile, EPS)
        assert not rep["ok"]
        assert not rep["curvature"]["ok"]  # the sigma-defining condition

    def test_limits_define_sigma(self, reference_profile):
        b = radius.bounds(reference_profile, EPS)
        rep = flight.validate_window(0.0, 1.0, 1.0, reference_profile, EPS)
        assert min(rep["slope"]["limit"], rep["curvature"]["limit"]) == b.sigma

    def test_short_window_passes(self, reference_profile):
        rep = flight.validate_window(0.0, 1e-3, 1.0, reference_profile, EPS)
        assert rep["ok"]

    def test_ordering_required(self, static_profile):
        with pytest.raises(PreconditionError):
            flight.validate_window(1.0, 1.0, 0.1, static_profile, EPS)

    def test_negative_momentum_rejected(self):
        # a finite negative c used to pass as "no momentum limit"
        profile = radius.RadiusProfile(754.0, ((1, 0.05),))
        with pytest.raises(PreconditionError, match="angular momentum must be >= 0"):
            flight.validate_window(0.0, 1.0, -5.0, profile, EPS)

    @pytest.mark.parametrize("build", [
        lambda p, t0, t1, c: flight.validate_window(t0, t1, c, p, EPS),
        flight.make_segment,
    ], ids=["validate_window", "make_segment"])
    def test_non_finite_arguments_named(self, small_profile, static_profile, build):
        # a NaN momentum used to pass the window check as "no momentum
        # limit"; an infinite time reached sin(inf), or on a constant
        # profile gave an infinite flight
        with pytest.raises(PreconditionError, match="angular momentum c"):
            build(small_profile, 0.1, 0.9, math.nan)
        for profile in (small_profile, static_profile):
            for t0, t1 in ((0.0, math.inf), (-math.inf, 0.0)):
                with pytest.raises(PreconditionError, match="finite"):
                    build(profile, t0, t1, 0.0)

    def test_phase_overflow_is_refused_as_in_the_kernels(self, small_profile):
        # a finite time whose phase 2 pi k t overflows ended in sin's
        # uncaught ValueError; it is refused by the guard of genfun's kernels
        for t0, t1 in ((0.0, 1e308), (-1e308, 0.0)):
            with pytest.raises(DomainError) as info:
                flight.make_segment(small_profile, t0, t1, 0.0)
            assert str(info.value) == f"(t0, t1) = ({t0}, {t1}) outside strip: infinite time"
            assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.parametrize("build", [
        lambda p, t0, t1, c: flight.validate_window(t0, t1, c, p, EPS),
        flight.make_segment,
    ], ids=["validate_window", "make_segment"])
    def test_negative_momentum_rejected_before_the_window(self, reference_profile,
                                                          build):
        # the sign of c is checked before the window, so a degenerate window
        # (c^2 tau^2 > R0^2 R1^2) does not turn a bad momentum into DomainError
        for t1, c in ((1.0, -1.0), (300.0, -1e6)):
            with pytest.raises(PreconditionError,
                               match="angular momentum must be >= 0"):
                build(reference_profile, 0.0, t1, c)


class TestFlightCoeffs:
    def test_static_diameter(self, static_profile):
        seg = flight.make_segment(static_profile, 0.0, 2.0, 0.0)
        # A * (t0 + B) is the inward branch of the endpoint condition
        assert (seg.A, seg.B, seg.A * (seg.t0 + seg.B)) == (1.0, -1.0, -1.0)
        r, _, _ = flight.flight_state(seg, 1.0)
        assert r == pytest.approx(0.0, abs=1e-15)

    def test_static_with_momentum(self, static_profile):
        seg = flight.make_segment(static_profile, 0.0, 1.0, 0.1)
        assert seg.A == pytest.approx(2 + 2 * math.sqrt(0.99), rel=1e-14)

    def test_endpoint_residuals(self, small_profile):
        for t0, t1 in random_valid_windows(small_profile, 0.3, EPS, 1000, seed=2):
            seg = flight.make_segment(small_profile, t0, t1, 0.3)
            r0, _, _ = flight.flight_state(seg, t0)
            r1, _, _ = flight.flight_state(seg, t1)
            assert abs(r0 - small_profile.radius(t0)) < 1e-10
            assert abs(r1 - small_profile.radius(t1)) < 1e-10

    def test_degenerate_discriminant_rejected(self, static_profile):
        with pytest.raises(DomainError):
            flight.make_segment(static_profile, 0.0, 11.0, 0.1)

    @pytest.mark.parametrize("t1", [1e-200, 1e-160])
    def test_flight_too_short(self, small_profile, t1):
        # tau^2 underflows (a ZeroDivisionError) or A overflows (an inf flight)
        with pytest.raises(DomainError, match="flight too short"):
            flight.make_segment(small_profile, 0.0, t1, 0.0)

    def test_check_order(self, static_profile):
        # ordering first, then the momentum sign, then the window
        with pytest.raises(PreconditionError, match="t1 > t0"):
            flight.make_segment(static_profile, 1.0, 1.0, -1.0)
        with pytest.raises(PreconditionError, match="angular momentum"):
            flight.make_segment(static_profile, 0.0, 11.0, -1.0)
        with pytest.raises(DomainError, match="window violation"):
            flight.make_segment(static_profile, 0.0, 11.0, 0.1)
        with pytest.raises(PreconditionError, match="angular momentum"):
            flight.make_segment(static_profile, 0.0, 1.0, -0.1)

    def test_radius_evaluated_once_per_endpoint(self, small_profile):
        class CountingProfile:
            calls = 0

            def radius(self, t):
                CountingProfile.calls += 1
                return small_profile.radius(t)

        seg = flight.make_segment(CountingProfile(), 0.1, 0.9, 0.3)
        assert CountingProfile.calls == 2
        assert seg == flight.make_segment(small_profile, 0.1, 0.9, 0.3)


class TestFlightState:
    def test_first_integral(self, small_profile):
        for t0, t1 in random_valid_windows(small_profile, 0.3, EPS, 40, seed=3):
            seg = flight.make_segment(small_profile, t0, t1, 0.3)
            for t in np.linspace(t0, t1, 102)[1:-1]:
                r, rdot, _ = flight.flight_state(seg, float(t))
                assert rdot**2 + 0.09 / r**2 == pytest.approx(seg.A, abs=1e-10)

    def test_interior_confinement(self, small_profile):
        for t0, t1 in random_valid_windows(small_profile, 0.3, EPS, 40, seed=4):
            seg = flight.make_segment(small_profile, t0, t1, 0.3)
            for t in np.linspace(t0, t1, 102)[1:-1]:
                r, _, _ = flight.flight_state(seg, float(t))
                assert r < small_profile.radius(float(t))

    def test_entry_exit_velocities(self, small_profile):
        # leaves inward (below min(0, Rdot)), returns outward (above
        # max(0, 2 Rdot)); these inequalities make elastic gluing possible
        for t0, t1 in random_valid_windows(small_profile, 0.3, EPS, 200, seed=5):
            seg = flight.make_segment(small_profile, t0, t1, 0.3)
            _, v0, _ = flight.flight_state(seg, t0)
            _, v1, _ = flight.flight_state(seg, t1)
            assert v0 < min(0.0, small_profile.d_radius(t0))
            assert v1 > max(0.0, 2 * small_profile.d_radius(t1))

    def test_concavity_of_gap(self, small_profile):
        # (R^2 - r^2)'' < 0 along valid segments
        for t0, t1 in random_valid_windows(small_profile, 0.3, EPS, 20, seed=6):
            seg = flight.make_segment(small_profile, t0, t1, 0.3)
            for t in np.linspace(t0, t1, 66)[1:-1]:
                assert small_profile.dd_radius_sq(float(t)) - 2 * seg.A < 0

    def test_domain_check(self, static_profile):
        seg = flight.make_segment(static_profile, 0.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            flight.flight_state(seg, 1.5)


class TestAngularAdvance:
    def test_diameter(self, static_profile):
        assert flight.make_segment(static_profile, 0.0, 2.0, 0.0).dtheta == math.pi

    def test_three_quarter_turn(self, static_profile):
        # c tau = R0 R1 / sqrt(2)  =>  advance exactly 3 pi / 4
        c = 1 / math.sqrt(2)
        got = flight.make_segment(static_profile, 0.0, 1.0, c).dtheta
        assert got == pytest.approx(3 * math.pi / 4, rel=1e-14)

    def test_against_quadrature(self, static_profile, small_profile):
        cases = [(static_profile, 0.1, 0.0, 1.0)]
        cases += [(small_profile, 0.3, t0, t1)
                  for t0, t1 in random_valid_windows(small_profile, 0.3, EPS, 25, seed=7)]
        for profile, c, t0, t1 in cases:
            seg = flight.make_segment(profile, t0, t1, c)

            def integrand(t):
                r, _, _ = flight.flight_state(seg, t)
                return c / r**2

            oracle, err = quad(integrand, t0, t1, epsabs=1e-13, epsrel=1e-13)
            assert err < 1e-10
            assert seg.dtheta == pytest.approx(oracle, abs=1e-9)

    def test_advance_range(self, small_profile):
        for t0, t1 in random_valid_windows(small_profile, 0.3, EPS, 200, seed=8):
            adv = flight.make_segment(small_profile, t0, t1, 0.3).dtheta
            assert math.pi / 2 < adv <= math.pi


class TestGeometry:
    def test_cartesian_collinear(self, small_profile):
        # the polar samples of one segment lie on their endpoint chord
        b = radius.bounds(small_profile, EPS)
        for t0, t1 in random_valid_windows(small_profile, 0.3, EPS, 25, seed=9):
            seg = flight.make_segment(small_profile, t0, t1, 0.3)
            rows = flight.segment_samples(seg, (t1 - t0) / 40)
            p0, p1 = rows[0, 3:], rows[-1, 3:]
            chord = p1 - p0
            norm = np.hypot(*chord)
            for row in rows:
                dev = abs(chord[0] * (row[4] - p0[1]) - chord[1] * (row[3] - p0[0])) / norm
                assert dev < 1e-9 * b.r_max

    def test_chord_length_equals_tau_speed(self, small_profile):
        for t0, t1 in random_valid_windows(small_profile, 0.3, EPS, 50, seed=10):
            seg = flight.make_segment(small_profile, t0, t1, 0.3)
            x0, y0 = (lambda s: (s[0] * math.cos(s[2]), s[0] * math.sin(s[2])))(
                flight.flight_state(seg, t0))
            x1, y1 = (lambda s: (s[0] * math.cos(s[2]), s[0] * math.sin(s[2])))(
                flight.flight_state(seg, t1))
            assert math.hypot(x1 - x0, y1 - y0) == pytest.approx(
                seg.chord_length, abs=1e-9)

    def test_bounce_compatibility(self, small_profile):
        # consecutive segments: reflecting the incoming velocity lands below
        # min(0, Rdot), so the next flight is admissible
        rng = np.random.default_rng(11)
        b = radius.bounds(small_profile, EPS)
        limit = min(b.sigma, EPS * b.r_min**2 / 0.3)
        done = 0
        while done < 100:
            t0 = float(rng.uniform(0, 1))
            t1 = t0 + float(rng.uniform(0.1, 0.95)) * limit
            t2 = t1 + float(rng.uniform(0.1, 0.95)) * limit
            r1 = flight.validate_window(t0, t1, 0.3, small_profile, EPS)
            r2 = flight.validate_window(t1, t2, 0.3, small_profile, EPS)
            if not (r1["ok"] and r2["ok"]):
                continue
            seg_a = flight.make_segment(small_profile, t0, t1, 0.3)
            _, v_in, _ = flight.flight_state(seg_a, t1)
            reflected = -v_in + 2 * small_profile.d_radius(t1)
            assert reflected < min(0.0, small_profile.d_radius(t1))
            done += 1
