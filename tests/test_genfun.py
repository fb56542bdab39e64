import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from breathing_billiard import bmap, flight, genfun, radius, simulate
from breathing_billiard.bmap import CylinderState
from breathing_billiard.errors import DomainError, PreconditionError
from breathing_billiard.radius import ProfileBounds, RadiusProfile

EPS = 0.5


def strip_points(ctx, count, seed, margin=0.05):
    """Random (t0, t1) with the gap in the compact core of the strip."""
    rng = np.random.default_rng(seed)
    lo, hi = margin * ctx.sigma, (1 - margin) * ctx.sigma
    pts = []
    for _ in range(count):
        t0 = float(rng.uniform(0, 1))
        pts.append((t0, t0 + float(rng.uniform(lo, hi))))
    return pts


class TestContext:
    def test_rejects_large_momentum(self, small_profile):
        with pytest.raises(PreconditionError):
            genfun.make_context(small_profile, 100.0, EPS)

    def test_rejects_nan_momentum(self, small_profile):
        # NaN passed both momentum bounds and failed later as a
        # "degenerate discriminant nan"
        with pytest.raises(PreconditionError, match="angular momentum c"):
            genfun.make_context(small_profile, math.nan, EPS)

    def test_rejects_negative_momentum(self, small_profile):
        with pytest.raises(PreconditionError, match="angular momentum must be >= 0"):
            genfun.make_context(small_profile, -0.1, EPS)

    def test_constant_needs_working_sigma(self, static_profile):
        with pytest.raises(PreconditionError):
            genfun.make_context(static_profile, 0.0, EPS)

    @pytest.mark.parametrize("sigma", [1e-200, 1e-155])
    def test_rejects_sigma_whose_edge_action_overflows(self, member, sigma):
        # d1 h(t, t + sigma) ~ 2 R^2 / sigma^2: tau^2 underflowed to 0 in the
        # kernels at 1e-200, and sigma_star read inf at 1e-155
        with pytest.raises(PreconditionError, match="too small"):
            genfun.make_context(member[0], 1.0, EPS, sigma=sigma)

    def test_edge_gap_rounding_to_zero_is_a_domain_error(self, static_profile):
        # t + sigma - t rounds to 0 on most of the grid: a NaN scan before
        ctx = genfun.make_context(static_profile, 0.0, EPS, sigma=1e-17)
        with pytest.raises(DomainError, match="outside strip: tau = 0.0"):
            genfun.d1h_edge_grid(ctx, 512)
        with pytest.raises(DomainError, match="outside strip: tau = 0.0"):
            genfun.grad_h(ctx, 0.5, 0.5 + ctx.sigma)

    def test_reuses_given_bounds(self, small_profile, small_ctx):
        b = small_ctx.bounds
        ctx = genfun.make_context(small_profile, 0.3, EPS, bounds=b)
        assert ctx.bounds is b and ctx == small_ctx

    def test_rejects_bounds_at_another_eps(self, small_profile, small_ctx):
        with pytest.raises(PreconditionError, match="eps"):
            genfun.make_context(small_profile, 0.3, 0.4, bounds=small_ctx.bounds)

    def test_rejects_bounds_of_another_profile(self, reference_profile, small_ctx):
        with pytest.raises(PreconditionError, match="profile"):
            genfun.make_context(reference_profile, 0.3, EPS, bounds=small_ctx.bounds)

    def test_replaced_bounds_bring_their_profile(self, member_ctx):
        # the profile is read off the bounds, so replacing them cannot keep
        # the member's profile (whose sigma_star is about 810.29)
        assert [f.name for f in dataclasses.fields(member_ctx) if f.init] == [
            "bounds", "c", "sigma"]
        q = RadiusProfile(900.0, ((1, 0.05),))
        ctx = dataclasses.replace(member_ctx, bounds=radius.bounds(q, EPS))
        assert ctx.profile == q and ctx.profile is ctx.bounds.profile
        fresh = genfun.make_context(q, 1.0, EPS, sigma=member_ctx.sigma)
        assert ctx == fresh
        assert bmap.sigma_star(ctx) == bmap.sigma_star(fresh)
        assert bmap.sigma_star(ctx) == pytest.approx(1151.466, rel=1e-6)

    def test_strip_domain(self, static_ctx):
        with pytest.raises(DomainError):
            genfun.h(static_ctx, 0.0, 5.0)
        with pytest.raises(DomainError):
            genfun.h(static_ctx, 1.0, 1.0)

    def test_infinite_time_is_a_domain_error(self):
        ctx = genfun.make_context(RadiusProfile(2.0, ((1, 0.02),)), 0.0, EPS)
        for kernel in (genfun.h, genfun.grad_h, genfun.hess_h):
            for t0, t1 in ((0.0, math.inf), (-math.inf, 0.0), (math.inf, math.inf)):
                with pytest.raises(DomainError):
                    kernel(ctx, t0, t1)

    @pytest.mark.parametrize("tau", [1e-170, 1e-320])
    def test_gap_whose_square_underflows_is_a_domain_error(self, tau):
        # tau * tau is 0, so 1 / tau^2 would divide by zero in each kernel
        ctx = genfun.make_context(RadiusProfile(2.0, ((1, 0.02),)), 0.0, EPS)
        for kernel in (genfun.h, genfun.grad_h, genfun.hess_h):
            with pytest.raises(DomainError, match=f"outside strip: tau = {tau}"):
                kernel(ctx, 0.0, tau)

    def test_infinite_time_names_both_times(self):
        ctx = genfun.make_context(RadiusProfile(2.0, ((1, 0.02),)), 0.0, EPS)
        for kernel in (genfun.h, genfun.grad_h, genfun.hess_h):
            with pytest.raises(DomainError) as info:
                kernel(ctx, 0.5, math.inf)
            assert str(info.value) == "(t0, t1) = (0.5, inf) outside strip: infinite time"
            assert isinstance(info.value.__cause__, ValueError)

    def test_negative_discriminant_is_a_domain_error(self):
        # bounds claiming r_min = 1 for a profile whose minimum is 0.5 admit
        # c = 0.5 on a unit strip; the discriminant R0^2 R1^2 - c^2 tau^2 is
        # then 0.0625 - 0.25 < 0 across the whole period at the minimum
        profile = RadiusProfile(1.0, ((1, 0.5),))
        wrong = ProfileBounds(profile=profile, eps=EPS, r_min=1.0, r_max=1.5,
                              dR_norm=math.pi, ddR2_norm=20.0, sigma=1.0)
        ctx = genfun.GenFunContext(bounds=wrong, c=0.5, sigma=1.0)
        with pytest.raises(DomainError, match="discriminant"):
            genfun.grad_h(ctx, 0.75, 1.75)


class TestValue:
    def test_static(self, static_ctx):
        # constant radius M: h = 2 M^2 / tau
        assert genfun.h(static_ctx, 0.0, 1.0) == 2.0
        assert genfun.h(static_ctx, 0.0, 2.0) == 1.0

    def test_time_shift_invariance(self, small_ctx):
        for t0, t1 in strip_points(small_ctx, 1000, seed=1):
            a = genfun.h(small_ctx, t0, t1)
            b = genfun.h(small_ctx, t0 + 1.0, t1 + 1.0)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-12)

    def test_action_identity_against_quadrature(self, small_ctx):
        # h equals the reduced-Lagrangian action of the flight, up to the
        # fixed additive constant c*pi chosen in the closed form
        c = small_ctx.c
        for t0, t1 in strip_points(small_ctx, 30, seed=2):
            seg = flight.make_segment(small_ctx.profile, t0, t1, c)

            def lagrangian(t):
                r, rdot, _ = flight.flight_state(seg, t)
                return 0.5 * rdot * rdot - 0.5 * c * c / (r * r)

            oracle, err = quad(lagrangian, t0, t1, epsabs=1e-13, epsrel=1e-13)
            assert err < 1e-10
            assert genfun.h(small_ctx, t0, t1) - c * math.pi == pytest.approx(
                oracle, abs=1e-9)


class TestGradient:
    def test_static(self, static_ctx):
        assert genfun.grad_h(static_ctx, 0.0, 1.0) == (2.0, -2.0)

    def test_against_finite_differences(self, small_ctx):
        s = 1e-5
        for t0, t1 in strip_points(small_ctx, 1000, seed=3):
            d1, d2 = genfun.grad_h(small_ctx, t0, t1)
            fd1 = (genfun.h(small_ctx, t0 + s, t1) - genfun.h(small_ctx, t0 - s, t1)) / (2 * s)
            fd2 = (genfun.h(small_ctx, t0, t1 + s) - genfun.h(small_ctx, t0, t1 - s)) / (2 * s)
            assert d1 == pytest.approx(fd1, rel=1e-6)
            assert d2 == pytest.approx(fd2, rel=1e-6)

    def test_outgoing_velocity_identity(self, small_ctx):
        # d1 h = rdot(+)^2/2 + c^2/(2 R0^2) - rdot(+) Rdot(t0)
        c = small_ctx.c
        for t0, t1 in strip_points(small_ctx, 100, seed=4):
            seg = flight.make_segment(small_ctx.profile, t0, t1, c)
            _, rdot_plus, _ = flight.flight_state(seg, t0)
            r0, dr0, _ = small_ctx.profile.eval(t0)
            expected = 0.5 * rdot_plus**2 + 0.5 * c * c / r0**2 - rdot_plus * dr0
            assert genfun.grad_h(small_ctx, t0, t1)[0] == pytest.approx(expected, abs=1e-9)


class TestHessian:
    def test_static(self, static_ctx):
        d11, d12, d22 = genfun.hess_h(static_ctx, 0.0, 1.0)
        assert (d11, d12, d22) == (4.0, -4.0, 4.0)

    def test_against_fd_of_gradient(self, small_ctx):
        s = 1e-5
        for t0, t1 in strip_points(small_ctx, 1000, seed=5):
            d11, d12, d22 = genfun.hess_h(small_ctx, t0, t1)
            g = genfun.grad_h
            fd11 = (g(small_ctx, t0 + s, t1)[0] - g(small_ctx, t0 - s, t1)[0]) / (2 * s)
            fd12 = (g(small_ctx, t0, t1 + s)[0] - g(small_ctx, t0, t1 - s)[0]) / (2 * s)
            fd21 = (g(small_ctx, t0 + s, t1)[1] - g(small_ctx, t0 - s, t1)[1]) / (2 * s)
            fd22 = (g(small_ctx, t0, t1 + s)[1] - g(small_ctx, t0, t1 - s)[1]) / (2 * s)
            assert d11 == pytest.approx(fd11, rel=1e-5)
            assert d12 == pytest.approx(fd12, rel=1e-5)
            assert d12 == pytest.approx(fd21, rel=1e-5)  # symmetry of mixed partials
            assert d22 == pytest.approx(fd22, rel=1e-5)

    def test_negative_twist_on_grid(self, small_ctx):
        # d12 h < 0 across a 200 x 200 grid over the compact strip core
        beta = 0.02 * small_ctx.sigma
        for t0 in np.linspace(0, 1, 200, endpoint=False):
            for tau in np.linspace(beta, small_ctx.sigma - beta, 200):
                assert genfun.hess_h(small_ctx, float(t0), float(t0 + tau))[1] < 0

    def test_shift_invariance_of_derivatives(self, small_ctx):
        for t0, t1 in strip_points(small_ctx, 200, seed=6):
            assert genfun.grad_h(small_ctx, t0, t1) == pytest.approx(
                genfun.grad_h(small_ctx, t0 + 1, t1 + 1), rel=1e-11, abs=1e-11)
            assert genfun.hess_h(small_ctx, t0, t1) == pytest.approx(
                genfun.hess_h(small_ctx, t0 + 1, t1 + 1), rel=1e-10, abs=1e-10)

    def test_short_flight_asymptotics(self, small_ctx, reference_ctx):
        # d12 h * tau^3 -> -(R0 + R1)^2 as the gap closes
        for ctx in (small_ctx, reference_ctx):
            tau = 1e-3 * ctx.sigma
            for t0 in (0.1, 0.4, 0.8):
                d12 = genfun.hess_h(ctx, t0, t0 + tau)[1]
                r0 = ctx.profile.radius(t0)
                r1 = ctx.profile.radius(t0 + tau)
                assert d12 * tau**3 == pytest.approx(-((r0 + r1) ** 2), rel=0.05)


class TestEulerLagrange:
    def test_bounce_equivalence_along_orbit(self, small_ctx):
        # discrete EL residual vanishes along simulated elastic runs
        res = simulate.run(small_ctx, CylinderState(0.05, 40.0), 60)
        assert res.completed
        assert simulate.euler_lagrange_residual(small_ctx, res.records) < 1e-9
