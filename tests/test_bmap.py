import math

import numpy as np
import pytest

from breathing_billiard import _search, bmap, flight, genfun
from breathing_billiard.bmap import CylinderState
from breathing_billiard.errors import DomainError
from breathing_billiard.radius import RadiusProfile

EPS = 0.5


def domain_states(ctx, count, seed, k_factor=(1.2, 4.0)):
    rng = np.random.default_rng(seed)
    s_star = bmap.sigma_star(ctx)
    return [CylinderState(float(rng.uniform(0, 1)),
                          float(rng.uniform(k_factor[0] * s_star, k_factor[1] * s_star)))
            for _ in range(count)]


class TestSolveMonotone:
    @staticmethod
    def recorded(fdf, calls):
        def g(x):
            calls.append(x)
            return fdf(x)
        return g

    def test_guess_outside_bracket_starts_at_midpoint(self):
        calls = []
        root, found, _ = _search.solve_monotone(
            self.recorded(lambda x: (x ** 3 - 2.0, 3.0 * x * x), calls), 0.0, 4.0,
            decreasing=False, noise=0.0, guess=10.0)
        assert calls[0] == 2.0
        assert found and root == pytest.approx(2.0 ** (1 / 3), rel=4e-16)

    @pytest.mark.parametrize("decreasing, end", [(False, 0.0), (True, 1.0)])
    def test_no_root_is_not_found(self, decreasing, end):
        # f > 0 on the whole bracket [0, 1]: it collapses onto the end nearest the root
        slope = -1.0 if decreasing else 1.0
        root, found, _ = _search.solve_monotone(lambda x: (1.5 + slope * (x - 0.5), slope),
                                                0.0, 1.0, decreasing=decreasing, noise=1e-15)
        assert not found and root == pytest.approx(end, abs=1e-15)

    def test_returns_at_the_floor(self):
        calls = []
        root, found, value = _search.solve_monotone(
            self.recorded(lambda x: (1.0 / x - 0.3, -1.0 / (x * x), "extra"), calls),
            0.1, 10.0, decreasing=True, noise=1e-16, guess=3.0)
        assert found and abs(root - 10.0 / 3.0) <= 2 * math.ulp(10.0 / 3.0)
        # Newton's quadratic convergence, then one evaluation that does not improve
        assert len(calls) <= 8
        # the value at the returned root is the tuple the solve already held
        assert value == (1.0 / root - 0.3, -1.0 / (root * root), "extra")


class TestFusedSolve:
    """Each map solve calls the fused kernel once per iterate, evaluates the
    fixed endpoint once, and takes the image action from the converged
    iterate: no grad_h or hess_h call."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"eval": 0, "kernel": 0}
        profile_eval, kernel = RadiusProfile.eval, genfun.grad_twist

        def counted_eval(self, t):
            counts["eval"] += 1
            return profile_eval(self, t)

        def counted_kernel(*args):
            counts["kernel"] += 1
            return kernel(*args)

        def refused(*args):
            raise AssertionError("a map solve called grad_h or hess_h")

        monkeypatch.setattr(RadiusProfile, "eval", counted_eval)
        monkeypatch.setattr(bmap, "grad_twist", counted_kernel)
        for module in (genfun, bmap):
            monkeypatch.setattr(module, "grad_h", refused)
            monkeypatch.setattr(module, "hess_h", refused)
        return counts

    def test_one_profile_eval_per_iterate(self, member_ctx, request):
        grad_h = genfun.grad_h  # the path the solves replaced: oracle of the image actions
        states = domain_states(member_ctx, 20, seed=7)
        cold = [bmap._solve_forward_time(member_ctx, s.t, s.K)[0] for s in states]
        counts = request.getfixturevalue("counts")
        for s, t1 in zip(states, cold):
            # a warm step, started a little off the root
            counts.update(eval=0, kernel=0)
            t1, K1 = bmap._solve_forward_time(member_ctx, s.t, s.K, t1 + 1e-3)
            assert counts["kernel"] >= 1 and counts["eval"] == counts["kernel"] + 1
            assert K1 == s.K - sum(grad_h(member_ctx, s.t, t1))
            # a backward step from the image, on the fundamental domain
            t1 -= math.floor(t1)
            counts.update(eval=0, kernel=0)
            back = bmap.backward(member_ctx, CylinderState(t1, K1))
            assert counts["kernel"] >= 1 and counts["eval"] == counts["kernel"] + 1
            assert back.K == K1 + sum(grad_h(member_ctx, back.t, t1))


class TestSigmaStar:
    def test_static(self, static_profile):
        # constant R = M, c = 0: d1 h(t, t+sigma) = 2 M^2 / sigma^2
        ctx = genfun.make_context(static_profile, 0.0, EPS, sigma=10.0)
        assert bmap.sigma_star(ctx) == pytest.approx(0.02, rel=1e-12)

    def test_static_with_momentum(self, static_profile):
        ctx = genfun.make_context(static_profile, 0.05, EPS, sigma=10.0)
        expected = genfun.grad_h(ctx, 0.3, 10.3)[0]  # t-independent
        assert bmap.sigma_star(ctx) == pytest.approx(expected, rel=1e-12)

    def test_below_band_of_certified_orbits(self, member_ctx, member):
        from breathing_billiard import chaoscert
        profile, _, verdict = member
        w_lo, w_hi = chaoscert.xi_interval(profile, EPS, verdict)
        band = chaoscert.k_band(profile, 0.5 * (w_lo + w_hi), EPS, verdict)
        assert bmap.sigma_star(member_ctx) < band.k_lo


class TestForward:
    def test_static_diameter_step(self, static_ctx):
        s1 = bmap.forward(static_ctx, CylinderState(0.0, 2.0))
        assert s1.t == pytest.approx(1.0, abs=1e-14)
        assert s1.K == 2.0

    def test_static_energy_conserved(self, static_ctx_c):
        s = CylinderState(0.0, 2.0)
        for _ in range(50):
            s = bmap.forward(static_ctx_c, s)
        assert s.K == pytest.approx(2.0, abs=1e-13)

    def test_domain_guard(self, static_ctx):
        s_star = bmap.sigma_star(static_ctx)
        with pytest.raises(DomainError):
            bmap.forward(static_ctx, CylinderState(0.0, 0.9 * s_star))

    def test_twist_sign_and_slope(self, member_ctx):
        # dt1/dK0 < 0 and equals 1/d12 h
        dk = 1e-6
        for s in domain_states(member_ctx, 50, seed=1):
            t1_a = bmap.forward(member_ctx, s).t
            t1_b = bmap.forward(member_ctx, CylinderState(s.t, s.K + dk)).t
            slope = (t1_b - t1_a) / dk
            assert slope < 0
            d12 = genfun.hess_h(member_ctx, s.t, t1_a)[1]
            assert slope == pytest.approx(1.0 / d12, rel=1e-5)

    def test_degree_one_lift(self, member_ctx):
        # t + 1.0 itself rounds away t's lowest bit, so the comparison is
        # tight-approximate rather than bitwise
        for s in domain_states(member_ctx, 20, seed=2):
            a = bmap.forward(member_ctx, s)
            b = bmap.forward(member_ctx, CylinderState(s.t + 1.0, s.K))
            assert b.t - a.t == pytest.approx(1.0, abs=1e-12)
            assert b.K == pytest.approx(a.K, rel=1e-12)

    def test_window_exhaustion_reported(self, member_ctx):
        s_star = bmap.sigma_star(member_ctx)
        with pytest.raises(DomainError, match="sigma_star|window"):
            bmap.forward(member_ctx, CylinderState(0.0, s_star * 0.999))


class TestBackward:
    def test_static_inverse_step(self, static_ctx):
        s0 = bmap.backward(static_ctx, CylinderState(1.0, 2.0))
        assert s0.t == pytest.approx(0.0, abs=1e-13)
        assert s0.K == pytest.approx(2.0, abs=1e-13)

    def test_round_trip(self, member_ctx):
        for s in domain_states(member_ctx, 1000, seed=3):
            image = bmap.forward(member_ctx, s)
            back = bmap.backward(member_ctx, image)
            assert back.t == pytest.approx(s.t, abs=1e-9)
            assert back.K == pytest.approx(s.K, abs=1e-9)

    def test_forward_after_backward(self, member_ctx):
        for s in domain_states(member_ctx, 1000, seed=4):
            pre = bmap.backward(member_ctx, s)
            again = bmap.forward(member_ctx, pre)
            assert again.t == pytest.approx(s.t, abs=1e-9)
            assert again.K == pytest.approx(s.K, abs=1e-9)

    def test_no_bracket_raises(self, member_ctx):
        s_star = bmap.sigma_star(member_ctx)
        with pytest.raises(DomainError):
            bmap.backward(member_ctx, CylinderState(0.0, 0.5 * s_star))


class TestRadialVelocity:
    def test_static_diameter(self, static_ctx):
        plus, minus = bmap.radial_velocity(static_ctx, 0.0, 2.0)
        assert plus == pytest.approx(-2.0, rel=1e-14)
        assert minus == pytest.approx(2.0, rel=1e-14)

    def test_quadratic_consistency(self, member_ctx):
        # both roots satisfy K = rdot^2/2 + c^2/(2R^2) - rdot * Rdot
        c = member_ctx.c
        for s in domain_states(member_ctx, 1000, seed=5):
            plus, minus = bmap.radial_velocity(member_ctx, s.t, s.K)
            r, dr, _ = member_ctx.profile.eval(s.t)
            for root in (plus, minus):
                val = 0.5 * root**2 + 0.5 * c * c / (r * r) - root * dr
                assert val == pytest.approx(s.K, abs=1e-10 * max(1.0, s.K))

    def test_leaves_inward(self, member_ctx):
        for s in domain_states(member_ctx, 1000, seed=6):
            plus, _ = bmap.radial_velocity(member_ctx, s.t, s.K)
            assert plus < min(0.0, member_ctx.profile.d_radius(s.t))

    def test_matches_flight_closed_form(self, member_ctx):
        # rdot(t+) of the step's flight segment, from the solved bounce time
        for s in domain_states(member_ctx, 100, seed=7):
            plus, _ = bmap.radial_velocity(member_ctx, s.t, s.K)
            seg = flight.make_segment(member_ctx.profile, s.t, bmap.forward(member_ctx, s).t,
                                      member_ctx.c)
            assert plus == pytest.approx(flight.flight_state(seg, s.t)[1], rel=1e-10)

    def test_below_domain_raises(self, member_ctx):
        with pytest.raises(DomainError):
            bmap.radial_velocity(member_ctx, 0.3, bmap.sigma_star(member_ctx))


class TestJacobian:
    def test_static_entries(self, static_ctx):
        j = bmap.jacobian(static_ctx, CylinderState(0.0, 2.0))
        assert j.dt1_dK0 == pytest.approx(-0.25, rel=1e-12)
        assert j.det == pytest.approx(1.0, abs=1e-12)

    def test_unit_determinant(self, member_ctx):
        for s in domain_states(member_ctx, 10_000, seed=8):
            assert abs(bmap.jacobian(member_ctx, s).det - 1.0) < 1e-8

    def test_against_finite_differences(self, member_ctx):
        # central differences, absolute step 1e-6; entries are compared at
        # the matrix scale since cancellation can leave tiny exact values
        d = 1e-6
        for s in domain_states(member_ctx, 50, seed=9):
            j = bmap.jacobian(member_ctx, s)
            f_tp = bmap.forward(member_ctx, CylinderState(s.t + d, s.K))
            f_tm = bmap.forward(member_ctx, CylinderState(s.t - d, s.K))
            f_kp = bmap.forward(member_ctx, CylinderState(s.t, s.K + d))
            f_km = bmap.forward(member_ctx, CylinderState(s.t, s.K - d))
            fd = {
                "dt1_dt0": (f_tp.t - f_tm.t) / (2 * d),
                "dK1_dt0": (f_tp.K - f_tm.K) / (2 * d),
                "dt1_dK0": (f_kp.t - f_km.t) / (2 * d),
                "dK1_dK0": (f_kp.K - f_km.K) / (2 * d),
            }
            scale = max(abs(v) for v in fd.values())
            for name, fd_val in fd.items():
                assert getattr(j, name) == pytest.approx(
                    fd_val, rel=1e-4, abs=1e-4 * scale), name


class TestImpactMap:
    def test_static_identity(self, static_ctx):
        # R = 1, diameter: I = -R rdot(+) = 2 maps to itself one period later
        t1, i1 = bmap.laederich_map(static_ctx, 0.0, 2.0)
        assert t1 == pytest.approx(1.0, abs=1e-12)
        assert i1 == pytest.approx(2.0, abs=1e-12)

    def test_sum_rule(self, member_ctx):
        # I1 + I0 = -2 R1 Rdot(t1) + tau * A(t0, t1)
        from breathing_billiard import flight
        for s in domain_states(member_ctx, 100, seed=10):
            i0 = bmap.action_to_impact(member_ctx, s.t, s.K)
            t1, i1 = bmap.laederich_map(member_ctx, s.t, i0)
            seg = flight.make_segment(member_ctx.profile, s.t, t1, member_ctx.c)
            r1, dr1, _ = member_ctx.profile.eval(t1)
            rhs = -2.0 * r1 * dr1 + seg.duration * seg.A
            assert i1 + i0 == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))

    def test_agrees_with_action_map(self, member_ctx):
        # the two formulations give the same (t1, rdot+) through conversion
        for s in domain_states(member_ctx, 200, seed=11):
            i0 = bmap.action_to_impact(member_ctx, s.t, s.K)
            assert bmap.impact_to_action(member_ctx, s.t, i0) == pytest.approx(
                s.K, rel=1e-12)
            t1_impact, i1 = bmap.laederich_map(member_ctx, s.t, i0)
            image = bmap.forward(member_ctx, s)
            assert t1_impact == pytest.approx(image.t, abs=1e-9)
            k1_from_impact = bmap.impact_to_action(member_ctx, t1_impact, i1)
            assert k1_from_impact == pytest.approx(image.K, abs=1e-9 * max(1.0, image.K))
