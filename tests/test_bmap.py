import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from breathing_billiard import _search, bmap, chaoscert, flight, genfun, radius
from breathing_billiard.bmap import CylinderState
from breathing_billiard.errors import ConvergenceError, DomainError, PreconditionError
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
    fixed endpoint once, takes its first iterate from a fixed number of
    profile radii, and takes the image action from the converged iterate:
    no grad_h or hess_h call."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"eval": 0, "kernel": 0, "radius": 0}
        profile_eval, profile_radius = RadiusProfile.eval, RadiusProfile.radius
        kernel = genfun.grad_twist

        def counted_eval(self, t):
            counts["eval"] += 1
            return profile_eval(self, t)

        def counted_radius(self, t):
            counts["radius"] += 1
            return profile_radius(self, t)

        def counted_kernel(*args):
            counts["kernel"] += 1
            return kernel(*args)

        def refused(*args):
            raise AssertionError("a map solve called grad_h or hess_h")

        monkeypatch.setattr(RadiusProfile, "eval", counted_eval)
        monkeypatch.setattr(RadiusProfile, "radius", counted_radius)
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
            # a warm step, started a little off the root: the guess costs
            # one more radius than a cold first iterate
            counts.update(eval=0, kernel=0, radius=0)
            t1, K1 = bmap._solve_forward_time(member_ctx, s.t, s.K, t1 + 1e-3)
            assert counts["kernel"] >= 1 and counts["eval"] == counts["kernel"] + 1
            assert counts["radius"] == bmap._CHORD_STEPS + 1
            assert K1 == s.K - sum(grad_h(member_ctx, s.t, t1))
            # a backward step from the image, on the fundamental domain
            t1 -= math.floor(t1)
            counts.update(eval=0, kernel=0, radius=0)
            back = bmap.backward(member_ctx, CylinderState(t1, K1))
            assert counts["kernel"] >= 1 and counts["eval"] == counts["kernel"] + 1
            assert counts["radius"] == bmap._CHORD_STEPS
            assert back.K == K1 + sum(grad_h(member_ctx, back.t, t1))

    def test_static_solves_start_on_the_root(self, static_ctx, request):
        # R = 1, c = 0: the chord relation is the exact flight, so the first
        # iterate is the flight time 2 / sqrt(2K) up to rounding, and the
        # solve stops once Newton's next step does not improve |f| (at the
        # midpoint it took 4 to 25 kernel calls)
        counts = request.getfixturevalue("counts")
        rng = np.random.default_rng(13)
        calls = []
        for _ in range(200):
            t, K = float(rng.uniform(0.0, 1.0)), float(0.2 * 10.0 ** rng.uniform(0.0, 3.0))
            flight_time = 2.0 / math.sqrt(2.0 * K)
            e = static_ctx.profile.eval(t)
            for direction in (1, -1):
                start = bmap._chord_start(static_ctx, t, e, K, direction, None)
                assert abs(start - (t + direction * flight_time)) <= 4 * math.ulp(1.0 + t)
            counts.update(kernel=0)
            t1, _ = bmap._solve_forward_time(static_ctx, t, K)
            calls.append(counts["kernel"])
            counts.update(kernel=0)
            t0 = bmap.backward(static_ctx, CylinderState(t, K)).t
            calls.append(counts["kernel"])
            assert t1 - t == pytest.approx(flight_time) and t - t0 == pytest.approx(flight_time)
        assert max(calls) <= 4 and sum(calls) / len(calls) <= 2.0

    def test_certificate_solves_take_few_iterates(self, member, monkeypatch):
        # the member's certificate at c = 1: 646 cold solves, 8 kernel calls
        # each from the bracket midpoint
        profile, _, verdict = member
        counts = {"kernel": 0, "solves": 0}
        kernel, a_exact = genfun.grad_twist, chaoscert.a_exact

        def counted_kernel(*args):
            counts["kernel"] += 1
            return kernel(*args)

        def counted_a_exact(*args):
            counts["solves"] += 2
            return a_exact(*args)

        monkeypatch.setattr(bmap, "grad_twist", counted_kernel)
        monkeypatch.setattr(chaoscert, "a_exact", counted_a_exact)
        assert chaoscert.certify(profile, EPS, 1.0, verdict=verdict).certified
        assert counts["solves"] == 646
        assert counts["kernel"] / counts["solves"] <= 5.0


class TestChordStart:
    def test_degenerate_flight_keeps_the_guess(self, member_ctx):
        # K far below the cutoff: no real radial velocity at t = 0.25
        e = member_ctx.profile.eval(0.25)
        for direction in (1, -1):
            assert bmap._chord_start(member_ctx, 0.25, e, -1e6, direction, None) is None
            assert bmap._chord_start(member_ctx, 0.25, e, -1e6, direction, 3.0) == 3.0
        # K = 0 at c = 0 where the boundary recedes: the incoming velocity is
        # 0, so A = 0 and the chord relation has no flight time
        ctx = dataclasses.replace(member_ctx, c=0.0)
        assert bmap._chord_start(ctx, 0.5, ctx.profile.eval(0.5), 0.0, -1, None) is None
        with pytest.raises(DomainError, match="no preimage"):
            bmap.backward(ctx, CylinderState(0.5, 0.0))

    def test_lands_near_the_impact_map_time(self, member_ctx):
        # the chord relation is laederich_map's: its fixed point is the
        # impact-map bounce time
        for s in domain_states(member_ctx, 50, seed=12):
            e = member_ctx.profile.eval(s.t)
            t1 = bmap._chord_start(member_ctx, s.t, e, s.K, 1, None)
            i0 = bmap.action_to_impact(member_ctx, s.t, s.K)
            assert t1 == pytest.approx(bmap.laederich_map(member_ctx, s.t, i0)[0], abs=1e-6)


def _scalar_sigma_star(ctx):
    # the oracle: sigma_star's scan built from scalar grad_h calls
    def d1h(t):
        return genfun.grad_h(ctx, t, t + ctx.sigma)[0]

    n = radius.grid_size(ctx.profile, bmap._SIGMA_STAR_FLOOR)
    return _search.circle_sup(d1h, [d1h(i * (1.0 / n)) for i in range(n)],
                              lambda a, b: _search.golden_max(d1h, a, b)[0])[1]


def _sigma_star_cases(count, seed):
    """Contexts of seeded family members (k in {1, 2, 3, 5, 8}, amplitudes
    across delta_window, means from 1 to 1e4) at c = 0, a random share of
    c_max and c just below c_max."""
    rng = np.random.default_rng(seed)
    for j in range(count):
        k = (1, 2, 3, 5, 8)[j % 5]
        lo, hi = radius.delta_window(k)
        delta = float(lo * (hi / lo) ** rng.uniform(0.0, 1.0))
        mean = max(3.0 * delta, float(10.0 ** rng.uniform(0.0, 4.0)))
        ctx = genfun.make_context(radius.family_profile(k, delta, mean), 0.0, EPS)
        c_max = EPS * ctx.bounds.r_min ** 2 / ctx.sigma
        for c in (0.0, float(rng.uniform(0.0, c_max)), c_max * (1.0 - 1e-12)):
            yield dataclasses.replace(ctx, c=c)


class TestSigmaStar:
    def test_numpy_scan_matches_scalar_oracle(self, static_profile):
        # the numpy grid only picks the brackets: sigma_star equals the
        # value from a scalar-built grid bit for bit
        cases = list(_sigma_star_cases(70, seed=14))
        cases += [genfun.make_context(static_profile, c, EPS, sigma=sigma)
                  for sigma, c in [(10.0, 0.0), (10.0, 0.05), (4.0, 0.1), (4.0, 0.125)]]
        assert len(cases) >= 200
        numpy_run = [bmap.sigma_star.__wrapped__(ctx) for ctx in cases]
        assert [i for i, (ctx, value) in enumerate(zip(cases, numpy_run))
                if value != _scalar_sigma_star(ctx)] == []

    def test_degenerate_discriminant_raises(self, member_ctx):
        # a momentum far beyond the context bound: the discriminant of the
        # strip edge is negative on every grid point, as in the scalar kernel
        ctx = SimpleNamespace(profile=member_ctx.profile, c=1e6, sigma=member_ctx.sigma)
        with pytest.raises(DomainError, match="discriminant"):
            genfun.d1h_edge_grid(ctx, bmap._SIGMA_STAR_FLOOR)
        with pytest.raises(DomainError, match="discriminant"):
            genfun.grad_h(ctx, 0.0, ctx.sigma)

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
        band = chaoscert.k_band(verdict, 0.5 * (w_lo + w_hi))
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
        K = 0.5 * s_star
        with pytest.raises(DomainError, match=r"^no preimage bracket: -d2 h\(t1-sigma, t1\) = "
                                              rf"\S+ >= K1 = {re.escape(str(K))}$"):
            bmap.backward(member_ctx, CylinderState(0.0, K))

    def test_degree_one_lift(self, member_ctx):
        # dyadic fractions make t + n exact, so the lift commutes bitwise
        rng = np.random.default_rng(9)
        for s in domain_states(member_ctx, 20, seed=9):
            t = math.floor(s.t * 1024.0) / 1024.0
            base = bmap.backward(member_ctx, CylinderState(t, s.K))
            for n in (1, 7, -3, 1234, 100_000, int(rng.integers(1, 100_000))):
                lifted = bmap.backward(member_ctx, CylinderState(t + n, s.K))
                assert lifted.t == base.t + n
                assert lifted.K == base.K


class TestSolveTexts:
    """The DomainError texts of the one map solve and of the domain check."""

    def test_window_exhaustion(self, member_ctx):
        # forward checks the domain first, so the solve's own text is reached
        # only below sigma_star, where d1 h(t0, t0+sigma) exceeds K0
        K = 0.5 * bmap.sigma_star(member_ctx)
        with pytest.raises(DomainError, match=r"^window exhaustion: d1 h\(t0, t0\+sigma\) = "
                                              rf"\S+ >= K0 = {re.escape(str(K))}$"):
            bmap._solve_forward_time(member_ctx, 0.3, K)

    @pytest.mark.parametrize("step, text", [
        (bmap.forward, r"^no bracket for K0 = 1e\+22 in \(t0, t0\+sigma\)$"),
        (bmap.backward, r"^no bracket for K1 = 1e\+22 in \(t1-sigma, t1\)$")])
    def test_no_bracket_for_huge_action(self, member_ctx, step, text):
        # the root lies within sigma * _EDGE of the anchor
        with pytest.raises(DomainError, match=text):
            step(member_ctx, CylinderState(0.3, 1e22))

    @pytest.mark.parametrize("call, state", [
        (lambda ctx, K: bmap.forward(ctx, CylinderState(0.3, K)), "state"),
        (lambda ctx, K: bmap.Orbit(ctx, CylinderState(0.3, K), 5), "initial state"),
        (lambda ctx, K: bmap.radial_velocity(ctx, 0.3, K), "state")])
    def test_below_map_domain(self, member_ctx, call, state):
        s_star = bmap.sigma_star(member_ctx)
        K = 0.999 * s_star
        text = f"{state} below map domain: K = {K} <= sigma_star = {s_star}"
        with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
            call(member_ctx, K)


class TestRadialVelocity:
    def test_negative_radicand(self, member_ctx):
        # 2K below c^2/R^2 - Rdot^2: the action quadratic has no real root
        with pytest.raises(DomainError, match="no real radial velocity"):
            bmap.rdot_plus_from_action(member_ctx, 0.3, -1.0)

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

    def test_degree_one_lift(self, member_ctx):
        # dyadic fractions make t + n exact, so the lift commutes bitwise
        rng = np.random.default_rng(13)
        for s in domain_states(member_ctx, 20, seed=13):
            t = math.floor(s.t * 1024.0) / 1024.0
            i0 = bmap.action_to_impact(member_ctx, t, s.K)
            t1, i1 = bmap.laederich_map(member_ctx, t, i0)
            for n in (1, 7, -3, 1234, 100_000, int(rng.integers(1, 100_000))):
                assert bmap.laederich_map(member_ctx, t + n, i0) == (t1 + n, i1)

    def test_fraction_rounding_to_one_solves_from_anchor_one(self, member_ctx, monkeypatch):
        # t - floor(t) rounds to 1.0 at t = -1e-20: the step is taken from
        # the anchor 1.0, as forward and backward take it
        s = CylinderState(-1e-20, 2.0 * bmap.sigma_star(member_ctx))
        i0 = bmap.action_to_impact(member_ctx, s.t, s.K)
        image = bmap.forward(member_ctx, s)
        radii = []
        radius = RadiusProfile.radius

        def recorded(self, t):
            radii.append(t)
            return radius(self, t)

        monkeypatch.setattr(RadiusProfile, "radius", recorded)
        t1, i1 = bmap.laederich_map(member_ctx, s.t, i0)
        assert radii[0] == 1.0
        assert t1 == pytest.approx(image.t, abs=1e-9)
        assert bmap.impact_to_action(member_ctx, t1, i1) == pytest.approx(
            image.K, abs=1e-9 * image.K)

    def test_flight_beyond_the_window(self, static_ctx):
        # R = 1, c = 0: the chord of impact variable 0.25 takes tau = 8 > sigma = 4
        with pytest.raises(DomainError, match="no bounce time found inside the flight window"):
            bmap.laederich_map(static_ctx, 0.0, 0.25)

    @pytest.mark.parametrize("i0", [0.0, -1.0])
    def test_impact_variable_must_be_positive(self, static_ctx, i0):
        with pytest.raises(PreconditionError, match="impact variable must be positive"):
            bmap.laederich_map(static_ctx, 0.0, i0)

    def test_iteration_cap(self, member_ctx, monkeypatch):
        monkeypatch.setattr(bmap, "_IMPACT_MAX_ITER", 1)
        s = domain_states(member_ctx, 1, seed=14)[0]
        with pytest.raises(ConvergenceError, match="1 iterates"):
            bmap.laederich_map(member_ctx, s.t, bmap.action_to_impact(member_ctx, s.t, s.K))
