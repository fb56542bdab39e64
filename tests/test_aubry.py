import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from breathing_billiard import aubry, bmap, genfun, simulate
from breathing_billiard.bmap import CylinderState
from breathing_billiard.errors import ConvergenceError, DomainError, PreconditionError
from breathing_billiard.radius import RadiusProfile


class TestAction:
    def test_static_two_gaps(self, static_ctx):
        assert aubry.action(static_ctx, (0.0, 1.0, 2.0)) == pytest.approx(4.0, rel=1e-14)

    def test_translation_invariance(self, static_ctx):
        base = aubry.action(static_ctx, (0.0, 0.9, 2.1))
        assert aubry.action(static_ctx, (0.3, 1.2, 2.4)) == pytest.approx(base, rel=1e-12)

    def test_additivity(self, small_ctx):
        ts = (0.1, 0.6, 1.3, 1.9)
        whole = aubry.action(small_ctx, ts)
        assert whole == pytest.approx(
            aubry.action(small_ctx, ts[:2]) + aubry.action(small_ctx, ts[1:]),
            rel=1e-13)

    def test_domain_error_outside_strip(self, static_ctx):
        with pytest.raises(DomainError):
            aubry.action(static_ctx, (0.0, 5.0))


    @pytest.mark.parametrize("times", [[], [0.5]])
    def test_needs_two_times(self, static_ctx, times):
        with pytest.raises(PreconditionError, match="need at least two times"):
            aubry.action(static_ctx, times)


class TestElResidual:
    def test_static_equispaced_periodic(self, static_ctx):
        # (p, q) = (3, 2): spacing 1.5, a critical point by symmetry
        assert aubry.el_residual(static_ctx, (0.0, 1.5), p=3) < 1e-12

    def test_simulated_orbit(self, small_ctx):
        res = simulate.run(small_ctx, CylinderState(0.0, 30.0), 40)
        assert res.completed
        ts = [r.t for r in res.records]
        assert simulate.el_defect(small_ctx, zip(ts, ts[1:])) < 1e-9

    def test_perturbation_breaks_criticality(self, static_ctx):
        assert aubry.el_residual(static_ctx, (0.0, 1.6), p=3) > 1e-3

    def test_empty_times_rejected(self, static_ctx):
        with pytest.raises(PreconditionError, match="at least one time"):
            aubry.el_residual(static_ctx, (), p=3)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_time_not_finite_is_a_domain_error(self, static_ctx, t):
        with pytest.raises(DomainError):
            aubry.el_residual(static_ctx, (0.0, t), p=3)

    @staticmethod
    def configs(ctx, p, q):
        """A member orbit's times and two configurations 1e-4 off it."""
        ts = list(aubry.periodic_orbit(ctx, p, q, starts=8, seed=0).times)
        return [ts, [t + 1e-4 * math.sin(3 * j) for j, t in enumerate(ts)],
                [t + 1e-4 * math.cos(5 * j + 2) for j, t in enumerate(ts)]]

    @pytest.mark.parametrize("p, q", [(32, 1), (63, 2), (95, 3),
                                      (69, 8), (349, 21), (664, 21)])
    def test_equals_el_defect_on_the_same_closing_pair(self, member_ctx, p, q):
        # the open chain of the pairs (t_0, t_1), ..., (t_{q-1}, t_0 + p)
        # closed by (t_0, t_1) again: row 0 is the same d1 h + d2 h sum
        for config in self.configs(member_ctx, p, q):
            pairs = aubry._pairs(config, p)
            assert aubry.el_residual(member_ctx, config, p) == simulate.el_defect(
                member_ctx, [*pairs, pairs[0]])

    @pytest.mark.parametrize("p, q", [(69, 8), (349, 21), (664, 21)])
    def test_matches_el_defect_on_the_wrapped_pairs(self, member_ctx, p, q):
        # the flights (t_{q-1} - p, t_0), (t_0, t_1), ..., (t_{q-1}, t_0 + p):
        # row 0 reads h one period back, so the two differ by the rounding
        # of t_0 + p and t_{q-1} - p, half an ulp(p) each, times a
        # second derivative of h.  The cos offset reads 0.08 of the bound
        # at (69, 8)
        for config in self.configs(member_ctx, p, q):
            wrapped = [(config[-1] - p, config[0]), *aubry._pairs(config, p)]
            diag, off = aubry._hessian(member_ctx, config, p)
            bound = math.ulp(p) * max(map(abs, diag + off))
            assert abs(aubry.el_residual(member_ctx, config, p)
                       - simulate.el_defect(member_ctx, wrapped)) <= bound

    def test_aubry_imports_only_the_generating_function(self):
        # aubry stands on genfun and _search: no map step, flight or simulate
        tree = ast.parse(Path(aubry.__file__).read_text())
        imported = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1}
        assert imported == {"_search", "errors", "genfun"}


class TestPeriodicOrbit:
    def test_q_past_the_hessian_cap_is_refused_before_any_sweep(self, static_ctx,
                                                                 monkeypatch):
        # a cap on run time, up to 400 sweeps of q golden-section searches a
        # start: q = 1024 passes on to the first sweep, q = 1025 is refused
        # before it
        def no_sweep(*args):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(aubry, "h_ends", no_sweep)
        with pytest.raises(AssertionError, match="a sweep ran"):
            aubry.periodic_orbit(static_ctx, 2047, 1024, starts=1)
        for p, q in [(2049, 1025), (3, 10 ** 6 + 1)]:
            with pytest.raises(PreconditionError, match="entries, more than 1048576$"):
                aubry.periodic_orbit(static_ctx, p, q, starts=1)

    def test_static_equal_spacing(self, static_ctx):
        orbit = aubry.periodic_orbit(static_ctx, 3, 2, starts=4, seed=0)
        gaps = orbit.gaps()
        assert gaps == pytest.approx([1.5, 1.5], abs=1e-9)
        # K = 2 M^2 / tau^2 at M = 1, tau = 3/2
        assert list(orbit.Ks) == pytest.approx([8 / 9, 8 / 9], rel=1e-9)
        assert 0.0 <= orbit.times[0] < 1.0

    @pytest.mark.parametrize("p, q", [(133, 8), (349, 21), (664, 21)])
    def test_residual_is_that_of_the_returned_times(self, member_ctx, p, q):
        orbit = aubry.periodic_orbit(member_ctx, p, q, starts=8, seed=0)
        assert orbit.residual == aubry.el_residual(member_ctx, orbit.times, orbit.p)

    def test_kernels_receive_plain_floats(self, member_ctx, monkeypatch):
        # np.float64 subclasses float, so isinstance would let it through
        seen = []
        for name in ("grad_twist", "hess_h", "h_ends"):
            kernel = getattr(aubry, name)

            def recorded(ctx, *args, kernel=kernel):
                # (t0, t1) or (t0, e0, t1, e1)
                seen.extend(args[::2] if len(args) == 4 else args)
                return kernel(ctx, *args)

            monkeypatch.setattr(aubry, name, recorded)
        aubry.periodic_orbit(member_ctx, 349, 21, starts=8, seed=0)
        assert seen and {type(t) for t in seen} == {float}

    def test_reference_profile_two_bounce(self, reference_ctx):
        # rotation number 109.5 inside the (105.1, 113.5) window
        orbit = aubry.periodic_orbit(reference_ctx, 219, 2, starts=8, seed=1)
        assert orbit.residual < 1e-8
        for g in orbit.gaps():
            assert 108.5 <= g <= 110.5

    def test_member_orbit_closure_under_map(self, member_ctx):
        orbit = aubry.periodic_orbit(member_ctx, 158, 5, starts=16, seed=2)
        assert orbit.residual < 1e-8
        s = CylinderState(orbit.times[0], orbit.Ks[0])
        for _ in range(orbit.q):
            s = bmap.forward(member_ctx, s)
        assert s.t == pytest.approx(orbit.times[0] + orbit.p, abs=1e-8)
        assert s.K == pytest.approx(orbit.Ks[0], abs=1e-8 * max(1.0, orbit.Ks[0]))

    def test_spacing_estimate(self, member_ctx):
        orbit = aubry.periodic_orbit(member_ctx, 158, 5, starts=8, seed=3)
        omega = orbit.p / orbit.q
        full = list(orbit.times) + [t + orbit.p for t in orbit.times]
        for i in range(len(full)):
            for j in range(i + 1, len(full)):
                assert abs(full[j] - full[i] - (j - i) * omega) <= 1.0 + 1e-9

    def test_local_minimality_spot_check(self, member_ctx):
        orbit = aubry.periodic_orbit(member_ctx, 158, 5, starts=8, seed=4)
        base = orbit.action
        rng = np.random.default_rng(5)
        omega = orbit.p / orbit.q
        for _ in range(50):
            jitter = rng.uniform(-0.2, 0.2, size=orbit.q)
            ts = [t + float(d) for t, d in zip(orbit.times, jitter)]
            gaps = np.diff(ts + [ts[0] + orbit.p])
            if not all(omega - 1 < g < omega + 1 for g in gaps):
                continue
            assert aubry.action(member_ctx, ts + [ts[0] + orbit.p]) >= base - 1e-10

    def test_determinism(self, member_ctx):
        a = aubry.periodic_orbit(member_ctx, 158, 5, starts=6, seed=9)
        b = aubry.periodic_orbit(member_ctx, 158, 5, starts=6, seed=9)
        assert a == b

    def test_canonical_labelling_is_seed_independent(self, member_ctx):
        # the starts differ by seed, the reported orbit and its labelling not
        orbits = [aubry.periodic_orbit(member_ctx, 286, 9, starts=8, seed=s)
                  for s in range(3)]
        for orbit in orbits:
            assert orbit.times[0] == min(t % 1.0 for t in orbit.times)
            assert orbit.times == pytest.approx(orbits[0].times, abs=1e-12)

    def test_orbit_family_pins_the_action_not_the_phase(self, static_profile):
        # on a constant profile every translate of a minimal orbit is one, so
        # each seed reports its own phase; only the action is pinned
        ctx = genfun.make_context(static_profile, 0.0, 0.5, sigma=8.0)
        orbits = [aubry.periodic_orbit(ctx, 5, 2, starts=4, seed=s) for s in range(4)]
        actions = [orbit.action for orbit in orbits]
        assert max(actions) - min(actions) <= aubry._TIE_RTOL * abs(min(actions))
        for orbit in orbits:
            assert orbit.gaps() == pytest.approx([2.5, 2.5], abs=1e-12)

    @pytest.mark.parametrize("p, q", [(445, 14), (571, 18), (664, 21), (667, 21)])
    def test_seeds_agree_on_the_minimum(self, member_ctx, p, q):
        # ordered starts reach the minimal orbit whatever the seed's phase;
        # jittered starts missed it by 0.016-0.4 at these (p, q)
        actions = [aubry.periodic_orbit(member_ctx, p, q, starts=8, seed=s).action
                   for s in range(3)]
        assert max(actions) - min(actions) <= aubry._TIE_RTOL * abs(min(actions))

    @pytest.mark.parametrize("p, q", [(69, 8), (349, 21)])
    def test_converges_near_invariant_circles(self, member_ctx, p, q):
        # the polish's step halving is what converges these: with full
        # steps only, no start got below residuals 1.3e-5 and 2.2e-4
        orbit = aubry.periodic_orbit(member_ctx, p, q, starts=8, seed=0)
        assert orbit.residual <= 1e-8

    def test_starts_run_serially(self, static_ctx):
        serial = aubry.periodic_orbit(static_ctx, 3, 2, starts=4, seed=0)
        assert aubry.periodic_orbit(static_ctx, 3, 2, starts=4, seed=0, workers=1) == serial
        for workers in (0, 2):
            with pytest.raises(PreconditionError):
                aubry.periodic_orbit(static_ctx, 3, 2, starts=4, seed=0, workers=workers)
            with pytest.raises(PreconditionError):
                aubry.hull_samples(static_ctx, 2.5, starts=4, seed=0, workers=workers)

    def test_rotation_window_precondition(self, static_ctx):
        with pytest.raises(PreconditionError):
            aubry.periodic_orbit(static_ctx, 1, 2, starts=2, seed=0)  # omega < 1
        with pytest.raises(PreconditionError):
            aubry.periodic_orbit(static_ctx, 9, 1, starts=2, seed=0)  # omega > sigma-1

    def test_coprimality_required(self, static_ctx):
        with pytest.raises(PreconditionError):
            aubry.periodic_orbit(static_ctx, 4, 2, starts=2, seed=0)

    def test_single_bounce_orbit(self, static_ctx):
        orbit = aubry.periodic_orbit(static_ctx, 2, 1, starts=4, seed=0)
        assert orbit.residual < 1e-10
        assert orbit.gaps() == pytest.approx([2.0], abs=1e-12)

    def test_positive_q_required(self, static_ctx):
        with pytest.raises(PreconditionError):
            aubry.periodic_orbit(static_ctx, 3, 0)

    def test_no_start_converged(self, static_ctx, monkeypatch):
        # no residual is below a negative tolerance: every start is counted
        # and the smallest polished residual is reported
        monkeypatch.setattr(aubry, "_RESIDUAL_TOL", -1.0)
        with pytest.raises(ConvergenceError) as info:
            aubry.periodic_orbit(static_ctx, 3, 2, starts=4)
        assert info.value.diagnostics["starts"] == 4
        assert 0.0 <= info.value.diagnostics["best_residual"] < 1e-8

    def test_sigma_two_has_an_empty_window(self, static_profile):
        # sigma = 2 leaves no rotation number in (1, sigma - 1)
        ctx = genfun.make_context(static_profile, 0.0, 0.5, sigma=2.0)
        with pytest.raises(PreconditionError):
            aubry.periodic_orbit(ctx, 3, 2)
        with pytest.raises(PreconditionError):
            aubry.hull_samples(ctx, 1.5)


class TestGapBox:
    """Sweeps and polish keep every gap inside the box [g_lo, g_hi]."""

    def test_polish_halves_a_step_that_leaves_the_box(self, member_ctx, monkeypatch):
        # the full Newton step from gaps (32, 31, 32) takes a gap past the box
        # (omega - 1, omega + 1): that trial costs no residual, and the halved
        # steps still polish the configuration to the residual tolerance
        p, omega = 95, 95 / 3
        pairs, residual = aubry._pairs, aubry._residual
        outside, evaluated = [], []

        def inside(ts):
            return all(omega - 1 < b - a < omega + 1 for a, b in pairs(ts, p))

        def recorded_pairs(ts, p):
            if not inside(ts):
                outside.append(list(ts))
            return pairs(ts, p)

        def recorded_residual(ctx, ts, p):
            evaluated.append(inside(ts))
            return residual(ctx, ts, p)

        monkeypatch.setattr(aubry, "_pairs", recorded_pairs)
        monkeypatch.setattr(aubry, "_residual", recorded_residual)
        ts = aubry._newton_polish(member_ctx, [0.0, 32.0, 63.0], p,
                                  omega - 1.0, omega + 1.0)
        assert outside and all(evaluated) and inside(ts)
        assert aubry.el_residual(member_ctx, ts, p) < aubry._RESIDUAL_TOL

    def test_sweep_skips_a_time_with_no_room(self, static_ctx, monkeypatch):
        # t_0's neighbours t_2 - p = -2 and t_1 = 0.5 are closer than 2 g_lo,
        # so no t_0 keeps both of its gaps in the box: it is not searched
        searched, golden_max = [], aubry.golden_max
        monkeypatch.setattr(aubry, "golden_max", lambda f, a, b, xtol: searched.append(
            (a, b)) or golden_max(f, a, b, xtol=xtol))
        ts = [0.0, 0.5, 4.0]
        moved = aubry._sweep(static_ctx, ts, 6, 1.5, 2.5)
        assert ts[0] == 0.0 and len(searched) == 2
        # the other two times move into the box, and with them every gap
        assert moved >= 1.0 and all(1.5 < b - a < 2.5 for a, b in aubry._pairs(ts, 6))


class TestFusedSweep:
    """The sweeps and the polish evaluate each endpoint once and reuse it."""

    @pytest.mark.parametrize("p, q", [(69, 8), (349, 21), (664, 21)])
    def test_matches_the_unfused_oracle(self, member_ctx, p, q, monkeypatch):
        # the oracle: kernels that ignore the evaluated endpoints handed to
        # them and evaluate the profile at their own times, as h does
        fused = aubry.periodic_orbit(member_ctx, p, q, starts=8, seed=0)
        grad_twist = genfun.grad_twist
        monkeypatch.setattr(aubry, "h_ends", lambda ctx, t0, e0, t1, e1: genfun.h(ctx, t0, t1))
        monkeypatch.setattr(aubry, "grad_twist", lambda ctx, t0, e0, t1, e1: grad_twist(
            ctx, t0, ctx.profile.eval(t0), t1, ctx.profile.eval(t1)))
        assert aubry.periodic_orbit(member_ctx, p, q, starts=8, seed=0) == fused

    def test_one_profile_eval_per_golden_step(self, member_ctx, monkeypatch):
        counts = {"eval": 0, "x": 0, "coordinates": 0}
        profile_eval, golden_max = RadiusProfile.eval, aubry.golden_max

        def counted_eval(self, t):
            counts["eval"] += 1
            return profile_eval(self, t)

        def counted_golden_max(f, a, b, xtol):
            def counted_f(x):
                counts["x"] += 1
                return f(x)

            counts["coordinates"] += 1
            return golden_max(counted_f, a, b, xtol=xtol)

        monkeypatch.setattr(RadiusProfile, "eval", counted_eval)
        monkeypatch.setattr(aubry, "golden_max", counted_golden_max)
        p, q = 349, 21
        ts = [0.3 + p / q * j for j in range(q)]
        for _ in range(5):
            aubry._sweep(member_ctx, ts, p, p / q - 1.0, p / q + 1.0)
        assert counts["coordinates"] == 5 * q
        assert counts["eval"] == counts["x"] + 2 * counts["coordinates"]

    def test_one_hessian_per_newton_step(self, member_ctx, monkeypatch):
        # residual norms of each polish in call order; a trial is a step
        # taken exactly when its norm is below the polish's best so far.
        # The el_residual of each polished start is not one of them
        hess_calls, polishes, polishing = [], [], [False]
        hess_h, residual, polish = aubry.hess_h, aubry._residual, aubry._newton_polish

        def counted_hess_h(*args):
            hess_calls.append(args)
            return hess_h(*args)

        def recorded_residual(*args):
            f = residual(*args)
            if polishing[0]:
                polishes[-1].append(max(map(abs, f)))
            return f

        def recorded_polish(*args):
            polishes.append([])
            polishing[0] = True
            try:
                return polish(*args)
            finally:
                polishing[0] = False

        monkeypatch.setattr(aubry, "hess_h", counted_hess_h)
        monkeypatch.setattr(aubry, "_residual", recorded_residual)
        monkeypatch.setattr(aubry, "_newton_polish", recorded_polish)
        q = 21
        aubry.periodic_orbit(member_ctx, 349, q, starts=8, seed=0)
        steps = 0
        for norms in polishes:
            best = norms[0]
            for r in norms[1:]:
                if r < best:
                    steps, best = steps + 1, r
        assert len(polishes) == 8 and steps > 0
        assert len(hess_calls) == q * (steps + len(polishes))


def dense_hessian(diag, off):
    """The q x q matrix of the lists (diag, off) of aubry._hessian."""
    q = len(diag)
    hess = np.diag(np.array(diag, dtype=float))
    for j, d12 in enumerate(off):
        hess[j, (j + 1) % q] += d12
        hess[(j + 1) % q, j] += d12
    return hess


class TestNewtonStep:
    """The polish's O(q) Newton step against a dense solve of the same H."""

    # member configurations 1e-4 off a (p, q) orbit, q = 1 and 2 the corner
    # cases: at q = 1 H_00 gains 2 d12, at q = 2 the two couplings add.  H has
    # condition number below 5 there; next to the circles at (69, 8) and
    # (349, 21) it reads 5e5 and 2e5
    PQ = [(32, 1), (63, 2), (95, 3), (253, 8), (664, 21)]
    SOFT = [(69, 8), (349, 21)]

    @pytest.fixture(scope="class")
    def configs(self, member_ctx):
        out = {}
        for p, q in self.PQ + self.SOFT:
            ts = aubry.periodic_orbit(member_ctx, p, q, starts=8, seed=0).times
            out[p, q] = [t + 1e-4 * math.sin(3 * j + 1) for j, t in enumerate(ts)]
        return out

    def solved(self, ctx, configs, p, q):
        diag, off = aubry._hessian(ctx, configs[p, q], p)
        f = aubry._residual(ctx, configs[p, q], p)
        return dense_hessian(diag, off), np.array(aubry._newton_step(diag, off, f)), f

    @pytest.mark.parametrize("p, q", PQ)
    def test_matches_the_dense_solve(self, member_ctx, configs, p, q):
        hess, x, f = self.solved(member_ctx, configs, p, q)
        exact = np.linalg.solve(hess, f)
        assert np.max(np.abs(x - exact)) <= 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("p, q", SOFT)
    def test_solves_next_to_circles(self, member_ctx, configs, p, q):
        # the forward error there is the condition number times the rounding
        # (4e-12 against the dense solve); the step's residual stays at it
        hess, x, f = self.solved(member_ctx, configs, p, q)
        assert np.max(np.abs(hess @ x - f)) <= 1e-14 * np.max(np.abs(f))

    @pytest.mark.parametrize("p, q", PQ[:3])
    def test_lists_are_the_hessian_of_the_residual(self, member_ctx, configs, p, q):
        # central differences of the residual, step 1e-6, at the matrix scale
        ts = configs[p, q]
        hess = dense_hessian(*aubry._hessian(member_ctx, ts, p))
        for k in range(q):
            up = [t + 1e-6 * (j == k) for j, t in enumerate(ts)]
            down = [t - 1e-6 * (j == k) for j, t in enumerate(ts)]
            column = (np.array(aubry._residual(member_ctx, up, p))
                      - np.array(aubry._residual(member_ctx, down, p))) / 2e-6
            assert np.max(np.abs(column - hess[:, k])) <= 1e-5 * np.max(np.abs(hess))

    def test_an_orbit_family_keeps_t0_fixed(self, static_ctx):
        # on a constant profile every translate of a configuration has its
        # action, so H is singular: t_0 stays and rows 1..q-1 are solved
        p, q = 17, 8
        ts = [0.3 + p / q * j + 0.05 * math.sin(2 * j) for j in range(q)]
        diag, off = aubry._hessian(static_ctx, ts, p)
        f = aubry._residual(static_ctx, ts, p)
        x = aubry._newton_step(diag, off, f)
        assert x[0] == 0.0
        rows = (dense_hessian(diag, off) @ np.array(x))[1:]
        assert np.max(np.abs(rows - f[1:])) <= 1e-12 * np.max(np.abs(f))

    def test_q_1024_on_a_constant_profile(self, static_ctx):
        # the largest q the count cap lets through: q flights of p/q, each
        # with action 2 / (p/q) at R = 1
        p, q = 2047, 1024
        orbit = aubry.periodic_orbit(static_ctx, p, q, starts=1)
        assert orbit.residual <= aubry._RESIDUAL_TOL
        assert orbit.action == pytest.approx(2 * q * q / p, rel=1e-13)


class TestConvergents:
    def test_golden_ratio(self):
        phi = (1 + math.sqrt(5)) / 2
        convs = aubry.convergents(phi, denom_cap=13)
        assert convs == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5), (13, 8), (21, 13)]

    def test_rational_terminates(self):
        convs = aubry.convergents(3.5, denom_cap=10)
        assert convs[-1] == (7, 2)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, omega):
        with pytest.raises(PreconditionError, match="finite"):
            aubry.convergents(omega, 5)


class TestHullSamples:
    def test_rational_reproduces_periodic_orbit(self, member_ctx):
        hull = aubry.hull_samples(member_ctx, 158 / 5, denom_cap=16, starts=8, seed=2)
        orbit = aubry.periodic_orbit(member_ctx, 158, 5, starts=8, seed=2)
        assert (hull.p, hull.q) == (158, 5)
        assert sorted(hull.eta) == pytest.approx(sorted(orbit.Ks), rel=1e-9)

    def test_golden_based_monotone(self, member_ctx):
        w_lo, w_hi = 31.15, 32.14
        phi = (1 + math.sqrt(5)) / 2
        omega = w_lo + (w_hi - w_lo) * (phi - 1)
        hull = aubry.hull_samples(member_ctx, omega, denom_cap=12, starts=8, seed=6)
        assert hull.q > 1
        assert all(hull.phi[i] <= hull.phi[i + 1] + 1e-8
                   for i in range(len(hull.phi) - 1))
        assert all(0.0 <= x < 1.0 for x in hull.xs)

    def test_shift_by_one(self, member_ctx):
        # phi(xi + 1) = phi(xi) + 1 on the sampled grid: the lifted samples
        # of indices n and n + q coincide after the shift
        hull = aubry.hull_samples(member_ctx, 158 / 5, denom_cap=8, starts=8, seed=2)
        orbit = aubry.periodic_orbit(member_ctx, 158, 5, starts=8, seed=2)
        rot = orbit.p / orbit.q
        for n in range(orbit.q):
            lift = n * rot
            xi = lift - math.floor(lift)
            phi_n = orbit.times[n] - math.floor(lift)
            lift2 = (n + orbit.q) * rot
            xi2 = lift2 - math.floor(lift2)
            phi_n2 = (orbit.times[n] + orbit.p) - math.floor(lift2)
            assert xi2 == pytest.approx(xi, abs=1e-9)
            assert phi_n2 == pytest.approx(phi_n, abs=1e-8)

    def test_window_precondition(self, member_ctx):
        with pytest.raises(PreconditionError):
            aubry.hull_samples(member_ctx, 0.5, denom_cap=8, starts=2, seed=0)

    def test_no_convergent_in_window(self, static_ctx):
        # with denominators <= 1 the only convergent of 1.001 is 1/1, on the
        # window's edge
        with pytest.raises(PreconditionError, match="no convergent"):
            aubry.hull_samples(static_ctx, 1.001, denom_cap=1)


class TestChoiceOfPQ:
    """hull_samples orbits the last in-window convergent p/q of omega.  For
    omega within 1e-12 of a fraction with denominator <= denom_cap that is the
    fraction itself, which Fraction.limit_denominator finds independently."""

    @pytest.fixture
    def chosen(self, static_ctx, monkeypatch):
        # static_ctx has sigma = 4: the rotation window is (1, 3)
        def stand_in(ctx, p, q, **kwargs):
            return aubry.MinimalOrbit(p=p, q=q, times=tuple(n * p / q for n in range(q)),
                                      Ks=(1.0,) * q, action=0.0, residual=0.0)

        monkeypatch.setattr(aubry, "periodic_orbit", stand_in)

        def choose(omega, cap):
            hull = aubry.hull_samples(static_ctx, omega, denom_cap=cap)
            return hull.p, hull.q
        return choose

    @staticmethod
    def oracle(omega, cap):
        frac = Fraction(omega).limit_denominator(cap)
        assert abs(float(frac) - omega) < 1e-12
        return frac.numerator, frac.denominator

    FRACTIONS = [(p, q) for q in range(1, 65) for p in range(q + 1, 3 * q)
                 if math.gcd(p, q) == 1]

    def test_rational_omega(self, chosen):
        for p, q in self.FRACTIONS:
            for cap in {q, 64, 1000}:
                assert chosen(p / q, cap) == self.oracle(p / q, cap) == (p, q)

    def test_near_rational_omega(self, chosen):
        rng = np.random.default_rng(9)
        for i in rng.integers(0, len(self.FRACTIONS), 2000):
            p, q = self.FRACTIONS[i]
            omega = p / q + float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-15, -12.5))
            cap = int(rng.integers(q, 200))
            assert chosen(omega, cap) == self.oracle(omega, cap) == (p, q)
