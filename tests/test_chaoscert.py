import dataclasses
import io
import math
import sys
from contextlib import redirect_stdout
from types import SimpleNamespace

import numpy as np
import pytest

from breathing_billiard import bmap, chaoscert, cli, errors, genfun, radius
from breathing_billiard.bmap import CylinderState
from breathing_billiard.errors import DomainError, PreconditionError
from breathing_billiard.radius import RadiusProfile

EPS = 0.5


@pytest.fixture
def bounds_calls(monkeypatch):
    """Arguments of every radius.bounds call, through every library module
    that holds a reference to it."""
    calls = []
    original = radius.bounds

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and name.startswith("breathing_billiard"):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


class TestXiInterval:
    def test_constant_profile_rejected(self, static_profile):
        with pytest.raises(PreconditionError):
            chaoscert.xi_interval(static_profile, EPS)

    def test_reference_window(self, reference_profile):
        # frozen from independent evaluation of the closed forms with
        # densely sampled norms (matches the coarse targets 105.1 / 113.5)
        w_lo, w_hi = chaoscert.xi_interval(reference_profile, EPS)
        assert w_lo == pytest.approx(105.1400, abs=0.5)
        assert w_hi == pytest.approx(113.5394, abs=0.5)
        assert w_lo == pytest.approx(105.13998, abs=1e-3)
        assert w_hi == pytest.approx(113.53942, abs=1e-3)

    def test_refuses_a_window_outside_the_limits(self, member):
        # the verdict keeps its window inside (3, sigma - 1), so a forged
        # wider one is refused where it is made instead of clipped here
        profile, _, verdict = member
        sigma = verdict.bounds.sigma
        assert chaoscert.xi_interval(profile, EPS, verdict) == verdict.window
        with pytest.raises(PreconditionError, match="window inside"):
            dataclasses.replace(verdict, window=(2.0, sigma + 5.0))

    def test_window_inside_limits(self, reference_profile, member):
        profile, _, verdict = member
        for prof, ver in ((reference_profile, None), (profile, verdict)):
            v = ver or radius.classify(prof, EPS)
            w_lo, w_hi = chaoscert.xi_interval(prof, EPS, v)
            assert 3.0 < w_lo < w_hi < v.bounds.sigma - 1.0


class TestKBand:
    def test_reference_values(self, reference_profile):
        v = radius.classify(reference_profile, EPS)
        band = chaoscert.k_band(v, 109.0)
        b = v.bounds
        k_lo_ref = 2 * b.r_min**2 / 110**2 - 2 * b.dR_norm * b.r_max / 110
        k_hi_ref = 2 * b.r_max**2 / 108**2 + 2 * b.dR_norm * b.r_max / 108
        assert band.k_lo == pytest.approx(k_lo_ref, rel=1e-12)
        assert band.k_hi == pytest.approx(k_hi_ref, rel=1e-12)
        assert band.k_lo == pytest.approx(13336.9, abs=1.0)
        assert band.k_hi == pytest.approx(13941.4, abs=1.0)

    def test_static_limit_of_formulas(self):
        # amplitude -> 0: at mid-window the band tends to the norm-free
        # forms 2M^2/(w+1)^2 and 2M^2/(w-1)^2
        m = 9000.0
        for delta, tol in ((1e-3, 2e-3), (1e-5, 2e-4)):
            prof = RadiusProfile(m, ((1, delta),))
            v = radius.classify(prof, EPS)
            w_lo, w_hi = chaoscert.xi_interval(prof, EPS, v)
            w = 0.5 * (w_lo + w_hi)
            band = chaoscert.k_band(v, w)
            assert band.k_lo == pytest.approx(2 * m * m / (w + 1) ** 2, rel=tol)
            assert band.k_hi == pytest.approx(2 * m * m / (w - 1) ** 2, rel=tol)

    def test_band_chain(self, member):
        profile, _, verdict = member
        w_lo, w_hi = chaoscert.xi_interval(profile, EPS, verdict)
        b = verdict.bounds
        t_bar, ddr = verdict.witnesses[0]
        for w in np.linspace(w_lo, w_hi, 12)[1:-1]:
            band = chaoscert.k_band(verdict, float(w))
            assert 2 * b.r_max**2 / b.sigma**2 < band.k_lo <= band.k_hi < -ddr * b.r_min

    def test_omega_outside_window(self, member):
        profile, _, verdict = member
        with pytest.raises(DomainError):
            chaoscert.k_band(verdict, 2.0)


class TestAExact:
    def test_static_positive(self, static_profile):
        # integrable circle: on the 'curve' K = 2, tau = 1, the diagnostic is
        # d11 + d22 = 4 + 4 = 8 > 0, as curves demand
        ctx = genfun.make_context(static_profile, 1e-8, EPS, sigma=4.0)
        assert chaoscert.a_exact(ctx, 0.0, 2.0) == pytest.approx(8.0, rel=1e-6)

    def test_static_positive_scan(self, static_profile):
        ctx = genfun.make_context(static_profile, 0.05, EPS, sigma=4.0)
        for k in np.linspace(0.7, 40.0, 25):
            assert chaoscert.a_exact(ctx, 0.3, float(k)) > 0

    def test_limit_gap_shrinks_with_momentum(self, member):
        profile, _, verdict = member
        t_bar, _ = verdict.witnesses[0]
        band = chaoscert.k_band(
            verdict, sum(chaoscert.xi_interval(profile, EPS, verdict)) / 2)
        k_mid = 0.5 * (band.k_lo + band.k_hi)
        gaps = []
        for c in (1e-1, 1e-3):
            ctx = genfun.make_context(profile, c, EPS)
            a_val = chaoscert.a_exact(ctx, t_bar, k_mid)
            lim, _ = chaoscert.alpha_limit(verdict, k_mid)
            gaps.append(abs(a_val - lim))
        assert gaps[1] < gaps[0]

    def test_negative_on_certified_band(self, member, member_ctx):
        profile, _, verdict = member
        t_bar, _ = verdict.witnesses[0]
        band = chaoscert.k_band(
            verdict, sum(chaoscert.xi_interval(profile, EPS, verdict)) / 2)
        assert chaoscert.a_exact(member_ctx, t_bar, 0.5 * (band.k_lo + band.k_hi)) < 0


class TestAlphaLimit:
    def test_small_action_sign_matches_curvature(self, member):
        _, _, verdict = member
        _, ddr = verdict.witnesses[0]
        lim, upper = chaoscert.alpha_limit(verdict, 1.0)
        assert (upper < 0) == (ddr < 0)
        assert (lim < 0) == (ddr < 0)

    def test_action_below_the_slope_bound_rejected(self, member):
        # at K = 1e-6, sqrt(2K) is far below ||Rdot||: the neighbour relation
        # t - t_bar -+ (R(t_bar) + R(t)) / sqrt(2K) is not monotone in t
        _, _, verdict = member
        assert math.sqrt(2e-6) < verdict.bounds.dR_norm
        with pytest.raises(PreconditionError, match=r"need \|\|Rdot\|\|\^2 = .* < 2K < inf"):
            chaoscert.alpha_limit(verdict, 1e-6)

    @pytest.mark.parametrize("K", [math.inf, math.nan])
    def test_action_that_is_not_finite_rejected(self, member, K):
        _, _, verdict = member
        with pytest.raises(PreconditionError, match=r"< 2K < inf, got K = "):
            chaoscert.alpha_limit(verdict, K)

    def test_verdict_without_witness_rejected(self, member):
        # as k_band refuses it: only an R_tilde verdict carries a witness
        _, _, verdict = member
        plain = dataclasses.replace(verdict, klass="R", witnesses=(), window=None)
        with pytest.raises(PreconditionError, match="not in class R_tilde"):
            chaoscert.alpha_limit(plain, 1000.0)

    def test_upper_bound_root(self, member):
        _, _, verdict = member
        _, ddr = verdict.witnesses[0]
        k_root = -ddr * verdict.bounds.r_min
        _, upper = chaoscert.alpha_limit(verdict, k_root)
        assert abs(upper) < 1e-9 * max(1.0, k_root)

    def test_reference_value_negative(self, reference_profile):
        # 2 sqrt(2*13500) (ddR(1/4) + 13500 / r_min) < 0 for the worked profile
        v = radius.classify(reference_profile, EPS)
        lim, upper = chaoscert.alpha_limit(v, 13500.0)
        expected_upper = 2 * math.sqrt(27000) * (-0.05 * 4 * math.pi**2
                                                 + 13500 / v.bounds.r_min)
        assert upper == pytest.approx(expected_upper, rel=1e-9)
        assert upper < 0 and lim < 0

    def test_limit_below_upper_bound(self, member):
        _, _, verdict = member
        for k in np.linspace(900, 1300, 9):
            lim, upper = chaoscert.alpha_limit(verdict, float(k))
            assert lim <= upper + 1e-12

    @pytest.mark.parametrize("K", [0.0, -1.0])
    def test_non_positive_action_rejected(self, member, K):
        _, _, verdict = member
        with pytest.raises(PreconditionError, match=r"< 2K < inf, got K = "):
            chaoscert.alpha_limit(verdict, K)

    def test_is_the_diagnostic_at_zero_momentum(self, member):
        # a_exact at c = 0 equals the limit to rounding at every band edge of
        # the member's certificate, so the widening's gap is the diagnostic's
        # distance from its value at c = 0
        profile, _, verdict = member
        b = verdict.bounds
        t_bar = verdict.witnesses[0][0]
        ctx0 = genfun.GenFunContext(bounds=b, c=0.0, sigma=b.sigma)
        bands = chaoscert.certify(profile, EPS, 1.0, verdict=verdict).bands
        edges = [k for band in bands for k in (band.k_lo, band.k_hi)]
        assert len(edges) == 2 * chaoscert.DEFAULT_OMEGA_GRID
        for K in edges:
            lim, _ = chaoscert.alpha_limit(verdict, K)
            assert chaoscert.a_exact(ctx0, t_bar, K) == pytest.approx(lim, rel=1e-13, abs=0)


class TestCertify:
    def test_constant_not_certified(self, static_profile):
        cert = chaoscert.certify(static_profile, EPS, 0.01)
        assert not cert.certified
        assert "R_tilde" in cert.reason

    def test_member_certified(self, member):
        profile, _, _ = member
        cert = chaoscert.certify(profile, EPS, 1.0)
        assert cert.certified
        assert cert.a_max < 0
        assert cert.omega_window[1] - cert.omega_window[0] > 1.0
        assert cert.margins["band_above_floor"] > 0
        assert cert.margins["band_below_ceiling"] > 0
        assert len(cert.a_grid) == chaoscert.DEFAULT_K_SAMPLES

    def test_reference_profile_certified(self, reference_profile):
        cert = chaoscert.certify(reference_profile, EPS, 1.0)
        assert cert.certified
        assert cert.a_max < 0
        assert cert.t_witness == pytest.approx(0.25, abs=1e-6)

    def test_momentum_near_limit_reports(self, member):
        profile, _, verdict = member
        b = verdict.bounds
        c_edge = EPS * b.r_min**2 / b.sigma * 0.999
        cert = chaoscert.certify(profile, EPS, c_edge, omega_grid=5, k_samples=17)
        # no asserted sign: the verdict may go either way this deep in c
        assert cert.reason is None or isinstance(cert.reason, str)
        if cert.reason is None:
            assert math.isfinite(cert.a_max)

    def test_momentum_out_of_range(self, member):
        profile, _, verdict = member
        b = verdict.bounds
        cert = chaoscert.certify(profile, EPS, 2 * EPS * b.r_min**2 / b.sigma)
        assert not cert.certified
        assert "momentum" in cert.reason
        # the refusal comes before the window: only the witness is filled in
        assert cert.margins == verdict.margins
        assert (cert.t_witness, cert.ddR_witness) == verdict.witnesses[0]
        assert all(math.isnan(x) for x in cert.omega_window)
        assert cert.bands == [] and cert.a_grid == []

    @pytest.mark.parametrize("fail_at, stage", [(1, "band grid"), (2 * 5 + 1, "K grid")],
                             ids=["band-grid", "K-grid"])
    def test_domain_error_refusal(self, member, monkeypatch, fail_at, stage):
        # a_exact leaves the map domain at its fail_at-th call: the band edges
        # of the omega grid take the first 2 * omega_grid calls, the K grid
        # the rest; the refusal keeps the stages it reached
        profile, _, verdict = member
        calls = []
        original = chaoscert.a_exact

        def a_exact(ctx, t_bar, K):
            calls.append(K)
            if len(calls) == fail_at:
                raise DomainError("no bracket")
            return original(ctx, t_bar, K)

        monkeypatch.setattr(chaoscert, "a_exact", a_exact)
        cert = chaoscert.certify(profile, EPS, 1.0, omega_grid=5, k_samples=9,
                                 verdict=verdict)
        assert len(calls) == fail_at
        assert cert.reason == f"diagnostic left the map domain on the {stage}: no bracket"
        assert not cert.certified
        assert cert.margins == verdict.margins
        assert (cert.t_witness, cert.ddR_witness) == verdict.witnesses[0]
        assert cert.omega_window == chaoscert.xi_interval(profile, EPS, verdict)
        assert len(cert.bands) == 5
        assert all(math.isnan(x) for x in (*cert.k_range, cert.widen_margin, cert.a_max))
        assert cert.a_grid == []

    def test_k_range_clamped_above_sigma_star(self):
        # on this two-harmonic member at 0.9 c_max the widened band union
        # reaches below the map domain, so the K grid starts at sigma_star
        mean, verdict = radius.find_member(5, 0.01, EPS)
        profile = radius.family_profile(5, 0.01, mean)
        b = verdict.bounds
        c = 0.9 * EPS * b.r_min ** 2 / b.sigma
        cert = chaoscert.certify(profile, EPS, c, omega_grid=7, k_samples=33,
                                 verdict=verdict)
        s_star = bmap.sigma_star(genfun.make_context(profile, c, EPS, bounds=b))
        assert cert.reason is None
        assert cert.margins["k_range_clamped_at"] == s_star
        assert cert.k_range[0] == s_star * (1.0 + 1e-9) == cert.a_grid[0][0]
        assert min(band.k_lo for band in cert.bands) - cert.widen_margin <= s_star

    def test_deterministic_serialisation(self, member):
        import json
        profile, _, _ = member
        a = chaoscert.certify(profile, EPS, 1.0, omega_grid=7, k_samples=33)
        b = chaoscert.certify(profile, EPS, 1.0, omega_grid=7, k_samples=33)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True)
        d = a.to_dict()
        assert d["tool_version"]
        assert json.loads(d["profile_literal"])["mean"] == profile.mean


class TestGridCounts:
    def test_cap_is_inclusive(self, member, monkeypatch):
        # a cap of 512, the least the member's sigma_star scan fits in: a
        # count between the real cap of 2^20 and numpy's limit would
        # allocate gigabytes before it failed
        profile, _, verdict = member
        monkeypatch.setattr(errors, "MAX_COUNT", 512)
        for counts in ({"omega_grid": 513}, {"k_samples": 513}):
            with pytest.raises(PreconditionError, match="513 entries, more than 512$"):
                chaoscert.certify(profile, EPS, 1.0, verdict=verdict, **counts)
        cert = chaoscert.certify(profile, EPS, 1.0, omega_grid=1, k_samples=512,
                                 verdict=verdict)
        assert len(cert.a_grid) == 512


class TestForeignVerdict:
    """A verdict is used only with the profile and eps it was computed for."""

    def test_verdict_of_another_profile_rejected(self, reference_profile):
        own = RadiusProfile(754, ((1, 0.05),))
        other = radius.classify(reference_profile, EPS)
        with pytest.raises(PreconditionError, match="profile"):
            chaoscert.certify(own, EPS, 1.0, verdict=other)
        with pytest.raises(PreconditionError, match="profile"):
            chaoscert.xi_interval(own, EPS, other)

    def test_verdict_at_another_eps_rejected(self, member):
        profile, _, _ = member
        other = radius.classify(profile, 0.4)
        with pytest.raises(PreconditionError, match="eps"):
            chaoscert.certify(profile, EPS, 1.0, verdict=other)
        with pytest.raises(PreconditionError, match="eps"):
            chaoscert.xi_interval(profile, EPS, other)


class TestClassifiedOnce:
    """One certification computes the profile bounds once."""

    def test_given_verdict_gives_the_same_certificate(self, member):
        profile, _, verdict = member
        given = chaoscert.certify(profile, EPS, 1.0, omega_grid=7, k_samples=33,
                                  verdict=verdict)
        bare = chaoscert.certify(profile, EPS, 1.0, omega_grid=7, k_samples=33)
        assert given.certified
        assert given.to_dict() == bare.to_dict()

    def test_given_verdict_is_checked_twice(self, member, monkeypatch):
        # certify's own check and make_context's; the bands reuse the verdict
        profile, _, verdict = member
        checks = []
        original = radius.ProfileBounds.check

        def counted(self, *args):
            checks.append(args)
            return original(self, *args)

        monkeypatch.setattr(radius.ProfileBounds, "check", counted)
        assert chaoscert.certify(profile, EPS, 1.0, omega_grid=7, k_samples=33,
                                 verdict=verdict).certified
        assert len(checks) == 2

    def test_bare_certify_bounds_once(self, member, bounds_calls):
        profile, _, _ = member
        chaoscert.certify(profile, EPS, 1.0, omega_grid=7, k_samples=33)
        assert len(bounds_calls) == 1

    def test_cli_certify_bounds_once(self, member, bounds_calls):
        profile, _, _ = member
        with redirect_stdout(io.StringIO()):
            assert cli.main(["certify", "--profile", profile.to_json(), "--c", "1.0",
                             "--omega-grid", "7", "--k-samples", "33"]) == 0
        assert len(bounds_calls) == 1

    def test_c0_search_bounds_once(self, bounds_calls):
        # two-harmonic member that fails at c_max, so the search certifies
        # four times: a halving, then two bisection steps
        profile = radius.family_profile(5, 0.0035, 177.0)
        res = chaoscert.c0_search(profile, EPS, iters=2, omega_grid=5, k_samples=17)
        assert len(res.tested) == 4 and res.c0 is not None
        assert len(bounds_calls) == 1


class TestC0Search:
    def test_member_has_positive_c0(self, member):
        profile, _, _ = member
        res = chaoscert.c0_search(profile, EPS, iters=6, omega_grid=7, k_samples=33)
        assert res.c0 is not None and res.c0 > 0
        assert res.c0 < res.c_max
        # spot check: half the found momentum certifies again
        assert chaoscert.certify(profile, EPS, res.c0 / 2,
                                 omega_grid=7, k_samples=33).certified

    def test_constant_profile_fails_gracefully(self, static_profile):
        res = chaoscert.c0_search(static_profile, EPS)
        assert res.c0 is None
        assert res.reason is not None

    def test_no_certified_momentum(self, member, monkeypatch):
        # every verdict refused: c_max, then 40 halvings, then the report
        profile, _, _ = member
        monkeypatch.setattr(chaoscert, "certify",
                            lambda *args, **kwargs: SimpleNamespace(certified=False))
        res = chaoscert.c0_search(profile, EPS)
        assert res.c0 is None
        assert len(res.tested) == 41 and not any(good for _, good in res.tested)
        assert res.tested[-1][0] == res.tested[0][0] * 0.5 ** 40
        assert res.reason == f"no certified momentum found down to {res.tested[-1][0]}"
        assert res.monotone_observed

    def test_certified_c_max_is_the_answer(self, member, monkeypatch):
        profile, _, verdict = member
        monkeypatch.setattr(chaoscert, "certify",
                            lambda *args, **kwargs: SimpleNamespace(certified=True))
        res = chaoscert.c0_search(profile, EPS)
        assert res.tested == [(verdict.bounds.c_max * (1.0 - 1e-9), True)]
        assert res.c0 == res.tested[0][0] and res.reason is None

    def test_bisection_stays_below_the_last_refusal(self, member, monkeypatch):
        # verdicts certified below 0.2 c_max: c_max, 0.5 and 0.25 c_max are
        # refused before 0.125 c_max certifies, so the bisection runs on
        # (lo, 2 lo) and never tests a momentum the halving refused
        profile, _, verdict = member
        c_max = EPS * verdict.bounds.r_min ** 2 / verdict.bounds.sigma
        monkeypatch.setattr(chaoscert, "certify", lambda profile, eps, c, **kwargs:
                            SimpleNamespace(certified=c < 0.2 * c_max))
        res = chaoscert.c0_search(profile, EPS, iters=4)
        assert [good for _, good in res.tested[:4]] == [False, False, False, True]
        lo = res.tested[3][0]
        assert all(lo < c < 2.0 * lo for c, _ in res.tested[4:])
        assert len(res.tested) == 8 and res.c0 == pytest.approx(0.2 * c_max, rel=0.2)
        assert res.monotone_observed

    def test_bisection_stops_at_float_resolution(self, member, monkeypatch):
        # past about 52 halvings of (lo, 2 lo) the midpoint rounds to an end,
        # a momentum already certified: each momentum is tested once, and a
        # huge iters ends there instead of certifying the ends again
        profile, _, verdict = member
        c_max = verdict.bounds.c_max
        monkeypatch.setattr(chaoscert, "certify", lambda profile, eps, c, **kwargs:
                            SimpleNamespace(certified=c < 0.2 * c_max))
        runs = {iters: chaoscert.c0_search(profile, EPS, iters=iters)
                for iters in (52, 80, 10 ** 9)}
        assert len(runs[52].tested) == 4 + 52
        for res in runs.values():
            momenta = [c for c, _ in res.tested]
            assert len(set(momenta)) == len(momenta)
        assert runs[80].tested == runs[10 ** 9].tested
        assert runs[80].tested[:len(runs[52].tested)] == runs[52].tested
        res = runs[80]
        assert math.nextafter(res.c0, math.inf) == min(c for c, good in res.tested
                                                       if not good and c > res.c0)

    def test_negative_iters_refused(self, member):
        profile, _, _ = member
        with pytest.raises(PreconditionError, match="iters must be an integer >= 0, got -1"):
            chaoscert.c0_search(profile, EPS, iters=-1)

    def test_monotone_means_no_success_above_a_failure(self):
        assert chaoscert._monotone([(0.4, False), (0.1, True), (0.2, True)])
        assert chaoscert._monotone([])
        assert not chaoscert._monotone([(0.4, True), (0.1, True), (0.2, False)])
        # a tie at one momentum: a failure and a success at the same c
        assert not chaoscert._monotone([(0.2, True), (0.2, False)])


class TestLyapunov:
    def test_static_integrable(self, static_ctx_c):
        est = chaoscert.lyapunov(static_ctx_c, CylinderState(0.1, 2.0), 20_000)
        assert est.completed
        assert abs(est.lam) < 1e-3

    def test_renormalisation_bookkeeping(self, member_ctx):
        # the renormalised log-norms sum to the full tangent growth
        est = chaoscert.lyapunov(member_ctx, CylinderState(0.2, 2000.0), 100)
        assert est.completed
        # each step is taken from the phase of s.t, the winding added back
        s = CylinderState(0.2, 2000.0)
        v = np.array([1.0, 0.0])
        for _ in range(100):
            shift = math.floor(s.t)
            phase = CylinderState(s.t - shift, s.K)
            s1 = bmap.forward(member_ctx, phase)
            jac = bmap.jacobian(member_ctx, phase, t1=s1.t)
            v = np.array(jac.apply((v[0], v[1])))
            s = CylinderState(s1.t + shift, s1.K)
        direct = math.log(np.hypot(*v))
        assert est.lam * est.steps == pytest.approx(direct, rel=1e-6)

    def test_partial_estimate_flagged(self, member_ctx):
        s_star = bmap.sigma_star(member_ctx)
        for t0 in np.linspace(0, 1, 40, endpoint=False):
            est = chaoscert.lyapunov(member_ctx, CylinderState(float(t0), s_star * 1.0005), 500)
            if not est.completed:
                assert est.steps < 500
                assert est.reason is not None
                break
        else:
            pytest.fail("expected at least one truncated orbit near the cutoff")

    @pytest.mark.parametrize("k_lo, k_hi", [(1.0, math.inf), (-math.inf, 3.0)])
    def test_band_must_be_finite(self, static_ctx_c, k_lo, k_hi):
        # an infinite band end overflowed in rng.uniform
        with pytest.raises(PreconditionError, match="finite k_lo < k_hi"):
            chaoscert.lyapunov_table(static_ctx_c, k_lo, k_hi, seeds=2, n=5)

    def test_band_table(self, member, member_ctx):
        profile, _, _ = member
        cert = chaoscert.certify(profile, EPS, 1.0, omega_grid=7, k_samples=17)
        rows = chaoscert.lyapunov_table(member_ctx, cert.k_range[0], cert.k_range[1],
                                        seeds=5, n=3000, seed=3)
        assert len(rows) == 5
        assert any(r["lambda"] > 0.01 for r in rows)
