import math

import numpy as np
import pytest

from breathing_billiard import bmap, errors, flight, simulate
from breathing_billiard.bmap import CylinderState
from breathing_billiard.errors import DomainError, PreconditionError


class TestRun:
    def test_static_diameter_run(self, static_ctx):
        res = simulate.run(static_ctx, CylinderState(0.0, 2.0), 5)
        assert res.completed
        assert [r.t for r in res.records] == pytest.approx(list(range(6)), abs=1e-12)
        assert all(r.K == 2.0 for r in res.records)
        assert [r.n for r in res.records] == list(range(6))

    def test_reflection_law(self, member_ctx):
        res = simulate.run(member_ctx, CylinderState(0.2, 8000.0), 200)
        assert res.completed
        assert simulate.reflection_residual(member_ctx, res.records) < 1e-9

    def test_euler_lagrange_residual(self, member_ctx):
        res = simulate.run(member_ctx, CylinderState(0.2, 8000.0), 200)
        assert simulate.euler_lagrange_residual(member_ctx, res.records) < 1e-9

    def test_interior_confinement(self, member_ctx):
        res = simulate.run(member_ctx, CylinderState(0.4, 6000.0), 50)
        for rec in res.records:
            if rec.segment is None:
                continue
            for t in np.linspace(rec.segment.t0, rec.segment.t1, 34)[1:-1]:
                r, _, _ = flight.flight_state(rec.segment, float(t))
                assert r < member_ctx.profile.radius(float(t))

    def test_record_cap(self, static_ctx, monkeypatch):
        # n + 1 records are kept: n = 99 fits a 100-row cap, n = 100 is
        # refused before the first step
        monkeypatch.setattr(errors, "MAX_COUNT", 100)
        assert len(simulate.run(static_ctx, CylinderState(0.0, 2.0), 99).records) == 100

        def no_step(*args):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(bmap, "Orbit", no_step)
        for n in (100, 10 ** 18):
            with pytest.raises(PreconditionError, match="entries, more than 100$"):
                simulate.run(static_ctx, CylinderState(0.0, 2.0), n)

    def test_theta_increments(self, member_ctx):
        res = simulate.run(member_ctx, CylinderState(0.1, 5000.0), 40)
        for a, b in zip(res.records, res.records[1:]):
            d = b.theta - a.theta
            assert math.pi / 2 < d <= math.pi
            assert d == pytest.approx(a.segment.dtheta, abs=1e-12)

    def test_tangential_law(self, member_ctx):
        # theta' = c/r^2 is continuous across bounces: both sides evaluate at
        # r = R(t_n), so equality reduces to the endpoint residuals
        res = simulate.run(member_ctx, CylinderState(0.3, 7500.0), 30)
        for prev, cur in zip(res.records, res.records[1:]):
            if prev.segment is None or cur.segment is None:
                continue
            r_in, _, _ = flight.flight_state(prev.segment, prev.segment.t1)
            r_out, _, _ = flight.flight_state(cur.segment, cur.segment.t0)
            c = member_ctx.c
            assert c / r_in**2 == pytest.approx(c / r_out**2, rel=1e-10)

    def test_angular_momentum_constant(self, member_ctx):
        # the first integral of every segment pins c through rdot and theta'
        res = simulate.run(member_ctx, CylinderState(0.3, 7000.0), 30)
        c = member_ctx.c
        for rec in res.records[:-1]:
            seg = rec.segment
            for t in np.linspace(seg.t0, seg.t1, 7)[1:-1]:
                r, rdot, _ = flight.flight_state(seg, float(t))
                assert rdot**2 + c * c / r**2 == pytest.approx(seg.A, rel=1e-12)

    def test_truncation_is_reported(self, member_ctx):
        # start barely above the cutoff: chaotic runs near the strip edge
        # leave the domain quickly and must come back truncated, not raise
        s_star = bmap.sigma_star(member_ctx)
        truncated = None
        for t0 in np.linspace(0.0, 1.0, 40, endpoint=False):
            res = simulate.run(member_ctx, CylinderState(float(t0), s_star * 1.0005), 400)
            if not res.completed:
                truncated = res
                break
        assert truncated is not None
        assert truncated.reason is not None
        assert 1 <= len(truncated.records) <= 401

    def test_initial_violation_raises(self, member_ctx):
        s_star = bmap.sigma_star(member_ctx)
        with pytest.raises(DomainError):
            simulate.run(member_ctx, CylinderState(0.0, 0.5 * s_star), 3)

    def test_closure_of_minimal_orbit(self, member_ctx):
        from breathing_billiard import aubry
        orbit = aubry.periodic_orbit(member_ctx, 158, 5, starts=8, seed=3)
        res = simulate.run(member_ctx, CylinderState(orbit.times[0], orbit.Ks[0]), orbit.q)
        assert res.completed
        last = res.records[-1]
        assert last.t == pytest.approx(orbit.times[0] + orbit.p, abs=1e-8)
        assert last.K == pytest.approx(orbit.Ks[0], abs=1e-8 * max(1.0, orbit.Ks[0]))


    def test_closing_state_without_real_velocity(self, member_ctx, monkeypatch):
        # the closing record reads rdot_plus off the action; a negative
        # radicand there gives NaN instead of ending the run
        def no_root(ctx, t, K):
            raise DomainError(f"no real radial velocity at (t, K) = ({t}, {K})")

        monkeypatch.setattr(bmap, "rdot_plus_from_action", no_root)
        res = simulate.run(member_ctx, CylinderState(0.3, 1100.0), 3)
        assert math.isnan(res.records[-1].rdot_plus)
        assert not any(math.isnan(rec.rdot_plus) for rec in res.records[:-1])


class TestTrajectory:
    def test_static_diameter_polyline(self, static_ctx):
        res = simulate.run(static_ctx, CylinderState(0.0, 2.0), 2)
        rows = simulate.trajectory_samples(res.records, 0.05)
        # diameter through the origin: y stays 0, x sweeps [-1, 1]
        assert np.abs(rows[:, 2]).max() < 1e-12
        assert rows[:, 1].min() == pytest.approx(-1.0, abs=1e-12)
        assert rows[:, 1].max() == pytest.approx(1.0, abs=1e-12)

    def test_polyline_collinearity(self, member_ctx):
        res = simulate.run(member_ctx, CylinderState(0.1, 9000.0), 10)
        r_max = member_ctx.bounds.r_max
        for rec in res.records[:-1]:
            rows = flight.segment_samples(rec.segment, rec.segment.duration / 16)
            p0, p1 = rows[0, 3:], rows[-1, 3:]
            chord = p1 - p0
            norm = np.hypot(*chord)
            for row in rows:
                dev = abs(chord[0] * (row[4] - p0[1]) - chord[1] * (row[3] - p0[0])) / norm
                assert dev < 1e-9 * r_max

    def test_confinement_in_cartesian(self, member_ctx):
        res = simulate.run(member_ctx, CylinderState(0.6, 6500.0), 20)
        rows = simulate.trajectory_samples(res.records, 0.37)
        for t, x, y in rows:
            assert math.hypot(x, y) <= member_ctx.profile.radius(float(t)) * (1 + 1e-12)

    def test_chord_length(self, member_ctx):
        res = simulate.run(member_ctx, CylinderState(0.25, 8300.0), 10)
        for rec in res.records[:-1]:
            seg = rec.segment
            rows = flight.segment_samples(seg, seg.duration)
            p0, p1 = rows[0, 3:], rows[-1, 3:]
            assert np.hypot(*(p1 - p0)) == pytest.approx(
                seg.duration * math.sqrt(seg.A), rel=1e-9)


class TestEnergySeries:
    def test_static_constant(self, static_ctx_c):
        res = simulate.run(static_ctx_c, CylinderState(0.0, 2.0), 20)
        es = simulate.energy_series(res.records)
        vals = [e for _, e in es]
        assert max(vals) - min(vals) < 1e-12

    def test_energy_floor(self, member_ctx):
        res = simulate.run(member_ctx, CylinderState(0.7, 7700.0), 50)
        c = member_ctx.c
        r_max = member_ctx.bounds.r_max
        for _, e in simulate.energy_series(res.records):
            assert e > c * c / (2 * r_max**2)

    def test_breathing_fluctuates(self, member_ctx):
        res = simulate.run(member_ctx, CylinderState(0.1, 8000.0), 100)
        vals = [e for _, e in simulate.energy_series(res.records)]
        assert max(vals) > min(vals)  # no conservation on a moving boundary


class TestExport:
    def test_empty_records_rejected(self):
        with pytest.raises(PreconditionError):
            simulate.trajectory_samples([], 0.1)

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan])
    def test_dt_must_be_positive(self, static_ctx, dt):
        res = simulate.run(static_ctx, CylinderState(0.0, 2.0), 2)
        with pytest.raises(PreconditionError, match="dt must be positive"):
            simulate.trajectory_samples(res.records, dt)

    def test_records_without_segments(self, static_ctx):
        res = simulate.run(static_ctx, CylinderState(0.0, 2.0), 2)
        with pytest.raises(PreconditionError, match="no segments to sample"):
            simulate.trajectory_samples(res.records[-1:], 0.1)

    def test_energy_series_needs_records(self):
        with pytest.raises(PreconditionError, match="empty record list"):
            simulate.energy_series([])

    def test_row_cap(self, member_ctx):
        # refused before any row is built: at dt = 1e-9 these ~30-unit
        # flights would take ~3e10 rows, about a terabyte
        res = simulate.run(member_ctx, CylinderState(0.3, 1100.0), 1)
        seg = res.records[0].segment
        # duration / (cap - 0.5) asks for exactly one row more than the cap
        for dt in (seg.duration / (errors.MAX_COUNT - 0.5),
                   seg.duration / (2 * errors.MAX_COUNT), 1e-9, 1e-300, 5e-324):
            with pytest.raises(PreconditionError, match="more than 1048576 samples"):
                flight.segment_samples(seg, dt)
            with pytest.raises(PreconditionError, match="more than 1048576 samples"):
                simulate.trajectory_samples(res.records, dt)

    @pytest.fixture
    def capped(self, member_ctx, monkeypatch):
        """Five flights of the member under a 100-row cap, and a dt at which
        each takes at most 45 rows."""
        monkeypatch.setattr(errors, "MAX_COUNT", 100)
        res = simulate.run(member_ctx, CylinderState(0.3, 1100.0), 5)
        longest = max(rec.segment.duration for rec in res.records[:-1])
        return res.records, longest / 44

    def test_total_row_cap(self, capped, monkeypatch):
        records, dt = capped

        def refused(seg, dt):
            raise AssertionError("a row was built")

        monkeypatch.setattr(flight, "segment_samples", refused)
        with pytest.raises(PreconditionError, match="rows = .* asks for .* entries, more than 100$"):
            simulate.trajectory_samples(records, dt)

    def test_rows_are_counted_exactly(self, capped):
        # two flights fit under the cap, three do not
        records, dt = capped
        counts = [flight.sample_count(rec.segment, dt) for rec in records[:-1]]
        assert sum(counts[:2]) <= 100 < sum(counts[:3])
        assert len(simulate.trajectory_samples(records[:2] + records[-1:], dt)) == sum(counts[:2])
        with pytest.raises(PreconditionError):
            simulate.trajectory_samples(records[:3] + records[-1:], dt)
