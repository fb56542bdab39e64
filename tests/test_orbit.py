"""The orbit-stepping core and the loops built on it (simulate, lyapunov)."""

import math

import pytest

from breathing_billiard import bmap, chaoscert, simulate
from breathing_billiard.bmap import CylinderState
from breathing_billiard.errors import DomainError, PreconditionError

# criterion-10 orbit of the member: stays in the map domain for 1e5 steps,
# over which its float lift grows to ~3.1e6
ACCEPTANCE = CylinderState(0.4379, 1195.08)
# a state in the member's certified band whose orbit leaves the map domain
EXITING = CylinderState(0.6974534998820221, 1101.4570803045265)


class TestOrbit:
    def test_contract(self, member_ctx):
        with pytest.raises(PreconditionError):
            bmap.Orbit(member_ctx, ACCEPTANCE, 0)
        s_star = bmap.sigma_star(member_ctx)
        with pytest.raises(DomainError, match="initial state"):
            bmap.Orbit(member_ctx, CylinderState(0.1, 0.5 * s_star), 10)

    def test_steps_match_forward(self, member_ctx):
        orbit = bmap.Orbit(member_ctx, CylinderState(2.3, 2000.0), 20)
        s = CylinderState(2.3, 2000.0)
        for wind, frac, K, t1, K1 in orbit:
            assert wind + frac == pytest.approx(s.t, abs=1e-12)
            assert K == pytest.approx(s.K, rel=1e-13)
            s = bmap.forward(member_ctx, s)
            assert wind + t1 == pytest.approx(s.t, abs=1e-12)
            assert K1 == pytest.approx(s.K, rel=1e-13)
        assert orbit.steps == 20 and orbit.reason is None
        assert orbit.wind + orbit.frac == pytest.approx(s.t, abs=1e-12)

    def test_euler_lagrange_exact_over_1e5_steps(self, member_ctx):
        orbit = bmap.Orbit(member_ctx, ACCEPTANCE, 100_000)
        flights = [(frac, t1) for _, frac, _, t1, _ in orbit]
        assert orbit.steps == 100_000 and orbit.wind > 3e6
        assert simulate.el_defect(member_ctx, flights) <= 1e-11


class TestClients:
    def test_lyapunov_iterates_fractional_states(self, member_ctx, monkeypatch):
        # lyapunov hands every state it iterates to the Jacobian; on the raw
        # float lift their Euler-Lagrange defect grows to ~6e-8 by 3e6
        seen = []
        jacobian = bmap.jacobian

        def spy(ctx, s, t1=None):
            seen.append((s.t, t1))
            return jacobian(ctx, s, t1=t1)

        monkeypatch.setattr(bmap, "jacobian", spy)
        est = chaoscert.lyapunov(member_ctx, ACCEPTANCE, 100_000)
        assert est.completed and est.reason is None and len(seen) == 100_000
        flights = [(t - math.floor(t), t1 - math.floor(t)) for t, t1 in seen]
        assert simulate.el_defect(member_ctx, flights) <= 1e-11

    def test_lyapunov_and_simulate_stop_together(self, member_ctx):
        est = chaoscert.lyapunov(member_ctx, EXITING, 3000)
        run = simulate.run(member_ctx, EXITING, 3000)
        assert not est.completed and not run.completed
        assert est.steps == len(run.records) - 1
        assert est.reason == run.reason
        assert est.reason.startswith("left map domain")

    def test_table_rows_carry_reason(self, member_ctx):
        rows = chaoscert.lyapunov_table(member_ctx, EXITING.K, EXITING.K + 1.0,
                                        seeds=2, n=50, seed=0)
        assert all("reason" in r and (r["reason"] is None) == r["completed"] for r in rows)
