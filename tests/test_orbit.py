"""The orbit-stepping core and the loops built on it (simulate, lyapunov)."""

import math

import numpy as np
import pytest

from breathing_billiard import bmap, chaoscert, simulate
from breathing_billiard.bmap import CylinderState
from breathing_billiard.errors import DomainError, PreconditionError

# criterion-10 orbit of the member: stays in the map domain for 1e5 steps,
# over which its float lift grows to ~3.1e6
ACCEPTANCE = CylinderState(0.4379, 1195.08)
EPS = 0.5
EXIT_STEPS = 3000


@pytest.fixture(scope="module")
def exiting(member, member_ctx):
    """The first seeded state of the member's certified band (at c = 1)
    whose orbit leaves the map domain within EXIT_STEPS steps.  A search,
    since after how many steps a chaotic orbit exits depends on rounding."""
    profile, _, verdict = member
    k_lo, k_hi = chaoscert.certify(profile, EPS, member_ctx.c, verdict=verdict).k_range
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = CylinderState(float(rng.uniform(0.0, 1.0)), float(rng.uniform(k_lo, k_hi)))
        orbit = bmap.Orbit(member_ctx, s, EXIT_STEPS)
        for _ in orbit:
            pass
        if orbit.reason is not None:
            return s
    pytest.fail(f"no orbit of 100 band states left the map domain in {EXIT_STEPS} steps")


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

        def spy(ctx, s, t1):
            seen.append((s.t, t1))
            return jacobian(ctx, s, t1=t1)

        monkeypatch.setattr(bmap, "jacobian", spy)
        est = chaoscert.lyapunov(member_ctx, ACCEPTANCE, 100_000)
        assert est.completed and est.reason is None and len(seen) == 100_000
        flights = [(t - math.floor(t), t1 - math.floor(t)) for t, t1 in seen]
        assert simulate.el_defect(member_ctx, flights) <= 1e-11

    def test_lyapunov_and_simulate_stop_together(self, member_ctx, exiting):
        est = chaoscert.lyapunov(member_ctx, exiting, EXIT_STEPS)
        run = simulate.run(member_ctx, exiting, EXIT_STEPS)
        assert not est.completed and not run.completed
        assert est.steps == len(run.records) - 1
        assert est.reason == run.reason
        assert est.reason.startswith("left map domain")

    def test_table_rows_carry_reason(self, member_ctx, exiting):
        rows = chaoscert.lyapunov_table(member_ctx, exiting.K, exiting.K + 1.0,
                                        seeds=2, n=50, seed=0)
        assert all("reason" in r and (r["reason"] is None) == r["completed"] for r in rows)
