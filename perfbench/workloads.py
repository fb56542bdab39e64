"""The benchmark's workloads: seeded inputs, set-up, one timed task, checks.

Each workload is a single-client closed loop over a seeded task list: a task
starts when the previous one ends.  The library receives only the generated
inputs.  A task times its own library calls and runs its correctness checks
outside that timed region.

certify         One "construct and certify" request: ``radius.find_member``
                then ``chaoscert.c0_search`` on the member found.  The only
                workload where the profile sup-norms (``radius.bounds``,
                ``_search.circle_sup``) and the cold bracketed map solves of
                ``chaoscert.a_exact`` do most of the work.
chaos_orbits    Lyapunov exponent and full bounce record of orbits started in
                the certified action band of one member.  Exercises warm-start
                map stepping, ``bmap.jacobian`` and ``flight`` segments; the
                profile sup-norms run only in set-up.
minimal_orbits  Aubry-Mather (p, q) orbits and hull samples of the same
                member.  The only user of ``genfun.h`` values and of
                golden-section minimisation; it never calls the map solvers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from breathing_billiard import aubry, bmap, chaoscert, genfun, radius, simulate
from breathing_billiard.bmap import CylinderState

EPS = 0.5
MEMBER = (1, 0.05)  # (k, delta) of the member behind chaos_orbits and minimal_orbits
MIN_WINDOW = 1.0
C_ORBITS = 1.0
# bisection steps after the first certified halving: c0 to 1/16 of its
# bracket, so a k >= 5 task stays near 1 s and a run holds 14 of them
C0_ITERS = 4
# map steps per chaos_orbits task; orbits leave the certified band after a
# number of steps that depends on rounding, so a task runs orbits from fresh
# seeded states until it has taken this many steps
# (an orbit gets half the remaining budget: at most 4000 steps, a lift of ~1.2e5)
ORBIT_BUDGET = 8_000
STARTS = 8
Q_VALUES = tuple(range(2, 22))
HULL_SHARE = 5  # one task in this many uses hull_samples

clock = time.perf_counter


@dataclass
class TaskResult:
    wall_s: float                # timed library calls of the task
    steps: int                   # map steps / bounce times the task computed
    digest: str                  # exact repr of the task's output
    units: list = field(default_factory=list)  # (wall_s, steps) per step-timing unit
    truncated: int = 0           # orbit runs (lyapunov or simulate.run) that left the map domain
    lyapunov_runs: int = 0
    lyapunov_truncated: int = 0
    lyapunov_steps: int = 0
    simulate_steps: int = 0
    certifies: int = 0           # certify calls made by c0_search
    problems: list = field(default_factory=list)  # failed correctness checks
    output: object = None        # what the workload's CLI call needs to repeat the task


def _member():
    k, delta = MEMBER
    mean, verdict = radius.find_member(k, delta, EPS, min_window=MIN_WINDOW)
    return radius.family_profile(k, delta, mean), verdict


class _Certificates:
    """Times each chaoscert.certify call and counts the map solves it makes
    (two per chaoscert.a_exact call); costs ~0.1 us per a_exact call."""

    def __init__(self):
        self.certify, self.a_exact = chaoscert.certify, chaoscert.a_exact
        self.solves = 0
        self.units = []  # (wall_s, map solves) per certify call

    def __enter__(self):
        chaoscert.certify, chaoscert.a_exact = self.timed, self.counted
        return self

    def __exit__(self, *exc):
        chaoscert.certify, chaoscert.a_exact = self.certify, self.a_exact

    def counted(self, *args, **kwargs):
        self.solves += 2  # one forward and one backward solve
        return self.a_exact(*args, **kwargs)

    def timed(self, *args, **kwargs):
        solves, start = self.solves, clock()
        try:
            return self.certify(*args, **kwargs)
        finally:
            self.units.append((clock() - start, self.solves - solves))


class Certify:
    name = "certify"
    # 2-core x86-64 VM, Python 3.11: k = 1 tasks take 0.45-0.6 s and k >= 5
    # tasks 1.1-1.5 s, depending on how busy the host is
    nominal_task_s = 0.75
    # a run holds one pass only: ~35 s of tasks, 16 of them k >= 5
    passes = 1

    def setup(self):
        return {}

    def inputs(self, state, seed, n):
        """n tasks, three fifths of them single-harmonic (k = 1).

        k = 1 tasks certify at c_max at once, so find_member is most of their
        time; k >= 5 tasks spend most of theirs in the c0_search bisection.
        The k = 1 share puts the median well inside the k = 1 mode and the
        tail (ten tasks beyond it) inside the k >= 5 mode: at 40 tasks it is
        the sixth-fastest of 16 k >= 5 tasks.  k cycles over 5..8; delta is
        stratified log-uniformly over the middle 80% of delta_window(k).
        """
        rng = np.random.default_rng([seed, 0])
        n_fast = (3 * n + 2) // 5
        ks = [1] * n_fast + [5 + i % 4 for i in range(n - n_fast)]
        tasks = []
        for k in sorted(set(ks)):
            idx = [i for i, kk in enumerate(ks) if kk == k]
            lo, hi = radius.delta_window(k)
            strata = rng.permutation(len(idx))
            for j, stratum in zip(idx, strata):
                u = 0.1 + 0.8 * (stratum + rng.uniform()) / len(idx)
                tasks.append((k, math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))
        return [tasks[i] for i in rng.permutation(n)]

    def run(self, state, task, check):
        k, delta = task
        with _Certificates() as certs:
            start = clock()
            mean, verdict = radius.find_member(k, delta, EPS, min_window=MIN_WINDOW)
            profile = radius.family_profile(k, delta, mean)
            res = chaoscert.c0_search(profile, EPS, iters=C0_ITERS)
            wall = clock() - start
        # a step unit is one certificate: each solves the same a_grid, while
        # a whole task mixes them with find_member, which solves no map steps
        out = TaskResult(
            wall_s=wall, steps=certs.solves,
            digest=repr((k, delta, mean, verdict.window, res.c0, res.c_max,
                         res.tested, res.monotone_observed, res.reason)),
            units=[u for u in certs.units if u[1]], certifies=len(res.tested),
            output=(profile, res.c0))
        if check:
            out.problems = self.check(profile, res)
        return out

    @staticmethod
    def check(profile, res):
        if res.c0 is None or res.reason is not None:
            return [f"no certified momentum: {res.reason}"]
        cert = chaoscert.certify(profile, EPS, res.c0)
        if not cert.certified:
            return [f"verdict at c0 = {res.c0} is not certified"]
        problems = []
        ctx = genfun.make_context(profile, res.c0, EPS)
        grid = cert.a_grid
        for K, _ in (grid[0], grid[len(grid) // 2], grid[-1]):
            s = CylinderState(cert.t_witness, K)
            t1 = bmap.forward(ctx, s).t
            t1_impact, _ = bmap.laederich_map(ctx, s.t, bmap.action_to_impact(ctx, s.t, K))
            if not abs(t1 - t1_impact) <= 1e-9:
                problems.append(f"forward time {t1} != impact-map time {t1_impact} at K = {K}")
            back = bmap.forward(ctx, bmap.backward(ctx, s))
            if not (abs(back.t - s.t) <= 1e-9 and abs(back.K - K) <= 1e-9 * max(1.0, abs(K))):
                problems.append(f"forward(backward(s)) = {back} != {s}")
        return problems

    def cli_args(self, state, tasks, results):
        profile, c0 = results[0].output
        return ["certify", "--profile", profile.to_json(), "--eps", repr(EPS),
                "--c", repr(c0)]


class ChaosOrbits:
    name = "chaos_orbits"
    nominal_task_s = 0.36
    passes = 2  # a task's time is its mean over both passes

    def setup(self):
        profile, _ = _member()
        cert = chaoscert.certify(profile, EPS, C_ORBITS)
        if not cert.certified:
            raise RuntimeError(f"member is not certified at c = {C_ORBITS}: {cert.reason}")
        ctx = genfun.make_context(profile, C_ORBITS, EPS)
        return {"ctx": ctx, "band": cert.k_range}

    def inputs(self, state, seed, n):
        """One seed per task; a task draws its states (t0, K0) from it, with
        K0 uniform in the certified band."""
        rng = np.random.default_rng([seed, 1])
        return [int(s) for s in rng.integers(0, 2 ** 63, size=n)]

    @staticmethod
    def states(state, task_seed):
        rng = np.random.default_rng(task_seed)
        k_lo, k_hi = state["band"]
        while True:
            yield CylinderState(float(rng.uniform(0.0, 1.0)), float(rng.uniform(k_lo, k_hi)))

    def run(self, state, task, check):
        """Step units are the task's lyapunov and simulate.run totals: single
        orbits can be a few steps long, too short to time one step."""
        ctx = state["ctx"]
        remaining = ORBIT_BUDGET
        out = TaskResult(wall_s=0.0, steps=0, digest="")
        lyapunov_s = simulate_s = 0.0
        parts = []
        for s0 in self.states(state, task):
            if remaining <= 0:
                break
            n = (remaining + 1) // 2
            start = clock()
            est = chaoscert.lyapunov(ctx, s0, n)
            mid = clock()
            orbit = simulate.run(ctx, s0, n)
            end = clock()
            lyapunov_s += mid - start
            simulate_s += end - mid
            steps = est.steps + len(orbit.records) - 1
            out.lyapunov_steps += est.steps
            out.simulate_steps += len(orbit.records) - 1
            remaining -= max(steps, 1)  # an orbit that exits at once still ends the loop
            out.truncated += (not est.completed) + (not orbit.completed)
            out.lyapunov_runs += 1
            out.lyapunov_truncated += not est.completed
            last = orbit.records[-1]
            parts.append((est.lam, est.steps, est.completed, orbit.completed,
                          len(orbit.records), last.t, last.K))
            if check:
                out.problems += self.check(ctx, est, orbit)
        out.wall_s = lyapunov_s + simulate_s
        out.steps = out.lyapunov_steps + out.simulate_steps
        out.units = [(wall, steps) for wall, steps in ((lyapunov_s, out.lyapunov_steps),
                                                       (simulate_s, out.simulate_steps)) if steps]
        out.digest = repr(parts)
        return out

    @staticmethod
    def check(ctx, est, orbit):
        problems = []
        if est.steps and not math.isfinite(est.lam):
            problems.append(f"Lyapunov estimate {est.lam} after {est.steps} steps")
        recs = orbit.records
        el = simulate.euler_lagrange_residual(ctx, recs)
        refl = simulate.reflection_residual(ctx, recs)
        if not (el <= 1e-9 and refl <= 1e-9):
            problems.append(f"residuals: Euler-Lagrange {el}, reflection {refl}")
        with_segment = [r for r in recs if r.segment is not None]
        for rec in with_segment[::max(1, len(with_segment) // 3)]:
            jac = bmap.jacobian(ctx, CylinderState(rec.t_frac, rec.K), t1=rec.segment.t1)
            if not abs(jac.det - 1.0) < 1e-8:
                problems.append(f"det J = {jac.det!r} at bounce {rec.n}")
        return problems

    def cli_args(self, state, tasks, results):
        s0 = next(self.states(state, tasks[0]))
        ctx = state["ctx"]
        return ["simulate", "--profile", ctx.profile.to_json(), "--eps", repr(EPS),
                "--c", repr(C_ORBITS), "--t0", repr(s0.t), "--K", repr(s0.K), "--n", "1000"]


class MinimalOrbits:
    name = "minimal_orbits"
    nominal_task_s = 0.42
    passes = 2

    def setup(self):
        profile, verdict = _member()
        ctx = genfun.make_context(profile, C_ORBITS, EPS)
        return {"ctx": ctx, "window": chaoscert.xi_interval(profile, EPS, verdict)}

    def inputs(self, state, seed, n):
        """q cycles over 2..21 (cost grows with q); every HULL_SHARE-th slot
        of that cycle asks for hull samples of an irrational omega instead,
        with its q as the denominator cap.  The seed draws (p, omega, start
        seed) and the order, not the mix of kinds and q.

        A hull task's omega lies within 0.4 / q^2 of a coprime p/q of the
        window, so p/q is its last convergent with denominator <= q
        (Legendre; the next one has a denominator above 1.5 q).  The task
        then finds a (p, q) orbit, and its cost follows q like an orbit
        task's instead of the denominator an arbitrary omega would land on.
        """
        rng = np.random.default_rng([seed, 2])
        w_lo, w_hi = state["window"]
        tasks = []
        for i in rng.permutation(n):
            q = Q_VALUES[i % len(Q_VALUES)]
            start_seed = int(rng.integers(0, 2 ** 31))
            ps = [p for p in range(math.floor(w_lo * q), math.ceil(w_hi * q) + 1)
                  if w_lo < p / q < w_hi and math.gcd(p, q) == 1]
            p = int(rng.choice(ps))
            if i % HULL_SHARE == HULL_SHARE - 1:
                offset = float(rng.uniform(0.05, 0.4)) * float(rng.choice([-1.0, 1.0])) / q ** 2
                tasks.append(("hull", p / q + offset, q, start_seed))
            else:
                tasks.append(("orbit", p, q, start_seed))
        return tasks

    def run(self, state, task, check):
        ctx = state["ctx"]
        kind, a, b, start_seed = task
        start = clock()
        if kind == "orbit":
            orbit = aubry.periodic_orbit(ctx, a, b, starts=STARTS, seed=start_seed, workers=1)
        else:
            hull = aubry.hull_samples(ctx, a, denom_cap=b, starts=STARTS,
                                      seed=start_seed, workers=1)
        wall = clock() - start
        if kind == "orbit":
            p, q, times, ks = orbit.p, orbit.q, orbit.times, orbit.Ks
            residual = orbit.residual
            digest = repr((task, orbit.times, orbit.Ks, orbit.action, orbit.residual))
        else:
            p, q = hull.p, hull.q
            times, ks = hull_orbit(hull)
            residual = None
            digest = repr((task, hull.p, hull.q, hull.xs, hull.phi, hull.eta))
        out = TaskResult(wall_s=wall, steps=q, digest=digest, units=[(wall, q)])
        if check:
            out.problems = self.check(ctx, p, q, times, ks, residual)
        return out

    @staticmethod
    def check(ctx, p, q, times, ks, residual):
        problems = []
        if residual is None:
            residual = aubry.el_residual(ctx, times, p)
        if not residual <= 1e-8:
            problems.append(f"({p}, {q}) residual {residual}")
        # step by step: iterating q steps from one point would amplify its
        # rounding by the orbit's multiplier (|trace| up to 1e11 at q ~ 20)
        nxt = list(zip(times[1:], ks[1:])) + [(times[0] + p, ks[0])]
        for t, K, (t_next, K_next) in zip(times, ks, nxt):
            s = bmap.forward(ctx, CylinderState(t, K))
            if not (abs(s.t - t_next) <= 1e-8 and abs(s.K - K_next) <= 1e-8 * max(1.0, abs(K_next))):
                problems.append(f"({p}, {q}) orbit does not close: {s} after ({t}, {K})")
                break
        omega = p / q
        full = list(times) + [t + p for t in times]
        worst = max((abs(full[j] - full[i] - (j - i) * omega)
                     for i in range(len(full)) for j in range(i + 1, len(full))), default=0.0)
        if not worst <= 1.0 + 1e-9:
            problems.append(f"({p}, {q}) spacing estimate fails by {worst - 1.0}")
        return problems

    def cli_args(self, state, tasks, results):
        kind, p, q, start_seed = next(t for t in tasks if t[0] == "orbit")
        ctx = state["ctx"]
        return ["orbit", "--profile", ctx.profile.to_json(), "--eps", repr(EPS),
                "--c", repr(C_ORBITS), "--p", str(p), "--q", str(q),
                "--starts", str(STARTS), "--seed", str(start_seed)]


def hull_orbit(hull):
    """The periodic orbit behind hull samples: times t_n and actions K_n.

    hull_samples stores phi = t_n - floor(n p / q) at xs = frac(n p / q),
    sorted by xs; n is recovered from xs since p is invertible mod q.
    """
    p, q = hull.p, hull.q
    rot = p / q
    inv = pow(p, -1, q) if q > 1 else 0
    times = [0.0] * q
    ks = [0.0] * q
    for x, phi, eta in zip(hull.xs, hull.phi, hull.eta):
        n = (round(x * q) * inv) % q
        times[n] = phi + math.floor(n * rot)
        ks[n] = eta
    return times, ks


WORKLOADS = {w.name: w for w in (Certify(), ChaosOrbits(), MinimalOrbits())}
