"""The one count contract of errors.check_count, at every caller-sized count.

Each count is refused with PreconditionError when it is not an integer, when
it lies one below its floor and, where it sizes memory, when it asks for
MAX_COUNT + 1 entries; every refusal comes before any profile evaluation
(which every kernel makes), profile grid or flight sampling.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from breathing_billiard import aubry, bmap, chaoscert, cli, errors, flight, radius, simulate
from breathing_billiard.bmap import CylinderState
from breathing_billiard.errors import MAX_COUNT, PreconditionError, check_count
from breathing_billiard.radius import RadiusProfile

EPS = 0.5
HUGE = MAX_COUNT + 1
PORTRAIT = ["portrait", "--profile", '{"mean": 1, "harmonics": []}', "--c", "0.05",
            "--sigma", "4", "--t-count", "1", "--k-count", "1", "--k-hi", "3",
            "--n", "1", "--csv", "portrait.csv"]


def _portrait(**counts):
    args = cli.build_parser().parse_args(PORTRAIT)
    vars(args).update(counts)
    return cli._cmd_portrait(args, {})


def _samples(env, n):
    # the summed row count check_count sees is n, and no row is built
    env.monkeypatch.setattr(flight, "sample_count", lambda seg, dt: n)
    return simulate.trajectory_samples(env.records, 0.1)


# site: (call with the count n, floor or None, whether the count sizes memory)
SITES = {
    "grid_size": (lambda env, n: radius.grid_size(RadiusProfile(2.0), n), 1, True),
    "delta_window": (lambda env, n: radius.delta_window(n), 1, False),
    "certify-omega_grid": (
        lambda env, n: chaoscert.certify(env.profile, EPS, 1.0, omega_grid=n), 1, True),
    "certify-k_samples": (
        lambda env, n: chaoscert.certify(env.profile, EPS, 1.0, k_samples=n), 2, True),
    "c0_search-iters": (lambda env, n: chaoscert.c0_search(env.profile, EPS, iters=n),
                        0, False),
    "lyapunov_table-seeds": (
        lambda env, n: chaoscert.lyapunov_table(env.ctx, 1000.0, 1200.0, seeds=n, n=5),
        1, False),
    "lyapunov_table-seed": (
        lambda env, n: chaoscert.lyapunov_table(env.ctx, 1000.0, 1200.0, 1, 5, seed=n),
        0, False),
    "periodic_orbit-p": (lambda env, n: aubry.periodic_orbit(env.static, n, 2, starts=1),
                         None, False),
    "periodic_orbit-q": (lambda env, n: aubry.periodic_orbit(env.static, 3, n, starts=1),
                         1, True),
    "periodic_orbit-starts": (lambda env, n: aubry.periodic_orbit(env.static, 3, 2, starts=n),
                              1, False),
    "periodic_orbit-seed": (
        lambda env, n: aubry.periodic_orbit(env.static, 3, 2, starts=1, seed=n), 0, False),
    "convergents": (lambda env, n: aubry.convergents(2.5, n), 1, False),
    "Orbit": (lambda env, n: bmap.Orbit(env.ctx, CylinderState(0.3, 1100.0), n), 1, False),
    "lyapunov": (lambda env, n: chaoscert.lyapunov(env.ctx, CylinderState(0.3, 1100.0), n),
                 1, False),
    "simulate.run": (lambda env, n: simulate.run(env.ctx, CylinderState(0.3, 1100.0), n),
                     1, True),
    "portrait-t-count": (lambda env, n: _portrait(t_count=n), 1, False),
    "portrait-k-count": (lambda env, n: _portrait(k_count=n), 1, False),
    "portrait-n": (lambda env, n: _portrait(n=n), 1, True),
}
# counts that no caller passes: they are computed, so only their cap applies
CAPPED_ONLY = {
    "trajectory_samples": _samples,
    # duration / dt in (MAX_COUNT - 1, MAX_COUNT]: n = MAX_COUNT + 1 rows
    "sample_count": lambda env, n: flight.sample_count(env.seg, env.seg.duration / (n - 1.5)),
}

CASES = ([(site, "float", 2.5) for site in SITES]
         + [(site, "below-floor", floor - 1) for site, (_, floor, _) in SITES.items()
            if floor is not None]
         + [(site, "over-cap", HUGE) for site, (_, _, capped) in SITES.items() if capped]
         + [(site, "over-cap", HUGE) for site in CAPPED_ONLY])


@pytest.fixture
def env(member, member_ctx, static_ctx, monkeypatch):
    """The inputs of every site, built first; then any profile evaluation,
    profile grid or flight sampling by a site fails the test."""
    records = simulate.run(static_ctx, CylinderState(0.0, 2.0), 1).records
    out = SimpleNamespace(profile=member[0], ctx=member_ctx, static=static_ctx,
                          records=records, seg=records[0].segment, monkeypatch=monkeypatch)

    def work(*args, **kwargs):
        raise AssertionError("work started before the count was checked")

    for name in ("eval", "radius", "d_radius", "dd_radius", "dd_radius_sq"):
        monkeypatch.setattr(RadiusProfile, name, work)
    monkeypatch.setattr(radius, "_columns", work)
    monkeypatch.setattr(flight, "segment_samples", work)
    return out


@pytest.mark.parametrize("site, kind, n", CASES,
                         ids=[f"{site}-{kind}" for site, kind, _ in CASES])
def test_count_refused_before_any_work(env, site, kind, n):
    call = SITES[site][0] if site in SITES else CAPPED_ONLY[site]
    with pytest.raises(PreconditionError):
        call(env, n)


class TestCheckCount:
    def test_returns_a_python_int(self):
        n = check_count("n", np.int64(7), 1)
        assert n == 7 and type(n) is int
        assert check_count("p", -3) == -3

    def test_messages(self):
        with pytest.raises(PreconditionError, match=r"^n must be an integer >= 1, got 2\.5$"):
            check_count("n", 2.5, 1)
        with pytest.raises(PreconditionError, match=r"^n must be an integer >= 1, got 0$"):
            check_count("n", 0, 1)
        with pytest.raises(PreconditionError, match=r"^p must be an integer, got '3'$"):
            check_count("p", "3")
        with pytest.raises(PreconditionError,
                           match=rf"^q = 1025 asks for 1050625 entries, more than {MAX_COUNT}$"):
            check_count("q", 1025, 1, size=lambda q: q * q)

    def test_cap_is_inclusive_and_read_at_each_call(self, monkeypatch):
        assert check_count("n", MAX_COUNT, 1, size=lambda n: n) == MAX_COUNT
        monkeypatch.setattr(errors, "MAX_COUNT", 10)
        assert check_count("n", 10, 1, size=lambda n: n) == 10
        with pytest.raises(PreconditionError, match="more than 10$"):
            check_count("n", 11, 1, size=lambda n: n)
        # a count that sizes no memory has no cap
        assert check_count("seed", 2 ** 64, 0) == 2 ** 64
