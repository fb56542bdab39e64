"""Property tests of the map and the orbit core over random admissible profiles.

Profiles are single- or two-harmonic sine profiles with the momentum c drawn
inside the admissible range (0, eps r_min^2 / sigma); states have K above the
map-domain cutoff sigma_star.  Examples are derandomised so the suite gives
the same verdict on every run.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from breathing_billiard import bmap, genfun
from breathing_billiard.bmap import CylinderState
from breathing_billiard.radius import RadiusProfile

EPS = 0.5
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True)


@st.composite
def profiles(draw):
    mean = draw(st.floats(1.0, 50.0))
    ks = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True))
    # relative slope k d / mean up to 5e-3 keeps sigma of order one or more
    harmonics = tuple((k, mean * draw(st.floats(1e-4, 5e-3)) / k
                       * draw(st.sampled_from((-1.0, 1.0)))) for k in ks)
    return RadiusProfile(mean, harmonics)


def _context(profile, c_share):
    ctx = genfun.make_context(profile, 0.0, EPS)
    return dataclasses.replace(ctx, c=c_share * EPS * ctx.bounds.r_min ** 2 / ctx.sigma)


def _state(ctx, t, k_factor):
    return CylinderState(t, bmap.sigma_star(ctx) * k_factor)


cases = dict(profile=profiles(), c_share=st.floats(0.0, 0.99),
             t=st.floats(0.0, 1.0, exclude_max=True), k_factor=st.floats(1.001, 4.0))


@PROPERTY
@given(profile=profiles(), c_share=st.floats(0.0, 0.99), t0=st.floats(-50.0, 50.0),
       gap=st.floats(1e-3, 1.0))
def test_h_ends_is_h(profile, c_share, t0, gap):
    ctx = _context(profile, c_share)
    t1 = t0 + gap * ctx.sigma
    e0, e1 = profile.eval(t0), profile.eval(t1)
    assert genfun.h_ends(ctx, t0, e0, t1, e1) == genfun.h(ctx, t0, t1)


@PROPERTY
@given(**cases)
def test_backward_inverts_forward(profile, c_share, t, k_factor):
    ctx = _context(profile, c_share)
    s = _state(ctx, t, k_factor)
    back = bmap.backward(ctx, bmap.forward(ctx, s))
    assert abs(back.t - s.t) <= 1e-12
    assert abs(back.K - s.K) <= 1e-12 * s.K


def _floor(ctx, t0, t1, x, K):
    """Rounding floor of a map solve: 4 |d12 h| ulp(x) plus 16 ulp of the action."""
    return 4.0 * abs(genfun.hess_h(ctx, t0, t1)[1]) * 2.3e-16 * max(1.0, abs(x)) \
        + 16.0 * 2.3e-16 * max(1.0, abs(K))


@PROPERTY
@given(**cases)
def test_solves_reach_the_rounding_floor(profile, c_share, t, k_factor):
    ctx = _context(profile, c_share)
    s = _state(ctx, t, k_factor)
    image = bmap.forward(ctx, s)
    t1 = image.t
    assert abs(genfun.grad_h(ctx, s.t, t1)[0] - s.K) <= _floor(ctx, s.t, t1, t1, s.K)
    # backward is solved at the image, which has a preimage by construction
    t0 = bmap.backward(ctx, image).t
    assert abs(-genfun.grad_h(ctx, t0, t1)[1] - image.K) <= _floor(ctx, t0, t1, t0, image.K)


@PROPERTY
@given(**cases, shift=st.floats(-0.2, 0.2))
def test_warm_step_agrees_with_cold(profile, c_share, t, k_factor, shift):
    ctx = _context(profile, c_share)
    s = _state(ctx, t, k_factor)
    t1, K1 = bmap._solve_forward_time(ctx, s.t, s.K, None)
    warm_t1, warm_K1 = bmap._solve_forward_time(ctx, s.t, s.K, t1 + shift * (t1 - s.t))
    assert abs(warm_t1 - t1) <= 4 * math.ulp(t1)
    assert abs(warm_K1 - K1) <= 1e-12 * K1


@PROPERTY
@given(**cases)
def test_unit_jacobian_determinant(profile, c_share, t, k_factor):
    ctx = _context(profile, c_share)
    assert abs(bmap.jacobian(ctx, _state(ctx, t, k_factor)).det - 1.0) <= 1e-12


@PROPERTY
@given(**cases)
def test_equivariance_under_unit_time_shift(profile, c_share, t, k_factor):
    ctx = _context(profile, c_share)
    s = _state(ctx, t, k_factor)
    # backward is checked at the image, which has a preimage by construction
    for step, state in ((bmap.forward, s), (bmap.backward, bmap.forward(ctx, s))):
        a, b = step(ctx, state), step(ctx, CylinderState(state.t + 1.0, state.K))
        assert abs(b.t - 1.0 - a.t) <= 1e-12
        assert abs(b.K - a.K) <= 1e-12 * a.K


@PROPERTY
@given(mean=st.floats(0.5, 20.0), sigma=st.floats(1.5, 6.0), c_share=st.floats(0.0, 0.99),
       t=st.floats(0.0, 1.0, exclude_max=True), k_factor=st.floats(1.001, 4.0))
def test_core_conserves_K_bitwise_on_constant_profiles(mean, sigma, c_share, t, k_factor):
    ctx = genfun.make_context(RadiusProfile(mean), c_share * EPS * mean ** 2 / sigma, EPS,
                              sigma=sigma)
    s0 = _state(ctx, t, k_factor)
    orbit = bmap.Orbit(ctx, s0, 200)
    for _, _, K, _, K1 in orbit:
        assert K == s0.K and K1 == s0.K
    assert orbit.steps == 200 and orbit.reason is None
    assert orbit.K == s0.K


@settings(max_examples=200, deadline=None, derandomize=True)
@given(profile=profiles(), c_share=st.floats(0.0, 0.99), t0=st.floats(-3.0, 3.0),
       gap=st.floats(1e-6, 1.0))
def test_fused_kernel_is_bit_identical_to_grad_and_hess(profile, c_share, t0, gap):
    ctx = _context(profile, c_share)
    t1 = t0 + gap * ctx.sigma
    fused = genfun.grad_twist(ctx, t0, profile.eval(t0), t1, profile.eval(t1))
    assert fused == (*genfun.grad_h(ctx, t0, t1), genfun.hess_h(ctx, t0, t1)[1])


def _midpoint_start(ctx, anchor, e, K, direction, guess):
    return guess


@settings(max_examples=100, deadline=None, derandomize=True)
@given(c_share=st.floats(0.0, 0.99), t=st.floats(0.0, 1.0, exclude_max=True),
       k_factor=st.floats(1.001, 4.0))
def test_chord_start_finds_the_midpoint_root(member, c_share, t, k_factor):
    # the first iterate only moves where Newton starts: the roots agree with
    # those of the bracket-midpoint start to 4 ulp of the time, and the
    # image actions are grad_h's at the root
    profile, _, verdict = member
    ctx = genfun.make_context(profile, 0.0, EPS, bounds=verdict.bounds)
    ctx = dataclasses.replace(ctx, c=c_share * EPS * ctx.bounds.r_min ** 2 / ctx.sigma)
    s = _state(ctx, t, k_factor)
    t1, K1 = bmap._solve_forward_time(ctx, s.t, s.K)
    image = CylinderState(t1 - math.floor(t1), K1)
    back = bmap.backward(ctx, image)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bmap, "_chord_start", _midpoint_start)
        mid_t1, _ = bmap._solve_forward_time(ctx, s.t, s.K)
        mid_t0 = bmap.backward(ctx, image).t
    assert abs(t1 - mid_t1) <= 4 * math.ulp(max(1.0, abs(mid_t1)))
    assert abs(back.t - mid_t0) <= 4 * math.ulp(max(1.0, abs(mid_t0)))
    assert K1 == s.K - sum(genfun.grad_h(ctx, s.t, t1))
    assert back.K == K1 + sum(genfun.grad_h(ctx, back.t, image.t))
