"""Property tests of the map and the orbit core over random admissible profiles.

Profiles are single- or two-harmonic sine profiles with the momentum c drawn
inside the admissible range (0, eps r_min^2 / sigma); states have K above the
map-domain cutoff sigma_star.  Examples are derandomised so the suite gives
the same verdict on every run.
"""

import dataclasses

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
@given(**cases)
def test_backward_inverts_forward(profile, c_share, t, k_factor):
    ctx = _context(profile, c_share)
    s = _state(ctx, t, k_factor)
    back = bmap.backward(ctx, bmap.forward(ctx, s))
    assert abs(back.t - s.t) <= 1e-12
    assert abs(back.K - s.K) <= 1e-12 * s.K


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
