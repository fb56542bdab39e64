"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest perfbench -q -p no:cacheprovider

They are outside the library's test paths, so the tier-1 suite does not
collect them.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import bench  # noqa: E402
import tracer as tracing  # noqa: E402
from breathing_billiard import aubry, bmap, chaoscert, simulate  # noqa: E402
from breathing_billiard.radius import RadiusProfile  # noqa: E402

# boundaries each workload's tasks must reach (the traced-run table of the
# benchmark README); cli.main is reached by every workload's identity check
EXERCISED = {
    "certify": ["radius.find_member", "radius.classify", "radius.bounds",
                "genfun.make_context", "chaoscert.c0_search", "chaoscert.certify",
                "chaoscert.a_exact", "bmap.forward_time.cold", "bmap.backward",
                "search.solve_monotone", "search.circle_sup", "genfun.grad_h",
                "genfun.hess_h", *tracing.PROFILE_METHODS],
    "chaos_orbits": ["chaoscert.lyapunov", "simulate.run", "bmap.forward_time.warm",
                     "bmap.jacobian", "flight.make_segment", "genfun.grad_h",
                     "genfun.hess_h", "RadiusProfile.eval", "RadiusProfile.radius",
                     "RadiusProfile.d_radius"],
    "minimal_orbits": ["aubry.periodic_orbit", "aubry.hull_samples", "genfun.h",
                       "genfun.grad_h", "genfun.hess_h", "search.golden_max",
                       "RadiusProfile.eval"],
}
# --seconds giving 1, 1 and 5 traced tasks; five minimal_orbits tasks include a hull task
SECONDS = {"certify": 2, "chaos_orbits": 1, "minimal_orbits": 15}


def _originals():
    return [owner.__dict__[attr] if owner is RadiusProfile else getattr(owner, attr)
            for _, owner, attr, _ in tracing.BOUNDARIES]


def test_every_reference_is_patched_then_restored():
    originals = _originals()
    holders = {(mod, key): value for mod in tracing.library_modules()
               for key, value in vars(mod).items() if any(value is o for o in originals)}
    # names imported into other modules are separate references
    assert len(holders) > len(originals) - len(tracing.PROFILE_METHODS)
    with tracing.Tracer():
        for (mod, key) in holders:
            assert not any(getattr(mod, key) is o for o in originals), f"{mod.__name__}.{key}"
        for wrapped in (bmap.grad_h, simulate.grad_h, chaoscert.hess_h, aubry.h,
                        RadiusProfile.__dict__["eval"]):
            assert hasattr(wrapped, "__wrapped__")
    for (mod, key), value in holders.items():
        assert getattr(mod, key) is value
    assert [RadiusProfile.__dict__[m.split(".")[1]] for m in tracing.PROFILE_METHODS] \
        == originals[-len(tracing.PROFILE_METHODS):]


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_traced_run_matches_untraced_and_reaches_its_layers(workload):
    res = bench.measure(workload, seed=3, seconds=SECONDS[workload], trace=True)
    detail = res["detail"]
    assert detail["mismatched_tasks"] == []
    assert res["failed"] == 0 and res["correct"], detail["failures"] or detail["cli"]
    calls = detail["calls"]
    missing = [name for name in EXERCISED[workload] + ["cli.main"] if not calls[name] > 0]
    assert missing == []
    per_layer = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert set(res["metrics"]) == {m["name"] for m in per_layer}


def test_tail_percentile_keeps_ten_beyond():
    assert bench.tail_percentile(30) == 66
    assert bench.tail_percentile(40) == 75
    assert bench.tail_percentile(12) == 50
    values = list(range(1, 41))
    p = bench.tail_percentile(len(values))
    assert sum(v > bench.percentile(values, p) for v in values) == 10
