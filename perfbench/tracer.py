"""Call tracing for the traced benchmark run.

The tracer wraps public boundaries of the library from outside: it replaces
every reference to a boundary function, in every ``breathing_billiard``
module that holds one (``bmap.grad_h``, ``simulate.grad_h``, ``aubry.h``,
...), and the profile methods on ``RadiusProfile`` itself.  No file of the
library changes.

Pipeline boundaries record one span per call (name, start, end, parent span,
task id).  Every boundary, pipeline or kernel, also feeds an aggregate keyed
by (boundary, parent boundary): calls, busy time and the busy time of wrapped
children, from which self time follows.  Kernel calls cost 1-3 us each, so a
span per call would not fit in memory; the wrapper itself costs about 1 us,
which inflates kernel self times, so counts are the reliable figures there.

A boundary that calls itself (``bmap._solve_forward_time`` and
``bmap.backward`` re-enter once to reduce the lift) is recorded once.
"""

from __future__ import annotations

import sys
import time

from breathing_billiard import (_search, aubry, bmap, chaoscert, cli, flight,
                                genfun, radius, simulate)
from breathing_billiard.radius import RadiusProfile


def _forward_time_name(args, kwargs):
    guess = kwargs["guess"] if "guess" in kwargs else (args[3] if len(args) > 3 else None)
    return "bmap.forward_time.cold" if guess is None else "bmap.forward_time.warm"


# (metric name, owner, attribute, records spans).  The metric name of the
# forward-time solve depends on whether the caller passed a warm-start guess.
BOUNDARIES = (
    ("radius.find_member", radius, "find_member", True),
    ("radius.classify", radius, "classify", True),
    ("radius.bounds", radius, "bounds", True),
    ("genfun.make_context", genfun, "make_context", True),
    ("chaoscert.c0_search", chaoscert, "c0_search", True),
    ("chaoscert.certify", chaoscert, "certify", True),
    ("chaoscert.lyapunov", chaoscert, "lyapunov", True),
    ("simulate.run", simulate, "run", True),
    ("aubry.hull_samples", aubry, "hull_samples", True),
    ("aubry.periodic_orbit", aubry, "periodic_orbit", True),
    ("cli.main", cli, "main", True),
    ("chaoscert.a_exact", chaoscert, "a_exact", False),
    (_forward_time_name, bmap, "_solve_forward_time", False),
    ("bmap.backward", bmap, "backward", False),
    ("bmap.jacobian", bmap, "jacobian", False),
    ("flight.make_segment", flight, "make_segment", False),
    ("search.solve_monotone", _search, "solve_monotone", False),
    ("search.circle_sup", _search, "circle_sup", False),
    ("search.golden_max", _search, "golden_max", False),
    ("genfun.h", genfun, "h", False),
    ("genfun.grad_h", genfun, "grad_h", False),
    ("genfun.hess_h", genfun, "hess_h", False),
    ("RadiusProfile.eval", RadiusProfile, "eval", False),
    ("RadiusProfile.radius", RadiusProfile, "radius", False),
    ("RadiusProfile.d_radius", RadiusProfile, "d_radius", False),
    ("RadiusProfile.dd_radius", RadiusProfile, "dd_radius", False),
    ("RadiusProfile.dd_radius_sq", RadiusProfile, "dd_radius_sq", False),
)

PROFILE_METHODS = tuple(name for name, owner, _, _ in BOUNDARIES if owner is RadiusProfile)

_ROOT = "<root>"


def boundary_names() -> list[str]:
    """Every label a boundary records under."""
    names = []
    for name, _, _, _ in BOUNDARIES:
        names += [name] if isinstance(name, str) else ["bmap.forward_time.cold",
                                                        "bmap.forward_time.warm"]
    return names


def library_modules():
    """Every loaded module of the library package."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "breathing_billiard"
                                    or name.startswith("breathing_billiard."))]


class Tracer:
    """Spans and per-(boundary, parent) aggregates of one traced pass.

    Use as a context manager: entering patches every boundary, leaving
    restores the original objects.  ``section`` switches the aggregate table,
    so that correctness checks do not mix into the task figures.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.sections: dict[str, dict] = {}
        self.agg: dict = self.section("tasks")
        self.task_id = None
        self._stack = [[_ROOT, 0.0, -1]]  # [name, child busy time, span id]
        self._patched: list[tuple[object, str, object]] = []

    def section(self, name: str) -> dict:
        self.agg = self.sections.setdefault(name, {})
        return self.agg

    def _wrap(self, name, fn, span):
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        namer = name if callable(name) else None

        def traced(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            top = stack[-1]
            if top[0] == label:
                return fn(*args, **kwargs)
            span_id = len(tracer.spans) if span else top[2]
            if span:
                tracer.spans.append(None)  # reserve the id; filled on exit
            frame = [label, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                busy = end - start
                top[1] += busy
                key = (label, top[0])
                rec = tracer.agg.get(key)
                if rec is None:
                    rec = tracer.agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += busy
                rec[2] += frame[1]
                if span:
                    tracer.spans[span_id] = (label, start, end, top[2], tracer.task_id)

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = library_modules()
        for name, owner, attr, span in BOUNDARIES:
            if owner is RadiusProfile:
                original = owner.__dict__[attr]
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, span))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def task(self, task_id, fn, *args):
        """Run one task under a task span."""
        self.task_id = task_id
        frame = ["task", 0.0, len(self.spans)]
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[frame[2]] = ("task", start, end, parent[2], task_id)
            self.task_id = None


def totals(agg: dict, name: str) -> tuple[int, float, float]:
    """(calls, busy_s, self_s) of one boundary summed over its parents."""
    calls = busy = child = 0.0
    for (label, _), (n, b, c) in agg.items():
        if label == name:
            calls += n
            busy += b
            child += c
    return int(calls), busy, busy - child


def calls_under(agg: dict, name: str, parents) -> int:
    return sum(rec[0] for (label, parent), rec in agg.items()
               if label == name and parent in parents)


def _ratio(num, den):
    return num / den if den else 0.0


SOLVES = ("bmap.forward_time.cold", "bmap.forward_time.warm", "bmap.backward",
          "search.solve_monotone")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit).

    A ratio whose base is zero (the layer did not run on this workload) is
    reported as 0.
    """
    agg = tracer.sections.get("tasks", {})
    out: dict[str, tuple[float, str]] = {}

    def put(metric, value, unit):
        out[metric] = (value, unit)

    def calls_busy_self(name, stats):
        calls, busy, self_s = totals(agg, name)
        values = {"calls": (calls, "count"), "busy_s": (busy, "s"), "self_s": (self_s, "s")}
        for stat in stats:
            put(f"{name}.{stat}", *values[stat])

    calls_busy_self("radius.find_member", stats=("calls", "busy_s"))
    calls_busy_self("radius.bounds", stats=("calls", "busy_s"))
    calls_busy_self("radius.classify", stats=("calls",))
    put("radius.profile_evals",
        sum(totals(agg, name)[0] for name in PROFILE_METHODS), "count")
    calls_busy_self("search.circle_sup", stats=("busy_s",))

    calls_busy_self("bmap.forward_time.cold", stats=("calls", "busy_s"))
    calls_busy_self("bmap.backward", stats=("calls", "busy_s"))
    calls_busy_self("search.solve_monotone", stats=("calls",))
    calls_busy_self("chaoscert.certify", stats=("calls", "busy_s"))
    calls_busy_self("chaoscert.a_exact", stats=("calls", "busy_s"))
    put("chaoscert.c0_search.certify_per_search",
        _ratio(calls_under(agg, "chaoscert.certify", ("chaoscert.c0_search",)),
               totals(agg, "chaoscert.c0_search")[0]), "ratio")
    solves = sum(totals(agg, name)[0] for name in SOLVES[:3])
    put("bmap.grad_h_per_solve",
        _ratio(calls_under(agg, "genfun.grad_h", SOLVES), solves), "ratio")

    warm = totals(agg, "bmap.forward_time.warm")[0]
    calls_busy_self("bmap.forward_time.warm", stats=("calls", "busy_s"))
    put("bmap.forward_time.warm_hit_ratio",
        _ratio(warm - calls_under(agg, "search.solve_monotone",
                                  ("bmap.forward_time.warm",)), warm), "ratio")
    calls_busy_self("bmap.jacobian", stats=("calls", "self_s"))
    calls_busy_self("flight.make_segment", stats=("calls", "self_s"))
    calls_busy_self("simulate.run", stats=("busy_s",))
    calls_busy_self("chaoscert.lyapunov", stats=("busy_s",))

    calls_busy_self("genfun.h", stats=("calls", "self_s"))
    calls_busy_self("search.golden_max", stats=("calls", "busy_s"))
    calls_busy_self("aubry.periodic_orbit", stats=("calls", "busy_s"))
    put("aubry.h_calls_per_orbit",
        _ratio(totals(agg, "genfun.h")[0], totals(agg, "aubry.periodic_orbit")[0]), "ratio")

    calls_busy_self("genfun.grad_h", stats=("calls", "self_s"))
    calls_busy_self("genfun.hess_h", stats=("calls", "self_s"))
    calls_busy_self("genfun.make_context", stats=("busy_s",))

    check = tracer.sections.get("check", {})
    put("cli.main.busy_s", totals(check, "cli.main")[1], "s")
    return out
