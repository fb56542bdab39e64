"""One measured run of one workload, in the calling process.

``measure`` times the workload's set-up in fresh interpreters (median
reported), runs its seeded task list untraced in ``workload.passes`` passes
(a task's time is its mean over the passes; every pass must give
bit-identical outputs), checks every task's output outside the timed regions
and repeats one equivalent CLI call twice for byte identity.  With ``trace`` it runs a
quarter of the list once untraced and once traced, compares the two passes'
outputs bit for bit and reports per-layer figures and the tracing overhead
instead of the end-to-end metrics.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from breathing_billiard import bmap, cli

import tracer as tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
TRACE_SHARE = 4  # the traced run covers 1/TRACE_SHARE of the task list
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it

END_TO_END_UNITS = {
    "setup_s": "s",
    "task_s_p50": "s",
    "task_s_tail": "s",
    "tasks_per_s": "1/s",
    "step_us_p50": "us",
    "step_us_tail": "us",
    "map_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def tail_percentile(n: int) -> int:
    """Highest integer percentile with at least TAIL_BEYOND of n samples above
    it (nearest rank); the median when n is too small for a tail."""
    return max(50, (100 * (n - TAIL_BEYOND)) // n) if n else 50


def percentile(values, p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def task_count(workload, seconds: float) -> int:
    """Tasks in one run: sized from a nominal task cost so that all passes of
    a run take about `seconds` on the reference machine, and fixed for a
    given (seed, seconds) so that work counts repeat exactly."""
    return max(2, round(seconds / (workload.passes * workload.nominal_task_s)))


def run_pass(workload, state, tasks, check, tracer=None):
    """Closed loop over the task list.  Returns (results, failures), where
    results[i] is None for a task that raised."""
    bmap.sigma_star.cache_clear()  # every pass starts from the same cache state
    results, failures = [], []
    for i, task in enumerate(tasks):
        try:
            if tracer is None:
                res = workload.run(state, task, check)
            else:
                res = tracer.task(i, workload.run, state, task, check)
        except Exception:  # a failing task is counted, the loop goes on
            failures.append((i, traceback.format_exc(limit=3)))
            results.append(None)
            continue
        if res.problems:
            failures.append((i, "; ".join(res.problems)))
        results.append(res)
    return results, failures


def differing(results, again) -> list[int]:
    """Tasks that raised in either execution of one task list, or whose
    outputs differ between the two executions."""
    return [i for i, (a, b) in enumerate(zip(results, again))
            if a is None or b is None or a.digest != b.digest]


def mean_of_passes(passes):
    """Per task, the mean time of its executions in all passes.  The first
    pass's results carry the merged times; tasks whose outputs differ
    between passes keep their first-pass time and are returned as
    mismatched."""
    merged, mismatched = passes[0], set()
    for again in passes[1:]:
        mismatched.update(differing(merged, again))
    for i, runs in enumerate(zip(*passes)):
        if i in mismatched:
            continue
        merged[i].wall_s = statistics.fmean(r.wall_s for r in runs)
        merged[i].units = [(statistics.fmean(wall for wall, _ in unit), unit[0][1])
                           for unit in zip(*(r.units for r in runs))]
    return merged, sorted(mismatched)


def cli_identical(workload, state, tasks, results) -> tuple[bool, str]:
    """Run the workload's equivalent CLI call twice; outputs must be equal bytes."""
    argv = workload.cli_args(state, tasks, results)
    os.environ["BB_THREADS"] = "1"
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        outputs = []
        for i in range(2):
            path = Path(tmp) / f"out{i}.json"
            code = cli.main(argv + ["--out", str(path)])
            if code != 0:
                return False, f"cli {argv[0]} exited with {code}"
            outputs.append(path.read_bytes())
    if outputs[0] != outputs[1]:
        return False, f"cli {argv[0]} output differs between two identical calls"
    return True, f"cli {argv[0]}: {len(outputs[0])} identical bytes"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(results, setup_s, passes) -> tuple[dict, dict]:
    done = [r for r in results if r is not None]
    walls = [r.wall_s for r in done]
    units = [wall / steps * 1e6 for r in done for wall, steps in r.units]
    task_p = tail_percentile(len(walls))
    step_p = tail_percentile(len(units))
    busy = sum(walls)
    steps = sum(r.steps for r in done)
    values = {
        "setup_s": setup_s,
        "task_s_p50": percentile(walls, 50),
        "task_s_tail": percentile(walls, task_p),
        "tasks_per_s": len(walls) / busy,
        "step_us_p50": percentile(units, 50),
        "step_us_tail": percentile(units, step_p),
        "map_steps_per_s": steps / busy,
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {"task_tail_percentile": task_p, "tasks_timed": len(walls), "passes": passes,
              "step_tail_percentile": step_p, "step_units": len(units),
              "task_time_s": busy}
    return values, detail


def work_counts(results) -> dict:
    done = [r for r in results if r is not None]
    certifies = [r.certifies for r in done if r.certifies]
    lyapunov_runs = sum(r.lyapunov_runs for r in done)
    return {
        "tasks": len(results),
        "map_steps": sum(r.steps for r in done),
        "step_units": sum(len(r.units) for r in done),
        "truncated_orbits": sum(r.truncated for r in done),
        "certify_per_search": (sum(certifies) / len(certifies)) if certifies else 0.0,
        "lyapunov_truncated_ratio": (sum(r.lyapunov_truncated for r in done) / lyapunov_runs
                                     if lyapunov_runs else 0.0),
        "lyapunov_steps": sum(r.lyapunov_steps for r in done),
        "simulate_steps": sum(r.simulate_steps for r in done),
    }


def fresh_setup_s(name: str, seed: int, n: int) -> float:
    """Seconds from a fresh interpreter to the first task: imports, the
    workload's set-up and its inputs.  Each repeat is a new process, so no
    import or cache carries over."""
    code = (f"import sys, time; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; "
            "start = time.perf_counter(); import workloads; "
            f"w = workloads.WORKLOADS[{name!r}]; w.inputs(w.setup(), {seed}, {n}); "
            "print(time.perf_counter() - start)")
    return float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                check=True, timeout=120).stdout.split()[-1])


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    n = task_count(workload, seconds)
    if trace:
        n = max(1, math.ceil(n / TRACE_SHARE))
    setup_times = [] if trace else [fresh_setup_s(name, seed, n) for _ in range(SETUP_REPEATS)]
    state = workload.setup()
    tasks = workload.inputs(state, seed, n)

    results, failures = run_pass(workload, state, tasks, check=True)
    ok_cli, cli_note = False, "not run: no task completed"
    out = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}

    if trace:
        # overhead compares the timed regions only; checks run in the untraced pass
        untraced_s = sum(r.wall_s for r in results if r is not None)
        with tracing.Tracer() as tr:
            traced, traced_failures = run_pass(workload, state, tasks, check=False, tracer=tr)
            tr.section("check")
            if results and results[0] is not None:
                ok_cli, cli_note = cli_identical(workload, state, tasks, results)
        traced_s = sum(r.wall_s for r in traced if r is not None)
        mismatched = differing(results, traced)
        failures += traced_failures + [(i, "output differs between untraced and traced pass")
                                       for i in mismatched]
        layers = tracing.layer_metrics(tr)
        counts = work_counts(traced)
        layers.update({
            "chaoscert.lyapunov.truncated_ratio": (counts["lyapunov_truncated_ratio"], "ratio"),
            "chaoscert.lyapunov.steps": (counts["lyapunov_steps"], "count"),
            "simulate.run.steps": (counts["simulate_steps"], "count"),
            "work.tasks": (counts["tasks"], "count"),
            "work.map_steps": (counts["map_steps"], "count"),
            "work.truncated_orbits": (counts["truncated_orbits"], "count"),
            "trace.overhead_s": (traced_s - untraced_s, "s"),
            "trace.overhead_frac": ((traced_s - untraced_s) / untraced_s, "ratio"),
        })
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        calls = {name: tracing.totals(tr.sections["tasks"], name)[0]
                 for name in tracing.boundary_names()}
        calls["cli.main"] = tracing.totals(tr.sections.get("check", {}), "cli.main")[0]
        out["detail"] = {"work": counts, "mismatched_tasks": mismatched, "calls": calls,
                         "untraced_s": untraced_s, "traced_s": traced_s,
                         "spans": len(tr.spans)}
        out["spans"] = tr.spans
    else:
        passes = [results]
        for _ in range(workload.passes - 1):
            again, again_failures = run_pass(workload, state, tasks, check=False)
            passes.append(again)
            failures += again_failures
        results, mismatched = mean_of_passes(passes)
        failures += [(i, "output differs between passes") for i in mismatched]
        if results and results[0] is not None:
            ok_cli, cli_note = cli_identical(workload, state, tasks, results)
        values, detail = end_to_end(results, statistics.median(setup_times), workload.passes)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        detail["work"] = work_counts(results)
        detail["setup_repeats_s"] = setup_times
        out["detail"] = detail
    failed = len({i for i, _ in failures})
    out["detail"]["cli"] = cli_note
    out["detail"]["failures"] = [f"task {i}: {msg}" for i, msg in failures]
    out["detail"]["failed_frac"] = failed / len(tasks)
    out.update(correct=bool(failed == 0 and ok_cli), attempted=len(tasks), failed=failed,
               metrics=metrics)
    return out


def environment() -> dict:
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {"commit": commit, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
