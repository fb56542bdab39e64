"""Benchmark of the breathing-billiard toolkit: certify, chaos_orbits, minimal_orbits.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One workload runs in this process; ``all`` runs each workload in a fresh
child process, one after another.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("certify", "chaos_orbits", "minimal_orbits")

# single-threaded numerics: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["BB_THREADS"] = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="nominal length of the measured task loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full results as JSON to this path")
    return parser.parse_args(argv)


def import_library() -> None:
    """Import the library from src/ of this checkout, and nothing else."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import bench  # noqa: F401  (imports numpy and the whole library)
        import breathing_billiard
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the library from {SRC}: {exc}")
    if Path(breathing_billiard.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported {breathing_billiard.__file__}, not the copy in {SRC}")


def report(res: dict) -> None:
    d = res["detail"]
    print(f"perfbench workload={res['workload']} seed={res['seed']} "
          f"seconds={res['seconds']:g} trace={int(res['trace'])}")
    print("env " + " ".join(f"{k}={v}" for k, v in d["env"].items()))
    for name, m in res["metrics"].items():
        note = ""
        if name == "task_s_tail":
            note = f"  (p{d['task_tail_percentile']} of {d['tasks_timed']} tasks)"
        elif name == "step_us_tail":
            note = f"  (p{d['step_tail_percentile']} of {d['step_units']} step units)"
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    print("work " + " ".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                             for k, v in d["work"].items()))
    print(f"failed_frac = {d['failed_frac']:g} ({res['failed']} of {res['attempted']} tasks)")
    print(d["cli"])
    for line in d["failures"]:
        print("FAILED " + line.replace("\n", " | "))


def run_one(args) -> int:
    import_library()
    import bench

    res = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    res["detail"]["env"] = bench.environment()
    spans = res.pop("spans", None)
    if spans is not None:
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(path, "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        res["detail"]["spans_file"] = str(path.relative_to(ROOT))
    report(res)
    print("detail " + json.dumps(res["detail"], sort_keys=True))
    if args.out:
        args.out.write_text(json.dumps(res, indent=2, sort_keys=True) + "\n")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so imports and caches do not carry over."""
    runs = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("detail ")))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        result["workload"] = name
        result["detail"] = next(json.loads(line[len("detail "):]) for line in lines
                                if line.startswith("detail "))
        runs.append(result)
    if args.out:
        args.out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                                        "trace": args.trace, "runs": runs},
                                       indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {f"{r['workload']}.{k}": v for r in runs for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
