"""Minimal-orbit report between two source trees.

    python3 tools/orbit_gate.py OLD_SRC NEW_SRC

Runs the gate set of minimal orbits with PYTHONPATH=OLD_SRC and then with
PYTHONPATH=NEW_SRC, each tree in a fresh process.  The gate set lives on
the member find_member(1, 0.05, 0.5, min_window=1.0) at c = 1: every
convergent p/q with q <= 34 and 1 < p/q < sigma - 1 of omega = n + the
golden mean, for n in N_SET, each by periodic_orbit(ctx, p, q, starts=8,
seed=0).  That is 72 orbits.  Prints one line per orbit with its status in
both trees, the relative change of its action and the largest change of
its times, and exits 1 if a status changes or an action moves by more
than the new tree's aubry._TIE_RTOL.  A second tree to compare against is
made as for tools/cli_identity.py.  This is a script, not a test module:
pytest does not collect it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

N_SET = (3, 8, 16, 20, 24, 28, 31, 34)
DENOM_CAP = 34


def gate_set() -> dict:
    """The gate set's orbits in the tree on sys.path, with its tie tolerance."""
    import math

    from breathing_billiard import aubry, genfun, radius
    from breathing_billiard.errors import ConvergenceError

    mean, _ = radius.find_member(1, 0.05, 0.5, min_window=1.0)
    ctx = genfun.make_context(radius.family_profile(1, 0.05, mean), 1.0, 0.5)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    orbits = []
    for n in N_SET:
        for p, q in aubry.convergents(n + golden, DENOM_CAP):
            if not 1.0 < p / q < ctx.sigma - 1.0:
                continue
            try:
                orbit = aubry.periodic_orbit(ctx, p, q, starts=8, seed=0)
                row = {"status": "converged", "action": orbit.action,
                       "times": list(orbit.times)}
            except ConvergenceError as err:
                row = {"status": "no convergence",
                       "best_residual": err.diagnostics["best_residual"]}
            orbits.append({"p": p, "q": q, **row})
    return {"tie_rtol": aubry._TIE_RTOL, "orbits": orbits}


def run(src: str) -> dict:
    """gate_set() of the tree src, computed in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    proc = subprocess.run([sys.executable, __file__, "--child"], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def status(row: dict) -> str:
    if row["status"] == "converged":
        return "converged"
    return f"{row['status']} (best residual {row['best_residual']:.4e})"


def main(argv: list[str]) -> int:
    if argv == ["--child"]:
        print(json.dumps(gate_set()))
        return 0
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 64
    old, new = run(argv[0]), run(argv[1])
    tie_rtol = new["tie_rtol"]
    keys = [(o["p"], o["q"]) for o in old["orbits"]]
    if keys != [(o["p"], o["q"]) for o in new["orbits"]]:
        print("the trees run different gate sets")
        return 1
    failing = 0
    for a, b in zip(old["orbits"], new["orbits"]):
        line = f"({a['p']}, {a['q']}): {status(a)} -> {status(b)}"
        bad = a["status"] != b["status"]
        if a["status"] == b["status"] == "converged":
            d_action = abs(b["action"] - a["action"]) / abs(a["action"])
            d_times = max(abs(x - y) for x, y in zip(a["times"], b["times"]))
            bad = d_action > tie_rtol
            line += f", rel d_action {d_action:.2e}, max |d_times| {d_times:.2e}"
        failing += bad
        print(line + (", FAILS" if bad else ""))
    print(f"{failing} of {len(keys)} orbits fail: a changed status or an action "
          f"moved by more than {tie_rtol}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
