"""One record of the reproduction's outputs, and the comparison of two.

    python3 tools/record.py SRC > tests/record.json    # the record of a tree
    python3 tools/record.py OLD_SRC NEW_SRC            # two trees compared

A tree's record is computed in one fresh process with PYTHONPATH=SRC.  It
holds per config of CONFIGS the exit code of cli.main(argv), run in a fresh
temporary directory, and sha256 digests of its stdout, its stderr and each
file it wrote.  In-process runs give the bytes of one process per config:
cli fixes prog, and the calls share only bmap.sigma_star's lru_cache of a
pure function.  Per orbit of the gate set it holds the status, action and
times, or the best residual of an orbit that did not converge: each
convergent p/q with q <= DENOM_CAP and 1 < p/q < sigma - 1 of n + the golden
mean, n in N_SET, by periodic_orbit(ctx, p, q, starts=8, seed=0) on the
member find_member(1, 0.05, 0.5, min_window=1.0) at c = 1.  That is 72 orbits.

Two trees compared print a line per config and per orbit, and exit 1 if a
config differs, or an orbit changes status or moves its action by more than
the new tree's aubry._TIE_RTOL.  tests/test_record.py applies that rule to
the tree under test and tests/record.json.  A tree to compare against:
`git archive HEAD~1 | tar -x -C /tmp/parent`, then pass /tmp/parent/src.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONST = '{"mean": 1, "harmonics": []}'
REF = '{"mean": 9000, "harmonics": [[1, 0.05]]}'
# find_member(1, 0.05, 0.5, min_window=1.0)
MEMBER = '{"mean": 754.0403145397167, "harmonics": [[1, 0.05]]}'
TWO = '{"mean": 177.0, "harmonics": [[5, 0.0035], [1, 0.0035]]}'
# find_member(5, 0.01, 0.5); its certificate at c = 0.9 c_max clamps the K range
CLAMPED = '{"mean": 225.0811595675279, "harmonics": [[5, 0.01], [1, 0.01]]}'
# top harmonic 40: its root grid has 32 * 40 = 1280 points, past the floor of 1024
HIGH = '{"mean": 1e6, "harmonics": [[40, 0.001], [1, 0.01]]}'
# roots of Rdot whose rounding comes mostly from the arguments w t of its terms
ROUNDED_ARGS = ('{"mean": 21.39621944108136, "harmonics": [[88, 0.0006474653707743254], '
                '[165, 0.0057492653878457225], [192, -0.00462800911803962]]}')
# odd about t = 1/2: its strongest stationary pair t = 0.2094 and 0.7906 ties in
# |Rddot|, and at eps 0.5 the verdict is R with no witness
MIRROR_TIE = ('{"mean": 68.8594919076202, "harmonics": [[6, 0.00808371426758667], '
              '[1, 0.00808371426758667]]}')
HUGE = str(2 ** 62)  # a grid count numpy refuses without allocating
# two amplitudes of one frequency that cancel: R is the constant 2
CANCELLING = '{"mean": 2, "harmonics": [[1, 0.1], [1, -0.1]]}'
# three amplitudes of one frequency that cancel up to rounding: also constant
ROUNDING_CONSTANT = '{"mean": 2, "harmonics": [[1, 0.1], [1, 0.2], [1, -0.30000000000000004]]}'
# R^4 underflows: the class chain divided by 0
TINY = '{"mean": 1e-200, "harmonics": [[1, 1e-201]]}'

CONFIGS = [
    ("classify-member", ["classify", "--profile", REF]),
    ("classify-constant", ["classify", "--profile", CONST, "--eps", "0.3"]),
    # a multi-root profile: every witness time and the strongest one's margins
    ("classify-two-harmonic", ["classify", "--profile", TWO]),
    ("find-member", ["find-member", "--k", "1", "--delta", "0.05", "--min-window", "1.0"]),
    # the two-harmonic family: 16 stationary points per member
    ("find-member-two-harmonic", ["find-member", "--k", "8", "--delta", "0.01"]),
    ("flight-csv", ["flight", "--profile", REF, "--c", "1", "--t0", "0.1", "--t1", "50",
                    "--dt", "1.0", "--csv", "flight.csv"]),
    # the curvature limit (130.4) fails: the report reads ok: false
    ("flight-window-fails", ["flight", "--profile", REF, "--c", "1", "--t0", "0",
                             "--t1", "200"]),
    ("flight-constant", ["flight", "--profile", CONST, "--c", "0.1", "--t0", "0",
                         "--t1", "1"]),
    ("map-ref", ["map", "--profile", REF, "--c", "1", "--t0", "0.2", "--K", "13500"]),
    ("map-ref-inverse", ["map", "--profile", REF, "--c", "1", "--t0", "0.2", "--K", "13500",
                         "--inverse"]),
    ("map-member", ["map", "--profile", MEMBER, "--c", "1", "--t0", "0.3", "--K", "1100"]),
    ("map-member-inverse", ["map", "--profile", MEMBER, "--c", "1", "--t0", "0.3",
                            "--K", "1100", "--inverse"]),
    ("map-constant", ["map", "--profile", CONST, "--c", "0", "--sigma", "4", "--t0", "0",
                      "--K", "2"]),
    ("map-two-harmonic", ["map", "--profile", TWO, "--c", "0.5", "--t0", "0.1",
                          "--K", "400"]),
    ("map-domain-error", ["map", "--profile", CONST, "--c", "0", "--sigma", "4", "--t0", "0",
                          "--K", "0.01"]),
    ("map-K-1e22", ["map", "--profile", REF, "--c", "1", "--t0", "0.3", "--K", "1e22"]),
    ("simulate-csv", ["simulate", "--profile", REF, "--c", "1", "--t0", "0.2", "--K", "13500",
                      "--n", "50", "--dt", "5.0", "--bounces-csv", "bounces.csv",
                      "--trajectory-csv", "trajectory.csv"]),
    ("simulate-constant", ["simulate", "--profile", CONST, "--c", "0", "--sigma", "4",
                           "--t0", "0", "--K", "2", "--n", "5"]),
    ("lyapunov-single", ["lyapunov", "--profile", REF, "--c", "1", "--n", "500", "--seed", "0",
                         "--t0", "0.1", "--K", "13500"]),
    ("lyapunov-seeds", ["lyapunov", "--profile", REF, "--c", "1", "--n", "300", "--seeds", "3",
                        "--seed", "1", "--k-lo", "13000", "--k-hi", "14000"]),
    ("lyapunov-constant-table", ["lyapunov", "--profile", CONST, "--c", "0.05", "--sigma", "4",
                                 "--n", "300", "--seeds", "3", "--seed", "1", "--k-lo", "1",
                                 "--k-hi", "3"]),
    ("portrait-constant", ["portrait", "--profile", CONST, "--c", "0.05", "--sigma", "4",
                           "--t-count", "4", "--k-count", "3", "--k-hi", "3", "--n", "20",
                           "--csv", "portrait.csv"]),
    ("portrait-ref", ["portrait", "--profile", REF, "--c", "1", "--t-count", "3",
                      "--k-count", "2", "--k-lo", "13000", "--k-hi", "14000", "--n", "20",
                      "--csv", "portrait.csv"]),
    ("certify-csv", ["certify", "--profile", REF, "--c", "1", "--omega-grid", "7",
                     "--k-samples", "33", "--csv", "a_grid.csv"]),
    ("certify-refused-class", ["certify", "--profile", CONST, "--c", "0.01",
                               "--csv", "a_grid.csv"]),
    ("c0", ["c0", "--profile", REF, "--iters", "3", "--omega-grid", "5", "--k-samples", "17"]),
    ("orbit-csv", ["orbit", "--profile", REF, "--c", "1", "--p", "219", "--q", "2",
                   "--starts", "4", "--seed", "0", "--csv", "orbit.csv"]),
    # no start converges next to an invariant circle (ROADMAP item 1): exit 2
    # with the start loop's diagnostics; the output changes when that is mended
    ("orbit-no-convergence", ["orbit", "--profile", MEMBER, "--c", "1", "--p", "565",
                              "--q", "34", "--starts", "8", "--seed", "0"]),
    # the member's sweeps and polish, converged: a (p, q) of the rotation
    # window, and an omega about 0.2 / q^2 above 664/21, its last convergent with q <= 21
    ("orbit-member", ["orbit", "--profile", MEMBER, "--c", "1", "--p", "664", "--q", "21",
                      "--starts", "8", "--seed", "0"]),
    ("hull-member", ["hull", "--profile", MEMBER, "--c", "1", "--omega", "31.6195",
                     "--denom-cap", "21", "--starts", "8", "--seed", "0"]),
    ("orbit-out-of-window", ["orbit", "--profile", CONST, "--c", "0", "--sigma", "4",
                             "--p", "1", "--q", "2", "--seed", "0"]),
    ("hull-csv", ["hull", "--profile", REF, "--c", "1", "--omega", "109.61803398875",
                  "--denom-cap", "8", "--starts", "4", "--seed", "0", "--csv", "hull.csv"]),
    ("malformed-literal", ["classify", "--profile", "{oops"]),
    ("usage-error", ["classify", "--profile", CONST, "--bogus"]),
    ("negative-mean", ["classify", "--profile", '{"mean": -1, "harmonics": []}']),
    ("flight-t1-equals-t0", ["flight", "--profile", CONST, "--c", "0.1", "--t0", "1",
                             "--t1", "1"]),
    ("flight-degenerate-window", ["flight", "--profile", REF, "--c=-1e6", "--t0", "0",
                                  "--t1", "300"]),
    ("whole-float-frequency", ["classify", "--profile",
                               '{"mean": 754, "harmonics": [[1.0, 0.05]]}']),
    # the choice of p/q: a rational omega, its refusals, and the certificate's refusals
    ("hull-rational-csv", ["hull", "--profile", CONST, "--c", "0", "--sigma", "8",
                           "--omega", "2.5", "--denom-cap", "8", "--starts", "4",
                           "--seed", "1", "--csv", "hull.csv"]),
    ("hull-denom-cap-0", ["hull", "--profile", CONST, "--c", "0", "--sigma", "8",
                          "--omega", "2.5", "--denom-cap", "0", "--seed", "1"]),
    ("hull-out-of-window", ["hull", "--profile", CONST, "--c", "0", "--sigma", "8",
                            "--omega", "9.5", "--seed", "1"]),
    ("certify-refused-momentum", ["certify", "--profile", REF, "--c", "1e9",
                                  "--csv", "a_grid.csv"]),
    ("certify-clamped", ["certify", "--profile", CLAMPED, "--c", "2519.97",
                         "--omega-grid", "7", "--k-samples", "33", "--csv", "a_grid.csv"]),
    # a non-number momentum and an infinite flight time are rejected by name
    ("flight-c-nan", ["flight", "--profile", MEMBER, "--c", "nan", "--t0", "0", "--t1", "1"]),
    ("flight-t1-inf", ["flight", "--profile", MEMBER, "--c", "0", "--t0", "0", "--t1", "inf"]),
    ("flight-t1-inf-c1", ["flight", "--profile", MEMBER, "--c", "1", "--t0", "0",
                          "--t1", "inf"]),
    ("flight-t1-inf-constant", ["flight", "--profile", CONST, "--c", "0", "--t0", "0",
                                "--t1", "inf"]),
    ("map-c-nan", ["map", "--profile", MEMBER, "--c", "nan", "--t0", "0.3", "--K", "1100"]),
    ("simulate-c-nan", ["simulate", "--profile", MEMBER, "--c", "nan", "--t0", "0.3",
                        "--K", "1100", "--n", "3"]),
    ("find-member-min-window-nan", ["find-member", "--k", "1", "--delta", "0.05",
                                    "--min-window", "nan"]),
    # the one map solve: the inverse from a lifted time and with no preimage,
    # and the domain check of an orbit's initial state
    ("map-member-inverse-lifted", ["map", "--profile", MEMBER, "--c", "1", "--t0", "1234.3",
                                   "--K", "1100", "--inverse"]),
    ("map-inverse-no-preimage", ["map", "--profile", MEMBER, "--c", "1", "--t0", "0.3",
                                 "--K", "500", "--inverse"]),
    # radial velocities from a lift far from 0: read at the phase in [0, 1)
    ("map-member-lifted", ["map", "--profile", MEMBER, "--c", "1", "--t0", "1e15",
                           "--K", "1100"]),
    # a lift with no fraction digits left: the step is still taken from its phase
    ("map-member-2p52", ["map", "--profile", MEMBER, "--c", "1", "--t0", str(2 ** 52),
                         "--K", "1100"]),
    ("simulate-below-domain", ["simulate", "--profile", MEMBER, "--c", "1", "--t0", "0.3",
                               "--K", "500", "--n", "3"]),
    # the context's momentum check, whose eps is read off the profile bounds
    ("map-c-above-cmax", ["map", "--profile", MEMBER, "--c", "1e6", "--t0", "0.3",
                          "--K", "1100"]),
    # every grid is sized from the top harmonic
    ("classify-high-harmonic", ["classify", "--profile", HIGH]),
    # numeric inputs refused by name: a profile whose norms overflow when
    # squared, an infinite K band, a dt past the row cap of the flight
    # samples, and a CSV path under a directory that does not exist
    ("classify-overflow", ["classify", "--profile",
                           '{"mean": 1e308, "harmonics": [[1, 1e307]]}']),
    ("lyapunov-infinite-band", ["lyapunov", "--profile", MEMBER, "--c", "1", "--n", "5",
                                "--seed", "0", "--seeds", "2", "--k-lo", "1",
                                "--k-hi", "inf"]),
    ("simulate-row-cap", ["simulate", "--profile", MEMBER, "--c", "1", "--t0", "0.3",
                          "--K", "1100", "--n", "3", "--dt", "1e-300",
                          "--trajectory-csv", "trajectory.csv"]),
    ("portrait-csv-missing-dir", ["portrait", "--profile", CONST, "--c", "0.05",
                                  "--sigma", "4", "--t-count", "1", "--k-count", "1",
                                  "--k-hi", "3", "--n", "2", "--csv", "missing/portrait.csv"]),
    # the noise of the stationary-point solve includes the argument rounding
    ("classify-rounded-args", ["classify", "--profile", ROUNDED_ARGS,
                               "--eps", "0.062226760471634626"]),
    # a verdict without a witness reports the earlier point of a tied pair
    ("classify-mirror-tie", ["classify", "--profile", MIRROR_TIE, "--eps", "0.5"]),
    # grid counts past 2^20 points are refused before any array is built
    ("certify-k-samples-huge", ["certify", "--profile", MEMBER, "--c", "1",
                                "--k-samples", HUGE]),
    ("certify-omega-grid-huge", ["certify", "--profile", MEMBER, "--c", "1",
                                 "--omega-grid", HUGE]),
    ("c0-k-samples-huge", ["c0", "--profile", MEMBER, "--k-samples", HUGE]),
    ("portrait-t-count-huge", ["portrait", "--profile", CONST, "--c", "0.05", "--sigma", "4",
                               "--t-count", HUGE, "--k-hi", "3", "--csv", "portrait.csv"]),
    ("portrait-k-count-huge", ["portrait", "--profile", CONST, "--c", "0.05", "--sigma", "4",
                               "--k-count", HUGE, "--k-hi", "3", "--csv", "portrait.csv"]),
    # a run that fails leaves none of its outputs, whichever write fails
    ("orbit-out-missing-dir", ["orbit", "--profile", CONST, "--c", "0", "--sigma", "4",
                               "--p", "3", "--q", "2", "--starts", "2", "--seed", "0",
                               "--csv", "orbit.csv", "--out", "missing/x.json"]),
    ("portrait-out-missing-dir", ["portrait", "--profile", CONST, "--c", "0.05",
                                  "--sigma", "4", "--t-count", "2", "--k-count", "2",
                                  "--k-hi", "3", "--n", "3", "--csv", "portrait.csv",
                                  "--out", "missing/x.json"]),
    ("simulate-trajectory-missing-dir", ["simulate", "--profile", CONST, "--c", "0",
                                         "--sigma", "4", "--t0", "0", "--K", "2", "--n", "3",
                                         "--bounces-csv", "b.csv",
                                         "--trajectory-csv", "missing/t.csv"]),
    # cancelling amplitudes read as the constant profile; a finite flight
    # time whose phase overflows; a negative iters; a bisection that reaches
    # the float resolution of its momenta and stops there
    ("classify-cancelling-harmonics", ["classify", "--profile", CANCELLING]),
    ("flight-phase-overflow", ["flight", "--profile", MEMBER, "--c", "0", "--t0", "0",
                               "--t1", "1e308"]),
    ("c0-negative-iters", ["c0", "--profile", MEMBER, "--iters", "-1"]),
    ("c0-iters-past-resolution", ["c0", "--profile", CLAMPED, "--iters", "80"]),
    # refused as a constant profile, not certified on roots of rounding noise
    ("certify-rounding-constant", ["certify", "--profile", ROUNDING_CONSTANT, "--eps", "0.5",
                                   "--c", "1e-12"]),
    # tiny inputs whose squares underflow are refused by name: a profile with
    # R^4 below the least normal float, a working sigma whose edge action
    # 2 R^2 / sigma^2 overflows, and a flight whose A overflows
    ("classify-profile-too-small", ["classify", "--profile", TINY]),
    ("map-sigma-too-small", ["map", "--profile", MEMBER, "--c", "1", "--t0", "0.3",
                             "--K", "1100", "--sigma", "1e-200"]),
    ("flight-too-short", ["flight", "--profile", MEMBER, "--c", "0", "--t0", "0",
                          "--t1", "1e-160"]),
    # q past 1024, whose q * q passes 2^20 (a cap on the sweeps' run time), is
    # refused before the first sweep: asked for directly, and as the last
    # convergent 2051/1025 of omega
    ("orbit-q-huge", ["orbit", "--profile", CONST, "--c", "0", "--sigma", "4", "--p", "2049",
                      "--q", "1025", "--starts", "1", "--seed", "0"]),
    ("hull-denom-cap-huge", ["hull", "--profile", CONST, "--c", "0", "--sigma", "8",
                             "--omega", "2.0009756097560976", "--denom-cap", "1025",
                             "--starts", "1", "--seed", "0"]),
    # rows held in memory past the 2^20 cap are refused by the count asked
    # for, before the first step: here every state lies below the map domain
    ("portrait-rows-huge", ["portrait", "--profile", CONST, "--c", "0.05", "--sigma", "4",
                            "--t-count", "1", "--k-count", "1", "--k-lo", "0.01",
                            "--k-hi", "0.02", "--n", "1048577", "--csv", "portrait.csv"]),
    ("simulate-n-huge", ["simulate", "--profile", CONST, "--c", "0", "--sigma", "4",
                         "--t0", "0", "--K", "0.01", "--n", "1048576"]),
    # a misspelled key is refused, not read as the constant profile
    ("profile-unknown-key", ["classify", "--profile",
                             '{"mean": 754, "harmonic": [[1, 0.05]]}']),
]


N_SET = (3, 8, 16, 20, 24, 28, 31, 34)
DENOM_CAP = 34


def outputs(code: int, stdout: bytes, stderr: bytes, cwd: Path) -> dict:
    """A config's entry: its exit code and the digests of its outputs."""
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    entry = {"exit": code, "stdout": sha(stdout), "stderr": sha(stderr)}
    return entry | {f"file {p.name}": sha(p.read_bytes()) for p in cwd.iterdir()}


def run_config(argv: list[str]) -> dict:
    """The entry of cli.main(argv), run in a fresh temporary directory."""
    from breathing_billiard import cli

    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as cwd:
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(home)
        return outputs(code, out.getvalue().encode(), err.getvalue().encode(), Path(cwd))


def gate_set() -> dict:
    """The gate set's orbits, by "p/q"."""
    import math

    from breathing_billiard import aubry, genfun, radius
    from breathing_billiard.errors import ConvergenceError

    mean, _ = radius.find_member(1, 0.05, 0.5, min_window=1.0)
    ctx = genfun.make_context(radius.family_profile(1, 0.05, mean), 1.0, 0.5)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    orbits = {}
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
            orbits[f"{p}/{q}"] = row
    return orbits


def record() -> dict:
    """The record of the tree on sys.path, with its tie tolerance."""
    from breathing_billiard import aubry

    return {"configs": {name: run_config(argv) for name, argv in CONFIGS},
            "orbits": gate_set(), "tie_rtol": aubry._TIE_RTOL}


def status(row: dict) -> str:
    residual = row.get("best_residual")
    return row["status"] + ("" if residual is None else f" (best residual {residual:.4e})")


def compare(old: dict, new: dict) -> list[tuple[bool, str]]:
    """(fails, line) for each config and each orbit of the records old and new."""
    rows = []
    for name in sorted(old["configs"].keys() | new["configs"].keys()):
        a, b = old["configs"].get(name, {}), new["configs"].get(name, {})
        diffs = [part for part in sorted(a.keys() | b.keys()) if a.get(part) != b.get(part)]
        line = "DIFFERS in " + ", ".join(diffs) if diffs else "identical"
        rows.append((bool(diffs), f"{name}: exit {a.get('exit')} -> {b.get('exit')}, {line}"))
    for name in sorted(old["orbits"].keys() | new["orbits"].keys()):
        a, b = (r["orbits"].get(name, {"status": "absent"}) for r in (old, new))
        line = f"{name}: {status(a)} -> {status(b)}"
        bad = a["status"] != b["status"]
        if a["status"] == b["status"] == "converged":
            d_action = abs(b["action"] - a["action"]) / abs(a["action"])
            d_times = max(abs(x - y) for x, y in zip(a["times"], b["times"]))
            bad = d_action > new["tie_rtol"]
            line += f", rel d_action {d_action:.2e}, max |d_times| {d_times:.2e}"
        rows.append((bad, line + (", FAILS" if bad else "")))
    return rows


def run(src: str) -> str:
    """The record of the tree src as JSON text, computed in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    return subprocess.run([sys.executable, __file__, "--child"], env=env,
                          stdout=subprocess.PIPE, text=True, check=True).stdout


def main(argv: list[str]) -> int:
    if argv == ["--child"]:
        print(json.dumps(record(), indent=1, sort_keys=True))
    elif len(argv) == 1:
        sys.stdout.write(run(argv[0]))
    elif len(argv) == 2:
        rows = compare(*(json.loads(run(src)) for src in argv))
        failing = sum(bad for bad, _ in rows)
        print("\n".join(line for _, line in rows) + f"\n{failing} of {len(rows)} fail")
        return 1 if failing else 0
    else:
        sys.stderr.write(__doc__)
        return 64
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
