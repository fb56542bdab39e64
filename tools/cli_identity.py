"""Byte-identity check of the command line between two source trees.

    python3 tools/cli_identity.py OLD_SRC NEW_SRC

Runs every config of CONFIGS as
`python3 -m breathing_billiard.cli ...` with PYTHONPATH=OLD_SRC and then
PYTHONPATH=NEW_SRC, each run in a fresh temporary directory, and compares
the exit code, stdout, stderr and every file the run wrote there (the
CSVs).  Prints one line per config and exits 1 if any config differs.
A second tree to compare against can be made with, for example,

    git archive HEAD~1 | tar -x -C /tmp/parent

and then passing /tmp/parent/src.  This is a script, not a test module:
pytest does not collect it.
"""

from __future__ import annotations

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
]


def run(src: str, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr, {file name: bytes}) of one CLI run."""
    with tempfile.TemporaryDirectory() as cwd:
        env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
        proc = subprocess.run([sys.executable, "-m", "breathing_billiard.cli", *argv],
                              cwd=cwd, env=env, capture_output=True)
        files = {p.name: p.read_bytes() for p in sorted(Path(cwd).iterdir())}
    return proc.returncode, proc.stdout, proc.stderr, files


def compare(old: tuple, new: tuple) -> list[str]:
    parts = ["exit code", "stdout", "stderr"]
    diffs = [part for part, a, b in zip(parts, old, new) if a != b]
    old_files, new_files = old[3], new[3]
    diffs += [f"file {name}" for name in sorted(set(old_files) | set(new_files))
              if old_files.get(name) != new_files.get(name)]
    return diffs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 64
    old_src, new_src = argv
    differing = 0
    for name, config in CONFIGS:
        old, new = run(old_src, config), run(new_src, config)
        diffs = compare(old, new)
        differing += bool(diffs)
        status = "DIFFERS in " + ", ".join(diffs) if diffs else "identical"
        print(f"{name}: exit {old[0]} -> {new[0]}, {status}")
    print(f"{differing} of {len(CONFIGS)} configs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
