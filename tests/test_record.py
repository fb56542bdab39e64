"""The tree under test against tests/record.json, the reproduction's record.

The record is the output of `python3 tools/record.py src`: per CLI config
of that tool its exit code and the digests of its outputs, and per orbit of
its gate set the status, action and times.  A change that alters an output
on purpose regenerates the record with

    python3 tools/record.py src > tests/record.json

and names each changed entry in CHANGES.md.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import breathing_billiard

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("record", ROOT / "tools" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


@pytest.fixture(scope="module")
def current():
    return record.record()


def test_outputs_match_the_record(current):
    # configs must be byte-identical; orbits keep their status and their
    # action to the tie tolerance, and their times are only reported
    recorded = json.loads((ROOT / "tests" / "record.json").read_text())
    failing = [line for bad, line in record.compare(recorded, current) if bad]
    assert not failing, ("outputs differ from tests/record.json:\n" + "\n".join(failing)
                         + "\nif the change is meant, regenerate the record with "
                         "`python3 tools/record.py src > tests/record.json` and name "
                         "each changed entry in CHANGES.md")


# the record's configs run in one process; these run each config as its own
# `python -m breathing_billiard.cli`: a usage error, a convergence failure,
# and runs that write one and two CSVs
@pytest.mark.parametrize("name, exit_code, csvs", [("usage-error", 64, 0),
                                                   ("orbit-no-convergence", 2, 0),
                                                   ("certify-csv", 0, 1),
                                                   ("simulate-csv", 0, 2)])
def test_in_process_equals_fresh_process(name, exit_code, csvs, current, tmp_path):
    src = Path(breathing_billiard.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "breathing_billiard.cli",
                           *dict(record.CONFIGS)[name]],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True)
    assert (proc.returncode, len(list(tmp_path.iterdir()))) == (exit_code, csvs)
    fresh = record.outputs(proc.returncode, proc.stdout, proc.stderr, tmp_path)
    assert fresh == current["configs"][name]
