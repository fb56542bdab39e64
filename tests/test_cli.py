import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from breathing_billiard import aubry, chaoscert, cli, errors
from breathing_billiard.errors import ConvergenceError

CONST = '{"mean": 1, "harmonics": []}'
MEMBER = '{"mean": 9000, "harmonics": [[1, 0.05]]}'
# find_member(1, 0.05, 0.5, min_window=1.0)
WIDE_MEMBER = '{"mean": 754.0403145397167, "harmonics": [[1, 0.05]]}'


def run_cli(args):
    return cli.main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestClassify:
    def test_constant_profile(self, tmp_path):
        out = tmp_path / "verdict.json"
        code = run_cli(["classify", "--profile", CONST, "--eps", "0.5",
                        "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        assert payload["result"]["class"] == "R"
        assert payload["config"]["eps"] == 0.5

    def test_member_profile(self, tmp_path, capsys):
        code = run_cli(["classify", "--profile", MEMBER, "--eps", "0.5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["class"] == "R_tilde"

    @pytest.mark.parametrize("command", [["classify"], ["certify", "--c", "0.01"], ["c0"]])
    def test_cancelling_harmonics_read_as_constant(self, command, tmp_path):
        # amplitudes of one frequency that sum to 0 ended in ZeroDivisionError;
        # the verdict is the constant profile's, and R only rounds to its mean
        results = []
        for profile in ('{"mean": 2, "harmonics": [[1, 0.1], [1, -0.1]]}', '{"mean": 2}'):
            out = tmp_path / "out.json"
            assert run_cli([command[0], "--profile", profile, *command[1:],
                            "--out", str(out)]) == 0
            results.append(read_json(out)["result"])
        cancelling, constant = results
        if command[0] == "classify":
            assert cancelling.pop("bounds")["r_min"] == pytest.approx(2.0, abs=1e-15)
            constant.pop("bounds")
        if command[0] == "certify":
            assert cancelling.pop("profile")["harmonics"] == [[1, 0.1], [1, -0.1]]
            constant.pop("profile")
            assert cancelling.pop("profile_literal") != constant.pop("profile_literal")
            assert not cancelling["certified"]
        assert cancelling == constant

    def test_malformed_profile_is_usage_error(self, capsys):
        code = run_cli(["classify", "--profile", "{oops", "--eps", "0.5"])
        assert code == 1  # parses as precondition failure of the literal


class TestUsageErrors:
    def test_unknown_flag(self):
        assert run_cli(["classify", "--profile", CONST, "--eps", "0.5",
                        "--bogus"]) == 64

    def test_missing_subcommand(self):
        assert run_cli([]) == 64

    def test_unknown_subcommand(self):
        assert run_cli(["frobnicate"]) == 64


class TestMapCommands:
    def test_map_step(self, tmp_path):
        out = tmp_path / "map.json"
        code = run_cli(["map", "--profile", CONST, "--eps", "0.5", "--c", "0.0",
                        "--sigma", "4.0", "--t0", "0.0", "--K", "2.0",
                        "--out", str(out)])
        assert code == 0
        res = read_json(out)["result"]
        assert res["t1"] == pytest.approx(1.0, abs=1e-12)
        assert res["K1"] == 2.0
        assert res["jacobian"]["det"] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("t0", ["1e15", str(2 ** 52)])
    def test_far_lift_steps_from_its_phase(self, t0, capsys):
        # both lifts have phase 0; stepped from the rounded lift, t1_mod1 read
        # 0.375 and 0.0, dK1_dK0 0.039 at 1e15 (0.00502 at t0 = 0) and dK1_dt0
        # -1.05e-11 at 2^52 (67.48 at t0 = 0)
        def result(t, *flags):
            assert run_cli(["map", "--profile", WIDE_MEMBER, "--c", "1", "--t0", t,
                            "--K", "1100", *flags]) == 0
            return json.loads(capsys.readouterr().out)["result"]

        base, far = result("0"), result(t0)
        for key in ("t1_mod1", "K1", "jacobian", "rdot_plus", "rdot_minus", "sigma_star"):
            assert far[key] == base[key], key
        assert far["t1"] == base["t1"] + float(t0)
        assert result(t0, "--inverse")["t1_mod1"] == result("0", "--inverse")["t1_mod1"]

    def test_domain_error_exit_code(self):
        code = run_cli(["map", "--profile", CONST, "--eps", "0.5", "--c", "0.0",
                        "--sigma", "4.0", "--t0", "0.0", "--K", "0.01"])
        assert code == 1

    def test_flight_with_csv(self, tmp_path):
        out = tmp_path / "flight.json"
        csv_path = tmp_path / "seg.csv"
        code = run_cli(["flight", "--profile", CONST, "--eps", "0.5", "--c", "0.1",
                        "--t0", "0.0", "--t1", "1.0", "--dt", "0.1",
                        "--csv", str(csv_path), "--out", str(out)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "t,r,theta,x,y"
        assert len(lines) == 2 + 11

    def test_simulate_outputs(self, tmp_path):
        out = tmp_path / "run.json"
        bcsv = tmp_path / "bounces.csv"
        code = run_cli(["simulate", "--profile", CONST, "--eps", "0.5", "--c", "0.0",
                        "--sigma", "4.0", "--t0", "0.0", "--K", "2.0", "--n", "5",
                        "--bounces-csv", str(bcsv), "--out", str(out)])
        assert code == 0
        res = read_json(out)["result"]
        assert res["completed"] is True
        assert res["bounces"] == 6
        assert bcsv.exists()

    def test_simulate_stopped_at_first_bounce(self, tmp_path):
        # K far above the map domain: the first forward solve finds no bracket
        out = tmp_path / "run.json"
        code = run_cli(["simulate", "--profile", CONST, "--eps", "0.5", "--c", "0.0",
                        "--sigma", "4.0", "--t0", "0.0", "--K", "1e300", "--n", "3",
                        "--out", str(out)])
        assert code == 0
        res = read_json(out)["result"]
        assert res["bounces"] == 1 and res["completed"] is False
        assert res["reason"].startswith("forward step failed at bounce 0")
        assert res["energy_min"] is None and res["energy_max"] is None


class TestSimulateCsv:
    # constant unit profile, c = 0, working strip 4: diameter bounces from (0, 2)
    ARGS = ["simulate", "--profile", CONST, "--eps", "0.5", "--c", "0.0",
            "--sigma", "4.0", "--t0", "0.0", "--K", "2.0"]

    def test_bounce_csv_shape(self, tmp_path):
        csv_path = tmp_path / "bounces.csv"
        code = run_cli(self.ARGS + ["--n", "3", "--bounces-csv", str(csv_path),
                                    "--out", str(tmp_path / "run.json")])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("# config:")
        assert json.loads(lines[0][len("# config:"):])["n"] == 3
        assert lines[1] == "n,t,K,rdot_plus,theta"
        assert len(lines) == 2 + 4

    def test_trajectory_csv(self, tmp_path):
        csv_path = tmp_path / "trajectory.csv"
        code = run_cli(self.ARGS + ["--n", "2", "--dt", "0.25",
                                    "--trajectory-csv", str(csv_path),
                                    "--out", str(tmp_path / "run.json")])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "t,x,y"
        assert len(lines[1:]) > 8

    def test_refused_trajectory_writes_no_file(self, tmp_path):
        # the trajectory is sampled before the bounce CSV is written
        code = run_cli(self.ARGS + ["--n", "3", "--dt", "1e-300",
                                    "--bounces-csv", str(tmp_path / "b.csv"),
                                    "--trajectory-csv", str(tmp_path / "t.csv"),
                                    "--out", str(tmp_path / "run.json")])
        assert code == 1
        assert list(tmp_path.iterdir()) == []


class TestOrbitCommands:
    def test_orbit_and_determinism(self, tmp_path):
        args = ["orbit", "--profile", CONST, "--eps", "0.5", "--c", "0.0",
                "--sigma", "4.0", "--p", "3", "--q", "2",
                "--starts", "4", "--seed", "7"]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run_cli(args + ["--out", str(out_a)]) == 0
        assert run_cli(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        res = read_json(out_a)["result"]
        assert res["residual"] < 1e-8

    def test_orbit_precondition_exit(self):
        code = run_cli(["orbit", "--profile", CONST, "--eps", "0.5", "--c", "0.0",
                        "--sigma", "4.0", "--p", "1", "--q", "2",
                        "--starts", "2", "--seed", "0"])
        assert code == 1

    def test_hull(self, tmp_path):
        out = tmp_path / "hull.json"
        code = run_cli(["hull", "--profile", CONST, "--eps", "0.5", "--c", "0.0",
                        "--sigma", "8.0", "--omega", "2.5", "--denom-cap", "8",
                        "--starts", "4", "--seed", "1", "--out", str(out)])
        assert code == 0
        res = read_json(out)["result"]
        assert res["q"] == 2 and res["p"] == 5

    @pytest.mark.parametrize("command, header, columns", [
        (["orbit", "--p", "3", "--q", "2", "--sigma", "4.0"], "n,t,K", ("times", "Ks")),
        (["hull", "--omega", "2.5", "--denom-cap", "8", "--sigma", "8.0"], "xi,phi,eta",
         ("xs", "phi", "eta")),
    ], ids=["orbit", "hull"])
    def test_csv_matches_json(self, tmp_path, command, header, columns):
        out, csv_path = tmp_path / "res.json", tmp_path / "res.csv"
        code = run_cli(command + ["--profile", CONST, "--c", "0.0", "--starts", "4",
                                  "--seed", "7", "--csv", str(csv_path), "--out", str(out)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        config = json.loads(lines[0][len("# config:"):])
        assert config == read_json(out)["config"] and "csv" not in config
        assert lines[1] == header
        rows = [line.split(",") for line in lines[2:]]
        res = read_json(out)["result"]
        assert len(rows) == res["q"] == 2
        # the last len(columns) CSV columns are the JSON series, written by repr
        for j, key in enumerate(columns, start=len(rows[0]) - len(columns)):
            assert [float(r[j]) for r in rows] == res[key]

    def test_convergence_failure_exit(self, monkeypatch, capsys):
        def no_start_converged(*args, **kwargs):
            raise ConvergenceError("no start converged below residual 1e-08",
                                   {"starts": 4, "best_residual": 0.5})

        monkeypatch.setattr(aubry, "periodic_orbit", no_start_converged)
        code = run_cli(["orbit", "--profile", CONST, "--c", "0.0", "--sigma", "4.0",
                        "--p", "3", "--q", "2", "--starts", "4", "--seed", "7"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("convergence failure: no start converged below residual "
                                "1e-08 {'starts': 4, 'best_residual': 0.5}\n")


class TestCertifyCommands:
    def test_certify_json(self, tmp_path):
        out = tmp_path / "cert.json"
        csv_path = tmp_path / "agrid.csv"
        code = run_cli(["certify", "--profile", MEMBER, "--eps", "0.5", "--c", "1.0",
                        "--omega-grid", "7", "--k-samples", "17",
                        "--csv", str(csv_path), "--out", str(out)])
        assert code == 0
        res = read_json(out)["result"]
        assert res["certified"] is True
        assert res["a_max"] < 0
        assert len(res["a_grid"]) == 17
        assert csv_path.read_text().splitlines()[1] == "K,a"

    def test_certify_not_certified_still_exit_zero(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run_cli(["certify", "--profile", CONST, "--eps", "0.5", "--c", "0.01",
                        "--out", str(out)])
        assert code == 0
        assert read_json(out)["result"]["certified"] is False

    def test_find_member(self, tmp_path):
        out = tmp_path / "member.json"
        code = run_cli(["find-member", "--k", "1", "--delta", "0.05",
                        "--eps", "0.5", "--out", str(out)])
        assert code == 0
        res = read_json(out)["result"]
        assert res["class"] == "R_tilde"
        assert res["mean"] < res["appendix_bound"]
        assert res["profile"]["harmonics"] == [[1, 0.05]]

    def test_find_member_rejection_exit(self):
        assert run_cli(["find-member", "--k", "3", "--delta", "0.01",
                        "--eps", "0.5"]) == 1

    def test_c0_constant_profile_reports(self, tmp_path):
        out = tmp_path / "c0.json"
        code = run_cli(["c0", "--profile", CONST, "--eps", "0.5",
                        "--iters", "2", "--out", str(out)])
        assert code == 0
        res = read_json(out)["result"]
        assert res["c0"] is None
        assert res["reason"]

    def test_eps_defaults_to_half(self, tmp_path, capsys):
        code = run_cli(["classify", "--profile", CONST])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["eps"] == 0.5

    def test_lyapunov_seed_table(self, tmp_path):
        out = tmp_path / "table.json"
        code = run_cli(["lyapunov", "--profile", CONST, "--eps", "0.5",
                        "--c", "0.05", "--sigma", "4.0", "--n", "500",
                        "--seeds", "3", "--seed", "1",
                        "--k-lo", "1.0", "--k-hi", "3.0", "--out", str(out)])
        assert code == 0
        res = read_json(out)["result"]
        assert len(res["table"]) == 3
        assert all(abs(r["lambda"]) < 0.05 for r in res["table"])
        assert all(r["reason"] is None for r in res["table"])

    @pytest.mark.parametrize("steps", [(0, 5, 3), (0, 0)], ids=["step-0-row-first", "no-steps"])
    def test_lyapunov_max_skips_rows_without_steps(self, monkeypatch, capsys, steps):
        # a row that took no step has lambda NaN; where it sits must not matter
        rows = [{"seed_index": i, "t0": 0.5, "K0": 2.0, "lambda": 0.1 * n if n else math.nan,
                 "steps": n, "completed": n > 0, "reason": None if n else "failed"}
                for i, n in enumerate(steps)]
        monkeypatch.setattr(chaoscert, "lyapunov_table", lambda *args, **kwargs: rows)
        code = run_cli(["lyapunov", "--profile", CONST, "--c", "0.05", "--sigma", "4.0",
                        "--n", "5", "--seeds", str(len(rows)), "--seed", "0", "--k-lo", "1.0",
                        "--k-hi", "3.0"])
        assert code == 0
        res = json.loads(capsys.readouterr().out)["result"]
        assert res["lambda_max"] == (0.5 if any(steps) else None)

    def test_lyapunov_single(self, tmp_path):
        out = tmp_path / "lyap.json"
        code = run_cli(["lyapunov", "--profile", CONST, "--eps", "0.5", "--c", "0.05",
                        "--sigma", "4.0", "--n", "2000", "--seed", "0",
                        "--t0", "0.1", "--K", "2.0", "--out", str(out)])
        assert code == 0
        res = read_json(out)["result"]
        assert abs(res["lambda"]) < 1e-2
        assert res["completed"] is True and res["reason"] is None

    def test_portrait_skips_points_below_the_domain(self, tmp_path):
        # K = 0.05 lies below sigma_star (about 0.124) on this strip: that
        # column of the grid is skipped, the two above it take their 5 steps
        out, csv_path = tmp_path / "portrait.json", tmp_path / "portrait.csv"
        code = run_cli(["portrait", "--profile", CONST, "--c", "0.05", "--sigma", "4.0",
                        "--t-count", "2", "--k-count", "3", "--k-lo", "0.05",
                        "--k-hi", "3.0", "--n", "5", "--csv", str(csv_path), "--out", str(out)])
        assert code == 0
        res = read_json(out)["result"]
        assert res["points"] == 2 * 2 * 5
        ks = [float(line.split(",")[1]) for line in csv_path.read_text().splitlines()[2:]]
        assert len(ks) == res["points"] and min(ks) > res["sigma_star"] > 0.05

    def test_portrait_row_cap(self, tmp_path, monkeypatch, capsys):
        # 4 x 5 orbits of 5 bounces fit a 100-row cap; of 6 bounces they are
        # refused before the first orbit starts
        monkeypatch.setattr(errors, "MAX_COUNT", 100)
        argv = ["portrait", "--profile", CONST, "--c", "0.05", "--sigma", "4.0",
                "--t-count", "4", "--k-count", "5", "--k-hi", "3.0",
                "--csv", str(tmp_path / "portrait.csv")]
        assert run_cli(argv + ["--n", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["points"] == 100

        def no_orbit(*args):
            raise AssertionError("an orbit started")

        monkeypatch.setattr(cli.bmap, "Orbit", no_orbit)
        assert run_cli(argv + ["--n", "6"]) == 1
        assert capsys.readouterr().err == (
            "error: --n = 6 asks for 120 entries, more than 100\n")

    def test_portrait(self, tmp_path):
        csv_path = tmp_path / "portrait.csv"
        code = run_cli(["portrait", "--profile", CONST, "--eps", "0.5", "--c", "0.05",
                        "--sigma", "4.0", "--t-count", "4", "--k-count", "3",
                        "--k-hi", "3.0", "--n", "20", "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[1] == "t_mod1,K"
        assert len(lines) > 100
        for line in lines[2:]:
            t_val = float(line.split(",")[0])
            assert 0.0 <= t_val < 1.0


MAP = ["map", "--profile", CONST, "--c", "0.0", "--sigma", "4.0"]
FLIGHT = ["flight", "--profile", CONST, "--c", "0.1"]
BREATHING = '{"mean": 754, "harmonics": [[1, 0.05]]}'
PORTRAIT = ["portrait", "--profile", CONST, "--c", "0.05", "--sigma", "4.0",
            "--k-hi", "3.0", "--n", "5", "--csv", os.devnull]


class TestRejectedInput:
    # each used to end in a traceback (or, for a NaN flight time, a
    # fractional frequency, an infinite mean, a NaN flight momentum or a NaN
    # min_window, in exit code 0 with truncated, non-finite or unasked-for
    # output) instead of exit code 1
    @pytest.mark.parametrize("argv", [
        ["certify", "--profile", MEMBER, "--c", "1.0", "--omega-grid", "0"],
        ["certify", "--profile", MEMBER, "--c", "1.0", "--k-samples", "0"],
        ["certify", "--profile", MEMBER, "--c", "1.0", "--k-samples", "1"],
        ["c0", "--profile", MEMBER, "--omega-grid", "0"],
        ["hull", "--profile", CONST, "--c", "0.0", "--sigma", "8.0", "--omega", "2.5",
         "--denom-cap", "0", "--seed", "1"],
        ["orbit", "--profile", CONST, "--c", "0.0", "--sigma", "4.0", "--p", "3",
         "--q", "2", "--starts", "0", "--seed", "7"],
        ["lyapunov", "--profile", CONST, "--c", "0.05", "--sigma", "4.0", "--n", "10",
         "--seeds", "-1", "--seed", "0", "--k-lo", "1.0", "--k-hi", "3.0"],
        ["orbit", "--profile", CONST, "--c", "0.0", "--sigma", "4.0", "--p", "3",
         "--q", "2", "--seed", "-1"],
        ["hull", "--profile", CONST, "--c", "0.0", "--sigma", "8.0", "--omega", "2.5",
         "--seed", "-1"],
        ["lyapunov", "--profile", CONST, "--c", "0.05", "--sigma", "4.0", "--n", "10",
         "--seeds", "2", "--seed", "-1", "--k-lo", "1.0", "--k-hi", "3.0"],
        PORTRAIT + ["--t-count", "-1"],
        PORTRAIT + ["--k-count", "-1"],
        MAP + ["--t0", "nan", "--K", "2.0"],
        MAP + ["--t0", "nan", "--K", "2.0", "--inverse"],
        MAP + ["--t0", "inf", "--K", "2.0"],
        MAP + ["--t0", "0.0", "--K", "nan"],
        ["simulate", "--profile", CONST, "--c", "0.0", "--sigma", "4.0", "--t0", "nan",
         "--K", "2.0", "--n", "3"],
        ["lyapunov", "--profile", CONST, "--c", "0.05", "--sigma", "4.0", "--n", "10",
         "--seed", "0", "--t0", "nan", "--K", "2.0"],
        FLIGHT + ["--t0", "nan", "--t1", "1.0"],
        FLIGHT + ["--t0", "0.0", "--t1", "1.0", "--dt", "nan", "--csv", os.devnull],
        ["map", "--profile", MEMBER, "--c", "1.0", "--t0", "0.3", "--K", "1e40"],
        ["classify", "--profile", '{"mean": 754, "harmonics": [[1.7, 0.05]]}'],
        ["flight", "--profile", '{"mean": Infinity, "harmonics": [[1, 0.05]]}',
         "--c", "0", "--t0", "0", "--t1", "1"],
        ["classify", "--profile", '{"mean": 754, "harmonics": [[1, NaN]]}'],
        ["classify", "--profile", '{"mean": 754, "harmonics": [[1' + "0" * 400 + ', 0.05]]}'],
        ["flight", "--profile", BREATHING, "--c", "nan", "--t0", "0", "--t1", "1"],
        ["flight", "--profile", BREATHING, "--c", "0", "--t0", "0", "--t1", "inf"],
        ["find-member", "--k", "1", "--delta", "0.05", "--min-window", "nan"],
        # 2^62 grid points: numpy refuses the array at once, with a ValueError
        ["certify", "--profile", MEMBER, "--c", "1.0", "--k-samples", str(2 ** 62)],
        ["certify", "--profile", MEMBER, "--c", "1.0", "--omega-grid", str(2 ** 62)],
        ["c0", "--profile", MEMBER, "--k-samples", str(2 ** 62)],
        PORTRAIT + ["--t-count", str(2 ** 62)],
        PORTRAIT + ["--k-count", str(2 ** 62)],
        # a finite flight time whose phase 2 pi k t overflows
        ["flight", "--profile", BREATHING, "--c", "0", "--t0", "0", "--t1", "1e308"],
        ["c0", "--profile", MEMBER, "--iters", "-1"],
        # q past 1024, capped for run time; hull's last convergent is 2051/1025
        ["orbit", "--profile", CONST, "--c", "0.0", "--sigma", "4.0", "--p", "2049",
         "--q", "1025", "--starts", "1", "--seed", "0"],
        ["hull", "--profile", CONST, "--c", "0.0", "--sigma", "8.0",
         "--omega", "2.0009756097560976", "--denom-cap", "1025", "--starts", "1", "--seed", "0"],
        PORTRAIT + ["--n", "-1"],
    ], ids=["certify-omega-grid-0", "certify-k-samples-0", "certify-k-samples-1",
            "c0-omega-grid-0", "hull-denom-cap-0", "orbit-starts-0", "lyapunov-seeds-neg",
            "orbit-seed-neg", "hull-seed-neg", "lyapunov-table-seed-neg",
            "portrait-t-count-neg", "portrait-k-count-neg", "map-t0-nan",
            "map-inverse-t0-nan", "map-t0-inf", "map-K-nan", "simulate-t0-nan",
            "lyapunov-t0-nan", "flight-t0-nan", "flight-dt-nan", "map-K-near-edge",
            "profile-fractional-frequency", "profile-infinite-mean",
            "profile-nan-amplitude", "profile-huge-frequency", "flight-c-nan",
            "flight-t1-inf", "find-member-min-window-nan", "certify-k-samples-huge",
            "certify-omega-grid-huge", "c0-k-samples-huge", "portrait-t-count-huge",
            "portrait-k-count-huge", "flight-phase-overflow", "c0-iters-neg", "orbit-q-huge",
            "hull-denom-cap-huge", "portrait-n-neg"])
    def test_precondition_exit(self, argv, capsys):
        assert run_cli(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestFailedRunLeavesNoFile:
    # every output is written only once the whole result is computed, and a
    # write that fails removes the outputs written before it
    ORBIT = ["orbit", "--profile", CONST, "--c", "0.0", "--sigma", "4.0", "--p", "3",
             "--q", "2", "--starts", "2", "--seed", "0"]
    PORTRAIT = ["portrait", "--profile", CONST, "--c", "0.05", "--sigma", "4.0",
                "--k-hi", "3.0", "--t-count", "2", "--k-count", "2", "--n", "3"]
    SIMULATE = ["simulate", "--profile", CONST, "--c", "0.0", "--sigma", "4.0",
                "--t0", "0.0", "--K", "2.0", "--n", "3"]

    @pytest.mark.parametrize("argv", [
        ORBIT + ["--csv", "{dir}/orbit.csv", "--out", "{missing}"],
        PORTRAIT + ["--csv", "{dir}/portrait.csv", "--out", "{missing}"],
        SIMULATE + ["--bounces-csv", "{dir}/b.csv", "--trajectory-csv", "{missing}"],
        SIMULATE + ["--bounces-csv", "{dir}/b.csv", "--trajectory-csv", "{dir}/t.csv",
                    "--out", "{missing}"],
    ], ids=["orbit-out", "portrait-out", "simulate-trajectory-csv", "simulate-out"])
    def test_no_output_left(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "missing" / "out")
        argv = [a.replace("{dir}", str(tmp_path)).replace("{missing}", missing)
                for a in argv]
        assert run_cli(argv) == 1
        assert "No such file or directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_only_regular_files_are_removed(self, tmp_path, monkeypatch):
        # a CSV sent to the null device is written but never removed; the
        # removal is recorded, not done, so a fault here cannot touch it
        removed = []
        monkeypatch.setattr(cli.os, "remove", removed.append)
        csv_path = str(tmp_path / "b.csv")
        argv = self.SIMULATE + ["--bounces-csv", csv_path, "--trajectory-csv", os.devnull,
                                "--out", str(tmp_path / "x" / "y.json")]
        assert run_cli(argv) == 1
        assert removed == [csv_path]


class TestErrorMessages:
    # "{missing}" stands for a path under a directory that does not exist
    LYAPUNOV = ["lyapunov", "--profile", CONST, "--c", "0.05", "--sigma", "4.0", "--n", "5",
                "--seed", "0"]

    @pytest.mark.parametrize("argv, message", [
        (LYAPUNOV + ["--seeds", "2", "--k-lo", "1.0"], "--seeds needs --k-lo and --k-hi"),
        (LYAPUNOV + ["--t0", "0.1"], "single-orbit mode needs --t0 and --K"),
        (["lyapunov", "--profile", MEMBER, "--c", "1", "--n", "5", "--seed", "0", "--seeds",
          "2", "--k-lo", "1", "--k-hi", "inf"], "need finite k_lo < k_hi"),
        (["classify", "--profile", '{"mean": 1e308, "harmonics": [[1, 1e307]]}'],
         "profile too large"),
        (FLIGHT + ["--t0", "0.0", "--t1", "1.0", "--dt", "1e-300", "--csv", "{missing}"],
         "more than 1048576 samples"),
        (["simulate", "--profile", CONST, "--c", "0.0", "--sigma", "4.0", "--t0", "0.0",
          "--K", "2.0", "--n", "2", "--dt", "1e-300", "--trajectory-csv", "{missing}"],
         "more than 1048576 samples"),
        (["portrait", "--profile", CONST, "--c", "0.05", "--sigma", "4.0", "--k-hi", "3.0",
          "--t-count", "1", "--k-count", "1", "--n", "2", "--csv", "{missing}"],
         "No such file or directory"),
        (["classify", "--profile", CONST, "--out", "{missing}"], "No such file or directory"),
        # tiny inputs whose squares underflow: each ended in a traceback or in inf
        (["classify", "--profile", '{"mean": 1e-200, "harmonics": [[1, 1e-201]]}'],
         "profile too small"),
        (["map", "--profile", MEMBER, "--c", "1", "--t0", "0.3", "--K", "13500",
          "--sigma", "1e-200"], "too small"),
        (FLIGHT + ["--t0", "0.0", "--t1", "1e-160"], "flight too short"),
        # every row is held in memory: refused by the rows asked for, before
        # the first step, even where the state lies below the map domain
        (PORTRAIT + ["--t-count", "1", "--k-count", "1", "--k-lo", "0.01", "--k-hi", "0.02",
                     "--n", "1048577"], "1048577 entries, more than 1048576"),
        (["simulate", "--profile", CONST, "--c", "0.0", "--sigma", "4.0", "--t0", "0.0",
          "--K", "0.01", "--n", "1048576"], "1048577 entries, more than 1048576"),
    ], ids=["lyapunov-seeds-without-band", "lyapunov-single-without-K",
            "lyapunov-infinite-band", "classify-overflow", "flight-row-cap",
            "simulate-row-cap", "portrait-csv-missing-dir", "out-missing-dir",
            "classify-underflow", "map-sigma-underflow", "flight-too-short",
            "portrait-rows-huge", "simulate-n-huge"])
    def test_error_line(self, argv, message, tmp_path, capsys):
        missing = str(tmp_path / "missing" / "out")
        assert run_cli([missing if a == "{missing}" else a for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestDeterminism:
    def test_certify_byte_identical(self, tmp_path):
        args = ["certify", "--profile", MEMBER, "--eps", "0.5", "--c", "1.0",
                "--omega-grid", "5", "--k-samples", "9"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_embeds_config(self, tmp_path):
        out = tmp_path / "v.json"
        run_cli(["classify", "--profile", CONST, "--eps", "0.5", "--out", str(out)])
        payload = read_json(out)
        assert payload["config"]["profile"] == CONST
        assert payload["config"]["eps"] == 0.5
        # output locations stay out of the config so reruns are byte-identical
        assert "out" not in payload["config"]


class TestWithoutScipy:
    # scipy is a test-only dependency: the commands must run without it
    COMMANDS = [
        ["certify", "--profile", MEMBER, "--c", "1", "--omega-grid", "7",
         "--k-samples", "33"],
        ["c0", "--profile", MEMBER, "--iters", "3", "--omega-grid", "5", "--k-samples", "17"],
        ["map", "--profile", MEMBER, "--c", "1", "--t0", "0.2", "--K", "13500"],
        ["simulate", "--profile", MEMBER, "--c", "1", "--t0", "0.2", "--K", "13500",
         "--n", "50"],
        ["orbit", "--profile", MEMBER, "--c", "1", "--p", "219", "--q", "2",
         "--starts", "4", "--seed", "0"],
        ["flight", "--profile", MEMBER, "--c", "1", "--t0", "0.1", "--t1", "50"],
    ]

    def test_commands_do_not_import_scipy(self, tmp_path):
        runs = [argv + ["--out", str(tmp_path / f"{i}.json")]
                for i, argv in enumerate(self.COMMANDS)]
        script = ("import json, sys\n"
                  "from breathing_billiard import cli\n"
                  "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
                  "print(json.dumps([codes, 'scipy' in sys.modules]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        codes, scipy_loaded = json.loads(proc.stdout)
        assert codes == [0] * len(self.COMMANDS)
        assert not scipy_loaded

    def test_impact_map_does_not_import_scipy(self):
        # the cross-check map of the tests finds its bounce times without scipy
        script = ("import json, sys\n"
                  "from breathing_billiard import bmap, genfun\n"
                  "from breathing_billiard.radius import RadiusProfile\n"
                  "ctx = genfun.make_context(RadiusProfile.from_json(sys.argv[1]), 1.0, 0.5)\n"
                  "K = 2.0 * bmap.sigma_star(ctx)\n"
                  "images = [bmap.laederich_map(ctx, t, bmap.action_to_impact(ctx, t, K))\n"
                  "          for t in (0.1, 0.4, 0.7)]\n"
                  "print(json.dumps([images, 'scipy' in sys.modules]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script, MEMBER],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        images, scipy_loaded = json.loads(proc.stdout)
        assert [t1 > t0 and i1 > 0 for (t1, i1), t0 in zip(images, (0.1, 0.4, 0.7))] == [True] * 3
        assert not scipy_loaded
