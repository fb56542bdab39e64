"""Command-line front end.

Subcommands: classify, find-member, flight, map, simulate, orbit, hull,
certify, c0, lyapunov, portrait.  JSON goes to --out (default stdout) and
embeds the config that produced it; bulk numeric series go to CSV files
('.' decimal, ',' separator, header row, config in a leading comment line).
Exit codes: 0 success, 1 domain/precondition error or an output path that
cannot be written, 2 convergence failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys

import numpy as np

from . import aubry, bmap, chaoscert, flight, radius, simulate
from .bmap import CylinderState
from .errors import ConvergenceError, DomainError, PreconditionError, check_count
from .genfun import make_context
from .radius import RadiusProfile

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_CONVERGENCE = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Formatter(argparse.HelpFormatter):
    # a fixed width, the one a pipe gets, so the usage text does not depend
    # on $COLUMNS or the terminal
    def __init__(self, prog):
        super().__init__(prog, width=78)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(formatter_class=_Formatter, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _sanitize(obj):
    """Plain JSON values: dataclasses become dicts, tuples lists, and
    non-finite floats strings (NaN null), so the JSON stays strictly parseable."""
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


_PATH_KEYS = {"out", "csv", "bounces_csv", "trajectory_csv"}


def _config_dict(args: argparse.Namespace) -> dict:
    # output locations are not part of the run semantics: identical configs
    # must give byte-identical payloads wherever they are written
    cfg = {k: v for k, v in vars(args).items()
           if k != "func" and k not in _PATH_KEYS}
    return _sanitize(cfg)


def _profile(args) -> RadiusProfile:
    return RadiusProfile.from_json(args.profile)


def _context(args):
    return make_context(_profile(args), args.c, args.eps, sigma=args.sigma)


def _add_csv(files, args, path, header, rows):
    """Add (path, CSV text) to files: the run's config in a leading comment
    line, then the header and rows, floats by repr."""
    fh = io.StringIO()
    fh.write(f"# config: {json.dumps(_config_dict(args), sort_keys=True)}\n")
    w = csv.writer(fh)
    w.writerow(header)
    for row in rows:
        w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    files.append((path, fh.getvalue()))


def _write_all(files):
    """Write each (path, text) in order; when one fails, remove the regular
    files already written, so a failed run leaves none of its outputs."""
    written = []
    try:
        for path, text in files:
            with open(path, "w", newline="") as fh:
                written.append(path)
                fh.write(text)
    except OSError:
        for path in filter(os.path.isfile, written):
            os.remove(path)
        raise


# --- subcommand bodies: each returns the "result" of the JSON payload and
# adds its CSVs to files; main writes them once every result is computed ----

def _cmd_classify(args, files):
    v = radius.classify(_profile(args), args.eps)
    b = v.bounds
    return {"class": v.klass, "degenerate": v.degenerate, "witnesses": v.witnesses,
            "margins": v.margins, "window": v.window,
            "bounds": {"r_min": b.r_min, "r_max": b.r_max, "dR_norm": b.dR_norm,
                       "ddR2_norm": b.ddR2_norm, "sigma": b.sigma}}


def _cmd_find_member(args, files):
    mean, v = radius.find_member(args.k, args.delta, args.eps, min_window=args.min_window)
    return {"mean": mean,
            "profile": radius.family_profile(args.k, args.delta, mean),
            "class": v.klass,
            "window": v.window,
            "sigma": v.bounds.sigma,
            "appendix_bound": radius.sufficient_mean_bound(args.k, args.delta),
            "margins": v.margins}


def _cmd_flight(args, files):
    profile = _profile(args)
    window = flight.validate_window(args.t0, args.t1, args.c, profile, args.eps)
    seg = flight.make_segment(profile, args.t0, args.t1, args.c)
    result = {"window": window,
              "A": seg.A, "B": seg.B, "dtheta": seg.dtheta,
              "energy": seg.energy, "chord_length": seg.chord_length}
    if args.csv:
        _add_csv(files, args, args.csv, ["t", "r", "theta", "x", "y"],
                 flight.segment_samples(seg, args.dt))
        result["csv"] = args.csv
    return result


def _cmd_map(args, files):
    # the step is taken from the phase of t0, as Orbit takes it; the winding
    # is added back to t1 alone, whose lift has lost the digits of a far t0
    ctx = _context(args)
    lifted = CylinderState(args.t0, args.K)  # refuses a t0 or K that is not finite
    shift = math.floor(lifted.t)
    s = CylinderState(lifted.t - shift, lifted.K)
    s1 = bmap.backward(ctx, s) if args.inverse else bmap.forward(ctx, s)
    result = {"sigma_star": bmap.sigma_star(ctx),
              "t1": s1.t + shift, "K1": s1.K,
              "t1_mod1": s1.t % 1.0}
    if not args.inverse:
        jac = bmap.jacobian(ctx, s, t1=s1.t)
        result["jacobian"] = {"dt1_dt0": jac.dt1_dt0, "dt1_dK0": jac.dt1_dK0,
                              "dK1_dt0": jac.dK1_dt0, "dK1_dK0": jac.dK1_dK0,
                              "det": jac.det}
        result["rdot_plus"], result["rdot_minus"] = bmap.radial_velocity(ctx, s.t, s.K)
    return result


def _cmd_simulate(args, files):
    res = simulate.run(_context(args), CylinderState(args.t0, args.K), args.n)
    if args.bounces_csv:
        _add_csv(files, args, args.bounces_csv, ["n", "t", "K", "rdot_plus", "theta"],
                 [(r.n, r.t, r.K, r.rdot_plus, r.theta) for r in res.records])
    if args.trajectory_csv:
        _add_csv(files, args, args.trajectory_csv, ["t", "x", "y"],
                 simulate.trajectory_samples(res.records, args.dt))
    energies = [e for _, e in simulate.energy_series(res.records)]
    return {"bounces": len(res.records),
            "completed": res.completed,
            "reason": res.reason,
            "first": {"t": res.records[0].t, "K": res.records[0].K},
            "last": {"t": res.records[-1].t, "K": res.records[-1].K},
            # NaN (null in the JSON) when the first step already failed
            "energy_min": min(energies, default=math.nan),
            "energy_max": max(energies, default=math.nan)}


def _cmd_orbit(args, files):
    orbit = aubry.periodic_orbit(_context(args), args.p, args.q, starts=args.starts,
                                 seed=args.seed)
    if args.csv:
        _add_csv(files, args, args.csv, ["n", "t", "K"],
                 zip(range(orbit.q), orbit.times, orbit.Ks))
    return orbit


def _cmd_hull(args, files):
    hull = aubry.hull_samples(_context(args), args.omega, denom_cap=args.denom_cap,
                              starts=args.starts, seed=args.seed)
    if args.csv:
        _add_csv(files, args, args.csv, ["xi", "phi", "eta"], zip(hull.xs, hull.phi, hull.eta))
    return hull


def _cmd_certify(args, files):
    cert = chaoscert.certify(_profile(args), args.eps, args.c,
                             omega_grid=args.omega_grid, k_samples=args.k_samples)
    if args.csv and cert.a_grid:
        _add_csv(files, args, args.csv, ["K", "a"], cert.a_grid)
    return cert.to_dict()


def _cmd_c0(args, files):
    return chaoscert.c0_search(_profile(args), args.eps, iters=args.iters,
                               omega_grid=args.omega_grid, k_samples=args.k_samples)


def _cmd_lyapunov(args, files):
    ctx = _context(args)
    if args.seeds:
        if args.k_lo is None or args.k_hi is None:
            raise PreconditionError("--seeds needs --k-lo and --k-hi")
        rows = chaoscert.lyapunov_table(ctx, args.k_lo, args.k_hi,
                                        seeds=args.seeds, n=args.n, seed=args.seed)
        # rows that took no step have no estimate (lambda NaN)
        return {"table": rows,
                "lambda_max": max((r["lambda"] for r in rows if r["steps"] > 0),
                                  default=math.nan)}
    if args.t0 is None or args.K is None:
        raise PreconditionError("single-orbit mode needs --t0 and --K")
    est = chaoscert.lyapunov(ctx, CylinderState(args.t0, args.K), args.n)
    return {"lambda": est.lam, "steps": est.steps, "completed": est.completed,
            "reason": est.reason}


def _cmd_portrait(args, files):
    t_count = check_count("--t-count", args.t_count, 1)
    k_count = check_count("--k-count", args.k_count, 1)
    n = check_count("--n", args.n, 1)
    # each orbit adds at most n rows, and all are held until the CSV is written
    check_count("--t-count * --k-count * --n", t_count * k_count * n, size=lambda rows: rows)
    ctx = _context(args)
    s_star = bmap.sigma_star(ctx)
    k_lo = args.k_lo if args.k_lo is not None else s_star * 1.05
    rows = []
    for t0 in np.linspace(0.0, 1.0, t_count, endpoint=False):
        for k0 in np.linspace(k_lo, args.k_hi, k_count):
            try:
                orbit = bmap.Orbit(ctx, CylinderState(float(t0), float(k0)), n)
            except DomainError:
                continue  # grid point below the map domain
            rows += [(t1 % 1.0, k1) for _, _, _, t1, k1 in orbit]
    _add_csv(files, args, args.csv, ["t_mod1", "K"], rows)
    return {"points": len(rows), "csv": args.csv, "sigma_star": s_star}


# --- parser ----------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="breathing-billiard",
                     description="Breathing circle billiard toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        p.add_argument("--out", help="JSON output path (default: stdout)")
        return p

    def add_profile(p, with_c=True, with_sigma=False):
        p.add_argument("--profile", required=True,
                       help='profile literal, e.g. \'{"mean":1,"harmonics":[[1,0.05]]}\'')
        p.add_argument("--eps", type=float, default=0.5,
                       help="window parameter in (0,1); default 0.5")
        if with_c:
            p.add_argument("--c", type=float, required=True)
        if with_sigma:
            p.add_argument("--sigma", type=float, default=None,
                           help="working strip width (required for constant profiles)")

    p = add("classify", _cmd_classify, help="class R / R_tilde test")
    add_profile(p, with_c=False)

    p = add("find-member", _cmd_find_member, help="search the sine family for a member")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.5,
                   help="window parameter in (0,1); default 0.5")
    p.add_argument("--min-window", type=float, default=None)

    p = add("flight", _cmd_flight, help="one inter-bounce flight")
    add_profile(p)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--dt", type=float, default=1e-2)
    p.add_argument("--csv", help="CSV path for (t, r, theta, x, y) samples")

    p = add("map", _cmd_map, help="one step of the cylinder map")
    add_profile(p, with_sigma=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--inverse", action="store_true")

    p = add("simulate", _cmd_simulate, help="iterate the map into a bouncing run")
    add_profile(p, with_sigma=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dt", type=float, default=1e-2)
    p.add_argument("--bounces-csv")
    p.add_argument("--trajectory-csv")

    p = add("orbit", _cmd_orbit, help="(p,q)-periodic minimal orbit")
    add_profile(p, with_sigma=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--starts", type=int, default=16)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv")

    p = add("hull", _cmd_hull, help="hull-function samples for a rotation number")
    add_profile(p, with_sigma=True)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--denom-cap", type=int, default=64)
    p.add_argument("--starts", type=int, default=8)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv")

    p = add("certify", _cmd_certify, help="invariant-curve destruction certificate")
    add_profile(p)
    p.add_argument("--omega-grid", type=int, default=chaoscert.DEFAULT_OMEGA_GRID)
    p.add_argument("--k-samples", type=int, default=chaoscert.DEFAULT_K_SAMPLES)
    p.add_argument("--csv", help="CSV path for the (K, a) diagnostic grid")

    p = add("c0", _cmd_c0, help="largest certified momentum")
    add_profile(p, with_c=False)
    p.add_argument("--iters", type=int, default=20)
    p.add_argument("--omega-grid", type=int, default=chaoscert.DEFAULT_OMEGA_GRID)
    p.add_argument("--k-samples", type=int, default=chaoscert.DEFAULT_K_SAMPLES)

    p = add("lyapunov", _cmd_lyapunov, help="Lyapunov exponent estimates")
    add_profile(p, with_sigma=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seeds", type=int, default=0,
                   help="number of random states in [--k-lo, --k-hi]")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--k-lo", type=float, default=None)
    p.add_argument("--k-hi", type=float, default=None)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--K", type=float, default=None)

    p = add("portrait", _cmd_portrait, help="phase-portrait point cloud")
    add_profile(p, with_sigma=True)
    p.add_argument("--t-count", type=int, default=20)
    p.add_argument("--k-count", type=int, default=10)
    p.add_argument("--k-lo", type=float, default=None)
    p.add_argument("--k-hi", type=float, required=True)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--csv", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        files = []
        result = args.func(args, files)
        text = json.dumps({"config": _config_dict(args), "result": _sanitize(result)},
                          sort_keys=True, indent=2) + "\n"
        _write_all(files + [(args.out, text)] if args.out else files)
        if not args.out:
            sys.stdout.write(text)
    except (DomainError, PreconditionError, OSError) as exc:
        # OSError: an --out or CSV path that cannot be written
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        sys.stderr.write(f"convergence failure: {exc} {exc.diagnostics}\n")
        return EXIT_CONVERGENCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
