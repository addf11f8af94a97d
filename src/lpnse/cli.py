"""Command-line entry point.

Exit codes: 0 all checks passed / work done, 1 a verification assertion
failed, 2 usage or configuration error, 3 numerical abort (CFL violation
or non-finite energy), a snapshot holding non-finite values, or a
snapshot whose Besov norm overflows.
Artifact-producing commands write their outputs, and a manifest.json
listing every file with its content hash, only once their work has
succeeded: a failed command makes no --out directory.
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .besov import BesovSpec, CriterionTriple, besov_norm, split_low_high
from .config import parse_kv_file
from .errors import LpnseError, NonFiniteError, SolverAbort
from .field import set_fft_workers
from .manifest import build_manifest, write_manifest
from .monitor import LosingParams, build_report
from .snapshots import (load_trajectory, read_field, save_trajectory,
                        write_field)
from .solver import SolverConfig, run, twin_run
from .verify import SUITES, run_suites

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

OUTDIR_ENV = "LPNSE_OUTDIR"

# besov, split and report check their results for inf and nan themselves
# and exit 3 with a message naming the file or key, so numpy's own
# overflow and invalid-value warnings would only repeat that as noise
_numeric_work = np.errstate(over="ignore", invalid="ignore")


def _outpath(args) -> str:
    return args.out or os.environ.get(OUTDIR_ENV) or "."


def _publish(args, command, parameters, started, write) -> str:
    """Make the --out directory, write a command's artifacts there with
    write(outdir) -> paths, and the manifest listing them, timed from
    `started`; returns the directory.  Called once the command's work has
    succeeded, so a failed command makes no directory."""
    outdir = _outpath(args)
    os.makedirs(outdir, exist_ok=True)
    paths = write(outdir)
    manifest = build_manifest(command, parameters, paths,
                              time.perf_counter() - started)
    write_manifest(os.path.join(outdir, "manifest.json"), manifest)
    return outdir


def _overrides(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _load_solver_config(args) -> SolverConfig:
    """The --config file's keys, overridden by --set's."""
    mapping = _overrides(getattr(args, "set", None))
    if args.config is not None:
        mapping = {**parse_kv_file(args.config), **mapping}
    return SolverConfig.from_mapping(mapping)


def _parse_triple(text: str) -> CriterionTriple:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--triple expects r,p,q; got {text!r}")
    r, p, q = (float(part) for part in parts)
    return CriterionTriple(r, p, q)


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    started = time.perf_counter()
    results = run_suites(names, n=args.n, seed=args.seed,
                         ensemble=args.ensemble,
                         dealias=False if args.no_dealias else None)
    reports = {}
    for result in results:
        print(result.table())
        reports.update(result.reports)

    def write(outdir):
        paths = [os.path.join(outdir, f"{name}.csv") for name in reports]
        for path, report in zip(paths, reports.values()):
            report.to_csv(path)
        return paths

    # the constants are written whether or not every check passed
    if reports and (args.out is not None or os.environ.get(OUTDIR_ENV)):
        _publish(args, "verify",
                 {"suite": args.suite,
                  "options": {r.name: r.options for r in results}},
                 started, write)
    for result in results:
        for check, measured, bound, ok in result.rows:
            if not ok:
                print(f"first failure: {result.name}/{check} "
                      f"(measured {measured:.6e}, bound {bound:.6e})")
                return EXIT_FAIL
    return EXIT_PASS


def cmd_simulate(args) -> int:
    config = _load_solver_config(args)
    started = time.perf_counter()
    traj = run(config)
    outdir = _publish(args, "simulate", config.to_mapping(), started,
                      lambda outdir: save_trajectory(outdir, traj))
    print(f"steps={len(traj.series['t']) - 1} snapshots={len(traj)} "
          f"final_energy={traj.series['energy'][-1]:.6e} -> {outdir}")
    return EXIT_PASS


def cmd_twin(args) -> int:
    config = _load_solver_config(args)
    started = time.perf_counter()
    traj_u, traj_v = twin_run(config, args.delta, args.seed,
                              pert_kmax=args.kmax)
    params = dict(config.to_mapping(), delta=args.delta,
                  perturbation_seed=args.seed, perturbation_kmax=args.kmax)
    outdir = _publish(args, "twin", params, started, lambda outdir: (
        save_trajectory(os.path.join(outdir, "u"), traj_u)
        + save_trajectory(os.path.join(outdir, "v"), traj_v)))
    print(f"twin trajectories written to {outdir}/u and {outdir}/v")
    return EXIT_PASS


@_numeric_work
def cmd_report(args) -> int:
    # validate the cheap scalar inputs before touching any trajectory
    triple = _parse_triple(args.triple).validate(args.mode)
    params = LosingParams(args.s, args.lam)
    # the snapshots are read, one pair per thread, inside build_report
    traj_u, traj_v = load_trajectory(args.u), load_trajectory(args.v)
    started = time.perf_counter()
    report = build_report(traj_u, traj_v, triple, params.s, params.lam)
    summary = report.summary()  # checked before --out is made
    _publish(args, "report",
             {"u": str(args.u), "v": str(args.v), "triple": args.triple,
              "s": args.s, "lambda": args.lam, "mode": args.mode},
             started, report.write)
    print(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False))
    return EXIT_PASS


def _snapshot_norm(path, f, spec: BesovSpec) -> float:
    """besov_norm of the snapshot f read from path, rejecting (exit 3) a
    norm that overflowed to inf or nan."""
    value = besov_norm(f, spec)
    if not math.isfinite(value):
        raise NonFiniteError(f"{path}: B^{spec.s:g}_{{{spec.p:g},{spec.q:g}}} "
                             f"norm is {value!r}")
    return value


@_numeric_work
def cmd_besov(args) -> int:
    spec = BesovSpec(args.s, args.p, args.q)
    f, _ = read_field(args.snapshot)
    print(repr(_snapshot_norm(args.snapshot, f, spec)))
    return EXIT_PASS


@_numeric_work
def cmd_split(args) -> int:
    triple = CriterionTriple(args.r, args.p, args.q).validate()
    f, header = read_field(args.snapshot)
    started = time.perf_counter()
    norm_value = _snapshot_norm(args.snapshot, f,
                                BesovSpec(triple.r, triple.p, math.inf))
    result = split_low_high(f, triple, norm_value)
    outdir = _outpath(args)
    low_path = os.path.join(outdir, "u_low.fld")
    high_path = os.path.join(outdir, "u_high.fld")
    # p = inf gives p_tilde = inf, spelled "inf" as --p spells it
    meta = json.dumps({
        "N": result.N,
        "p_tilde": "inf" if math.isinf(result.p_tilde) else result.p_tilde,
        "q_tilde": result.q_tilde,
        "norm": norm_value,
        "low": low_path,
        "high": high_path,
    }, indent=2, sort_keys=True, allow_nan=False)

    def write(_):
        for path, part in ((low_path, result.u_low),
                           (high_path, result.u_high)):
            write_field(path, part, time=header.get("time"),
                        viscosity=header.get("viscosity"))
        return [low_path, high_path]

    _publish(args, "split", {"snapshot": str(args.snapshot), "r": args.r,
                             "p": args.p, "q": args.q}, started, write)
    print(meta)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpnse",
        description="Dyadic-block diagnostics for incompressible flows")
    parser.add_argument("--threads", type=int, default=None,
                        help="threads for per-snapshot work and block-norm "
                        "lanes (default 2, or 1 on one CPU; capped at the "
                        "available CPUs)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("--suite", choices=("all", *SUITES), default="all")
    p.add_argument("--n", type=int, default=None, help="grid resolution")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ensemble", type=int, default=None)
    p.add_argument("--out", default=None, help="directory for constant CSVs")
    p.add_argument("--no-dealias", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="integrate one flow")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("twin", help="integrate a flow and a perturbed twin")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--delta", type=float, required=True,
                   help="relative perturbation size")
    p.add_argument("--seed", type=int, required=True,
                   help="perturbation seed")
    p.add_argument("--kmax", type=float, default=8.0,
                   help="perturbation band limit")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_twin)

    p = sub.add_parser("report", help="uniqueness diagnostics for a pair of runs")
    p.add_argument("--u", required=True, help="base trajectory directory")
    p.add_argument("--v", required=True, help="comparison trajectory directory")
    p.add_argument("--triple", required=True, metavar="R,P,Q")
    p.add_argument("--s", type=float, required=True,
                   help="losing-regularity index in (0,1)")
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="losing-weight rate (> 0)")
    p.add_argument("--mode", choices=("uniqueness", "negative-r"),
                   default="uniqueness")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("besov", help="norm of a stored snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, default=math.inf)
    p.set_defaults(func=cmd_besov)

    p = sub.add_parser("split", help="low/high decomposition of a snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_split)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print(f"error: --threads must be >= 1, got {args.threads}",
                  file=sys.stderr)
            return EXIT_USAGE
        set_fft_workers(args.threads)
    try:
        return args.func(args)
    except SolverAbort as exc:
        print(f"numerical abort [{exc.reason}]: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except NonFiniteError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (LpnseError, ValueError, KeyError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
