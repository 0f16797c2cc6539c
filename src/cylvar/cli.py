"""Command-line driver: scans, single-point energies, reports.

Exit codes: 0 success, 1 numeric/runtime failure, 2 usage error.  Flags can
also be supplied through a JSON config file (``--config``); explicit flags
win.  ``CYLVAR_JOBS`` sets the default worker count for scans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import hamiltonian, optimizer
from .hydrogen2d import RadialGrid, ground_energy_2d, ratio_3d_2d
from .appendix_rep import verify_table
from .quadrature import QuadratureSpec
from .records import (CSV_HEADER, ScanRecord, format_float, format_row,
                      write_csv, write_json)
from .trialfn import SystemConfig, TrialParams

__all__ = ["main"]

_PARAM_FLAGS = ("alpha", "beta", "nu", "gamma")


def _parse_rho0(text: str) -> float:
    if text.strip().lower() == "inf":
        return math.inf
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("rho0 must be positive or 'inf'")
    return value


def _parse_list(text: str, parse=float) -> list[float]:
    return [parse(tok) for tok in text.split(",") if tok.strip()]


def _default_jobs() -> int:
    return int(os.environ.get("CYLVAR_JOBS", "1"))


def _spec_from(args) -> QuadratureSpec:
    return QuadratureSpec(n_rho=args.nodes, n_z=args.nodes)


def _cfg_from(args, B: float | None = None,
              rho0: float | None = None) -> SystemConfig:
    return SystemConfig(B=args.B if B is None else B,
                        rho0=args.rho0 if rho0 is None else rho0,
                        coulomb_on=args.coulomb == "on")


def _fixed_from(args) -> dict:
    return {name: getattr(args, name) for name in _PARAM_FLAGS
            if getattr(args, name, None) is not None}


def _single_record(args) -> ScanRecord:
    cfg = _cfg_from(args)
    spec = _spec_from(args)
    fixed = _fixed_from(args)
    req = optimizer.default_request(cfg, fixed=fixed)
    # The reference energy first: it refuses some inputs outright.
    e0 = hamiltonian.reference_energy(cfg)
    result = optimizer.minimize(req, spec)
    return optimizer.record_for(cfg, result, spec, e0)


def _print_record(rec: ScanRecord):
    print(CSV_HEADER)
    print(",".join(format_row(rec)))


def cmd_energy(args) -> int:
    rec = _single_record(args)
    _print_record(rec)
    return 0


def cmd_observables(args) -> int:
    rec = _single_record(args)
    _print_record(rec)
    print(f"# <rho> = {format_float(rec.mean_rho)}  "
          f"<|z|> = {format_float(rec.mean_abs_z)}  "
          f"<rho>/(2<|z|>) = {format_float(rec.aspect_ratio)}")
    return 0


def cmd_binding(args) -> int:
    rec = _single_record(args)
    print(f"E0 = {format_float(rec.E0)}")
    print(f"E  = {format_float(rec.E)}")
    print(f"Eb = {format_float(rec.Eb)}")
    return 0


def cmd_entropy(args) -> int:
    rec = _single_record(args)
    print(f"E   = {format_float(rec.E)}")
    print(f"S_r = {format_float(rec.shannon_r)}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(f"{format_float(rec.B)} {format_float(rec.shannon_r)}\n")
    return 0


def cmd_scan(args) -> int:
    grid = [_cfg_from(args, B=b, rho0=r)
            for b in args.B_list for r in args.rho0_list]
    records = optimizer.scan(grid, _spec_from(args), jobs=args.jobs)
    if args.format == "csv":
        write_csv(records, args.out)
    else:
        write_json(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_compare2d(args) -> int:
    spec = _spec_from(args)
    grid2d = RadialGrid(args.grid_points)
    lines = []
    for b in args.B_list:
        for r in args.rho0_list:
            cfg = _cfg_from(args, B=b, rho0=r)
            res = optimizer.minimize(optimizer.default_request(cfg), spec)
            e2 = ground_energy_2d(b, r, grid2d)
            ratio = ratio_3d_2d(b, r, res, grid2d)
            lines.append(f"{format_float(r)} {format_float(ratio)} "
                         f"{format_float(b)}")
            print(f"B={b} rho0={r}: E3d={format_float(res.energy.total)} "
                  f"E2d={format_float(e2)} ratio={format_float(ratio)}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def cmd_fit_tail(args) -> int:
    spec = _spec_from(args)
    pairs = []
    for r in args.rho0_list:
        cfg = SystemConfig(B=0.0, rho0=r)
        res = optimizer.minimize(optimizer.default_request(cfg), spec)
        pairs.append((r, res.energy.total))
    amp, exponent = hamiltonian.fit_large_rho0_tail(pairs)
    print(f"E(rho0) ~ -0.5 + A / rho0^x with A = {format_float(amp)}, "
          f"x = {format_float(exponent)}")
    if args.out:
        with open(args.out, "w") as fh:
            for r, e in pairs:
                fh.write(f"{format_float(r)} {format_float(e)}\n")
    return 0


def cmd_verify_appendix(args) -> int:
    report = verify_table()
    for labels, res in report.rows:
        status = "ok" if res <= 1e-10 else "FAIL"
        print(f"n={labels.n} ell={labels.ell} m={labels.m:+d} "
              f"p={labels.p} N={labels.N}  max residual {res:.2e}  {status}")
    if not report.ok:
        print(f"{len(report.failures)} row(s) failed", file=sys.stderr)
        return 1
    print("all rows verified")
    return 0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--nodes", type=int, default=None,
                   help="quadrature nodes per direction (default 64)")
    p.add_argument("--coulomb", choices=("on", "off"), default=None)
    p.add_argument("--config", type=str, default=None,
                   help="JSON file with defaults for any flag")


def _add_point(p: argparse.ArgumentParser):
    p.add_argument("--B", type=float, default=None)
    p.add_argument("--rho0", type=_parse_rho0, default=None)
    for name in _PARAM_FLAGS:
        p.add_argument(f"--{name}", type=float, default=None,
                       help=f"pin {name} instead of optimizing it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylvar",
        description="Variational hydrogen atom in a magnetized cylinder")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("energy", cmd_energy), ("binding", cmd_binding),
                     ("observables", cmd_observables),
                     ("entropy", cmd_entropy)):
        p = sub.add_parser(name)
        _add_common(p)
        _add_point(p)
        if name == "entropy":
            p.add_argument("--out", type=str, default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser("scan")
    _add_common(p)
    p.add_argument("--B-list", dest="B_list", type=str, default=None)
    p.add_argument("--rho0-list", dest="rho0_list", type=str, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("compare2d")
    _add_common(p)
    p.add_argument("--B-list", "--B", dest="B_list", type=str, default=None)
    p.add_argument("--rho0-list", "--rho0", dest="rho0_list", type=str,
                   default=None)
    p.add_argument("--grid-points", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=cmd_compare2d)

    p = sub.add_parser("fit-tail")
    _add_common(p)
    p.add_argument("--rho0-list", dest="rho0_list", type=str, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=cmd_fit_tail)

    p = sub.add_parser("verify-appendix")
    p.set_defaults(fn=cmd_verify_appendix, config=None)
    return parser


_DEFAULTS = {
    "nodes": 64,
    "coulomb": "on",
    "B": 0.0,
    "rho0": math.inf,
    "format": "csv",
    "grid_points": 800,
    "rho0_list": "2.5,3.0,3.5,4.0,4.5,5.0",
    "B_list": "0",
    "out": "scan.csv",
}


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """Fill unset flags from the JSON config, then from built-in defaults."""
    config = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            parser.error("--config must contain a JSON object")
    for key, value in vars(args).items():
        if value is not None:
            continue
        source = config.get(key, config.get(key.replace("_", "-")))
        if source is None:
            source = _DEFAULTS.get(key)
        if source is not None:
            setattr(args, key, source)
    # normalize types that may arrive as strings from config/defaults
    if getattr(args, "rho0", None) is not None and isinstance(args.rho0, str):
        args.rho0 = _parse_rho0(args.rho0)
    for key in ("B_list", "rho0_list"):
        if hasattr(args, key) and isinstance(getattr(args, key), str):
            parse = _parse_rho0 if key == "rho0_list" else float
            setattr(args, key, _parse_list(getattr(args, key), parse))
    if getattr(args, "jobs", None) is None and hasattr(args, "jobs"):
        args.jobs = _default_jobs()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, parser)
    except (OSError, json.JSONDecodeError, argparse.ArgumentTypeError) as exc:
        parser.error(str(exc))
    try:
        return args.fn(args)
    except Exception as exc:  # numeric/runtime failure contract: exit 1
        print(f"cylvar: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
