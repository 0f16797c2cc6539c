"""Command-line driver: scans, single-point energies, reports.

Exit codes: 0 success, 1 numeric/runtime failure (a pinned parameter outside
the admissible set among them), 2 usage error.  Each flag takes its value
from the command line, else from the JSON object in the ``--config`` file,
else (``--jobs`` only) from ``CYLVAR_JOBS``, else from its built-in default.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

from . import hamiltonian, optimizer
from .hydrogen2d import RadialGrid, ground_energy_2d
from .appendix_rep import verify_table
from .quadrature import QuadratureSpec
from .records import (CSV_HEADER, ScanRecord, format_float, format_row,
                      write_csv, write_json)
from .trialfn import SystemConfig

__all__ = ["main"]

_PARAM_FLAGS = ("alpha", "beta", "nu", "gamma")
# The flags with a fixed set of values.
_CHOICES = {"coulomb": ("on", "off"), "format": ("csv", "json")}
_RHO0_LIST = "2.5,3.0,3.5,4.0,4.5,5.0"


def _parse_rho0(text: str) -> float:
    if text.strip().lower() == "inf":
        return math.inf
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("rho0 must be positive or 'inf'")
    return value


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _rho0_list(text: str) -> list[float]:
    return [_parse_rho0(tok) for tok in text.split(",") if tok.strip()]


def _spec_from(args) -> QuadratureSpec:
    return QuadratureSpec(n_rho=args.nodes)


def _cfg_from(args, B: float | None = None,
              rho0: float | None = None) -> SystemConfig:
    return SystemConfig(B=args.B if B is None else B,
                        rho0=args.rho0 if rho0 is None else rho0,
                        coulomb_on=args.coulomb == "on")


def _fixed_from(args) -> dict:
    return {name: getattr(args, name) for name in _PARAM_FLAGS
            if getattr(args, name, None) is not None}


def _single_record(args) -> ScanRecord:
    return optimizer.point_record(_cfg_from(args), _spec_from(args),
                                  fixed=_fixed_from(args))


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
            e2 = ground_energy_2d(b, r, grid2d, cfg.coulomb_on)
            ratio = res.energy.total / e2
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
        status = "FAIL" if labels in report.failures else "ok"
        print(f"n={labels.n} ell={labels.ell} m={labels.m:+d} "
              f"p={labels.p} N={labels.N}  max residual {res:.2e}  {status}")
    if not report.ok:
        print(f"{len(report.failures)} row(s) failed", file=sys.stderr)
        return 1
    print("all rows verified")
    return 0


def _add_common(p: argparse.ArgumentParser, coulomb: bool = True):
    p.add_argument("--nodes", type=int, default=64,
                   help="radial quadrature nodes (default 64)")
    if coulomb:
        p.add_argument("--coulomb", choices=_CHOICES["coulomb"], default="on")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file with defaults for any flag")


def _add_point(p: argparse.ArgumentParser):
    p.add_argument("--B", type=float, default=0.0)
    p.add_argument("--rho0", type=_parse_rho0, default=math.inf)
    for name in _PARAM_FLAGS:
        p.add_argument(f"--{name}", type=float, default=None,
                       help=f"pin {name} instead of optimizing it")


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The CLI parser, with ``config``'s values as flag defaults."""
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
    p.add_argument("--B-list", dest="B_list", type=_float_list, default="0")
    p.add_argument("--rho0-list", dest="rho0_list", type=_rho0_list,
                   default=_RHO0_LIST)
    p.add_argument("--out", type=str, default="scan.csv")
    p.add_argument("--format", choices=_CHOICES["format"], default="csv")
    p.add_argument("--jobs", type=int, metavar="N",
                   default=os.environ.get("CYLVAR_JOBS", "1"),
                   help="processes at once, this one among them, each "
                        "taking every N-th grid point (default "
                        "$CYLVAR_JOBS, else 1)")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("compare2d")
    _add_common(p)
    p.add_argument("--B-list", "--B", dest="B_list", type=_float_list,
                   default="0")
    p.add_argument("--rho0-list", "--rho0", dest="rho0_list",
                   type=_rho0_list, default=_RHO0_LIST)
    p.add_argument("--grid-points", type=int, default=800)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=cmd_compare2d)

    p = sub.add_parser("fit-tail")
    # The tail model's limit, -1/2, is the free atom with the Coulomb term.
    _add_common(p, coulomb=False)
    p.add_argument("--rho0-list", dest="rho0_list", type=_rho0_list,
                   default=_RHO0_LIST)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=cmd_fit_tail)

    p = sub.add_parser("verify-appendix")
    p.set_defaults(fn=cmd_verify_appendix)

    # -1e-3 is a value, as -0.001 is: no cylvar flag looks like a number
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"-\.?\d")
    if config:
        # argparse converts a string default with the flag's type, as it
        # would the same text on the command line.
        defaults = {key.replace("-", "_"): value
                    for key, value in config.items()}
        for p in sub.choices.values():
            flags = {action.dest for action in p._actions}
            p.set_defaults(**{key: value for key, value in defaults.items()
                              if key in flags})
    return parser


@functools.lru_cache(maxsize=1)
def _parser(jobs_env: str | None) -> argparse.ArgumentParser:
    """``build_parser()``, built once per value of ``CYLVAR_JOBS``: the
    parser holds that value as the ``--jobs`` default, and ``main`` never
    changes a parser it parses with."""
    return build_parser()


def _read_config(path: str) -> dict:
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("--config must contain a JSON object")
    return config


def main(argv=None) -> int:
    parser = _parser(os.environ.get("CYLVAR_JOBS"))
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        # Parse again with the file's values as defaults, so that flags on
        # the command line still win.
        try:
            config = _read_config(args.config)
        except (OSError, ValueError) as exc:  # JSONDecodeError included
            parser.error(str(exc))
        args = build_parser(config).parse_args(argv)
        # argparse checks choices only for values on the command line.
        for dest, choices in _CHOICES.items():
            value = getattr(args, dest, choices[0])
            if value not in choices:
                parser.error(f"argument --{dest}: invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, choices))})")
    try:
        return args.fn(args)
    except Exception as exc:  # numeric/runtime failure contract: exit 1
        print(f"cylvar: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
