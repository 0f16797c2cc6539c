"""Scan output records and their CSV/JSON serialization."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, asdict, field

__all__ = ["ScanRecord", "CSV_HEADER", "write_csv", "write_json",
           "read_csv", "read_json", "format_float", "format_row"]

CSV_HEADER = ("B,rho0,E,alpha,beta,nu,gamma,E0,Eb,mean_rho,mean_abs_z,"
              "aspect_ratio,shannon_r,cusp_Z,converged,evals,bound_state")

_FIELDS = CSV_HEADER.split(",")
_FLOAT_FIELDS = _FIELDS[:14]


@dataclass(frozen=True)
class ScanRecord:
    """One row of an output table: configuration, optimum and observables."""

    B: float
    rho0: float
    E: float
    alpha: float
    beta: float
    nu: float
    gamma: float | None
    E0: float
    Eb: float
    mean_rho: float
    mean_abs_z: float
    aspect_ratio: float
    shannon_r: float
    cusp_Z: float
    converged: bool
    evals: int
    bound_state: bool = field(default=False)

    def __post_init__(self):
        object.__setattr__(self, "bound_state", bool(self.E < 0))


def format_float(x) -> str:
    """9 significant digits, '.' decimal separator, 'inf' sentinel."""
    if x is None:
        return ""
    if math.isinf(x):
        return "inf"
    return f"{x:.9g}"


def format_row(rec: ScanRecord) -> list[str]:
    """The CSV fields of one record, as ``write_csv`` writes them."""
    d = vars(rec)
    out = [format_float(d[k]) for k in _FLOAT_FIELDS]
    out.append("true" if rec.converged else "false")
    out.append(str(rec.evals))
    out.append("true" if rec.bound_state else "false")
    return out


def _parse_row(row: list[str]) -> ScanRecord:
    vals: dict = {}
    for k, s in zip(_FLOAT_FIELDS, row[:14]):
        vals[k] = None if s == "" else float(s)
    vals["converged"] = row[14] == "true"
    vals["evals"] = int(row[15])
    return ScanRecord(**vals)


def write_csv(records, path):
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(_FIELDS)
        for rec in records:
            w.writerow(format_row(rec))


def read_csv(path) -> list[ScanRecord]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows and rows[0] == _FIELDS:
        rows = rows[1:]
    return [_parse_row(r) for r in rows]


def _jsonable(rec: ScanRecord) -> dict:
    d = asdict(rec)
    for k in _FLOAT_FIELDS:
        # JSON has no inf literal; round-trip through the printed precision
        # so csv and json carry identical numeric values.
        d[k] = None if d[k] is None else (
            "inf" if math.isinf(d[k]) else float(format_float(d[k])))
    return d


def write_json(records, path):
    with open(path, "w") as fh:
        json.dump([_jsonable(r) for r in records], fh, indent=2)
        fh.write("\n")


def read_json(path) -> list[ScanRecord]:
    with open(path) as fh:
        data = json.load(fh)
    out = []
    for d in data:
        for k in _FLOAT_FIELDS:
            if d[k] == "inf":
                d[k] = math.inf
        out.append(ScanRecord(**d))
    return out
