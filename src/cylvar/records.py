"""Scan output records and their CSV/JSON serialization."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

__all__ = ["ScanRecord", "CSV_HEADER", "write_csv", "write_json",
           "format_float", "format_row"]

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

    @property
    def bound_state(self) -> bool:
        """E < 0: the state is bound."""
        return bool(self.E < 0)


def format_float(x) -> str:
    """9 significant digits, '.' decimal separator, 'inf' sentinel."""
    if x is None:
        return ""
    if math.isinf(x):
        return "inf"
    return f"{x:.9g}"


def format_row(rec: ScanRecord) -> list[str]:
    """The CSV fields of one record, as ``write_csv`` writes them."""
    return [*(format_float(getattr(rec, k)) for k in _FLOAT_FIELDS),
            str(rec.converged).lower(), str(rec.evals),
            str(rec.bound_state).lower()]


def write_csv(records, path):
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(_FIELDS)
        for rec in records:
            w.writerow(format_row(rec))


def _jsonable(rec: ScanRecord) -> dict:
    """The CSV row's values: JSON has no inf literal, so "inf" stays a
    string, and an empty gamma is null."""
    d = {k: None if cell == "" else cell if cell == "inf" else float(cell)
         for k, cell in zip(_FLOAT_FIELDS, format_row(rec))}
    d.update(converged=rec.converged, evals=rec.evals,
             bound_state=rec.bound_state)
    return d


def write_json(records, path):
    with open(path, "w") as fh:
        json.dump([_jsonable(r) for r in records], fh, indent=2)
        fh.write("\n")

