import csv
import dataclasses
import json
import math

import pytest

from cylvar.records import (CSV_HEADER, ScanRecord, format_float, write_csv,
                            write_json)


def sample_records():
    return [
        ScanRecord(B=0.0, rho0=2.0, E=-0.276756213, alpha=1.10578354,
                   beta=0.0, nu=3.49507, gamma=None, E0=0.722901,
                   Eb=0.999657, mean_rho=0.712345678, mean_abs_z=0.81,
                   aspect_ratio=0.44, shannon_r=2.9338874, cusp_Z=1.105,
                   converged=True, evals=321),
        ScanRecord(B=1.0, rho0=math.inf, E=-0.330456, alpha=1.06,
                   beta=0.245, nu=2.0, gamma=0.31, E0=0.5, Eb=0.830456,
                   mean_rho=0.8915, mean_abs_z=1.18, aspect_ratio=0.377,
                   shannon_r=3.46, cusp_Z=1.06, converged=False, evals=777),
    ]


def test_header_is_frozen():
    assert CSV_HEADER == ("B,rho0,E,alpha,beta,nu,gamma,E0,Eb,mean_rho,"
                          "mean_abs_z,aspect_ratio,shannon_r,cusp_Z,"
                          "converged,evals,bound_state")


def test_bound_state_is_derived():
    rec = sample_records()[0]
    assert rec.bound_state
    # not a field: always computed from the energy sign
    assert "bound_state" not in {f.name for f in dataclasses.fields(rec)}
    assert not dataclasses.replace(rec, E=0.3).bound_state
    assert not dataclasses.replace(rec, E=math.nan).bound_state


def test_format_float():
    assert format_float(None) == ""
    assert format_float(math.inf) == "inf"
    assert format_float(-0.276756213) == "-0.276756213"
    assert format_float(1.0) == "1"
    assert len(format_float(1.0 / 3.0).lstrip("0.")) <= 9


def test_csv_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    recs = sample_records()
    write_csv(recs, path)
    text = path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert "\r" not in text
    assert ",inf," in text.splitlines()[2]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row, rec in zip(rows, recs):
        assert list(row) == CSV_HEADER.split(",")
        for name, cell in row.items():
            value = getattr(rec, name)
            if isinstance(value, bool):
                assert cell == ("true" if value else "false")
            elif name == "evals":
                assert cell == str(value)
            elif value is None:
                assert cell == ""
            elif math.isinf(value):
                assert cell == "inf"
            else:  # 9 significant digits
                assert float(cell) == pytest.approx(value, rel=1e-8)
    assert rows[0]["bound_state"] == "true"
    assert rows[1]["converged"] == "false"


def test_json_matches_csv_values(tmp_path, csv_as_json):
    recs = sample_records()
    cpath, jpath = tmp_path / "o.csv", tmp_path / "o.json"
    write_csv(recs, cpath)
    write_json(recs, jpath)
    raw = json.loads(jpath.read_text())
    assert [list(d) for d in raw] == [CSV_HEADER.split(",")] * 2
    # both carry the 9-significant-digit values
    assert raw == csv_as_json(cpath)
    assert raw[1]["rho0"] == "inf"
    assert raw[0]["gamma"] is None


def test_write_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(sample_records(), p1)
    write_csv(sample_records(), p2)
    assert p1.read_bytes() == p2.read_bytes()
