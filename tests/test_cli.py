import json
import math
import warnings

import pytest

from cylvar import cli, optimizer
from cylvar.cli import build_parser, main, _parse_rho0
from cylvar.records import CSV_HEADER, read_csv, read_json


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_energy_prints_header_and_row(capsys):
    code, out, _ = run(["energy", "--B", "0", "--rho0", "2",
                        "--alpha", "1.1058", "--beta", "0", "--nu", "3.4951",
                        "--nodes", "64"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert float(fields[2]) == pytest.approx(-0.2767, abs=1e-3)
    assert fields[-1] == "true"


def test_binding_output(capsys):
    code, out, _ = run(["binding", "--B", "0", "--rho0", "2",
                        "--alpha", "1.1058", "--beta", "0", "--nu", "3.4951",
                        "--nodes", "64"], capsys)
    assert code == 0
    vals = {line.split("=")[0].strip(): float(line.split("=")[1])
            for line in out.strip().splitlines()}
    assert vals["Eb"] == pytest.approx(vals["E0"] - vals["E"], abs=1e-9)
    assert vals["Eb"] > 0


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--rho0", "-3"])
    assert exc.value.code == 2
    # the tail model's limit, -1/2, is the free atom with the Coulomb term,
    # so fit-tail takes no --coulomb
    with pytest.raises(SystemExit) as exc:
        main(["fit-tail", "--coulomb", "off"])
    assert exc.value.code == 2


def test_numeric_failure_exits_1(capsys):
    # node count below the supported minimum -> runtime failure, not usage
    code, _, err = run(["energy", "--B", "0", "--rho0", "2",
                        "--alpha", "1", "--beta", "0", "--nu", "2",
                        "--nodes", "4"], capsys)
    assert code == 1
    assert "error" in err
    # the confinement energy j01^2 / (2 rho0^2) overflows a double
    code, _, err = run(["binding", "--B", "1", "--rho0", "1e-200",
                        "--alpha", "1", "--beta", "0.1", "--nu", "2"], capsys)
    assert code == 1
    assert "error" in err


def test_wide_cavity_binding_is_served(capsys):
    # z = B rho0^2 / 2 = 1800: E0 is the Landau level B/2 to double
    # precision, and the radial rule stops where the density underflows.
    code, out, _ = run(["binding", "--B", "1", "--rho0", "60",
                        "--alpha", "1", "--beta", "0.1", "--nu", "2"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "E0 = 0.5"


@pytest.mark.parametrize("argv,name", [
    (["--rho0", "2", "--alpha", "1.1", "--beta", "0", "--nu", "0.5"], "nu"),
    (["--B", "1", "--rho0", "inf", "--alpha", "1", "--beta", "0"], "beta"),
    (["--rho0", "2", "--alpha", "0", "--beta", "0", "--nu", "2"], "alpha"),
    (["--rho0", "2", "--gamma", "0.3"], "gamma"),
    (["--B", "0", "--rho0", "2", "--alpha", "1.1", "--beta", "0.3",
      "--nu", "3.5"], "beta"),
    # below this field beta = (beta*B)/B would overflow for an ordinary
    # Gaussian width: the config refuses it
    (["--B", "1e-301", "--rho0", "2"], "B"),
    # a pinned value must be finite, and gamma^2 must not overflow
    (["--B", "0", "--rho0", "2", "--alpha", "inf"], "alpha"),
    (["--B", "0.5", "--rho0", "2", "--beta", "inf"], "beta"),
    (["--B", "0.5", "--rho0", "2", "--beta", "nan"], "beta"),
    (["--B", "0", "--rho0", "2", "--nu", "inf"], "nu"),
    (["--B", "0", "--rho0", "inf", "--gamma", "nan"], "gamma"),
    (["--B", "0", "--rho0", "inf", "--gamma", "inf"], "gamma"),
    (["--B", "0", "--rho0", "inf", "--gamma", "1e200"], "gamma"),
])
def test_inadmissible_pinned_value_exits_1(argv, name, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(["energy", "--nodes", "48"] + argv, capsys)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"cylvar: error: {name}")
    assert [str(w.message) for w in caught] == []


def test_compare2d_coulomb_off_compares_like_with_like(capsys):
    # Both energies without the Coulomb term: the disc's level at (0, 2) is
    # 0.722898245, and the 3D trial energy lies just above it.
    code, out, _ = run(["compare2d", "--coulomb", "off", "--B", "0",
                        "--rho0", "2"], capsys)
    assert code == 0
    fields = dict(tok.split("=") for tok in out.split()[2:])
    assert fields["E2d"] == "0.722898245"
    assert float(fields["ratio"]) == pytest.approx(1.0078, abs=1e-4)


@pytest.mark.parametrize("pins", [["--nu", "1e300"],
                                  ["--alpha", "1", "--nu", "1e300"],
                                  ["--alpha", "1", "--nu", "1000"]])
def test_pinned_nu_beyond_the_rule_exits_1(pins, capsys):
    # Fewer than two of the 64 nodes lie in the cut-off's wall layer, where
    # psi^2 is far from negligible: E on the rule misses the layer (below
    # -1/2 at nu = 1e300), so it is refused, not printed.
    code, out, err = run(["energy", "--B", "0", "--rho0", "2"] + pins, capsys)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "nu = " in err


def test_pinned_nu_with_two_nodes_in_the_wall_layer_is_served(capsys):
    code, out, _ = run(["energy", "--B", "0", "--rho0", "2", "--alpha", "1",
                        "--nu", "79.3"], capsys)
    assert code == 0
    assert out.splitlines()[1].split(",")[2] == "1.87406826"


def test_refused_request_exits_before_optimizing(monkeypatch, capsys):
    def minimize(*args):
        raise RuntimeError("minimize was called")

    monkeypatch.setattr(optimizer, "minimize", minimize)
    # a pinned value outside the admissible set is refused by the request
    code, _, err = run(["binding", "--B", "1", "--rho0", "60", "--nu", "0.5"],
                       capsys)
    assert code == 1
    assert err.startswith("cylvar: error: nu = 0.5 is not admissible")


def test_scan_csv_and_json_agree(tmp_path, capsys):
    common = ["scan", "--B-list", "0", "--rho0-list", "2.0,2.5",
              "--nodes", "48", "--jobs", "1"]
    cpath, jpath = tmp_path / "s.csv", tmp_path / "s.json"
    code, _, _ = run(common + ["--out", str(cpath), "--format", "csv"], capsys)
    assert code == 0
    code, _, _ = run(common + ["--out", str(jpath), "--format", "json"], capsys)
    assert code == 0
    assert read_csv(cpath) == read_json(jpath)


def test_scan_reruns_are_byte_identical(tmp_path, capsys):
    argv = ["scan", "--B-list", "0", "--rho0-list", "2.0",
            "--nodes", "48", "--jobs", "1"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv + ["--out", str(p1)], capsys)[0] == 0
    assert run(argv + ["--out", str(p2)], capsys)[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_says_why_a_row_failed(jobs, tmp_path, capsys):
    # At rho0 = 1e-200 the confinement energy overflows: the row is NaN in
    # the CSV, and stderr names its B, rho0 and the reason, once.
    path = tmp_path / "s.csv"
    code, _, err = run(["scan", "--B-list", "1", "--rho0-list", "2,1e-200",
                        "--nodes", "48", "--jobs", jobs, "--out", str(path)],
                       capsys)
    assert code == 0
    assert err == ("cylvar: warning: scan row B=1 rho0=1e-200 failed: "
                   "ValueError: rho0 = 1e-200 is too small: the confinement "
                   "energy j01^2 / (2 rho0^2) overflows a double\n")
    rows = read_csv(path)
    assert math.isnan(rows[1].E) and not math.isnan(rows[0].E)


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = {"B": 0.0, "rho0": "2.0", "nodes": 48,
           "alpha": 1.0, "beta": 0.0, "nu": 2.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(["energy", "--config", str(path)], capsys)
    assert code == 0
    base_alpha = float(out.strip().splitlines()[1].split(",")[3])
    assert base_alpha == 1.0
    code, out, _ = run(["energy", "--config", str(path), "--alpha", "1.2"],
                       capsys)
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[3]) == 1.2


def test_config_file_must_be_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--config", str(path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("command,config", [
    ("energy", {"coulomb": "of"}),
    ("scan", {"format": "xml", "nodes": 32}),
])
def test_config_value_outside_choices_exits_2(command, config, tmp_path,
                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path)])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == [path]


def test_verify_appendix(capsys):
    code, out, _ = run(["verify-appendix"], capsys)
    assert code == 0
    assert "all rows verified" in out
    assert out.count("ok") >= 14


def test_coulomb_off_solve_prints_no_warnings(capsys):
    # A solve tries points with a huge |beta B|, where exp and f^2 overflow.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(["energy", "--coulomb", "off", "--B", "0.001",
                              "--rho0", "20"], capsys)
    assert code == 0
    assert err == ""
    assert [str(w.message) for w in caught] == []
    assert out.splitlines()[1].startswith("0.001,20,")


def test_huge_field_is_served(capsys):
    # At B = 1e11 the atom is 1e-5 across in a cavity of radius 2, so E does
    # not depend on nu at all once (rho/rho0)^nu underflows; the step cap in
    # ln nu keeps exp(ln nu) finite on the way.
    code, out, err = run(["energy", "--B", "1e11", "--rho0", "2"], capsys)
    assert code == 0
    assert err == ""
    row = out.splitlines()[1].split(",")
    assert float(row[2]) == pytest.approx(5e10, rel=1e-8)
    assert row[-3] == "true"  # converged


def test_pinned_alpha_solve_is_not_left_on_a_truncated_e(capsys):
    # beta B < 0 pushes the density to the wall, beyond the rule built at
    # the first start (rho_max 60.7 < rho0); E on that rule has a spurious
    # minimum there, at which E on the full rule is +1.79.
    code, out, _ = run(["energy", "--B", "0.0145", "--rho0", "92.3",
                        "--alpha", "1.1", "--nodes", "48"], capsys)
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert float(row[2]) <= -0.495213505
    assert row[-3] == "true"  # converged


def test_free_particle_solve_reaches_zero(capsys):
    # With the Coulomb term off at (0, inf), E > 0 falls to 0 as alpha -> 0,
    # and the density outruns every rule on the way.
    code, out, _ = run(["energy", "--coulomb", "off", "--B", "0",
                        "--rho0", "inf"], capsys)
    assert code == 0
    assert 0.0 < float(out.splitlines()[1].split(",")[2]) < 1e-14


def test_entropy_writes_optional_file(tmp_path, capsys):
    path = tmp_path / "s.dat"
    code, out, _ = run(["entropy", "--B", "0", "--rho0", "inf",
                        "--alpha", "1", "--beta", "0", "--nu", "2",
                        "--gamma", "0", "--nodes", "64",
                        "--out", str(path)], capsys)
    assert code == 0
    assert "S_r" in out
    b, s = path.read_text().split()
    assert float(s) == pytest.approx(3.0 + 1.1447298858, abs=1e-3)


def test_jobs_env_default(monkeypatch):
    monkeypatch.setenv("CYLVAR_JOBS", "3")
    assert build_parser().parse_args(["scan"]).jobs == 3
    monkeypatch.delenv("CYLVAR_JOBS")
    assert build_parser().parse_args(["scan"]).jobs == 1


def test_flag_then_config_then_env_then_default(monkeypatch):
    monkeypatch.setenv("CYLVAR_JOBS", "3")
    config = {"jobs": 2, "rho0-list": "1,inf", "nodes": "48"}
    args = build_parser(config).parse_args(["scan", "--nodes", "32"])
    assert (args.nodes, args.jobs) == (32, 2)
    assert args.rho0_list == [1.0, math.inf]
    assert args.B_list == [0.0] and args.out == "scan.csv"
    args = build_parser({}).parse_args(["scan"])
    assert (args.nodes, args.jobs) == (64, 3)


PINNED = ["energy", "--B", "0", "--rho0", "2", "--alpha", "1.1058",
          "--beta", "0", "--nu", "3.4951", "--nodes", "32"]


def test_main_builds_the_parser_once(monkeypatch, capsys):
    monkeypatch.delenv("CYLVAR_JOBS", raising=False)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return build_parser(*args)

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    first = run(PINNED, capsys)
    assert run(PINNED, capsys) == first
    assert first[0] == 0
    assert calls == 1


def test_main_honours_a_jobs_env_change(monkeypatch, capsys):
    seen = []

    def scan(grid, spec, jobs):
        seen.append(jobs)
        raise RuntimeError("scan stopped")

    monkeypatch.setattr(optimizer, "scan", scan)
    for env in ("3", "2", None):
        if env is None:
            monkeypatch.delenv("CYLVAR_JOBS")
        else:
            monkeypatch.setenv("CYLVAR_JOBS", env)
        assert run(["scan"], capsys)[0] == 1
    assert seen == [3, 2, 1]


def test_config_call_between_plain_calls(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha": 1.0, "nu": 2.0, "nodes": 48}))
    plain = run(PINNED, capsys)
    code, out, _ = run(["energy", "--config", str(path), "--B", "0",
                        "--rho0", "2", "--beta", "0"], capsys)
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert (float(row[3]), float(row[5])) == (1.0, 2.0)
    assert row != plain[1].strip().splitlines()[1].split(",")
    assert run(PINNED, capsys) == plain


def test_only_scan_writes_a_file_by_default(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    point = ["--B", "0", "--rho0", "2", "--nodes", "32"]
    assert run(["entropy", "--alpha", "1", "--beta", "0", "--nu", "2"]
               + point, capsys)[0] == 0
    assert run(["compare2d"] + point, capsys)[0] == 0
    assert list(tmp_path.iterdir()) == []


def test_parse_rho0():
    assert _parse_rho0("inf") == math.inf
    assert _parse_rho0(" INF ") == math.inf
    assert _parse_rho0("2.5") == 2.5
