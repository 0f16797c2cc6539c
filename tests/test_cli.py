import argparse
import json
import math
import re
import warnings

import pytest

from cylvar import cli, optimizer
from cylvar.cli import main, _parse_rho0
from cylvar.records import CSV_HEADER
from test_acceptance import _tail_fit_window


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
    # gamma^2 is finite, but the sums hold (gamma rho)^4
    (["--B", "0", "--rho0", "inf", "--gamma", "1e150"], "gamma"),
    (["--B", "0", "--rho0", "inf", "--gamma", "1e153"], "gamma"),
    (["--B", "0", "--rho0", "inf", "--gamma", "1e154"], "gamma"),
    # a rule out to rho_max = _LN_CUT / (2 alpha) holds weights up to
    # w rho^4 and, with gamma, terms up to f^2 ~ (gamma rho)^4
    (["--B", "0", "--rho0", "inf", "--alpha", "1e-35", "--gamma", "0.1"],
     "alpha"),
    (["--B", "0", "--rho0", "inf", "--alpha", "1e-40", "--gamma", "0.1"],
     "alpha"),
    (["--B", "0", "--rho0", "inf", "--alpha", "1e-50", "--gamma", "0.1"],
     "alpha"),
    (["--B", "0", "--rho0", "inf", "--alpha", "1e-60", "--gamma", "0.1"],
     "alpha"),
    (["--B", "0", "--rho0", "inf", "--alpha", "1e-50", "--gamma", "0"],
     "alpha"),
    # here only the weight row w rho^4 overflows, not the terms
    (["--B", "0", "--rho0", "inf", "--alpha", "2e-50", "--gamma", "0"],
     "alpha"),
    (["--B", "0", "--rho0", "1e70", "--alpha", "1e-50", "--nu", "2"],
     "alpha"),
    (["--B", "0", "--rho0", "1e70", "--alpha", "1e-60", "--nu", "2"],
     "alpha"),
    # the moment of |z| holds 1/(2 alpha)^2
    (["--B", "0", "--rho0", "5", "--alpha", "1e-160", "--nu", "2"], "alpha"),
    # beta B < 0: G^2 = exp(-2 beta B rho^2) at the wall overflows f^2
    (["--B", "1", "--rho0", "30", "--alpha", "1", "--nu", "2",
      "--beta", "-0.4"], "beta"),
    (["--B", "1", "--rho0", "30", "--alpha", "1", "--nu", "2",
      "--beta", "-0.5"], "beta"),
    (["--B", "1", "--rho0", "30", "--alpha", "1", "--nu", "2",
      "--beta", "-0.8"], "beta"),
    (["--B", "1", "--rho0", "30", "--alpha", "1", "--nu", "2",
      "--beta", "-2"], "beta"),
    # beta*B is not a double
    (["--B", "1e10", "--rho0", "inf", "--alpha", "1", "--beta", "1e300",
      "--gamma", "0.1"], "beta"),
    # the rule ends at about 72/alpha, or sqrt(72/(beta B)), where the
    # weight rows w rho^2 (and w rho^3 at B > 0) underflow
    (["--B", "0", "--rho0", "5", "--alpha", "1e100", "--nu", "2"], "alpha"),
    (["--B", "0", "--rho0", "5", "--alpha", "1e140", "--nu", "2"], "alpha"),
    (["--B", "0", "--rho0", "5", "--alpha", "1e300", "--nu", "2"], "alpha"),
    (["--B", "0", "--rho0", "inf", "--alpha", "1e200", "--gamma", "0"],
     "alpha"),
    (["--B", "1e150", "--rho0", "5", "--alpha", "1e65", "--beta", "0",
      "--nu", "2"], "alpha"),
    (["--B", "1", "--rho0", "2", "--alpha", "1", "--nu", "2",
      "--beta", "1e200"], "beta"),
    (["--B", "1", "--rho0", "2", "--alpha", "1", "--nu", "2",
      "--beta", "1e300"], "beta"),
    (["--B", "0", "--rho0", "1e-80", "--alpha", "1", "--nu", "2"], "rho0"),
    # above this field B^2 in the Zeeman term is not a double
    (["--B", "1e160", "--rho0", "5", "--alpha", "1", "--beta", "0",
      "--nu", "2"], "B"),
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


@pytest.mark.parametrize("argv", [
    ["--B", "0", "--rho0", "inf", "--alpha", "1e-30", "--gamma", "0.1"],
    ["--B", "0", "--rho0", "inf", "--alpha", "1e-40", "--gamma", "0"],
    ["--B", "0", "--rho0", "1e70", "--alpha", "1e-40", "--nu", "2"],
    ["--B", "0", "--rho0", "5", "--alpha", "1e-40", "--nu", "2"],
    ["--B", "0.5", "--rho0", "inf", "--alpha", "1e-40", "--beta", "0.3",
     "--gamma", "0.1"],
])
def test_small_pinned_alpha_is_served(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(["energy"] + argv, capsys)
    assert code == 0
    assert len(out.splitlines()) == 2
    assert err == ""
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("argv,e", [
    (["--B", "1", "--rho0", "30", "--alpha", "1", "--nu", "2",
      "--beta", "-0.3"], "202.122219"),
    (["--B", "1", "--rho0", "30", "--alpha", "1", "--nu", "2",
      "--beta", "-0.05"], "108.702614"),
    (["--B", "0", "--rho0", "5", "--alpha", "1e20", "--nu", "2"], "5e+39"),
    (["--B", "0", "--rho0", "5", "--alpha", "1e50", "--nu", "2"], "5e+99"),
    (["--B", "0", "--rho0", "5", "--alpha", "1e75", "--nu", "2"], "5e+149"),
    (["--B", "1", "--rho0", "2", "--alpha", "1", "--nu", "2",
      "--beta", "1e100"], "1e+100"),
])
def test_pinned_value_short_of_a_refusal_is_served(argv, e, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(["observables"] + argv, capsys)
    assert code == 0
    assert out.splitlines()[1].split(",")[2] == e
    assert "= 0 " not in out.splitlines()[2]  # no observable underflows
    assert err == ""
    assert [str(w.message) for w in caught] == []


def test_narrow_core_with_a_density_rising_into_the_wall_is_served(capsys):
    # At beta B < 0 the core's extent (6.95) lies inside a quarter of rho0,
    # but exp(-2 alpha rho - 2 beta B rho^2) climbs back above e^-_LN_CUT at
    # the wall, so the rule runs out to rho0 and must pass its own check.
    code, out, err = run(["energy", "--B", "1", "--rho0", "30", "--alpha",
                          "12.8", "--beta", "-0.35", "--nu", "2"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split(",")[2] == "68.4757375"


@pytest.mark.parametrize("argv,same_as", [
    (["--B", "1", "--rho0", "3", "--alpha", "1", "--nu", "2",
      "--beta", "-1e-3"], "-0.001"),
    (["--B", "0.5", "--rho0", "inf", "--nodes", "48", "--gamma", "-1e-1"],
     "-0.1"),
    (["--rho0", "2", "--B", "-1e-3"], "-0.001"),
])
def test_negative_value_in_exponent_notation(argv, same_as, capsys):
    # the CSV prints such values, so they must read back as typed
    code, out, err = run(["energy"] + argv, capsys)
    assert (code, out, err) == run(["energy"] + argv[:-1] + [same_as], capsys)
    if argv[-2] == "--B":
        assert code == 1
        assert err.startswith("cylvar: error: B = -0.001")
        assert len(err.splitlines()) == 1
    else:
        assert code == 0


def test_compare2d_coulomb_off_compares_like_with_like(capsys):
    # Both energies without the Coulomb term: the disc's level at (0, 2) is
    # 0.722898245, and the 3D trial energy lies just above it.
    code, out, _ = run(["compare2d", "--coulomb", "off", "--B", "0",
                        "--rho0", "2"], capsys)
    assert code == 0
    fields = dict(tok.split("=") for tok in out.split()[2:])
    assert fields["E2d"] == "0.722898245"
    assert float(fields["ratio"]) == pytest.approx(1.0078, abs=1e-4)


def test_compare2d_writes_its_ratios(tmp_path, capsys):
    # one "rho0 ratio B" line per grid point, as printed on stdout
    path = tmp_path / "ratios.dat"
    code, out, _ = run(["compare2d", "--B", "0,2", "--rho0", "0.8,5",
                        "--out", str(path)], capsys)
    assert code == 0
    printed = [dict(tok.rstrip(":").split("=") for tok in line.split())
               for line in out.splitlines()]
    written = [line.split() for line in path.read_text().splitlines()]
    assert len(printed) == len(written) == 4
    for fields, (rho0, ratio, b) in zip(printed, written):
        assert (float(rho0), ratio, float(b)) == (
            float(fields["rho0"]), fields["ratio"], float(fields["B"]))


def test_fit_tail_prints_the_fit_and_writes_its_pairs(tmp_path, capsys):
    # criterion 9's radii: the fit lies in its window, and each radius's
    # optimized E is written as "rho0 E"
    path = tmp_path / "tail.dat"
    radii = ["2.5", "3", "3.5", "4", "4.5", "5"]
    code, out, _ = run(["fit-tail", "--rho0-list", ",".join(radii),
                        "--out", str(path)], capsys)
    assert code == 0
    line, = out.splitlines()
    fit = re.fullmatch(r"E\(rho0\) ~ -0\.5 \+ A / rho0\^x with "
                       r"A = (\S+), x = (\S+)", line)
    (a_lo, a_hi), (x_lo, x_hi) = _tail_fit_window()
    assert a_lo <= float(fit[1]) <= a_hi
    assert x_lo <= float(fit[2]) <= x_hi
    pairs = [row.split() for row in path.read_text().splitlines()]
    assert [rho0 for rho0, _ in pairs] == radii
    assert all(-0.5 < float(e) < 0 for _, e in pairs)


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


def test_scan_csv_and_json_agree(tmp_path, capsys, csv_as_json):
    common = ["scan", "--B-list", "0", "--rho0-list", "2.0,2.5",
              "--nodes", "48", "--jobs", "1"]
    cpath, jpath = tmp_path / "s.csv", tmp_path / "s.json"
    code, _, _ = run(common + ["--out", str(cpath), "--format", "csv"], capsys)
    assert code == 0
    code, _, _ = run(common + ["--out", str(jpath), "--format", "json"], capsys)
    assert code == 0
    assert csv_as_json(cpath) == json.loads(jpath.read_text())


def test_scan_reruns_are_byte_identical(tmp_path, capsys):
    argv = ["scan", "--B-list", "0", "--rho0-list", "2.0",
            "--nodes", "48", "--jobs", "1"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv + ["--out", str(p1)], capsys)[0] == 0
    assert run(argv + ["--out", str(p2)], capsys)[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2", "3"])
def test_scan_says_why_a_row_failed(jobs, tmp_path, capsys, csv_as_json):
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
    rows = csv_as_json(path)
    assert math.isnan(rows[1]["E"]) and not math.isnan(rows[0]["E"])


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


def outcome(argv, capsys, tmp_path):
    """Exit code, stdout, stderr and the files ``main(argv)`` wrote into
    ``tmp_path``, which it then deletes."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    written = {}
    for path in tmp_path.iterdir():
        if path.name != "cfg.json":
            written[path.name] = path.read_text()
            path.unlink()
    return code, out.out, out.err, written


@pytest.mark.parametrize("command,config,flags", [
    ("scan", {"B-list": 0.4, "rho0-list": "2"},
     ["--B-list", "0.4", "--rho0-list", "2"]),
    ("fit-tail", {"rho0-list": 2}, ["--rho0-list", "2"]),
    ("energy", {"nodes": 64.5}, ["--nodes", "64.5"]),
    ("scan", {"jobs": 1.5}, ["--jobs", "1.5"]),
    ("energy", {"rho0": 0}, ["--rho0", "0"]),
    # a key matches its flag by dest; one that is no flag of the command is
    # ignored, as are "config" and a null value
    ("scan", {"rho0_list": "2", "B_list": 0.4, "gamma": 0.1, "fn": "x",
              "command": "energy", "config": "other.json", "nodes": None},
     ["--rho0-list", "2", "--B-list", "0.4"]),
    ("scan", {"B-list": [0, 0.4], "rho0-list": "2", "nodes": 32},
     ["--B-list", "0,0.4", "--rho0-list", "2", "--nodes", "32"]),
])
def test_config_value_is_read_as_its_flag(command, config, flags, tmp_path,
                                          monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CYLVAR_JOBS", raising=False)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    from_config = outcome([command, "--config", "cfg.json"], capsys,
                          tmp_path)
    assert from_config == outcome([command, *flags], capsys, tmp_path)


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


def scan_call(argv, monkeypatch, capsys):
    """The (B, rho0) grid, node count and jobs that ``main(argv)`` hands to
    ``optimizer.scan``."""
    seen = []

    def scan(grid, spec, jobs):
        seen.append(([(cfg.B, cfg.rho0) for cfg in grid], spec.n_rho, jobs))
        raise RuntimeError("scan stopped")

    monkeypatch.setattr(optimizer, "scan", scan)
    assert run(argv, capsys)[0] == 1
    return seen[-1]


PINNED = ["energy", "--B", "0", "--rho0", "2", "--alpha", "1.1058",
          "--beta", "0", "--nu", "3.4951", "--nodes", "32"]


def test_jobs_env_default(monkeypatch, capsys):
    # CYLVAR_JOBS is read as --jobs, so the flag beats it, and a value the
    # flag refuses is a usage error
    monkeypatch.setenv("CYLVAR_JOBS", "3")
    assert scan_call(["scan"], monkeypatch, capsys)[2] == 3
    assert scan_call(["scan", "--jobs", "2"], monkeypatch, capsys)[2] == 2
    monkeypatch.setenv("CYLVAR_JOBS", "1.5")
    with pytest.raises(SystemExit) as exc:
        main(["scan"])
    assert exc.value.code == 2
    assert "argument --jobs: invalid int value: '1.5'" in \
        capsys.readouterr().err
    # a command without --jobs does not read it
    assert run(PINNED, capsys)[0] == 0


def test_flag_then_config_then_env_then_default(tmp_path, monkeypatch,
                                                capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"jobs": 2, "rho0-list": "1,inf",
                                "nodes": "48"}))
    default_grid = [(0.0, r) for r in (2.5, 3.0, 3.5, 4.0, 4.5, 5.0)]
    monkeypatch.setenv("CYLVAR_JOBS", "3")
    assert scan_call(["scan", "--config", str(path), "--nodes", "32"],
                     monkeypatch, capsys) == \
        ([(0.0, 1.0), (0.0, math.inf)], 32, 2)
    assert scan_call(["scan", "--jobs", "4", "--config", str(path)],
                     monkeypatch, capsys)[1:] == (48, 4)
    assert scan_call(["scan"], monkeypatch, capsys) == (default_grid, 64, 3)
    monkeypatch.delenv("CYLVAR_JOBS")
    assert scan_call(["scan"], monkeypatch, capsys) == (default_grid, 64, 1)


def test_main_builds_the_parser_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha": 1.0, "nu": 2.0, "nodes": 48}))
    built = 0
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    one = built  # the parser and its subcommands' parsers
    monkeypatch.delenv("CYLVAR_JOBS", raising=False)
    first = run(PINNED, capsys)
    assert first[0] == 0
    assert run(PINNED, capsys) == first
    assert run(["energy", "--config", str(path), "--B", "0", "--rho0", "2",
                "--beta", "0"], capsys)[0] == 0
    for env in ("3", "2"):
        monkeypatch.setenv("CYLVAR_JOBS", env)
        scan_call(["scan"], monkeypatch, capsys)
    assert run(PINNED, capsys) == first
    assert built == one
    assert cli.build_parser() is parser


def test_main_honours_a_jobs_env_change(monkeypatch, capsys):
    seen = []
    for env in ("3", "2", None):
        if env is None:
            monkeypatch.delenv("CYLVAR_JOBS")
        else:
            monkeypatch.setenv("CYLVAR_JOBS", env)
        seen.append(scan_call(["scan"], monkeypatch, capsys)[2])
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
