import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import quasilab
from quasilab import cli
from quasilab.algebra import parse_algebra
from quasilab.dynamics import brs_empirical, discrepancy_trace
from quasilab.modelset import PointSet, special_quasicrystal
from quasilab.regions import (
    box_region, brs_parallelepiped, parse_region_literal, region_to_text,
)


def run_cli(*argv) -> int:
    return cli.main(list(argv))


def test_gen_count_and_golden_file(tmp_path):
    out = tmp_path / "g"
    rc = run_cli("gen", "--alpha", "w1", "--beta", "1",
                 "--window", "(-1,0]", "--range", "100", "--out", str(out))
    assert rc == 0
    text = (out / "points.csv").read_text()
    assert text.splitlines()[0] == "# quasilab pointset v1 dim=1"
    pts = PointSet.from_csv(text)
    assert len(pts) == 201
    # golden comparison against the direct library call
    spec = parse_algebra("sqrt:2")
    direct = special_quasicrystal(
        [spec.basis_element("w1")], [spec.one()],
        parse_region_literal(spec, "(-1,0]"), [(-100, 100)],
    )
    assert text == direct.to_csv()


# SHA-256 of CSV artifacts as written when every point was rebuilt per point
# with QValue ring operations and every row was formatted by its own
# f-string; the byte-identity of gen, dual, disc, enum and periodic is pinned
@pytest.mark.parametrize("argv, name, digest", [
    (["gen", "--alpha", "w1", "--beta", "1", "--window", "(-1,0]",
      "--range", "100"], "points.csv",
     "7ccc8b841d29bcc1715795843508088199c84fd0febc9222249957cd41b19661"),
    (["gen", "--alpha", "w1,w2", "--beta", "1,1", "--algebra", "sqrt:2,3",
      "--window", "(-1,0]", "--box=-12:9;-7:11"], "points.csv",
     "6b41a979621343c0053b9655e0315cb5477ec26e97969f14e2a7886c11ba4538"),
    (["dual", "--alpha", "w1", "--beta", "1",
      "--region", "[0,-1+1*w1) U [1,3-1*w1)", "--n-range=-2136:2136"],
     "dual_points.csv",
     "bdb33a5542e2e8e2f2752c5092ba2aa3ed19c9b27168917156071e234bfc35c7"),
    (["disc", "--set", "[0,1/2)", "--alpha", "w1", "--n", "3000"], "trace.csv",
     "339ff632ecc5da9276bcc32ad4763914e09ebce97e2e59e4661b975f1db535b6"),
    (["disc", "--set", "[0,1/2)", "--alpha", "w1", "--n", "3000", "--two-sided",
      "--x0=1/2 - w1"], "trace.csv",
     "c6e092f5786ad6b85db6586bace52e3e3ef73b94472c8a257da8b70390799199"),
    (["disc", "--set", "[0,-1+1*w1)", "--alpha", "w1", "--n", "3000"],
     "trace.csv",
     "037e2a73b8a704499e9bc0a1a4c27315745808cda4aa4b03abfaddaa3bfd3f93"),
    (["enum", "--alpha", "w1", "--beta", "1", "--region", "[0,1)",
      "--n-range=-500:500"], "enum.csv",
     "0a2800f3318dc5b8cc52b766b5c94ed5dba2a6cc733a64247b3e46c4afb3736f"),
    (["periodic", "--alpha", "w1", "--window", "[0,1/2)"], "periodic_points.csv",
     "7ada8dad1bce52a42b3b1d6a7e92a777472dcd7bb2af9fc64f81c53bb33b338e"),
], ids=["gen", "gen_box", "dual", "disc", "disc_two_sided", "disc_irrational",
        "enum", "periodic"])
def test_point_csv_bytes_pinned(tmp_path, argv, name, digest):
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_plotdata_bytes_pinned(tmp_path):
    # Dn.dat of the two-sided disc trace pinned above, as written row by row
    assert run_cli("disc", "--set", "[0,1/2)", "--alpha", "w1", "--n", "3000",
                   "--two-sided", "--x0=1/2 - w1", "--out", str(tmp_path)) == 0
    report = {"stages": {"disc": {"trace_file": str(tmp_path / "trace.csv")}}}
    cli.emit_plotdata(report, "discrepancy", tmp_path)
    assert hashlib.sha256((tmp_path / "Dn.dat").read_bytes()).hexdigest() == (
        "7d45fe12d7a67cfc0e49003031ceee1a3fba2eb3bd3be976cbece144e9b921e9")


_DUALITY_CFG = (
    "[duality]\n"
    "algebra = sqrt:2\n"
    "alpha = w1\n"
    "beta = 1\n"
    "window = (-1,0]\n"
    "region = [0,-1+1*w1) U [1,3-1*w1)\n"
    "radii = 8,16\n"
    "n_max = 16\n"
    "k_bound = 150\n"
)


# SHA-256 of the JSON artifacts as written when each subcommand and the
# report had their own copy of every operation; the output directory is
# replaced by a fixed string, since the summaries embed artifact paths
@pytest.mark.parametrize("argv, name, digest", [
    (["disc", "--set", "[0,1/2)", "--alpha", "w1", "--n", "3000", "--two-sided",
      "--x0=1/2 - w1"], "disc_summary.json",
     "6e12e89430cbdec3c3f82fca41e3b741a266a7f2a26284d12611ecf449312bd1"),
    (["brs-test", "--set", "[0,-1+1*w1)", "--alpha", "w1", "--N", "2000",
      "--J", "200"], "brs_test.json",
     "108e3920b23b9a1775e414b0f2b795cd7d006805aabfcc4286118de67eee052a"),
    (["report"], "rep/experiment_report.json",
     "dc1bf894f7d5919a3ded6a355a00745a97af7137efbed9824a8b63fca9704557"),
], ids=["disc_summary", "brs_test", "experiment_report"])
def test_json_bytes_pinned(tmp_path, argv, name, digest):
    if argv == ["report"]:
        argv = ["report", "--config", str(_report_cfg(tmp_path)[0])]
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    text = (tmp_path / name).read_text().replace(str(tmp_path), "OUT")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_bounds_plotdata_from_duality_report_pinned(tmp_path):
    # lmin.dat from a standalone duality_report.json, with a seeded translate
    cfg = tmp_path / "dual.cfg"
    cfg.write_text(_DUALITY_CFG + f"seed = 7\noutdir = {tmp_path}\n")
    assert run_cli("duality", "--config", str(cfg)) == 0
    assert run_cli("report", "--plot", "bounds",
                   "--from", str(tmp_path / "duality_report.json"),
                   "--out", str(tmp_path)) == 0
    assert hashlib.sha256((tmp_path / "lmin.dat").read_bytes()).hexdigest() == (
        "464ceaab75196849f6c9106380eb283efdef2aced1432238531509b3e4384314")


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("gen", "--alpha", "w1", "--beta", "1",
                       "--window", "(-1,0]", "--range", "40",
                       "--out", str(out)) == 0
    assert (a / "points.csv").read_bytes() == (b / "points.csv").read_bytes()


def test_disc_wrapper_matches_library(tmp_path):
    out = tmp_path / "d"
    rc = run_cli("disc", "--set", "[0,1/2)", "--alpha", "w1",
                 "--n", "500", "--out", str(out))
    assert rc == 0
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    from quasilab.dynamics import brs_empirical, discrepancy_trace

    spec = parse_algebra("sqrt:2")
    tr = discrepancy_trace(parse_region_literal(spec, "[0,1/2)"),
                           spec.basis_element("w1"), 0, (0, 500))
    got = np.array([float(r.split(",")[1]) for r in rows])
    assert np.array_equal(got, tr.values)
    summary = json.loads((out / "disc_summary.json").read_text())
    assert summary["max_abs"] == tr.max_abs


def _trace_rows(path: Path) -> tuple[list[int], np.ndarray]:
    rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
    return [int(n) for n, _ in rows], np.array([float(v) for _, v in rows])


@pytest.mark.parametrize("x0", ["1/2 - w1", "1/2 - 3*w1"])
def test_disc_x0_is_an_exact_literal(tmp_path, x0):
    # x0 + k*sqrt2 lands on the endpoint 1/2 at k = 1 or 3; only an exact
    # start puts it there, a float start gives another trace
    assert run_cli("disc", "--set", "[0,1/2)", "--alpha", "w1", "--n", "20",
                   f"--x0={x0}", "--out", str(tmp_path)) == 0
    spec = parse_algebra("sqrt:2")
    region, w1 = parse_region_literal(spec, "[0,1/2)"), spec.basis_element("w1")
    tr = discrepancy_trace(region, w1, spec.parse(x0), (0, 20))
    ns, values = _trace_rows(tmp_path / "trace.csv")
    assert ns == tr.ns.tolist() and np.array_equal(values, tr.values)
    rounded = discrepancy_trace(region, w1, Fraction(float(spec.parse(x0))), (0, 20))
    assert not np.array_equal(values, rounded.values)


@pytest.mark.parametrize("x0", ["0.62890625", "1e-5", "-0.3"])
def test_disc_x0_decimals_are_exact_rationals(tmp_path, x0):
    assert run_cli("disc", "--set", "[0,1/2)", "--alpha", "w1", "--n", "200",
                   f"--x0={x0}", "--out", str(tmp_path)) == 0
    spec = parse_algebra("sqrt:2")
    tr = discrepancy_trace(parse_region_literal(spec, "[0,1/2)"),
                           spec.basis_element("w1"), Fraction(x0), (0, 200))
    assert np.array_equal(_trace_rows(tmp_path / "trace.csv")[1], tr.values)
    summary = json.loads((tmp_path / "disc_summary.json").read_text())
    assert summary["x0"] == float(x0)


def test_disc_and_brs_test_take_a_vector_alpha(tmp_path):
    # the bounded remainder box [0, sqrt2 - 1) x [0, 1) of alpha = (sqrt2, sqrt3)
    spec = parse_algebra("sqrt:2,3")
    box = box_region(spec, [0, 0], [spec.parse("w1 - 1"), 1])
    alpha = (spec.basis_element("w1"), spec.basis_element("w2"))
    (tmp_path / "box.txt").write_text(region_to_text(box))
    flags = ["--algebra", "sqrt:2,3", "--set", f"@{tmp_path / 'box.txt'}", "--alpha", "w1,w2"]
    assert run_cli("disc", *flags, "--n", "10000", "--out", str(tmp_path)) == 0
    tr = discrepancy_trace(box, alpha, n_range=(0, 10_000))
    assert np.array_equal(_trace_rows(tmp_path / "trace.csv")[1], tr.values)
    summary = json.loads((tmp_path / "disc_summary.json").read_text())
    assert summary["max_abs"] == tr.max_abs and abs(tr.max_abs - 0.586) < 5e-3
    assert summary["x0"] == [0.0, 0.0]
    assert run_cli("disc", *flags, "--n", "100", "--x0=1/2,w2 - 1", "--out", str(tmp_path)) == 0
    tr = discrepancy_trace(box, alpha, (spec.parse("1/2"), spec.parse("w2 - 1")), (0, 100))
    assert np.array_equal(_trace_rows(tmp_path / "trace.csv")[1], tr.values)
    assert run_cli("brs-test", *flags, "--N", "1000", "--J", "100", "--out", str(tmp_path)) == 0
    stat = json.loads((tmp_path / "brs_test.json").read_text())
    want = brs_empirical(box, alpha, 1000, 100)
    assert (stat["max_abs"], stat["argmax_n"], stat["argmax_j"]) == (
        want.value, want.argmax_n, want.argmax_j)


def test_report_disc_x0_is_an_exact_literal(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[experiment]\noutdir = {tmp_path}\n"
                   "[disc]\nset = [0,1/2)\nalpha = w1\nn = 20\nx0 = 1/2 - 3*w1\n")
    assert run_cli("report", "--config", str(cfg)) == 0
    spec = parse_algebra("sqrt:2")
    tr = discrepancy_trace(parse_region_literal(spec, "[0,1/2)"),
                           spec.basis_element("w1"), spec.parse("1/2 - 3*w1"), (0, 20))
    assert np.array_equal(_trace_rows(tmp_path / "trace.csv")[1], tr.values)


def test_cli_import_leaves_scipy_out(tmp_path):
    # scipy is imported lazily where it is used (the cKDTree of separation)
    src = str(Path(quasilab.__file__).resolve().parent.parent)
    code = ("import sys; import quasilab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_dual_and_enum_and_avdonin(tmp_path):
    out = tmp_path / "e"
    assert run_cli("dual", "--alpha", "w1", "--beta", "1",
                   "--region", "[0,1)", "--n-range=-50:50",
                   "--out", str(out)) == 0
    pts = PointSet.from_csv((out / "dual_points.csv").read_text())
    assert len(pts) == 101
    assert run_cli("enum", "--alpha", "w1", "--beta", "1",
                   "--region", "[0,1)", "--n-range=-50:50",
                   "--out", str(out)) == 0
    rows = (out / "enum.csv").read_text().splitlines()
    assert rows[0] == "j,lambda,block,rank"
    assert len(rows) == 102
    assert run_cli("avdonin", "--alpha", "w1", "--beta", "1",
                   "--region", "[0,1)", "--n-range=-300:300",
                   "--n-max", "16", "--k-bound", "200",
                   "--out", str(out)) == 0
    verdict = json.loads((out / "avdonin.json").read_text())
    assert verdict["satisfied_at"] is not None
    assert verdict["threshold"] == 0.25


def test_gram_and_bounds(tmp_path):
    out = tmp_path / "gb"
    assert run_cli("gen", "--alpha", "w1", "--beta", "1",
                   "--window", "(-1,0]", "--range", "30",
                   "--out", str(out)) == 0
    assert run_cli("gram", "--points", str(out / "points.csv"),
                   "--region", "[0,1)", "--out", str(out)) == 0
    g = json.loads((out / "gram.json").read_text())
    assert g["size"] == 61
    assert 0 < g["lambda_min"] <= g["lambda_max"]
    assert run_cli("bounds", "--points", str(out / "points.csv"),
                   "--region", "[0,-1+1*w1) U [1,3-1*w1)",
                   "--radii", "10,20", "--out", str(out)) == 0
    rows = (out / "bounds.csv").read_text().splitlines()
    assert rows[0] == "R,size,lambda_min,lambda_max"
    assert len(rows) == 3


def test_periodic_and_brs_subcommands(tmp_path):
    out = tmp_path / "p"
    assert run_cli("periodic", "--alpha", "w1",
                   "--window", "[0,-1+1*w1)", "--range", "1000",
                   "--out", str(out)) == 0
    pts = PointSet.from_csv((out / "periodic_points.csv").read_text())
    assert abs(len(pts) / 2001 - (math.sqrt(2) - 1)) < 0.01
    assert run_cli("brs-test", "--set", "[0,-1+1*w1)", "--alpha", "w1",
                   "--N", "2000", "--J", "200", "--out", str(out)) == 0
    stat = json.loads((out / "brs_test.json").read_text())
    assert stat["max_abs"] <= 1.001
    assert run_cli("brs-make", "--alpha", "w1", "--gamma", "2 - 1*w1",
                   "--out", str(out)) == 0
    made = (out / "brs_region.txt").read_text()
    assert "piece" in made


def test_brs_make_between(tmp_path):
    out = tmp_path / "bb"
    rc = run_cli("brs-make", "--alpha", "w1", "--gamma", "w1 - 1",
                 "--K", "[1/10,2/5]", "--U", "(0,1)",
                 "--epsilon", "0.05", "--tile-bound", "50",
                 "--out", str(out))
    assert rc == 0
    from quasilab.regions import region_from_text

    made = region_from_text((out / "brs_region.txt").read_text())
    spec = parse_algebra("sqrt:2")
    assert made.volume() == spec.basis_element("w1") - 1


def test_duality_config_run(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(_DUALITY_CFG + f"outdir = {tmp_path / 'dout'}\n")
    assert run_cli("duality", "--config", str(cfg)) == 0
    rep = json.loads((tmp_path / "dout" / "duality_report.json").read_text())
    assert rep["version"] == "quasilab-report v1"
    assert rep["measures_match"] is True
    assert rep["dual_verdict"]["satisfied_at"] is not None
    assert (tmp_path / "dout" / "primal_bounds.csv").exists()
    assert rep["config_echo"]["alpha"] == "w1"


def _report_cfg(tmp_path) -> tuple[Path, Path]:
    outdir = tmp_path / "rep"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[experiment]\n"
        f"outdir = {outdir}\n"
        "\n[gen]\n"
        "alpha = w1\nbeta = 1\nwindow = (-1,0]\nrange = 40\n"
        "density_radii = 15\n"
        "\n[disc]\n"
        "set = [0,1/2)\nalpha = w1\nn = 2000\n"
        "\n[brs]\n"
        "set = [0,-1+1*w1)\nalpha = w1\nN = 2000\nJ = 200\n"
        "\n[duality]\n"
        "algebra = sqrt:2\nalpha = w1\nbeta = 1\nwindow = (-1,0]\n"
        "region = [0,-1+1*w1) U [1,3-1*w1)\nradii = 8,16\n"
        "n_max = 16\nk_bound = 150\n"
    )
    return cfg, outdir


def test_report_stages_and_plots(tmp_path):
    cfg, outdir = _report_cfg(tmp_path)
    assert run_cli("report", "--config", str(cfg)) == 0
    rep = json.loads((outdir / "experiment_report.json").read_text())
    assert set(rep["stages"]) == {"gen", "disc", "brs", "duality"}
    assert set(rep["stages"]["disc"]) == {"max_abs", "argmax_n", "mes", "trace_file"}
    assert set(rep["stages"]["brs"]) == {"max_abs", "argmax_n", "argmax_j", "N", "J"}
    assert rep["stages"]["gen"]["count"] == 81
    # reproducibility: every stage number comes from the echoed config
    from quasilab.dynamics import brs_empirical

    spec = parse_algebra("sqrt:2")
    stat = brs_empirical(parse_region_literal(spec, "[0,-1+1*w1)"),
                         spec.basis_element("w1"), 2000, 200)
    assert rep["stages"]["brs"]["max_abs"] == stat.value

    assert run_cli("report", "--plot", "discrepancy",
                   "--from", str(outdir / "experiment_report.json"),
                   "--out", str(outdir)) == 0
    dn = (outdir / "Dn.dat").read_text().splitlines()
    assert len(dn) == 2001
    assert dn[0].split() == ["0", "0"]
    assert run_cli("report", "--plot", "bounds",
                   "--from", str(outdir / "experiment_report.json"),
                   "--out", str(outdir)) == 0
    assert (outdir / "lmin.dat").exists()
    # missing series -> precondition exit
    empty = outdir / "empty.json"
    empty.write_text(json.dumps({"stages": {}}))
    assert run_cli("report", "--plot", "discrepancy",
                   "--from", str(empty), "--out", str(outdir)) == 2


def test_exit_codes(tmp_path):
    assert run_cli("gen", "--alpha", "w1", "--beta", "1",
                   "--window", "[0,1]") == 2  # closed window precondition
    assert run_cli("brs-make", "--alpha", "w1", "--gamma", "1/2") == 2
    assert run_cli("brs-make", "--alpha", "w1,w2", "--algebra", "sqrt:2,3",
                   "--gamma", "5*w1", "--search-bound", "1") == 3
    assert run_cli("duality", "--config", str(tmp_path / "absent.cfg")) == 66
    bad = tmp_path / "bad.cfg"
    bad.write_text("[duality\nalpha w1\n")
    assert run_cli("duality", "--config", str(bad)) == 66
    with pytest.raises(SystemExit) as exc:
        cli.run(["gen", "--alpha", "w1", "--beta", "1",
                 "--window", "(-1,0]", "--frobnicate"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        cli.run(["no-such-command"])
    assert exc.value.code == 64


def test_points_outside_int64_refused(tmp_path, capsys):
    points = tmp_path / "big.csv"
    points.write_text("# quasilab pointset v1 dim=1\n0.5,9223372036854775808,1\n")
    assert run_cli("bounds", "--points", str(points), "--region", "[0,1)",
                   "--radii", "1", "--out", str(tmp_path)) == 2
    assert "provenance entries must be integers within int64" in capsys.readouterr().err


def test_gen_box_outside_int64_refused(tmp_path, capsys):
    assert run_cli("gen", "--alpha", "w1", "--beta", "1", "--window", "(-1,0]",
                   "--box=-9223372036854775808:-9223372036854775808",
                   "--out", str(tmp_path)) == 2
    assert "beyond the int64 range" in capsys.readouterr().err


def test_two_dim_region_names(tmp_path):
    # each piece is written as offset + [0,1)*e_1 + [0,1)*e_2 over its edge columns
    spec = parse_algebra("sqrt:2,3")
    alpha = (spec.basis_element("w1"), spec.basis_element("w2"))
    regions = {
        "(0, 0) + [0,1)*(-1 + 1*w1, 0) + [0,1)*(0, 1)":
            box_region(spec, [0, 0], [spec.parse("w1 - 1"), 1]),
        "(0, 0) + [0,1)*(1, 0) + [0,1)*(-1 + 1*w1, -2 + 1*w2)":
            brs_parallelepiped(alpha, [(0, (1, 0)), (1, (-1, -2))]),
    }
    for name, region in regions.items():
        (tmp_path / "s.txt").write_text(region_to_text(region))
        assert run_cli("disc", "--algebra", "sqrt:2,3", "--set", f"@{tmp_path / 's.txt'}",
                       "--alpha", "w1,w2", "--n", "10", "--out", str(tmp_path)) == 0
        assert json.loads((tmp_path / "disc_summary.json").read_text())["region"] == name


@pytest.mark.parametrize("command, text, rc, section, key", [
    ("report", "[disc]\nset = [0,1/2)\nalpha = w1\n", 66, "disc", "n"),
    ("report", "[brs]\nset = [0,1/2)\nalpha = w1\nN = 20\n", 66, "brs", "J"),
    ("duality", _DUALITY_CFG.replace("beta = 1\n", ""), 66, "duality", "beta"),
    ("report", "[gen]\nalpha = w1\nbeta = 1\n", 66, "gen", "window"),
    # range is optional, with the default of gen --range
    ("report", "[gen]\nalpha = w1\nbeta = 1\nwindow = (-1,0]\n", 0, "gen", None),
], ids=["disc_n", "brs_J", "duality_beta", "gen_window", "gen_range"])
def test_missing_config_key(tmp_path, capsys, command, text, rc, section, key):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[experiment]\noutdir = {tmp_path}\n" + text)
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path)) == rc
    if key is not None:
        assert f"[{section}] needs a '{key}' key" in capsys.readouterr().err
    else:
        rep = json.loads((tmp_path / "experiment_report.json").read_text())
        assert rep["stages"]["gen"]["count"] == 201


def test_config_reads_files_like_flags(tmp_path):
    # @file works for algebra and region values in a config as in a flag
    spec = parse_algebra("sqrt:2")
    region = parse_region_literal(spec, "[0,-1+1*w1) U [1,3-1*w1)")
    (tmp_path / "region.txt").write_text(region_to_text(region))
    (tmp_path / "alg.txt").write_text("basis w1 = sqrt 2\n")
    (tmp_path / "a.cfg").write_text(_DUALITY_CFG + f"outdir = {tmp_path / 'a'}\n")
    (tmp_path / "b.cfg").write_text(
        _DUALITY_CFG.replace("sqrt:2", f"@{tmp_path / 'alg.txt'}")
        .replace("[0,-1+1*w1) U [1,3-1*w1)", f"@{tmp_path / 'region.txt'}")
        + f"outdir = {tmp_path / 'b'}\n")
    for name in ("a", "b"):
        assert run_cli("duality", "--config", str(tmp_path / f"{name}.cfg")) == 0
    reports = [json.loads((tmp_path / name / "duality_report.json").read_text())
               for name in ("a", "b")]
    for rep in reports:
        del rep["config_echo"]
    assert reports[0] == reports[1]
    for name in ("primal_bounds.csv", "dual_bounds.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_json_outputs_are_deterministic(tmp_path):
    outs = []
    for name in ("x", "y"):
        out = tmp_path / name
        assert run_cli("brs-test", "--set", "[0,-1+1*w1)", "--alpha", "w1",
                       "--N", "1000", "--J", "100", "--out", str(out)) == 0
        outs.append((out / "brs_test.json").read_bytes())
    assert outs[0] == outs[1]
