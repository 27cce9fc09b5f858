import hashlib
import importlib
import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import quasilab
from quasilab import cli, riesz
from quasilab.algebra import parse_algebra
from quasilab.dynamics import brs_empirical, discrepancy_trace
from quasilab.modelset import PointSet, periodic_dual, special_quasicrystal
from quasilab.regions import (
    box_region, brs_parallelepiped, parse_region_literal, region_to_text,
)


def run_cli(*argv) -> int:
    return cli.main(list(argv))


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def load_json(path: Path):
    """An artifact parsed as strict JSON: NaN and Infinity are refused."""
    return json.loads(path.read_text(), parse_constant=_refuse_constant)


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
    load_json(tmp_path / name)
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
    summary = load_json(out / "disc_summary.json")
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
    summary = load_json(tmp_path / "disc_summary.json")
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
    summary = load_json(tmp_path / "disc_summary.json")
    assert summary["max_abs"] == tr.max_abs and abs(tr.max_abs - 0.586) < 5e-3
    assert summary["x0"] == [0.0, 0.0]
    assert run_cli("disc", *flags, "--n", "100", "--x0=1/2,w2 - 1", "--out", str(tmp_path)) == 0
    tr = discrepancy_trace(box, alpha, (spec.parse("1/2"), spec.parse("w2 - 1")), (0, 100))
    assert np.array_equal(_trace_rows(tmp_path / "trace.csv")[1], tr.values)
    assert run_cli("brs-test", *flags, "--N", "1000", "--J", "100", "--out", str(tmp_path)) == 0
    stat = load_json(tmp_path / "brs_test.json")
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
    verdict = load_json(out / "avdonin.json")
    assert verdict["satisfied_at"] is not None
    assert verdict["threshold"] == 0.25


def test_gram_and_bounds(tmp_path):
    out = tmp_path / "gb"
    assert run_cli("gen", "--alpha", "w1", "--beta", "1",
                   "--window", "(-1,0]", "--range", "30",
                   "--out", str(out)) == 0
    assert run_cli("gram", "--points", str(out / "points.csv"),
                   "--region", "[0,1)", "--out", str(out)) == 0
    g = load_json(out / "gram.json")
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
    stat = load_json(out / "brs_test.json")
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


def test_brs_make_refuses_k_across_pieces_of_u(tmp_path, capsys):
    # K = [2/5, 3/5] bridges the gap of U: it lies in the closure of no one piece
    rc = run_cli("brs-make", "--alpha", "w1", "--gamma", "w1 - 1",
                 "--K", "[2/5,3/5]", "--U", "(0,9/20) U (1/2,1)", "--epsilon", "0.2",
                 "--out", str(tmp_path))
    assert rc == cli.EXIT_PRECONDITION
    assert "K is not contained in U" in capsys.readouterr().err
    assert not (tmp_path / "brs_region.txt").exists()


def test_brs_make_refuses_open_pieces_of_u_that_touch(tmp_path, capsys):
    # both literals leave 1/2 out of U, which K = [2/5, 3/5] covers
    for u in ("[0,1/2) U (1/2,1)", "(0,1/2) U (1/2,1)"):
        rc = run_cli("brs-make", "--alpha", "w1", "--gamma", "w1 - 1",
                     "--K", "[2/5,3/5]", "--U", u, "--epsilon", "0.05", "--out", str(tmp_path))
        assert rc == cli.EXIT_PRECONDITION
        assert "shares an endpoint with" in capsys.readouterr().err
        assert not (tmp_path / "brs_region.txt").exists()


def test_duality_config_run(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(_DUALITY_CFG + f"outdir = {tmp_path / 'dout'}\n")
    assert run_cli("duality", "--config", str(cfg)) == 0
    rep = load_json(tmp_path / "dout" / "duality_report.json")
    assert rep["version"] == "quasilab-report v1"
    assert rep["measures_match"] is True
    assert rep["dual_verdict"]["satisfied_at"] is not None
    assert (tmp_path / "dout" / "primal_bounds.csv").exists()
    assert rep["config_echo"]["alpha"] == "w1"


def test_rational_region_file_runs_as_the_literal(tmp_path, capsys):
    # a region file without algebra lines loads in the rational algebra and
    # joins the orbit's Q(sqrt 2): every artifact is the literal's, byte for byte
    (tmp_path / "half.txt").write_text("dim = 1\npiece offset = 0 | edges = 1/2\n")
    written = {}
    for name, region in (("literal", "[0,1/2)"), ("file", f"@{tmp_path / 'half.txt'}")):
        out = tmp_path / name
        assert run_cli("disc", "--set", region, "--alpha", "w1", "--n", "3000",
                       "--out", str(out)) == 0
        assert run_cli("brs-test", "--set", region, "--alpha", "w1", "--N", "2000",
                       "--J", "200", "--out", str(out)) == 0
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text("[duality]\nalgebra = sqrt:2\nalpha = w1\nbeta = 1\nwindow = (-1/2,0]\n"
                       f"region = {region}\nradii = 8,16\nn_max = 16\nk_bound = 150\n"
                       f"outdir = {out}\n")
        assert run_cli("duality", "--config", str(cfg)) == 0
        written[name] = [(out / f).read_bytes() for f in
                         ("trace.csv", "brs_test.json", "primal_bounds.csv", "dual_bounds.csv")]
    assert written["file"] == written["literal"]
    # a region in Q(sqrt 3) holding sqrt 3 does not join an orbit of sqrt 2
    (tmp_path / "root3.txt").write_text(region_to_text(
        parse_region_literal(parse_algebra("sqrt:3"), "[0,-1+1*w1)")))
    assert run_cli("disc", "--set", f"@{tmp_path / 'root3.txt'}", "--alpha", "w1",
                   "--n", "100", "--out", str(tmp_path)) == 2
    assert "different algebra declarations" in capsys.readouterr().err


def test_duality_2d_box_pair(tmp_path):
    # the paper's dichotomy in 2-D: alpha = beta = (sqrt2, sqrt3) over the
    # admissible window (1-sqrt2, 0]; the box [0,sqrt2-1) x [0,1), a BRS, keeps
    # its lower Riesz bound, and the box [0,1) x [0,sqrt2-1), not a BRS, loses it
    s23 = parse_algebra("sqrt:2,3")
    w1 = s23.basis_element("w1")
    lmin = {}
    for name, high in (("brs", [w1 - 1, 1]), ("other", [1, w1 - 1])):
        (tmp_path / f"{name}.txt").write_text(region_to_text(box_region(s23, [0, 0], high)))
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text("[duality]\nalgebra = sqrt:2,3\nalpha = w1,w2\nbeta = w1,w2\n"
                       f"window = (1-1*w1,0]\nregion = @{tmp_path / name}.txt\n"
                       f"radii = 4,8,16,24\noutdir = {tmp_path / name}\n")
        assert run_cli("duality", "--config", str(cfg)) == 0
        rep = load_json(tmp_path / name / "duality_report.json")
        lmin[name] = {row["R"]: row["lambda_min"] for row in rep["primal_trace"]["rows"]}
    brs, other = lmin["brs"], lmin["other"]
    assert brs[24] >= 10 * other[24]  # measured 27x
    assert abs(brs[24] / brs[16] - 1) <= 0.1  # measured 3 %
    assert other[16] >= 2 * other[24]  # measured 2.9x


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
    rep = load_json(outdir / "experiment_report.json")
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


@pytest.mark.parametrize("argv, code, message", [
    (["dual", "--alpha", "w1", "--beta", "1", "--region", "[0,1)", "--n-range=a:b"], 2,
     "invalid literal for int()"),  # a ValueError
    (["gram", "--points", "missing.csv", "--region", "[0,1)"], 66, "missing.csv"),  # an OSError
    (["brs-make", "--alpha", "w1", "--gamma", "w1 - 1", "--K", "[1/10,2/5]"], 2,
     "--between mode needs --K, --U and --epsilon"),
    (["report"], 2, "report needs --config or --plot"),
    (["report", "--plot", "discrepancy"], 2, "--plot needs --from REPORT.json"),
    (["report", "--plot", "histogram", "--from", "rep.json"], 2, "unknown plot kind 'histogram'"),
], ids=["value_error", "os_error", "between_k_alone", "report_bare", "plot_no_from",
        "plot_kind"])
def test_main_maps_refusals_to_exit_codes(tmp_path, monkeypatch, capsys, argv, code, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rep.json").write_text("{}")
    assert run_cli(*argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_gram_save_matrix_reads_back_as_the_gram_matrix(tmp_path):
    assert run_cli("gen", "--alpha", "w1", "--beta", "1", "--window", "(-1,0]",
                   "--range", "6", "--out", str(tmp_path)) == 0
    assert run_cli("gram", "--points", str(tmp_path / "points.csv"), "--region", "[0,1)",
                   "--save-matrix", "g.txt", "--out", str(tmp_path)) == 0
    spec = parse_algebra("sqrt:2")
    want = riesz.gram_matrix(PointSet.from_csv((tmp_path / "points.csv").read_text()),
                             parse_region_literal(spec, "[0,1)"))
    got = np.loadtxt(tmp_path / "g.txt").view(complex)
    assert want.shape == (13, 13) and np.array_equal(got, want)


def test_periodic_dual_region_matches_the_library(tmp_path):
    assert run_cli("periodic", "--alpha", "w1", "--dual-region", "[0,1/2)",
                   "--m-range=-40:40", "--out", str(tmp_path)) == 0
    spec = parse_algebra("sqrt:2")
    want = periodic_dual([spec.basis_element("w1")], parse_region_literal(spec, "[0,1/2)"),
                         (-40, 40))
    assert (tmp_path / "periodic_dual.csv").read_text() == want.to_csv() and len(want) > 10


def test_repeated_main_calls_write_what_lone_calls_write(tmp_path, monkeypatch, capsys):
    # the parser is built once per process, so no call may leave state behind
    # for the next, a failed one or a store_true flag included
    disc = ["disc", "--set", "[0,1/2)", "--alpha", "w1", "--n", "500"]
    calls = [
        [*disc, "--x0", "1/3"],
        [*disc, "--alpha", "w9"],  # unknown basis name: exit 2
        ["gen", "--alpha", "w1", "--beta", "1", "--window", "(-1,0]", "--range", "50"],
        [*disc, "--two-sided"],
        disc,
    ]
    assert cli.build_parser() is cli.build_parser()
    src = str(Path(quasilab.__file__).resolve().parent.parent)

    def written(outdir: Path) -> dict:
        return {p.name: p.read_bytes() for p in outdir.iterdir()} if outdir.exists() else {}

    lone = []
    for i, argv in enumerate(calls):
        cwd = tmp_path / f"lone{i}"
        cwd.mkdir()
        proc = subprocess.run([sys.executable, "-m", "quasilab.cli", *argv, "--out", f"o{i}"],
                              capture_output=True, text=True, cwd=cwd,
                              env={**os.environ, "PYTHONPATH": src})
        lone.append((proc.returncode, proc.stdout, proc.stderr, written(cwd / f"o{i}")))
    assert [rc for rc, *_ in lone] == [0, 2, 0, 0, 0]

    here = tmp_path / "here"
    here.mkdir()
    monkeypatch.chdir(here)
    for i, argv in enumerate(calls):
        rc = cli.main([*argv, "--out", f"o{i}"])
        out, err = capsys.readouterr()
        assert (rc, out, err, written(here / f"o{i}")) == lone[i], argv


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


@pytest.mark.parametrize("flags", [
    ["--algebra", "sqrt:2,3", "--alpha", "w1,w2", "--beta", "1"],
    ["--alpha", "w1", "--beta", "1,1"],
])
def test_gen_refuses_alpha_and_beta_of_different_lengths(tmp_path, capsys, flags):
    # two alphas and one beta ended in an IndexError; one alpha and two betas
    # dropped the second beta and wrote 7 points
    out = tmp_path / "out"
    assert run_cli("gen", *flags, "--window", "(-1,0]", "--range", "3",
                   "--out", str(out)) == cli.EXIT_PRECONDITION
    assert "alpha and beta must be nonempty, equal length" in capsys.readouterr().err
    assert not (out / "points.csv").exists()


def test_algebra_file_with_a_repeated_root_refused(tmp_path, capsys):
    (tmp_path / "alg.txt").write_text("basis w1 = sqrt 2\nbasis w2 = sqrt 8\n")
    assert run_cli("gen", "--algebra", f"@{tmp_path / 'alg.txt'}", "--alpha", "w1",
                   "--beta", "1", "--window", "(-1,0]", "--range", "10",
                   "--out", str(tmp_path / "out")) == 2
    assert ("'basis w1 = sqrt 2' and 'basis w2 = sqrt 8' declare the same "
            "squarefree root sqrt 2" in capsys.readouterr().err)


_DISC = ("disc", "--alpha", "w1", "--n", "10")


@pytest.mark.parametrize("files, argv, named", [
    # declaration files: every malformed line exits 2 and is named
    ({"a.txt": " = sqrt 2\n"}, (*_DISC, "--algebra", "@a.txt", "--set", "[0,1/2)"),
     "line 1 '= sqrt 2'"),
    ({"a.txt": "basis w1 = sqrt 1/0\n"}, (*_DISC, "--algebra", "@a.txt", "--set", "[0,1/2)"),
     "line 1 'basis w1 = sqrt 1/0'"),
    ({"a.txt": "basis w1 sqrt 2\n"}, (*_DISC, "--algebra", "@a.txt", "--set", "[0,1/2)"),
     "line 1 'basis w1 sqrt 2'"),
    ({"r.txt": "basis w1 = sqrt 2\ndim = 1\npiece edges = 1/2\n"}, (*_DISC, "--set", "@r.txt"),
     "line 3 'piece edges = 1/2'"),
    ({"r.txt": "dimension = 1\npiece offset = 0 | edges = 1/2\n"}, (*_DISC, "--set", "@r.txt"),
     "line 1 'dimension = 1'"),
    ({"r.txt": "dim_d = 1\npiece offset = 0 | edges = 1/2\n"}, (*_DISC, "--set", "@r.txt"),
     "line 1 'dim_d = 1'"),
    ({"r.txt": "dim = 1\npiece offset = 0 | edges = 1/2 | colour = red  # a comment\n"},
     (*_DISC, "--set", "@r.txt"), "line 2 'piece offset = 0 | edges = 1/2 | colour = red"),
    ({"r.txt": "dim = 1\npiece offset = 0 | edges = 1/0\n"}, (*_DISC, "--set", "@r.txt"),
     "line 2 'piece offset = 0 | edges = 1/0'"),
    ({"r.txt": "dim = 1\ndim = 1\npiece offset = 0 | edges = 1/2\n"}, (*_DISC, "--set", "@r.txt"),
     "one dim line"),
    ({"r.txt": "piece offset = 0 | edges = 1/2\n"}, (*_DISC, "--set", "@r.txt"), "one dim line"),
    # value literals and point-set headers
    ({}, (*_DISC, "--set", "[0,1/0)"), "term '1/0'"),
    ({}, ("gen", "--alpha", "1/0*w1", "--beta", "1", "--window", "(-1,0]"), "term '1/0*w1'"),
    ({"p.csv": "# quasilab pointset v1\n0.5,0,1\n"},
     ("gram", "--points", "p.csv", "--region", "[0,1)"), "header is not"),
    # a value-declared element is a finite float: 1e400 overflows to inf
    *(({"a.txt": f"basis w1 = value {v}\n"}, (*_DISC, "--algebra", "@a.txt", "--set", "[0,1/2)"),
       f"line 1 'basis w1 = value {v}'") for v in ("1e400", "inf", "-inf", "nan")),
    # a witness list holds d witnesses of d integers m each
    *(({"r.txt": f"basis w1 = sqrt 2\ndim = 1\npiece offset = 0 | edges = 1/2 | witness = {w}\n"},
       (*_DISC, "--set", "@r.txt"), f"line 3 'piece offset = 0 | edges = 1/2 | witness = {w}'")
      for w in ("1: 1, 2", "1: 1 / 2: 3", "1:")),
])
def test_malformed_inputs_exit_2_naming_the_line(tmp_path, monkeypatch, capsys, files, argv, named):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert run_cli(*argv) == cli.EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("epsilon", ["0", "-1", "nan", "inf"])
def test_brs_make_between_refuses_epsilon_before_the_tile_search(tmp_path, capsys, epsilon):
    # 0 was taken for a missing flag, -1 ran out the tile search (exit 3), and
    # nan and inf accepted any tile, then asked for a smaller epsilon
    rc = run_cli("brs-make", "--alpha", "w1", "--gamma", "w1 - 1", "--K", "[1/10,2/5]",
                 "--U", "(0,1)", f"--epsilon={epsilon}", "--out", str(tmp_path))
    assert rc == cli.EXIT_PRECONDITION
    assert "epsilon must be a finite number > 0" in capsys.readouterr().err
    assert not (tmp_path / "brs_region.txt").exists()


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
        assert load_json(tmp_path / "disc_summary.json")["region"] == name


@pytest.mark.parametrize("command, text, rc, section, key", [
    ("report", "[disc]\nset = [0,1/2)\nalpha = w1\n", 66, "disc", "n"),
    ("report", "[brs]\nset = [0,1/2)\nalpha = w1\nN = 20\n", 66, "brs", "J"),
    ("duality", _DUALITY_CFG.replace("beta = 1\n", ""), 66, "duality", "beta"),
    ("report", "[gen]\nalpha = w1\nbeta = 1\n", 66, "gen", "window"),
    ("report", "[disc]\nalpha = w1\nn = 10\n", 66, "disc", "set"),
    ("report", "[brs]\nset = [0,1/2)\nN = 20\nJ = 2\n", 66, "brs", "alpha"),
    ("duality", _DUALITY_CFG.replace("region = [0,-1+1*w1) U [1,3-1*w1)\n", ""), 66,
     "duality", "region"),
    ("report", "[gen]\nbeta = 1\nwindow = (-1,0]\n", 66, "gen", "alpha"),
    # range is optional, with the default of gen --range
    ("report", "[gen]\nalpha = w1\nbeta = 1\nwindow = (-1,0]\n", 0, "gen", None),
], ids=["disc_n", "brs_J", "duality_beta", "gen_window", "disc_set", "brs_alpha",
        "duality_region", "gen_alpha", "gen_range"])
def test_missing_config_key(tmp_path, capsys, command, text, rc, section, key):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[experiment]\noutdir = {tmp_path}\n" + text)
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path)) == rc
    if key is not None:
        assert f"[{section}] needs a '{key}' key" in capsys.readouterr().err
    else:
        rep = load_json(tmp_path / "experiment_report.json")
        assert rep["stages"]["gen"]["count"] == 201


@pytest.mark.parametrize("command, typo, near", [
    ("report", "disk", "disc"),
    ("duality", "dualty", "duality"),
    ("report", "plots", None),
])
def test_config_refuses_a_section_no_command_reads(tmp_path, capsys, command, typo, near):
    # such a section once ran nothing and was echoed in config_echo as if read
    out = tmp_path / "out"
    text = (_report_cfg(tmp_path)[0].read_text() if command == "report"
            else _DUALITY_CFG + f"outdir = {out}\n")
    text = text.replace(f"[{near}]", f"[{typo}]") if near else text + f"[{typo}]\nkind = x\n"
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(text)
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 66
    lineno = text.splitlines().index(f"[{typo}]") + 1
    err = capsys.readouterr().err
    assert f"{cfg}:{lineno}: no command reads section [{typo}]" in err
    assert ("did you mean" not in err) if near is None else f"did you mean [{near}]?" in err
    assert not out.exists() and not (tmp_path / "rep").exists()


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
    reports = [load_json(tmp_path / name / "duality_report.json")
               for name in ("a", "b")]
    for rep in reports:
        del rep["config_echo"]
    assert reports[0] == reports[1]
    for name in ("primal_bounds.csv", "dual_bounds.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_printed_lines_pinned(tmp_path, capsys):
    # each subcommand's stdout, with the output directory replaced by OUT; the
    # eigenvalue is the one BLAS thread's that tests/conftest.py sets
    cfg, _ = _report_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace(str(tmp_path / "rep"), str(tmp_path)))
    (tmp_path / "dual.cfg").write_text(_DUALITY_CFG + f"outdir = {tmp_path}\n")
    runs = [
        (["gen", "--alpha", "w1", "--beta", "1", "--window", "(-1,0]", "--range", "100"],
         "wrote OUT/points.csv (201 points)"),
        (["dual", "--alpha", "w1", "--beta", "1", "--region", "[0,1)", "--n-range=-500:500"],
         "wrote OUT/dual_points.csv (1001 points)"),
        (["periodic", "--alpha", "w1", "--window", "[0,1/2)"],
         "wrote OUT/periodic_points.csv (1001 points)"),
        (["periodic", "--alpha", "w1", "--dual-region", "[0,1/2)", "--m-range=-300:300"],
         "wrote OUT/periodic_dual.csv (301 points)"),
        (["disc", "--set", "[0,1/2)", "--alpha", "w1", "--n", "3000"],
         "wrote OUT/trace.csv (max |D_n| = 3.0)"),
        (["brs-test", "--set", "[0,-1+1*w1)", "--alpha", "w1", "--N", "2000", "--J", "200"],
         "wrote OUT/brs_test.json (statistic = 0.9994923857214957)"),
        (["brs-make", "--alpha", "w1,w2", "--algebra", "sqrt:2,3", "--gamma", "w1"],
         "wrote OUT/brs_region.txt (volume = 1*w1, 1 pieces)"),
        (["brs-make", "--alpha", "w1", "--gamma", "w1 - 1", "--K", "[1/10,2/5]", "--U", "(0,1)",
          "--epsilon", "0.05"],
         "wrote OUT/brs_region.txt (volume = -1 + 1*w1, 15 pieces)"),
        (["enum", "--alpha", "w1", "--beta", "1", "--region", "[0,1)", "--n-range=-500:500"],
         "wrote OUT/enum.csv (1001 points, blocks -500..500)"),
        (["avdonin", "--alpha", "w1", "--beta", "1", "--region", "[0,1)",
          "--n-range=-1200:1200", "--k-bound", "1000"],
         "wrote OUT/avdonin.json (satisfied_at = 3)"),
        (["gram", "--points", str(tmp_path / "points.csv"), "--region", "[0,1)"],
         "wrote OUT/gram.json (lambda_min = 0.12063671162501292)"),
        (["bounds", "--points", str(tmp_path / "points.csv"), "--region", "[0,1)",
          "--radii", "10,20"],
         "wrote OUT/bounds.csv"),
        (["duality", "--config", str(tmp_path / "dual.cfg")],
         "wrote OUT/duality_report.json"),
        (["report", "--config", str(cfg)],
         "wrote OUT/points.csv (81 points)\nwrote OUT/experiment_report.json"),
        (["report", "--plot", "discrepancy", "--from", str(tmp_path / "experiment_report.json")],
         "wrote OUT/Dn.dat\nwrote OUT/Dn.dat.meta"),
        (["report", "--plot", "bounds", "--from", str(tmp_path / "duality_report.json")],
         "wrote OUT/lmin.dat\nwrote OUT/lmin.dat.meta"),
    ]
    for argv, printed in runs:
        assert run_cli(*argv, "--out", str(tmp_path)) == 0, argv
        assert capsys.readouterr().out.replace(str(tmp_path), "OUT") == printed + "\n"


def test_json_outputs_are_deterministic(tmp_path):
    outs = []
    for name in ("x", "y"):
        out = tmp_path / name
        assert run_cli("brs-test", "--set", "[0,-1+1*w1)", "--alpha", "w1",
                       "--N", "1000", "--J", "100", "--out", str(out)) == 0
        outs.append((out / "brs_test.json").read_bytes())
        load_json(out / "brs_test.json")
    assert outs[0] == outs[1]


def test_json_dump_refuses_nan_and_infinity(tmp_path):
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._json_dump({"x": value}, tmp_path / "x.json")
    assert not (tmp_path / "x.json").exists()


def test_avdonin_and_duality_refuse_a_check_with_no_window(tmp_path, capsys, monkeypatch):
    # with no window there is no sup deviation to report, so nothing is
    # written; nor is one answered over fewer windows than it names (the
    # default --k-bound 10000 asks for starts far outside j in [-300, 300])
    avdonin = ["avdonin", "--alpha", "w1", "--beta", "1", "--region", "[0,1)",
               "--n-range=-300:300", "--out", str(tmp_path / "av")]
    for flags, msg in ((["--n-max", "0"], "n_max must be at least 1"),
                       (["--k-bound", "-5"], "k_range (5, -5) holds no window"),
                       ([], "the window at k = -10000 starts at j = -9999, before the "
                            "first generated j = -300")):
        assert run_cli(*avdonin, *flags) == cli.EXIT_PRECONDITION
        assert msg in capsys.readouterr().err
        assert not (tmp_path / "av").exists()
    # refused before the special-lattice checks or any point set; NaN passed the
    # order check into two bounds CSVs, inf overflowed the block count, and
    # decreasing radii were refused only after every point set was built
    calls = []
    monkeypatch.setattr(riesz, "make_special_lattice", lambda *a: calls.append(a))

    def generated(*args, **kwargs):
        raise AssertionError("a point set or check ran before the radii were refused")

    for name in ("dual_model_points", "avdonin_check", "special_quasicrystal"):
        monkeypatch.setattr(riesz, name, generated)
    for old, new, msg in (("n_max = 16", "n_max = 0", "n_max must be at least 1"),
                          ("radii = 8,16", "radii =", "radii must name at least one radius"),
                          ("radii = 8,16", "radii = 8,nan", "at least one radius, each finite"),
                          ("radii = 8,16", "radii = 8,inf", "at least one radius, each finite"),
                          ("radii = 8,16", "radii = 400,200", "each finite, in increasing order")):
        cfg = tmp_path / "dual.cfg"
        cfg.write_text(_DUALITY_CFG.replace(old, new) + f"outdir = {tmp_path / 'dout'}\n")
        assert run_cli("duality", "--config", str(cfg)) == cli.EXIT_PRECONDITION
        assert msg in capsys.readouterr().err
        assert list((tmp_path / "dout").iterdir()) == [] and calls == []


OVERLAP = "[0,1/2) U [1/4,3/4)"  # volume() 1, measure 3/4
OVERLAP_PAIR = "pieces 0 ([0,1/2)) and 1 ([1/4,3/4)) of the region overlap"


def test_gram_bounds_and_duality_refuse_overlapping_pieces(tmp_path, capsys):
    out = tmp_path / "ov"
    assert run_cli("gen", "--alpha", "w1", "--beta", "1", "--window", "(-1,0]",
                   "--range", "20", "--out", str(out)) == 0
    for argv in (["gram"], ["bounds", "--radii", "5,10"]):
        assert run_cli(*argv, "--points", str(out / "points.csv"), "--region", OVERLAP,
                       "--out", str(out)) == cli.EXIT_PRECONDITION
        assert OVERLAP_PAIR in capsys.readouterr().err
    cfg = tmp_path / "ov.cfg"
    cfg.write_text(_DUALITY_CFG.replace("[0,-1+1*w1) U [1,3-1*w1)", OVERLAP)
                   + f"outdir = {tmp_path / 'dout'}\n")
    assert run_cli("duality", "--config", str(cfg)) == cli.EXIT_PRECONDITION
    assert OVERLAP_PAIR in capsys.readouterr().err
    assert not (out / "gram.json").exists() and not (out / "bounds.csv").exists()
    assert not (tmp_path / "dout" / "duality_report.json").exists()
    # the orbit statistics count with multiplicity and keep running
    assert run_cli("disc", "--set", OVERLAP, "--alpha", "w1", "--n", "100", "--out", str(out)) == 0
    assert run_cli("brs-test", "--set", OVERLAP, "--alpha", "w1", "--N", "100", "--J", "10",
                   "--out", str(out)) == 0


def test_brs_make_refuses_overlapping_output(tmp_path, capsys, monkeypatch):
    spec = parse_algebra("sqrt:2")
    monkeypatch.setattr(cli.regions, "realize_measure",
                        lambda *args: parse_region_literal(spec, OVERLAP))
    assert run_cli("brs-make", "--alpha", "w1", "--gamma", "2 - 1*w1",
                   "--out", str(tmp_path)) == cli.EXIT_PRECONDITION
    assert OVERLAP_PAIR in capsys.readouterr().err
    assert not (tmp_path / "brs_region.txt").exists()


def test_gram_refuses_undecided_disjointness_beyond_3d(tmp_path, capsys):
    # a face normal separates the 4-D boxes at shift 2; none separates them at 1/2
    spec = parse_algebra("sqrt:2")
    pts = tmp_path / "p4.csv"
    pts.write_text(PointSet(4, np.eye(4), np.eye(4, dtype=np.int64)).to_csv())
    for shift, rc in ((2, 0), (Fraction(1, 2), cli.EXIT_PRECONDITION)):
        pieces = [box_region(spec, [shift * i, 0, 0, 0], [shift * i + 1, 1, 1, 1])
                  for i in range(2)]
        region = tmp_path / "r4.txt"
        region.write_text(region_to_text(quasilab.regions.union(*pieces)))
        assert run_cli("gram", "--points", str(pts), "--region", f"@{region}",
                       "--out", str(tmp_path)) == rc
    assert "may overlap (disjointness not decided beyond 3-D)" in capsys.readouterr().err



def test_bench_tracer_finds_every_traced_name():
    # bench/spans.py wraps quasilab's functions by name in traced runs
    # (--trace 1): a renamed or deleted name fails here, not in the benchmark
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    loader = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    for name in spans.MODULES:
        importlib.import_module(f"quasilab.{name}")
    from quasilab.algebra import QValue, mat_inverse
    sign = QValue.__dict__["sign"]
    tracer = spans.Tracer()
    try:
        tracer.install(quasilab)
        w1 = parse_algebra("sqrt:2").basis_element("w1")
        quasilab.algebra.mat_inverse([[w1]])
        w1.sign()
    finally:
        tracer.uninstall()
    assert [span[2] for span in tracer.spans] == ["algebra.mat_inverse", "algebra.sign"]
    assert quasilab.algebra.mat_inverse is mat_inverse and QValue.__dict__["sign"] is sign


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # every quasilab line of the README's CLI block, with exp.cfg taken from
    # its first config block; the two big/ lines (about 4 s) are left out
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```(\w*)\n(.*?)^```", text, re.S | re.M)
    sh = next(body for lang, body in blocks if lang == "sh" and "quasilab " in body)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text(next(body for _, body in blocks if body.startswith("[")))
    lines = sh.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("quasilab ")]
    assert len(commands) == 17
    for argv in commands:
        if not any(arg.startswith("big/") for arg in argv):
            assert run_cli(*argv) == 0, argv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "out"]
