"""Command-line orchestration.

Every subcommand is a thin wrapper over one library call: it parses flags,
invokes the operation, writes CSV/JSON artifacts into the output directory
and echoes enough of the configuration that the run can be reproduced from
the artifacts alone.  Exit codes: 0 success, 2 precondition violation,
3 search exhaustion, 64 usage error, 66 unreadable config.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import dynamics, modelset, regions, riesz
from .algebra import AlgebraSpec, parse_algebra
from .errors import PreconditionError, QuasilabError, SearchExhaustedError

REPORT_VERSION = "quasilab-report v1"

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_SEARCH = 3
EXIT_USAGE = 64
EXIT_NOINPUT = 66


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # unknown flags and usage errors
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_region(spec: AlgebraSpec, text: str, allow_closed: bool = False):
    if text.startswith("@"):
        return regions.region_from_text(Path(text[1:]).read_text())
    return regions.parse_region_literal(spec, text, allow_closed=allow_closed)


def _load_points(path: str) -> modelset.PointSet:
    return modelset.PointSet.from_csv(Path(path).read_text())


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


def _parse_radii(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def read_config(path: str) -> dict[str, dict[str, str]]:
    """Line-based config: [section] headers, key = value entries."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    out: dict[str, dict[str, str]] = {}
    section = "default"
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            out.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        out.setdefault(section, {})[key.strip()] = val.strip()
    return out


class ConfigError(QuasilabError):
    pass


def _spec_from_args(args) -> AlgebraSpec:
    lit = getattr(args, "algebra", None) or "sqrt:2"
    if lit.startswith("@"):
        return parse_algebra(Path(lit[1:]).read_text())
    return parse_algebra(lit)


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", ".") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommand implementations -------------------------------------------------


def _cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    alpha = spec.parse_vector(args.alpha)
    beta = spec.parse_vector(args.beta)
    window = _load_region(spec, args.window)
    d = len(alpha)
    if args.box:
        box = [_parse_range(part) for part in args.box.split(";")]
    else:
        box = [(-args.range, args.range)] * d
    pts = modelset.special_quasicrystal(alpha, beta, window, box)
    out = _out_dir(args) / "points.csv"
    out.write_text(pts.to_csv())
    print(f"wrote {out} ({len(pts)} points)")
    return EXIT_OK


def _cmd_dual(args) -> int:
    spec = _spec_from_args(args)
    alpha = spec.parse_vector(args.alpha)
    beta = spec.parse_vector(args.beta)
    region = _load_region(spec, args.region)
    pts = modelset.dual_model_points(alpha, beta, region, _parse_range(args.n_range))
    out = _out_dir(args) / "dual_points.csv"
    out.write_text(pts.to_csv())
    print(f"wrote {out} ({len(pts)} points)")
    return EXIT_OK


def _cmd_periodic(args) -> int:
    spec = _spec_from_args(args)
    alpha = spec.parse_vector(args.alpha)
    outdir = _out_dir(args)
    if args.dual_region:
        region = _load_region(spec, args.dual_region)
        pts = modelset.periodic_dual(alpha, region, _parse_range(args.m_range))
        out = outdir / "periodic_dual.csv"
    else:
        if not args.window:
            raise PreconditionError("periodic needs --window or --dual-region")
        window = _load_region(spec, args.window)
        box = [(-args.range, args.range)] * len(alpha)
        pts = modelset.periodic_points(alpha, window, box)
        out = outdir / "periodic_points.csv"
    out.write_text(pts.to_csv())
    print(f"wrote {out} ({len(pts)} points)")
    return EXIT_OK


def _cmd_disc(args) -> int:
    spec = _spec_from_args(args)
    region = _load_region(spec, args.set)
    alpha = spec.parse(args.alpha)
    n_lo = args.n_lo if args.n_lo is not None else (-args.n if args.two_sided else 0)
    trace = dynamics.discrepancy_trace(
        region, alpha, args.x0, (n_lo, args.n), two_sided=args.two_sided
    )
    outdir = _out_dir(args)
    trace_path = outdir / "trace.csv"
    _write_trace_csv(trace, trace_path)
    summary = {
        "max_abs": trace.max_abs,
        "argmax_n": trace.argmax_n,
        "n_range": [int(trace.ns[0]), int(trace.ns[-1])],
        "x0": trace.x0,
        "mes": trace.mes,
        "region": trace.region_desc,
        "alpha": trace.alpha_desc,
        "trace_file": str(trace_path),
    }
    _json_dump(summary, outdir / "disc_summary.json")
    print(f"wrote {trace_path} (max |D_n| = {trace.max_abs})")
    return EXIT_OK


def _cmd_brs_test(args) -> int:
    spec = _spec_from_args(args)
    region = _load_region(spec, args.set)
    alpha = spec.parse(args.alpha)
    stat = dynamics.brs_empirical(region, alpha, args.N, args.J)
    out = _out_dir(args) / "brs_test.json"
    _json_dump(
        {
            "max_abs": stat.value,
            "argmax_n": stat.argmax_n,
            "argmax_j": stat.argmax_j,
            "N": stat.N,
            "J": stat.J,
            "mes": stat.mes,
            "region": stat.region_desc,
        },
        out,
    )
    print(f"wrote {out} (statistic = {stat.value})")
    return EXIT_OK


def _cmd_brs_make(args) -> int:
    spec = _spec_from_args(args)
    alpha = spec.parse_vector(args.alpha)
    gamma = spec.parse(args.gamma)
    outdir = _out_dir(args)
    if args.K or args.U:
        if not (args.K and args.U and args.epsilon):
            raise PreconditionError("--between mode needs --K, --U and --epsilon")
        region_k = _load_region(spec, args.K, allow_closed=True)
        region_u = _load_region(spec, args.U, allow_closed=True)
        made = regions.construct_brs_between(
            alpha, region_k, region_u, gamma, args.epsilon,
            tile_bound=args.tile_bound, fit_bound=args.fit_bound,
        )
    else:
        made = regions.realize_measure(alpha, gamma, args.search_bound)
    out = outdir / "brs_region.txt"
    out.write_text(regions.region_to_text(made))
    print(f"wrote {out} (volume = {made.volume()}, {len(made.pieces)} pieces)")
    return EXIT_OK


def _cmd_enum(args) -> int:
    spec = _spec_from_args(args)
    alpha = spec.parse_vector(args.alpha)
    beta = spec.parse_vector(args.beta)
    region = _load_region(spec, args.region)
    pts = modelset.dual_model_points(alpha, beta, region, _parse_range(args.n_range))
    enum = riesz.enumerate_blocks(pts)
    out = _out_dir(args) / "enum.csv"
    with out.open("w") as fh:
        fh.write("j,lambda,block,rank\n")
        for j, lam, b, r in zip(enum.js, enum.lambdas, enum.blocks, enum.ranks):
            fh.write(f"{j},{format(lam, '.17g')},{b},{r}\n")
    print(f"wrote {out} ({len(enum.js)} points, blocks {enum.n_lo}..{enum.n_hi})")
    return EXIT_OK


def _cmd_avdonin(args) -> int:
    spec = _spec_from_args(args)
    alpha = spec.parse_vector(args.alpha)
    beta = spec.parse_vector(args.beta)
    region = _load_region(spec, args.region)
    pts = modelset.dual_model_points(alpha, beta, region, _parse_range(args.n_range))
    enum = riesz.enumerate_blocks(pts)
    mes = region.volume()
    ds = riesz.delta_sequence(enum, mes)
    length = spec.parse(args.interval_length) if args.interval_length else mes
    verdict = riesz.avdonin_check(
        ds, length, args.n_max, (-args.k_bound, args.k_bound)
    )
    out = _out_dir(args) / "avdonin.json"
    _json_dump(
        {
            "satisfied_at": verdict.satisfied_at,
            "sup_deviation": verdict.sup_deviation,
            "threshold": verdict.threshold,
            "margin": verdict.margin,
            "c_hat": verdict.c_hat,
            "n_max": verdict.n_max,
            "k_range": list(verdict.k_range),
            "separation": verdict.separation,
            "region": region.describe(),
            "interval_length": float(length),
        },
        out,
    )
    print(f"wrote {out} (satisfied_at = {verdict.satisfied_at})")
    return EXIT_OK


def _cmd_gram(args) -> int:
    spec = _spec_from_args(args)
    region = _load_region(spec, args.region)
    pts = _load_points(args.points)
    g = riesz.gram_matrix(pts, region)
    lo, hi = riesz.extreme_eigs(g)
    outdir = _out_dir(args)
    if args.save_matrix:
        np.savetxt(outdir / args.save_matrix, g.view(float))
    out = outdir / "gram.json"
    _json_dump(
        {"size": int(g.shape[0]), "lambda_min": lo, "lambda_max": hi,
         "region": region.describe()},
        out,
    )
    print(f"wrote {out} (lambda_min = {lo})")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    spec = _spec_from_args(args)
    region = _load_region(spec, args.region)
    pts = _load_points(args.points)
    trace = riesz.riesz_bound_trace(pts, _parse_radii(args.radii), region)
    out = _out_dir(args) / "bounds.csv"
    _write_bounds_csv(trace, out)
    print(f"wrote {out}")
    return EXIT_OK


def _write_trace_csv(trace: dynamics.DiscrepancyTrace, path: Path) -> None:
    with path.open("w") as fh:
        fh.write("n,D_n\n")
        rows = zip(trace.ns.tolist(), trace.values.tolist())
        fh.writelines(f"{n},{v:.17g}\n" for n, v in rows)


def _write_bounds_csv(trace: riesz.BoundsTrace, path: Path) -> None:
    with path.open("w") as fh:
        fh.write("R,size,lambda_min,lambda_max\n")
        for r, n, lo, hi in trace.rows:
            fh.write(
                f"{format(r, '.17g')},{n},{format(lo, '.17g')},"
                f"{format(hi, '.17g')}\n"
            )


def _duality_from_config(cfg: dict[str, str], outdir: Path) -> dict:
    spec = parse_algebra(cfg.get("algebra", "sqrt:2"))
    alpha = spec.parse_vector(cfg["alpha"])
    beta = spec.parse_vector(cfg["beta"])
    window = regions.parse_region_literal(spec, cfg["window"])
    region = (
        regions.region_from_text(Path(cfg["region_file"]).read_text())
        if "region_file" in cfg
        else regions.parse_region_literal(spec, cfg["region"])
    )
    radii = _parse_radii(cfg.get("radii", "10,20"))
    translate = None
    if "seed" in cfg:
        rng = np.random.default_rng(int(cfg["seed"]))
        translate = [
            spec.from_rational(Fraction(int(rng.integers(0, 10**6)), 10**9))
            for _ in range(len(alpha))
        ]
    report = riesz.duality_experiment(
        alpha, beta, window, region, radii,
        n_max=int(cfg.get("n_max", 128)),
        k_bound=int(cfg.get("k_bound", 2000)),
        translate=translate,
    )
    _write_bounds_csv(report.primal, outdir / "primal_bounds.csv")
    _write_bounds_csv(report.dual, outdir / "dual_bounds.csv")
    return report.as_dict()


def _cmd_duality(args) -> int:
    cfg = read_config(args.config)
    section = cfg.get("duality", cfg.get("default", {}))
    outdir = Path(section.get("outdir", getattr(args, "out", ".") or "."))
    outdir.mkdir(parents=True, exist_ok=True)
    result = _duality_from_config(section, outdir)
    result["config_echo"] = section
    result["version"] = REPORT_VERSION
    out = outdir / "duality_report.json"
    _json_dump(result, out)
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    if args.plot:
        if not args.source:
            raise PreconditionError("--plot needs --from REPORT.json")
        report = json.loads(Path(args.source).read_text())
        outdir = _out_dir(args)
        emit_plotdata(report, args.plot, outdir)
        return EXIT_OK
    cfg = read_config(args.config)
    outdir = Path(cfg.get("experiment", {}).get("outdir", getattr(args, "out", ".") or "."))
    outdir.mkdir(parents=True, exist_ok=True)
    report: dict = {"version": REPORT_VERSION, "config_echo": cfg, "stages": {}}

    if "gen" in cfg:
        c = cfg["gen"]
        spec = parse_algebra(c.get("algebra", "sqrt:2"))
        alpha = spec.parse_vector(c["alpha"])
        beta = spec.parse_vector(c["beta"])
        window = regions.parse_region_literal(spec, c["window"])
        box = [(-int(c["range"]), int(c["range"]))] * len(alpha)
        pts = modelset.special_quasicrystal(alpha, beta, window, box)
        (outdir / "points.csv").write_text(pts.to_csv())
        radii = _parse_radii(c.get("density_radii", "")) or None
        stage = {
            "count": len(pts),
            "separation": modelset.separation(pts) if len(pts) > 1 else None,
            "points_file": str(outdir / "points.csv"),
        }
        if radii:
            stage["density"] = [
                {"R": r, "lower": lo, "upper": hi}
                for r, lo, hi in modelset.density_estimate(pts, radii)
            ]
        report["stages"]["gen"] = stage

    if "disc" in cfg:
        c = cfg["disc"]
        spec = parse_algebra(c.get("algebra", "sqrt:2"))
        region = regions.parse_region_literal(spec, c["set"])
        alpha = spec.parse(c["alpha"])
        n = int(c["n"])
        trace = dynamics.discrepancy_trace(region, alpha, float(c.get("x0", 0)), (0, n))
        trace_path = outdir / "trace.csv"
        _write_trace_csv(trace, trace_path)
        report["stages"]["disc"] = {
            "max_abs": trace.max_abs,
            "argmax_n": trace.argmax_n,
            "mes": trace.mes,
            "trace_file": str(trace_path),
        }

    if "brs" in cfg:
        c = cfg["brs"]
        spec = parse_algebra(c.get("algebra", "sqrt:2"))
        region = regions.parse_region_literal(spec, c["set"])
        alpha = spec.parse(c["alpha"])
        stat = dynamics.brs_empirical(region, alpha, int(c["N"]), int(c["J"]))
        report["stages"]["brs"] = {
            "max_abs": stat.value,
            "argmax_n": stat.argmax_n,
            "argmax_j": stat.argmax_j,
            "N": stat.N,
            "J": stat.J,
        }

    if "duality" in cfg:
        report["stages"]["duality"] = _duality_from_config(cfg["duality"], outdir)

    out = outdir / "experiment_report.json"
    _json_dump(report, out)
    print(f"wrote {out}")
    return EXIT_OK


def emit_plotdata(report: dict, kind: str, outdir: Path) -> list[Path]:
    """Two-column plot files plus a descriptor for a report series."""
    stages = report.get("stages", report)
    written = []
    if kind == "discrepancy":
        stage = stages.get("disc")
        if not stage or "trace_file" not in stage:
            raise PreconditionError("report has no discrepancy trace series")
        rows = Path(stage["trace_file"]).read_text().splitlines()[1:]
        path = outdir / "Dn.dat"
        with path.open("w") as fh:
            for row in rows:
                n, v = row.split(",")
                fh.write(f"{n} {v}\n")
        (outdir / "Dn.dat.meta").write_text(
            "columns: n D_n\nsource: discrepancy trace\n"
        )
        written = [path, outdir / "Dn.dat.meta"]
    elif kind == "bounds":
        stage = stages.get("duality") or stages.get("bounds")
        if stage is None and "primal_trace" in stages:
            stage = stages  # standalone duality report
        if stage and "primal_trace" in stage:
            rows = stage["primal_trace"]["rows"]
        elif stage and "rows" in stage:
            rows = stage["rows"]
        else:
            raise PreconditionError("report has no bounds trace series")
        path = outdir / "lmin.dat"
        with path.open("w") as fh:
            for row in rows:
                fh.write(f"{row['R']} {format(row['lambda_min'], '.17g')}\n")
        (outdir / "lmin.dat.meta").write_text(
            "columns: R lambda_min\nsource: finite-section trace\n"
        )
        written = [path, outdir / "lmin.dat.meta"]
    else:
        raise PreconditionError(f"unknown plot kind {kind!r}")
    for p in written:
        print(f"wrote {p}")
    return written


# -- parser wiring ---------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="quasilab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--algebra", default="sqrt:2",
                       help="algebra literal 'sqrt:2,3' or @file")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("gen", help="generate quasicrystal points")
    common(p)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--window", required=True, help="semi-closed interval literal")
    p.add_argument("--range", type=int, default=100, help="m box half-width")
    p.add_argument("--box", default=None, help="explicit box 'lo:hi;lo:hi'")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("dual", help="generate the dual 1-D model set")
    common(p)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--region", required=True, help="region literal or @file")
    p.add_argument("--n-range", required=True, help="'lo:hi'")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("periodic", help="periodic quasicrystal or its dual")
    common(p)
    p.add_argument("--alpha", required=True)
    p.add_argument("--window", default=None)
    p.add_argument("--range", type=int, default=1000)
    p.add_argument("--dual-region", default=None)
    p.add_argument("--m-range", default="-1000:1000")
    p.set_defaults(func=_cmd_periodic)

    p = sub.add_parser("disc", help="discrepancy trace")
    common(p)
    p.add_argument("--set", required=True, help="region literal or @file")
    p.add_argument("--alpha", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-lo", type=int, default=None)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--two-sided", action="store_true")
    p.set_defaults(func=_cmd_disc)

    p = sub.add_parser("brs-test", help="double-indexed discrepancy statistic")
    common(p)
    p.add_argument("--set", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--J", type=int, required=True)
    p.set_defaults(func=_cmd_brs_test)

    p = sub.add_parser("brs-make", help="realize a measure / fit S between K and U")
    common(p)
    p.add_argument("--alpha", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--search-bound", type=int, default=2)
    p.add_argument("--K", default=None)
    p.add_argument("--U", default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--tile-bound", type=int, default=1000)
    p.add_argument("--fit-bound", type=int, default=2)
    p.set_defaults(func=_cmd_brs_make)

    p = sub.add_parser("enum", help="block enumeration of the dual model set")
    common(p)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--n-range", required=True)
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("avdonin", help="averaged-perturbation interval check")
    common(p)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--interval-length", default=None)
    p.add_argument("--n-max", type=int, default=128)
    p.add_argument("--k-bound", type=int, default=10000)
    p.add_argument("--n-range", required=True)
    p.set_defaults(func=_cmd_avdonin)

    p = sub.add_parser("gram", help="Gram matrix extreme eigenvalues")
    common(p)
    p.add_argument("--points", required=True, help="pointset CSV")
    p.add_argument("--region", required=True)
    p.add_argument("--save-matrix", default=None)
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("bounds", help="eigenvalue trace over radii")
    common(p)
    p.add_argument("--points", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--radii", required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("duality", help="paired primal/dual experiment")
    common(p)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_duality)

    p = sub.add_parser("report", help="full experiment report / plot data")
    common(p)
    p.add_argument("--config", default=None)
    p.add_argument("--plot", default=None, help="series kind: discrepancy|bounds")
    p.add_argument("--from", dest="source", default=None)
    p.set_defaults(func=_cmd_report)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "report" and not (args.config or args.plot):
        raise PreconditionError("report needs --config or --plot")
    return args.func(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOINPUT
    except SearchExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEARCH
    except (PreconditionError, QuasilabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:  # malformed numeric flag values
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOINPUT


if __name__ == "__main__":
    sys.exit(main())
