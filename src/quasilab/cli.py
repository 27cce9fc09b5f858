"""Command-line orchestration.

Every subcommand is a thin wrapper over one library call: it parses flags,
invokes the operation, writes CSV/JSON artifacts into the output directory
and echoes enough of the configuration that the run can be reproduced from
the artifacts alone.

The operations that ``report`` also runs (gen, disc, brs and duality) each
have one stage function.  A stage reads its inputs from a mapping, which is
either ``vars(args)`` or a config section (the section keys are the flag
names), runs the library call, writes the operation's data artifact and
returns its summary.  Missing keys and unset flags take the same defaults,
and a missing required key or a section no command reads is a ``ConfigError``.

Exit codes: 0 success, 2 precondition violation, 3 search exhaustion,
64 usage error, 66 unreadable or incomplete config.
"""

from __future__ import annotations

import argparse
import difflib
import functools
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
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _wrote(obj, path: Path, note: str = "") -> int:
    """Write obj as JSON to path and say so, with note in parentheses."""
    _json_dump(obj, path)
    print(f"wrote {path} ({note})" if note else f"wrote {path}")
    return EXIT_OK


def _get(c, key: str, default):
    """c[key], or default when the key is absent or None (an unset flag)."""
    value = c.get(key)
    return default if value is None else value


def _spec(c) -> AlgebraSpec:
    lit = _get(c, "algebra", "sqrt:2")
    return parse_algebra(Path(lit[1:]).read_text() if lit.startswith("@") else lit)


def _load_region(spec: AlgebraSpec, text: str, allow_closed: bool = False):
    if text.startswith("@"):
        return regions.region_from_text(Path(text[1:]).read_text())
    return regions.parse_region_literal(spec, text, allow_closed=allow_closed)


def _inputs(c, *keys) -> list:
    """c's algebra, then each key's value read in it: alpha, beta and x0 as exact
    vectors (an unset x0 as None), any other key as a region literal or @file."""
    spec = _spec(c)
    out: list = [spec]
    for key in keys:
        if key in ("alpha", "beta", "x0"):
            text = c.get(key) if key == "x0" else c[key]
            out.append(None if text is None else spec.parse_vector(text))
        else:
            out.append(_load_region(spec, c[key]))
    return out


def _load_points(path: str) -> modelset.PointSet:
    return modelset.PointSet.from_csv(Path(path).read_text())


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


def _parse_radii(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


class ConfigError(QuasilabError):
    pass


_SECTIONS = ("default", "experiment", "gen", "disc", "brs", "duality")  # what commands read


class _Section(dict):
    """One config section; a missing required key is a ConfigError."""

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def __missing__(self, key):
        raise ConfigError(f"config section [{self.name}] needs a '{key}' key")


def read_config(path: str) -> dict[str, _Section]:
    """Line-based config: [section] headers, key = value entries."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    out: dict[str, _Section] = {}
    section = "default"
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                near = difflib.get_close_matches(section, _SECTIONS, 1)
                hint = f"; did you mean [{near[0]}]?" if near else ""
                raise ConfigError(f"{path}:{lineno}: no command reads section [{section}]{hint}")
            out.setdefault(section, _Section(section))
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        out.setdefault(section, _Section(section))[key.strip()] = val.strip()
    return out


def _out_dir(args, c=None) -> Path:
    """The output directory, made if missing: the config's outdir key, else --out, else '.'."""
    out = Path((c or {}).get("outdir", getattr(args, "out", ".") or "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- stages: the operations that report also runs -------------------------------
# Flag-only options (gen --box, disc --n-lo and --two-sided) are keyword
# arguments, so no config key reaches them.


def _gen(c, outdir: Path, box=None) -> tuple[modelset.PointSet, dict]:
    _, alpha, beta, window = _inputs(c, "alpha", "beta", "window")
    if box is None:
        r = int(_get(c, "range", 100))
        box = [(-r, r)] * len(alpha)
    pts = modelset.special_quasicrystal(alpha, beta, window, box)
    path = outdir / "points.csv"
    _write_points(pts, path)
    return pts, {"count": len(pts), "points_file": str(path)}


def _disc(c, outdir: Path, n_lo=None, two_sided: bool = False) -> dict:
    _, region, alpha, x0 = _inputs(c, "set", "alpha", "x0")
    n = int(c["n"])
    if n_lo is None:
        n_lo = -n if two_sided else 0
    trace = dynamics.discrepancy_trace(region, alpha, x0, (n_lo, n), two_sided=two_sided)
    _write_csv(path := outdir / "trace.csv", "n,D_n", [trace.ns, trace.values])
    return {
        "max_abs": trace.max_abs,
        "argmax_n": trace.argmax_n,
        "n_range": [n_lo, n],
        # a scalar in one dimension, as the 1-D artifacts have always had it
        "x0": float(trace.x0[0]) if len(trace.x0) == 1 else [float(v) for v in trace.x0],
        "mes": trace.mes,
        "region": trace.region_desc,
        "alpha": trace.alpha_desc,
        "trace_file": str(path),
    }


def _brs(c) -> dict:
    _, region, alpha = _inputs(c, "set", "alpha")
    stat = dynamics.brs_empirical(region, alpha, int(c["N"]), int(c["J"]))
    return {
        "max_abs": stat.value,
        "argmax_n": stat.argmax_n,
        "argmax_j": stat.argmax_j,
        "N": stat.N,
        "J": stat.J,
        "mes": stat.mes,
        "region": stat.region_desc,
    }


def _duality(c, outdir: Path) -> dict:
    spec, alpha, beta, window, region = _inputs(c, "alpha", "beta", "window", "region")
    radii = _parse_radii(c.get("radii", "10,20"))
    translate = None
    if "seed" in c:
        rng = np.random.default_rng(int(c["seed"]))
        translate = [
            spec.from_rational(Fraction(int(rng.integers(0, 10**6)), 10**9))
            for _ in range(len(alpha))
        ]
    report = riesz.duality_experiment(
        alpha, beta, window, region, radii,
        n_max=int(c.get("n_max", 128)),
        k_bound=int(c.get("k_bound", 2000)),
        translate=translate,
    )
    _write_bounds_csv(report.primal, outdir / "primal_bounds.csv")
    _write_bounds_csv(report.dual, outdir / "dual_bounds.csv")
    return report.as_dict()


# -- subcommand implementations -------------------------------------------------


def _cmd_gen(args) -> int:
    box = [_parse_range(part) for part in args.box.split(";")] if args.box else None
    _gen(vars(args), _out_dir(args), box)
    return EXIT_OK


def _dual_points(c) -> tuple[AlgebraSpec, regions.RegionSet, modelset.PointSet]:
    spec, alpha, beta, region = _inputs(c, "alpha", "beta", "region")
    pts = modelset.dual_model_points(alpha, beta, region, _parse_range(c["n_range"]))
    return spec, region, pts


def _cmd_dual(args) -> int:
    pts = _dual_points(vars(args))[2]
    return _write_points(pts, _out_dir(args) / "dual_points.csv")


def _cmd_periodic(args) -> int:
    spec, alpha = _inputs(vars(args), "alpha")
    outdir = _out_dir(args)
    if args.dual_region:
        region = _load_region(spec, args.dual_region)
        pts = modelset.periodic_dual(alpha, region, _parse_range(args.m_range))
        return _write_points(pts, outdir / "periodic_dual.csv")
    if not args.window:
        raise PreconditionError("periodic needs --window or --dual-region")
    window = _load_region(spec, args.window)
    box = [(-args.range, args.range)] * len(alpha)
    pts = modelset.periodic_points(alpha, window, box)
    return _write_points(pts, outdir / "periodic_points.csv")


def _cmd_disc(args) -> int:
    outdir = _out_dir(args)
    summary = _disc(vars(args), outdir, args.n_lo, args.two_sided)
    _json_dump(summary, outdir / "disc_summary.json")
    print(f"wrote {summary['trace_file']} (max |D_n| = {summary['max_abs']})")
    return EXIT_OK


def _cmd_brs_test(args) -> int:
    summary = _brs(vars(args))
    return _wrote(summary, _out_dir(args) / "brs_test.json", f"statistic = {summary['max_abs']}")


def _cmd_brs_make(args) -> int:
    spec, alpha = _inputs(vars(args), "alpha")
    gamma = spec.parse(args.gamma)
    outdir = _out_dir(args)
    if args.K or args.U:
        if not (args.K and args.U and args.epsilon is not None):
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
    out.write_text(regions.region_to_text(riesz.require_disjoint(made)))
    print(f"wrote {out} (volume = {made.volume()}, {len(made.pieces)} pieces)")
    return EXIT_OK


def _cmd_enum(args) -> int:
    enum = riesz.enumerate_blocks(_dual_points(vars(args))[2])
    out = _out_dir(args) / "enum.csv"
    cols = [enum.js, enum.lambdas, enum.blocks, enum.ranks]
    _write_csv(out, "j,lambda,block,rank", cols)
    print(f"wrote {out} ({len(enum.js)} points, blocks {enum.n_lo}..{enum.n_hi})")
    return EXIT_OK


def _cmd_avdonin(args) -> int:
    spec, region, pts = _dual_points(vars(args))
    enum = riesz.enumerate_blocks(pts)
    mes = region.volume()
    ds = riesz.delta_sequence(enum, mes)
    length = spec.parse(args.interval_length) if args.interval_length else mes
    verdict = riesz.avdonin_check(
        ds, length, args.n_max, (-args.k_bound, args.k_bound)
    )
    return _wrote(
        {**verdict.as_dict(), "region": region.describe(), "interval_length": float(length)},
        _out_dir(args) / "avdonin.json", f"satisfied_at = {verdict.satisfied_at}",
    )


def _cmd_gram(args) -> int:
    region = _inputs(vars(args), "region")[1]
    pts = _load_points(args.points)
    g = riesz.gram_matrix(pts, region)
    lo, hi = riesz.extreme_eigs(g)
    outdir = _out_dir(args)
    if args.save_matrix:
        np.savetxt(outdir / args.save_matrix, g.view(float))
    return _wrote(
        {"size": int(g.shape[0]), "lambda_min": lo, "lambda_max": hi,
         "region": region.describe()},
        outdir / "gram.json", f"lambda_min = {lo}",
    )


def _cmd_bounds(args) -> int:
    region = _inputs(vars(args), "region")[1]
    pts = _load_points(args.points)
    trace = riesz.riesz_bound_trace(pts, _parse_radii(args.radii), region)
    out = _out_dir(args) / "bounds.csv"
    _write_bounds_csv(trace, out)
    print(f"wrote {out}")
    return EXIT_OK


def _write_points(pts: modelset.PointSet, path: Path) -> int:
    path.write_text(pts.to_csv())
    print(f"wrote {path} ({len(pts)} points)")
    return EXIT_OK


def _write_csv(path: Path, header: str, columns) -> None:
    with path.open("wb") as f:
        f.writelines(modelset._csv_chunks(header, columns))


def _write_bounds_csv(trace: riesz.BoundsTrace, path: Path) -> None:
    _write_csv(path, "R,size,lambda_min,lambda_max", list(zip(*trace.rows)))


def _cmd_duality(args) -> int:
    cfg = read_config(args.config)
    section = cfg.get("duality", cfg.get("default", _Section("duality")))
    outdir = _out_dir(args, section)
    result = {**_duality(section, outdir), "config_echo": section, "version": REPORT_VERSION}
    return _wrote(result, outdir / "duality_report.json")


def _cmd_report(args) -> int:
    if args.plot:
        if not args.source:
            raise PreconditionError("--plot needs --from REPORT.json")
        report = json.loads(Path(args.source).read_text())
        emit_plotdata(report, args.plot, _out_dir(args))
        return EXIT_OK
    cfg = read_config(args.config)
    outdir = _out_dir(args, cfg.get("experiment"))
    stages: dict = {}
    report = {"version": REPORT_VERSION, "config_echo": cfg, "stages": stages}
    if "gen" in cfg:
        pts, stage = _gen(cfg["gen"], outdir)
        stage["separation"] = modelset.separation(pts) if len(pts) > 1 else None
        radii = _parse_radii(cfg["gen"].get("density_radii", ""))
        if radii:
            stage["density"] = [
                {"R": r, "lower": lo, "upper": hi}
                for r, lo, hi in modelset.density_estimate(pts, radii)
            ]
        stages["gen"] = stage
    if "disc" in cfg:
        s = _disc(cfg["disc"], outdir)
        stages["disc"] = {k: s[k] for k in ("max_abs", "argmax_n", "mes", "trace_file")}
    if "brs" in cfg:
        s = _brs(cfg["brs"])
        stages["brs"] = {k: s[k] for k in ("max_abs", "argmax_n", "argmax_j", "N", "J")}
    if "duality" in cfg:
        stages["duality"] = _duality(cfg["duality"], outdir)
    return _wrote(report, outdir / "experiment_report.json")


def emit_plotdata(report: dict, kind: str, outdir: Path) -> list[Path]:
    """Two-column plot files plus a descriptor for a report series."""
    stages = report.get("stages", report)
    written = []
    if kind == "discrepancy":
        stage = stages.get("disc")
        if not stage or "trace_file" not in stage:
            raise PreconditionError("report has no discrepancy trace series")
        body = Path(stage["trace_file"]).read_bytes().partition(b"\n")[2]
        path = outdir / "Dn.dat"
        path.write_bytes(body.replace(b",", b" "))
        (outdir / "Dn.dat.meta").write_text(
            "columns: n D_n\nsource: discrepancy trace\n"
        )
        written = [path, outdir / "Dn.dat.meta"]
    elif kind == "bounds":
        stage = stages.get("duality", stages)  # or a standalone duality report
        if "primal_trace" not in stage:
            raise PreconditionError("report has no bounds trace series")
        rows = stage["primal_trace"]["rows"]
        path = outdir / "lmin.dat"
        path.write_text("".join(f"{r['R']} {r['lambda_min']:.17g}\n" for r in rows))
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


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> _Parser:
    parser = _Parser(prog="quasilab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func):
        p = sub.add_parser(name, help=help)
        p.add_argument("--algebra", default=None,
                       help="algebra literal 'sqrt:2,3' or @file (default sqrt:2)")
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(func=func)
        return p

    p = command("gen", "generate quasicrystal points", _cmd_gen)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--window", required=True, help="semi-closed interval literal")
    p.add_argument("--range", type=int, default=None, help="m box half-width")
    p.add_argument("--box", default=None, help="explicit box 'lo:hi;lo:hi'")

    p = command("dual", "generate the dual 1-D model set", _cmd_dual)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--region", required=True, help="region literal or @file")
    p.add_argument("--n-range", required=True, help="'lo:hi'")

    p = command("periodic", "periodic quasicrystal or its dual", _cmd_periodic)
    p.add_argument("--alpha", required=True)
    p.add_argument("--window", default=None)
    p.add_argument("--range", type=int, default=1000)
    p.add_argument("--dual-region", default=None)
    p.add_argument("--m-range", default="-1000:1000")

    p = command("disc", "discrepancy trace", _cmd_disc)
    p.add_argument("--set", required=True, help="region literal or @file")
    p.add_argument("--alpha", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-lo", type=int, default=None)
    p.add_argument("--x0", default=None, help="exact vector literal (default: zero)")
    p.add_argument("--two-sided", action="store_true")

    p = command("brs-test", "double-indexed discrepancy statistic", _cmd_brs_test)
    p.add_argument("--set", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--J", type=int, required=True)

    p = command("brs-make", "realize a measure / fit S between K and U", _cmd_brs_make)
    p.add_argument("--alpha", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--search-bound", type=int, default=2)
    p.add_argument("--K", default=None)
    p.add_argument("--U", default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--tile-bound", type=int, default=1000)
    p.add_argument("--fit-bound", type=int, default=2)

    p = command("enum", "block enumeration of the dual model set", _cmd_enum)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--n-range", required=True)

    p = command("avdonin", "averaged-perturbation interval check", _cmd_avdonin)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--interval-length", default=None)
    p.add_argument("--n-max", type=int, default=128)
    p.add_argument("--k-bound", type=int, default=10000)
    p.add_argument("--n-range", required=True)

    p = command("gram", "Gram matrix extreme eigenvalues", _cmd_gram)
    p.add_argument("--points", required=True, help="pointset CSV")
    p.add_argument("--region", required=True)
    p.add_argument("--save-matrix", default=None)

    p = command("bounds", "eigenvalue trace over radii", _cmd_bounds)
    p.add_argument("--points", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--radii", required=True)

    p = command("duality", "paired primal/dual experiment", _cmd_duality)
    p.add_argument("--config", required=True)

    p = command("report", "full experiment report / plot data", _cmd_report)
    p.add_argument("--config", default=None)
    p.add_argument("--plot", default=None, help="series kind: discrepancy|bounds")
    p.add_argument("--from", dest="source", default=None)

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
    except (QuasilabError, ValueError) as exc:  # a ValueError: a malformed numeric flag value
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOINPUT


if __name__ == "__main__":
    sys.exit(main())
