"""quasilab benchmark: one workload per process, oracle-checked answers.

    python3 bench/run.py --workload rotation --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, one table
    python3 bench/run.py --compare RESULTS_A RESULTS_B  # two result sets
    python3 bench/run.py --write-spec                   # regenerate BENCHMARK.json

A run imports quasilab from ``src/`` next to this directory, builds the
workload's inputs from the seed, has a child process run the oracle
self-tests and compute the oracle's answers, runs one warm-up pass, then
repeats passes (every task of the workload, one after another) for
``--seconds`` seconds.  Every pass is checked against the oracle's answers
outside its timed region.  With ``--trace 0`` it reports the end-to-end
metrics; ``setup_s`` is the median over fresh processes of the time from
process start to the first timed task, rescaled to a fixed machine speed
as ``wall_norm_s`` is.  With ``--trace 1`` the first half of the time runs
untraced and the second half traced, and it reports the per-layer metrics.  The last line
of standard output is one JSON object; a fuller record, with the
environment, goes to ``.bench_results/``.
"""

from __future__ import annotations

import os
import sys
import time

# One BLAS thread: a threaded eigensolve waits for its slowest thread, which
# on a shared machine makes pass times swing with the load on other cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import compare  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = ROOT / ".bench_results"
SETUP_PROBES = 9
MIN_PASSES = 3
REF_CHUNKS = 8           # reference chunks per pass
REF_NOMINAL_S = 0.01     # chunk time that wall_norm_s is scaled to


class SetupError(Exception):
    pass


def load_quasilab():
    """Import quasilab from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "quasilab" / "__init__.py").is_file():
        raise SetupError(f"no quasilab package under {src}")
    sys.path.insert(0, str(src))
    q = importlib.import_module("quasilab")
    if Path(q.__file__).resolve().parent != (src / "quasilab").resolve():
        raise SetupError(f"quasilab imported from {q.__file__}, not from {src}")
    for mod in spans.MODULES:
        importlib.import_module(f"quasilab.{mod}")
    return q


def setup(name: str, seed: int):
    """Import quasilab and build the workload's tasks in a fresh scratch dir."""
    q = load_quasilab()
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
    tasks = workloads.WORKLOADS[name](q, np.random.default_rng(seed), tmp, seed)
    return q, tasks, tmp


# -- environment ------------------------------------------------------------------


def _git_sha() -> str:
    """HEAD of the git work tree (a clone or a worktree) rooted at ROOT."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (no git)"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _blas_threads() -> str:
    """Thread count reported by the loaded OpenBLAS, else the env setting."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment(seed: int) -> dict:
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
        "seed": seed,
    }


# -- one workload -----------------------------------------------------------------


_REF_DATA = np.random.default_rng(0).random(1 << 15)
_REF_BUF = np.empty_like(_REF_DATA)
_REF_OUT = np.empty_like(_REF_DATA)


def reference_chunk() -> float:
    """Time a fixed piece of work that does not use quasilab.

    It mixes what the workloads do, Fraction and big-integer arithmetic and
    in-cache numpy sorting and scans, and allocates nothing, so it is not
    disturbed by what the task before it left behind.  The speed of a
    shared machine drifts by tens of percent over minutes; chunks run next
    to each task measure that drift where the task runs, and
    ``wall_norm_s`` divides it out.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(math.isqrt(2 * i ** 40), i + 1)
    x = 0
    for i in range(60000):
        x += i * i
    for _ in range(4):
        np.copyto(_REF_BUF, _REF_DATA)
        _REF_BUF.sort()
        np.cumsum(_REF_BUF, out=_REF_OUT)
    return time.perf_counter() - t0


def _ref_group(n: int, tracer) -> float:
    if tracer is None:
        return sum(reference_chunk() for _ in range(n)) / n
    with tracer.span("ref.chunk"):
        return sum(reference_chunk() for _ in range(n)) / n


def run_pass(tasks, tracer=None):
    """Run every task once, with reference chunks before, between and after.

    Returns (task wall seconds, normalized seconds per task, outputs); each
    task's time is scaled by REF_NOMINAL_S over the mean chunk time on
    either side of it.  An output is None when its task raised.
    """
    outs, norm = [], []
    wall = 0.0
    per_gap = max(1, REF_CHUNKS // (len(tasks) + 1))
    before = _ref_group(per_gap, tracer)
    for task in tasks:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outs.append(task.run())
            else:
                tracer.task = task.name
                with tracer.span(f"bench.task.{task.name}"):
                    outs.append(task.run())
        except Exception as exc:  # a raising task fails all of its checks
            print(f"task {task.name} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            outs.append(None)
        took = time.perf_counter() - t0
        after = _ref_group(per_gap, tracer)
        wall += took
        norm.append(took * REF_NOMINAL_S * 2 / (before + after))
        before = after
    return wall, norm, outs


def check_pass(tasks, outs, answers) -> list:
    records = []
    for task, out, want in zip(tasks, outs, answers):
        try:
            records += task.check(out, want)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            print(f"check {task.name} could not read the output: {exc!r}", file=sys.stderr)
            records += task.check(None, want)
    return records


def oracle_answers(name: str, seed: int, tmp: Path) -> tuple[list[str], list]:
    """(failed oracle self-tests, each task's oracle answer), computed in a
    child process so that the oracle's allocations stay out of this
    process's peak RSS."""
    path = tmp / "oracle.pickle"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--oracle-answers", str(path),
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SetupError(f"oracle process failed: {proc.stderr.strip()}")
    with path.open("rb") as f:
        broken, answers = pickle.load(f)
    path.unlink()
    return broken, answers


def write_oracle_answers(name: str, seed: int, path: Path) -> None:
    _q, tasks, tmp = setup(name, seed)
    try:
        result = (oracle.self_test(), [task.want() for task in tasks])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with path.open("wb") as f:
        pickle.dump(result, f, protocol=pickle.HIGHEST_PROTOCOL)


def setup_probes(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Time from process start to the end of set-up, in fresh processes.

    Returns the raw times and the times scaled by REF_NOMINAL_S over the
    mean reference-chunk time on either side of each probe.
    """
    raw, norm = [], []
    before = _ref_group(REF_CHUNKS // 2, None)
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SetupError(f"setup probe failed: {proc.stderr.strip()}")
        took = float(proc.stdout.strip().splitlines()[-1]) - t0
        after = _ref_group(REF_CHUNKS // 2, None)
        raw.append(took)
        norm.append(took * REF_NOMINAL_S * 2 / (before + after))
        before = after
    return raw, norm


def pass_median(norms: list[list[float]]) -> float:
    """Sum over tasks of each task's median normalized time over the passes."""
    return sum(statistics.median(task) for task in zip(*norms))


def run_workload(args) -> dict:
    name, seed = args.workload, args.seed
    q, tasks, tmp = setup(name, seed)
    try:
        broken_oracle, answers = oracle_answers(name, seed, tmp)
        tracer = spans.Tracer() if args.trace else None

        records, walls, norms, traced_norms, traced_passes = [], [], [], [], []
        failed_traced: dict[str, int] = {}
        written = 0
        _wall, _norm, outs = run_pass(tasks)  # warm-up: lazy imports, caches
        records += check_pass(tasks, outs, answers)
        start = time.monotonic()
        pass_id = 0
        while True:
            elapsed = time.monotonic() - start
            traced = tracer is not None and elapsed >= args.seconds / 2 and len(walls) >= MIN_PASSES
            if elapsed >= args.seconds and len(walls) >= MIN_PASSES and (
                    tracer is None or len(traced_norms) >= MIN_PASSES):
                break
            if traced and not traced_norms:
                tracer.install(q)
            if traced:
                tracer.pass_id = pass_id
                with tracer.span("bench.pass"):
                    wall, norm, outs = run_pass(tasks, tracer)
                traced_norms.append(norm)
                traced_passes.append(pass_id)
            else:
                wall, norm, outs = run_pass(tasks)
                walls.append(wall)
                norms.append(norm)
            recs = check_pass(tasks, outs, answers)
            records += recs
            if traced:
                for layer, _ident, _att, bad in recs:
                    failed_traced[layer] = failed_traced.get(layer, 0) + bad
                written += sum(t.bytes_written(o) for t, o in zip(tasks, outs) if o is not None)
            pass_id += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        probes_raw, probes = ([], []) if args.trace else setup_probes(name, seed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(r[2] for r in records)
    failed = sum(r[3] for r in records)
    failures = {}
    for layer, ident, _att, bad in records:
        if bad:
            failures[ident] = failures.get(ident, 0) + bad
    unknown = [i for i in failures if i not in workloads.KNOWN_DEFECTS]
    correct = not unknown and not broken_oracle

    result = {
        "workload": name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "env": environment(seed), "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": failures, "unknown_failures": unknown,
        "oracle_self_test_failed": broken_oracle, "correct": correct,
    }
    result["samples"] = {"wall_s": walls, "wall_norm_s": [sum(n) for n in norms]}
    if args.trace:
        metrics = spans.layer_metrics(tracer.spans, traced_passes, failed_traced)
        metrics["bench.traced_wall_norm_s"] = pass_median(traced_norms)
        metrics["trace_overhead_s"] = pass_median(traced_norms) - pass_median(norms)
        metrics["cli.bytes_written"] = written / len(traced_norms)
        units = {n: u for n, u, *_ in spec.PER_LAYER}
        result["samples"]["traced_wall_norm_s"] = [sum(n) for n in traced_norms]
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"spans-{name}-s{seed}-{os.getpid()}.csv"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        result["samples"]["setup_s"] = probes
        result["samples"]["setup_raw_s"] = probes_raw
        metrics = {"wall_norm_s": pass_median(norms), "setup_s": statistics.median(probes),
                   "peak_rss_mb": peak_rss_mb}
        units = {n: u for n, u, *_ in spec.END_TO_END}
        # the raw times: reported, but too noisy on a shared machine to gate on
        result["info"] = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                          "setup_raw_s": {"value": statistics.median(probes_raw), "unit": "s"}}
    result["quartiles"] = {k: compare.quartiles(v) for k, v in result["samples"].items()}
    result["metrics"] = {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}-s{seed}-t{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    return result


def print_result(res: dict) -> None:
    name = res["workload"]
    for metric, m in {**res["metrics"], **res.get("info", {})}.items():
        extra = ""
        if metric in res.get("quartiles", {}):
            q1, _, q3 = res["quartiles"][metric]
            extra = f"  (q1 {q1:.4f}, q3 {q3:.4f} over n={len(res['samples'][metric])} samples)"
        print(f"{name:9s} {metric:32s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"{name:9s} {'failed_frac':32s} {res['failed_frac']:.6g} ratio"
          f"  ({res['failed']} of {res['attempted']} checks)")
    for ident, n in res["failures"].items():
        tag = "known defect" if ident in workloads.KNOWN_DEFECTS else "NEW FAILURE"
        print(f"{name:9s}   failed check [{tag}] {ident} x{n}")
    for test in res["oracle_self_test_failed"]:
        print(f"{name:9s}   oracle self-test failed: {test}")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    rows = []
    for name, _why in spec.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    ok = all(r["correct"] for _, r in rows)
    print(f"all workloads correct: {ok}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[w for w, _ in spec.WORKLOADS] + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--oracle-answers", metavar="PATH", help=argparse.SUPPRESS)
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two result directories (A is the base)")
    p.add_argument("--summary", metavar="DIR", help="print medians and quartiles of a result directory as JSON")
    p.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json")
    args = p.parse_args(argv)

    if args.write_spec:
        print(f"wrote {spec.write_benchmark_json(ROOT)}")
        return 0
    if args.summary:
        print(json.dumps(compare.summarize(compare.load(Path(args.summary))), indent=1))
        return 0
    if args.compare:
        return compare.compare(Path(args.compare[0]), Path(args.compare[1]))
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_probe:
        _q, _tasks, tmp = setup(args.workload, args.seed)
        print(repr(time.monotonic()))
        shutil.rmtree(tmp, ignore_errors=True)
        return 0
    if args.oracle_answers:
        write_oracle_answers(args.workload, args.seed, Path(args.oracle_answers))
        return 0
    if args.workload == "all":
        return run_all(args)
    res = run_workload(args)
    print_result(res)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
