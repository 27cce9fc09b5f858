"""Compare two result sets written by bench/run.py (A is the base, B the change).

Per workload and metric it prints each side's median and quartiles, the
number of pairs (runs with the same seed) that B wins, and a verdict:

* ``unresolved``: the spread (q3 - q1, as a share of the median) of either
  side is wider than the metric's bound, unless every B run beats every
  A run;
* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B wins at least nine tenths of the pairs and the medians
  differ by more than A's own spread;
* ``same`` otherwise.

Per-layer metrics have no bound; they are listed with medians and wins.
It warns when the environment records of the two sets differ.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import spec

ENV_KEYS = ("python", "numpy", "scipy", "nproc", "blas_threads", "machine")


def _env(result: dict) -> str:
    return json.dumps({k: result["env"].get(k) for k in ENV_KEYS}, sort_keys=True)


def load(directory: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def _series(results, workload, metric):
    """(seed, value) per run of the workload that reports the metric."""
    return [(r["seed"], r["metrics"][metric]["value"]) for r in results
            if r["workload"] == workload and metric in r["metrics"]]


def summarize(results: list[dict]) -> dict:
    out = {}
    for workload, _ in spec.WORKLOADS:
        runs = [r for r in results if r["workload"] == workload]
        if not runs:
            continue
        entry = {}
        units = {m: v["unit"] for r in runs for m, v in r["metrics"].items()}
        for metric in sorted(units):
            vals = [v for _, v in _series(results, workload, metric)]
            q1, med, q3 = quartiles(vals)
            entry[metric] = {"median": med, "q1": q1, "q3": q3, "n": len(vals),
                             "unit": units[metric]}
        plain = [r for r in runs if not r["trace"]]
        if plain:
            entry["failed_frac"] = {"median": statistics.median(r["failed_frac"] for r in plain),
                                    "n": len(plain),
                                    "failures": sorted({f for r in plain for f in r["failures"]})}
        out[workload] = entry
    out["env"] = [json.loads(e) for e in sorted({_env(r) for r in results})]
    out["git_sha"] = sorted({r["env"]["git_sha"] for r in results})
    return out


def compare(dir_a: Path, dir_b: Path) -> int:
    a, b = load(dir_a), load(dir_b)
    if not a or not b:
        print("compare: both directories need result files")
        return 2
    env_a, env_b = {_env(r) for r in a}, {_env(r) for r in b}
    if env_a != env_b:
        print("WARNING: the environment records differ:")
        for e in sorted(env_a ^ env_b):
            print(f"  {'A' if e in env_a else 'B'}: {e}")
    metrics = [(n, u, better, bound) for n, u, better, bound in spec.END_TO_END]
    metrics += [(n, u, better, None) for n, u, better, *_ in spec.PER_LAYER]
    print(f"{'workload':9s} {'metric':30s} {'A median [q1, q3]':>30s} {'B median [q1, q3]':>30s}"
          f" {'B wins':>8s}  verdict")
    for workload, _ in spec.WORKLOADS:
        for name, unit, better, bound in metrics:
            sa, sb = _series(a, workload, name), _series(b, workload, name)
            if not sa or not sb:
                continue
            va, vb = [v for _, v in sa], [v for _, v in sb]
            qa, qb = quartiles(va), quartiles(vb)
            sign = 1 if better == "lower" else -1
            by_seed = dict(sb)
            pairs = [(x, by_seed[s]) for s, x in sa if s in by_seed]
            wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
            verdict = ""
            if bound is not None:
                spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
                all_better = all(sign * (y - x) < 0 for x in va for y in vb)
                if spread > bound and not all_better:
                    verdict = "unresolved"
                elif sign * (qb[1] - qa[1]) > bound * abs(qa[1]):
                    verdict = "worse"
                elif pairs and wins >= 0.9 * len(pairs) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
                    verdict = "better"
                else:
                    verdict = "same"
            print(f"{workload:9s} {name:30s} {_fmt(qa):>30s} {_fmt(qb):>30s}"
                  f" {wins:>3d}/{len(pairs):<4d}  {verdict} {unit}")
    return 0


def _fmt(q) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
