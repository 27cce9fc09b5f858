"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is generated from this file by
``python3 bench/run.py --write-spec``; the extra fields kept here (each
per-layer metric's layer, the end-to-end metric it should move and on which
workloads) are documented in bench/README.md.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 30

WORKLOADS = [
    ("rotation",
     "1-D rotation lab on the float path: dynamics statistics and CLI trace "
     "writing dominate; algebra, regions and riesz are barely touched"),
    ("duality",
     "quasilab duality via cli.main: modelset generation and riesz Gram "
     "builds and eigensolves on the float-first path dominate"),
    ("exact",
     "orbit_hits and generators at magnitudes and dimensions where floats "
     "cannot decide, so QValue sign/floor and regions dominate"),
]

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("wall_norm_s", "s", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

ALL = ("rotation", "duality", "exact")

# name, unit, better, layer, end-to-end metric it should move, workloads
PER_LAYER = [
    ("algebra.sign_calls", "count", "lower", "algebra", "wall_norm_s", ("exact", "duality")),
    ("algebra.sign_s", "s", "lower", "algebra", "wall_norm_s", ("exact", "duality")),
    ("algebra.floor_calls", "count", "lower", "algebra", "wall_norm_s", ("exact", "duality")),
    ("algebra.floor_s", "s", "lower", "algebra", "wall_norm_s", ("exact", "duality")),
    ("algebra.mat_inverse_calls", "count", "lower", "algebra", "wall_norm_s", ("exact",)),
    ("algebra.mat_inverse_s", "s", "lower", "algebra", "wall_norm_s", ("exact",)),
    ("algebra.undecidable", "count", "lower", "algebra", "failed_frac", ALL),
    ("algebra.self_s", "s", "lower", "algebra", "wall_norm_s", ("exact",)),
    ("regions.multiplicity_calls", "count", "lower", "regions", "wall_norm_s", ("exact",)),
    ("regions.multiplicity_s", "s", "lower", "regions", "wall_norm_s", ("exact",)),
    ("regions.search_s", "s", "lower", "regions", "wall_norm_s", ("exact",)),
    ("regions.ft_indicator_evals", "count", "lower", "regions", "wall_norm_s", ("duality",)),
    ("regions.ft_indicator_s", "s", "lower", "regions", "wall_norm_s", ("duality",)),
    ("regions.self_s", "s", "lower", "regions", "wall_norm_s", ("exact",)),
    ("dynamics.orbit_points", "count", "higher", "dynamics", "wall_norm_s", ("rotation", "exact")),
    ("dynamics.orbit_s", "s", "lower", "dynamics", "wall_norm_s", ("rotation", "exact")),
    ("dynamics.orbit_pts_per_s", "1/s", "higher", "dynamics", "wall_norm_s", ("rotation", "exact")),
    ("dynamics.orbit_sign_per_point", "ratio", "lower", "dynamics", "wall_norm_s", ("rotation", "exact")),
    ("dynamics.trace_s", "s", "lower", "dynamics", "wall_norm_s", ("rotation",)),
    ("dynamics.bmo_rational_s", "s", "lower", "dynamics", "wall_norm_s", ("rotation",)),
    ("dynamics.bmo_irrational_s", "s", "lower", "dynamics", "wall_norm_s", ("rotation",)),
    ("dynamics.bmo_window_elems", "count", "lower", "dynamics", "wall_norm_s", ("rotation",)),
    ("dynamics.brs_s", "s", "lower", "dynamics", "wall_norm_s", ("rotation",)),
    ("dynamics.self_s", "s", "lower", "dynamics", "wall_norm_s", ("rotation",)),
    ("modelset.points", "count", "higher", "modelset", "wall_norm_s", ("duality", "exact")),
    ("modelset.gen_s", "s", "lower", "modelset", "wall_norm_s", ("duality", "exact")),
    ("modelset.pts_per_s", "1/s", "higher", "modelset", "wall_norm_s", ("duality", "exact")),
    ("modelset.sign_per_point", "ratio", "lower", "modelset", "wall_norm_s", ("duality", "exact")),
    ("modelset.self_s", "s", "lower", "modelset", "wall_norm_s", ("duality", "exact")),
    ("riesz.gram_s", "s", "lower", "riesz", "wall_norm_s", ("duality",)),
    ("riesz.eig_s", "s", "lower", "riesz", "wall_norm_s", ("duality",)),
    ("riesz.gram_n_max", "count", "higher", "riesz", "peak_rss_mb", ("duality",)),
    ("riesz.gram_bytes", "B", "lower", "riesz", "peak_rss_mb", ("duality",)),
    ("riesz.enum_s", "s", "lower", "riesz", "wall_norm_s", ("duality",)),
    ("riesz.avdonin_s", "s", "lower", "riesz", "wall_norm_s", ("duality",)),
    ("riesz.self_s", "s", "lower", "riesz", "wall_norm_s", ("duality",)),
    ("lattice.special_s", "s", "lower", "lattice", "setup_s", ("duality",)),
    ("lattice.self_s", "s", "lower", "lattice", "wall_norm_s", ("duality",)),
    ("cli.self_s", "s", "lower", "cli", "wall_norm_s", ("rotation", "duality")),
    ("cli.bytes_written", "B", "lower", "cli", "wall_norm_s", ("rotation", "duality")),
    ("bench.self_s", "s", "lower", "bench", "wall_norm_s", ALL),
    ("bench.traced_wall_norm_s", "s", "lower", "bench", "wall_norm_s", ALL),
    ("trace_overhead_s", "s", "lower", "bench", "wall_norm_s", ALL),
] + [
    (f"{layer}.failed", "count", "lower", layer, "failed_frac", ALL)
    for layer in ("algebra", "lattice", "modelset", "regions", "dynamics", "riesz", "cli")
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, *_ in PER_LAYER
        ],
    }


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return path
