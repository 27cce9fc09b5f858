"""In-memory spans around calls into quasilab, installed only in traced runs.

Each public function is wrapped at every name a caller resolves it by (for
example ``quasilab.regions.mat_inverse`` as well as
``quasilab.algebra.mat_inverse``), so calls between modules are seen too.
A span is (parent id, pass id, name, start, end, work, error, outer, tag):
``work`` is a per-call count such as orbit points or Gram size, ``outer``
says no span of the same name encloses it, and ``tag`` records context
(for ``sign``: inside an orbit and/or a generator; for ``bmo_stat``: the
task).  Spans stay in memory until the run ends, when they are written out
and reduced to per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Callable, Optional

_now = time.perf_counter

MODULES = ("algebra", "lattice", "modelset", "regions", "dynamics", "riesz", "cli")


def _length(args, kwargs, result):
    return len(result)


def _bmo_elems(args, kwargs, result):
    n = len(args[0])
    return sum((n - L + 1) * L for L in args[1])


def _ft_evals(args, kwargs, result):
    t = args[1]
    return 1 if not hasattr(t, "shape") else int(t.shape[0])


def _gram_n(args, kwargs, result):
    return int(result.shape[0])


# (module, attribute, work counter); "QValue.sign" patches the class method
TARGETS: list[tuple[str, str, Optional[Callable]]] = [
    ("algebra", "QValue.sign", None),
    ("algebra", "QValue.floor", None),
    ("algebra", "mat_inverse", None),
    ("lattice", "make_special_lattice", None),
    ("regions", "multiplicity", None),
    ("regions", "ft_indicator", _ft_evals),
    ("regions", "realize_measure", None),
    ("regions", "construct_brs_between", None),
    ("dynamics", "orbit_hits", _length),
    ("dynamics", "discrepancy_trace", None),
    ("dynamics", "bmo_stat", _bmo_elems),
    ("dynamics", "brs_empirical", None),
    ("modelset", "special_quasicrystal", _length),
    ("modelset", "dual_model_points", _length),
    ("modelset", "periodic_points", _length),
    ("riesz", "gram_matrix", _gram_n),
    ("riesz", "extreme_eigs", None),
    ("riesz", "enumerate_blocks", None),
    ("riesz", "avdonin_check", None),
    ("riesz", "riesz_bound_trace", None),
    ("riesz", "duality_experiment", None),
    ("cli", "main", None),
]

GENERATORS = ("modelset.special_quasicrystal", "modelset.dual_model_points",
              "modelset.periodic_points")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.pass_id = -1
        self.task = ""
        self.active: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-side span (a task, a pass or reference chunks)."""
        state = self._open(name)
        try:
            yield
        except BaseException as exc:
            self._close(state, name, 0, type(exc).__name__)
            raise
        self._close(state, name, 0, "")

    def _tag(self, name: str) -> str:
        if name == "algebra.sign":
            return ("o" if self.active["dynamics.orbit_hits"] else "") + (
                "g" if any(self.active[g] for g in GENERATORS) else "")
        if name == "dynamics.bmo_stat":
            return self.task
        return ""

    def _open(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        outer = self.active[name] == 0
        self.active[name] += 1
        return sid, outer, self._tag(name), _now()

    def _close(self, state, name, work, error) -> None:
        t1 = _now()
        sid, outer, tag, t0 = state
        self.stack.pop()
        self.active[name] -= 1
        parent = self.stack[-1] if self.stack else -1
        self.spans[sid] = (parent, self.pass_id, name, t0, t1, work, error, outer, tag)

    def wrap(self, name: str, fn: Callable, work: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(state, name, 0, type(exc).__name__)
                raise
            tracer._close(state, name, work(args, kwargs, result) if work else 0, "")
            return result

        return wrapper

    def install(self, package) -> None:
        mods = [getattr(package, m) for m in MODULES]
        for mod_name, attr, work in TARGETS:
            home = getattr(package, mod_name)
            span_name = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(span_name, orig, work))
                continue
            orig = getattr(home, attr)
            wrapped = self.wrap(span_name, orig, work)
            for mod in mods + [package]:
                if mod.__dict__.get(attr) is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,pass,name,start,end,work,error,outer,tag\n")
            for sid, (parent, pid, name, t0, t1, work, err, outer, tag) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{pid},{name},{t0:.9f},{t1:.9f},{work},"
                         f"{err},{int(outer)},{tag}\n")


def layer_metrics(spans: list, passes: list[int], failed_by_layer: dict[str, int]) -> dict[str, float]:
    """Reduce the spans of the given traced passes to per-pass layer metrics."""
    keep = set(passes)
    n_pass = max(len(passes), 1)
    dur = [s[4] - s[3] for s in spans]
    child = [0.0] * len(spans)
    for sid, (parent, *_rest) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[sid]

    incl = defaultdict(float)   # inclusive time of outermost spans per name
    calls = defaultdict(int)
    work = defaultdict(float)
    self_s = defaultdict(float)
    errors = defaultdict(int)
    sign_under = defaultdict(int)
    bmo_time = defaultdict(float)
    gram_n_max, gram_bytes = 0, 0
    for sid, (parent, pid, name, t0, t1, w, err, outer, tag) in enumerate(spans):
        if pid not in keep:
            continue
        self_s[name.split(".")[0]] += dur[sid] - child[sid]
        calls[name] += 1
        work[name] += w
        if err:
            errors[(name, err)] += 1
        if outer:
            incl[name] += dur[sid]
        if name == "algebra.sign":
            for c in tag:
                sign_under[c] += 1
        elif name == "dynamics.bmo_stat":
            bmo_time[tag] += dur[sid]
        elif name == "riesz.gram_matrix":
            gram_n_max = max(gram_n_max, w)
            gram_bytes += 16 * w * w

    orbit_pts = work["dynamics.orbit_hits"]
    gen_pts = sum(work[g] for g in GENERATORS)
    gen_s = sum(incl[g] for g in GENERATORS)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "algebra.sign_calls": calls["algebra.sign"] / n_pass,
        "algebra.sign_s": incl["algebra.sign"] / n_pass,
        "algebra.floor_calls": calls["algebra.floor"] / n_pass,
        "algebra.floor_s": incl["algebra.floor"] / n_pass,
        "algebra.mat_inverse_calls": calls["algebra.mat_inverse"] / n_pass,
        "algebra.mat_inverse_s": incl["algebra.mat_inverse"] / n_pass,
        "algebra.undecidable": errors[("algebra.sign", "SignUndecidableError")] / n_pass,
        "regions.multiplicity_calls": calls["regions.multiplicity"] / n_pass,
        "regions.multiplicity_s": incl["regions.multiplicity"] / n_pass,
        "regions.search_s": (incl["regions.realize_measure"]
                             + incl["regions.construct_brs_between"]) / n_pass,
        "regions.ft_indicator_evals": work["regions.ft_indicator"] / n_pass,
        "regions.ft_indicator_s": incl["regions.ft_indicator"] / n_pass,
        "dynamics.orbit_points": orbit_pts / n_pass,
        "dynamics.orbit_s": incl["dynamics.orbit_hits"] / n_pass,
        "dynamics.orbit_pts_per_s": ratio(orbit_pts, incl["dynamics.orbit_hits"]),
        "dynamics.orbit_sign_per_point": ratio(sign_under["o"], orbit_pts),
        "dynamics.trace_s": incl["dynamics.discrepancy_trace"] / n_pass,
        "dynamics.bmo_rational_s": bmo_time["bmo_rational"] / n_pass,
        "dynamics.bmo_irrational_s": bmo_time["bmo_irrational"] / n_pass,
        "dynamics.bmo_window_elems": work["dynamics.bmo_stat"] / n_pass,
        "dynamics.brs_s": incl["dynamics.brs_empirical"] / n_pass,
        "modelset.points": gen_pts / n_pass,
        "modelset.gen_s": gen_s / n_pass,
        "modelset.pts_per_s": ratio(gen_pts, gen_s),
        "modelset.sign_per_point": ratio(sign_under["g"], gen_pts),
        "riesz.gram_s": incl["riesz.gram_matrix"] / n_pass,
        "riesz.eig_s": incl["riesz.extreme_eigs"] / n_pass,
        "riesz.gram_n_max": float(gram_n_max),
        "riesz.gram_bytes": gram_bytes / n_pass,
        "riesz.enum_s": incl["riesz.enumerate_blocks"] / n_pass,
        "riesz.avdonin_s": incl["riesz.avdonin_check"] / n_pass,
        "lattice.special_s": incl["lattice.make_special_lattice"] / n_pass,
    }
    for layer in MODULES + ("bench",):
        m[f"{layer}.self_s"] = self_s[layer] / n_pass
    for layer in MODULES:
        m[f"{layer}.failed"] = failed_by_layer.get(layer, 0) / n_pass
    return m
