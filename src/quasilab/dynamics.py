"""Discrepancy of irrational rotations against region multiplicity functions.

Orbit evaluations x0 + k*alpha run on a vectorized float path whose guard
band is derived from the actual magnitudes involved; any evaluation landing
inside the band is recomputed exactly in the algebra, so boundary hits
(which decide semi-closed membership) are never resolved by float luck and
there is no drift at k ~ 10^6.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .algebra import QValue, lift_to
from .errors import PreconditionError
from .regions import RegionSet

__all__ = [
    "orbit_hits",
    "DiscrepancyTrace",
    "discrepancy_trace",
    "BrsStatistic",
    "brs_empirical",
    "orbit_transfer",
    "bmo_stat",
    "counting_discrepancy",
]


# elements per block of the direct bmo_stat scan: the block buffer stays in cache
_BMO_BLOCK = 1 << 15


def _as_qvalue(spec, x) -> QValue:
    if isinstance(x, QValue):
        return lift_to(spec, x)
    return spec.from_rational(Fraction(x))


def _alpha_vector(region: RegionSet, alpha) -> tuple[QValue, ...]:
    spec = region.spec
    if isinstance(alpha, QValue):
        alpha = (alpha,)
    vec = tuple(_as_qvalue(spec, a) for a in alpha)
    if len(vec) != region.dim:
        raise PreconditionError("alpha dimension does not match the region")
    return vec


def orbit_hits(region: RegionSet, alpha, x0, k_lo: int, k_hi: int) -> np.ndarray:
    """Multiplicity counts chi_S(x0 + k*alpha) for k = k_lo..k_hi.

    Every dimension runs through the region's membership kernel: one
    vectorized float pass, with exact fallback for the orbit points inside
    the guard band derived from the orbit's magnitudes.
    """
    if k_hi < k_lo:
        raise PreconditionError("empty orbit range")
    alpha_vec = _alpha_vector(region, alpha)
    spec = region.spec
    if not isinstance(x0, (tuple, list, np.ndarray)):
        x0 = (x0,)
    x0_vec = tuple(_as_qvalue(spec, v) for v in x0)
    if len(x0_vec) != region.dim:
        raise PreconditionError("x0 dimension does not match the region")
    ks = np.arange(k_lo, k_hi + 1, dtype=np.int64)
    return region.membership.count(x0_vec, [alpha_vec], ks[:, None])


@dataclass(eq=False)
class DiscrepancyTrace:
    """Orbit discrepancy values D_n over a range of n (possibly two-sided)."""

    alpha_desc: str
    region_desc: str
    x0: float
    ns: np.ndarray
    values: np.ndarray
    mes: float

    @property
    def max_abs(self) -> float:
        return float(np.abs(self.values).max())

    @property
    def argmax_n(self) -> int:
        return int(self.ns[int(np.abs(self.values).argmax())])

    def value_at(self, n: int) -> float:
        idx = int(n - self.ns[0])
        if not 0 <= idx < len(self.ns):
            raise PreconditionError(f"n={n} outside the computed range")
        return float(self.values[idx])

    def increments_consistent(self, region: RegionSet, alpha, tol: float = 1e-9) -> bool:
        """D_{n+1} - D_n = chi_S(x0 + n*alpha) - mes S on the whole range."""
        chi = orbit_hits(region, alpha, self.x0, int(self.ns[0]), int(self.ns[-1]) - 1)
        incs = np.diff(self.values)
        return bool(np.max(np.abs(incs - (chi - self.mes))) <= tol)


def discrepancy_trace(
    region: RegionSet,
    alpha,
    x0=0,
    n_range: tuple[int, int] = (0, 1000),
    two_sided: bool = False,
) -> DiscrepancyTrace:
    """Exact-summation trace of D_n(S, x0).

    For n > 0 this is the hit count over k = 0..n-1 minus n*mes S; n = 0
    gives 0 and negative n (two-sided mode) uses the reflected convention
    with k = n..-1.  Hit counts accumulate in exact integers; the only
    floating step is the single product n*mes per entry.
    """
    n_lo, n_hi = n_range
    if n_lo > n_hi:
        raise PreconditionError("empty n range")
    if n_lo < 0 and not two_sided:
        raise PreconditionError("negative n requires two_sided=True")
    mes = float(region.volume())
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    values = np.zeros(len(ns), dtype=np.float64)
    if n_hi > 0:
        chi = orbit_hits(region, alpha, x0, 0, n_hi - 1)
        csum = np.cumsum(chi)
        pos = ns > 0
        values[pos] = csum[ns[pos] - 1] - ns[pos] * mes
    if n_lo < 0:
        chi_neg = orbit_hits(region, alpha, x0, n_lo, -1)
        csum_neg = np.cumsum(chi_neg[::-1])  # index t-1 = sum over k=-t..-1
        neg = ns < 0
        t = -ns[neg]
        values[neg] = -csum_neg[t - 1] - ns[neg] * mes
    alpha_desc = str(alpha) if isinstance(alpha, QValue) else repr(alpha)
    return DiscrepancyTrace(
        alpha_desc, region.describe(), float(_as_qvalue(region.spec, x0)),
        ns, values, mes,
    )


@dataclass(frozen=True)
class BrsStatistic:
    """Double-indexed orbit discrepancy statistic and its argmax."""

    value: float
    argmax_n: int
    argmax_j: int
    N: int
    J: int
    mes: float
    region_desc: str


def _sliding_max(g: np.ndarray, w: int) -> np.ndarray:
    """out[i] = max g[max(0, i-w+1) .. i] for i = 0 .. len(g)+w-2.

    Van Herk / Gil-Werman: pad with -inf, cut into blocks of w, and take
    each window as a block suffix maximum joined with the next block's
    prefix maximum, so the cost is O(len(g) + w) independent of w.
    """
    m = len(g) + w - 1
    tail = w - 1 + (-(m + w - 1)) % w
    x = np.concatenate([np.full(w - 1, -np.inf), g, np.full(tail, -np.inf)]).reshape(-1, w)
    pre = np.maximum.accumulate(x, axis=1).ravel()
    suf = np.maximum.accumulate(x[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.maximum(suf[:m], pre[w - 1:w - 1 + m])


def brs_empirical(region: RegionSet, alpha, N: int, J: int) -> BrsStatistic:
    """max over 1<=n<=N, |j|<=J of |sum_{k=j+1}^{j+n} chi_S(k alpha) - n mes S|.

    Computed in O(N + J) from prefix sums f of the single orbit: a window
    sum is f[t] - f[s] with start s in [0, 2J] and end t in s+1 .. s+N,
    so for each end t a vectorized sliding maximum and minimum of f over
    the starts give the best window ending there.  Ties resolve as a
    left-to-right scan with strict improvement would: the first end t
    attaining the value, the maximum side before the minimum side, and on
    that side the latest start s holding the extremum.
    """
    if N <= 0 or J < 0:
        raise PreconditionError("N must be positive and J nonnegative")
    mes = float(region.volume())
    chi = orbit_hits(region, alpha, 0, -J + 1, J + N)
    # f[i] sums the orbit values k = -J + 1 .. -J + i minus i*mes, so the
    # prefix up to k = j is f-index j + J in [0, 2J]; up to j+n it is j + J + n.
    f = np.concatenate([[0.0], np.cumsum(chi) - mes * np.arange(1, len(chi) + 1)])
    starts = f[:2 * J + 1]
    ends = f[1:]  # t = 1 .. 2J + N; entry t - 1 of top/bottom covers s in [t-N, t-1]
    top = _sliding_max(starts, N)
    bottom = -_sliding_max(-starts, N)
    cand = np.maximum(top - ends, ends - bottom)
    t = int(cand.argmax()) + 1
    best = cand[t - 1]
    ext = top[t - 1] if abs(f[t] - top[t - 1]) == best else bottom[t - 1]
    s_lo = max(0, t - N)
    s = s_lo + int(np.flatnonzero(f[s_lo:min(2 * J, t - 1) + 1] == ext)[-1])
    return BrsStatistic(best, t - s, s - J, N, J, mes, region.describe())


def orbit_transfer(region: RegionSet, alpha, n_range: tuple[int, int]) -> DiscrepancyTrace:
    """Transfer-function samples g(n*alpha), normalized by g(0) = 0.

    Accumulates g((n+1)alpha) = g(n alpha) + chi_S(n alpha) - mes S in both
    directions, which reproduces the two-sided discrepancy at x0 = 0.
    """
    n_lo, n_hi = n_range
    if n_lo > n_hi:
        raise PreconditionError("empty n range")
    mes = float(region.volume())
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    values = np.zeros(len(ns), dtype=np.float64)
    if n_hi > 0:
        chi = orbit_hits(region, alpha, 0, 0, n_hi - 1)
        g = np.cumsum(chi - mes)
        values[ns > 0] = g[ns[ns > 0] - 1]
    if n_lo < 0:
        chi = orbit_hits(region, alpha, 0, n_lo, -1)
        g = -np.cumsum((chi - mes)[::-1])
        values[ns < 0] = g[-ns[ns < 0] - 1]
    alpha_desc = str(alpha) if isinstance(alpha, QValue) else repr(alpha)
    return DiscrepancyTrace(alpha_desc, region.describe(), 0.0, ns, values, mes)


def bmo_stat(seq: Sequence[float], window_lengths: Sequence[int]) -> float:
    """Max over the window family of mean absolute deviation from window mean.

    Windows are every contiguous run of each supplied length.  The family
    is finite by design; callers report which lengths they used.

    A sequence with few distinct values V (a rational mes S puts D_n in
    (1/q)Z + const) takes, for each length L > |V|, the window sum
    sum_v count_v(window) * |v - mean| from per-value prefix counts, at
    O(n |V|) per length.  Other lengths scan the windows directly in
    blocks of about ``_BMO_BLOCK`` elements, at O(n L) per length.
    """
    c = np.asarray(seq, dtype=np.float64)
    n = len(c)
    for L in window_lengths:
        if L < 1 or L > n:
            raise PreconditionError(
                f"window length {L} outside the sequence range (1..{n})"
            )
    c = c - c.mean()  # translation-invariant; keeps cumsum well conditioned
    cs = np.concatenate([[0.0], np.cumsum(c)])
    values, value_idx = np.unique(c, return_inverse=True)
    best = 0.0
    for L in window_lengths:
        means = (cs[L:] - cs[:-L]) / L
        if len(values) < L:
            total = np.zeros(len(means))
            term = np.empty(len(means))
            count = np.zeros(n + 1, dtype=np.int64)
            for k, v in enumerate(values):
                np.cumsum(value_idx == k, out=count[1:])
                np.subtract(v, means, out=term)
                np.abs(term, out=term)
                term *= count[L:] - count[:-L]
                total += term
            best = max(best, float(total.max()) / L)
        else:
            view = np.lib.stride_tricks.sliding_window_view(c, L)
            rows = max(1, _BMO_BLOCK // L)
            buf = np.empty((rows, L))
            for s in range(0, len(means), rows):
                e = min(s + rows, len(means))
                dev = buf[:e - s]
                np.subtract(view[s:e], means[s:e, None], out=dev)
                np.abs(dev, out=dev)
                best = max(best, float(dev.sum(axis=1).max()) / L)
    return best


def counting_discrepancy(
    points,
    density: float,
    xs: Sequence[float],
    block_mode: bool = False,
) -> np.ndarray:
    """d(Lambda, x) = n_Lambda(x) - density*x at the sample points.

    The counting function is normalized by n(0) = 0.  In block mode each
    block is collapsed to a point mass of its size at its integer index,
    which requires provenance on the point set.
    """
    if density <= 0:
        raise PreconditionError("density must be positive")
    if hasattr(points, "coords"):
        vals = np.sort(np.asarray(points.coords, dtype=float).reshape(-1))
        prov = getattr(points, "provenance", None)
    else:
        vals = np.sort(np.asarray(points, dtype=float).reshape(-1))
        prov = None
    if block_mode:
        if prov is None:
            raise PreconditionError("block mode requires point provenance")
        vals = np.sort(np.array([p[-1] for p in prov], dtype=float))
    xs_arr = np.asarray(xs, dtype=float)
    base = np.searchsorted(vals, 0.0, side="left")
    n_of_x = np.searchsorted(vals, xs_arr, side="left") - base
    return n_of_x - density * xs_arr
