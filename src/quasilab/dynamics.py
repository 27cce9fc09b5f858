"""Discrepancy of irrational rotations against region multiplicity functions.

Orbit evaluations x0 + k*alpha run on a vectorized float path whose guard
band is derived from the actual magnitudes involved; any evaluation landing
inside the band is recomputed exactly in the algebra, so boundary hits
(which decide semi-closed membership) are never resolved by float luck and
there is no drift at k ~ 10^6.
"""

from __future__ import annotations

from collections import deque
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


def brs_empirical(region: RegionSet, alpha, N: int, J: int) -> BrsStatistic:
    """max over 1<=n<=N, |j|<=J of |sum_{k=j+1}^{j+n} chi_S(k alpha) - n mes S|.

    Computed in O(N + J) from prefix sums of the single orbit, using a
    sliding-window extremum over window starts.
    """
    if N <= 0 or J < 0:
        raise PreconditionError("N must be positive and J nonnegative")
    mes = float(region.volume())
    chi = orbit_hits(region, alpha, 0, -J + 1, J + N)
    # f[t] = sum over the first t orbit values minus t*mes; window sums are
    # differences of f, with the window start ranging over j in [-J, J].
    f = np.concatenate([[0.0], np.cumsum(chi) - mes * np.arange(1, len(chi) + 1)])
    # f[i] sums the orbit values k = -J + 1 .. -J + i, so the prefix up to
    # k = j is f-index i(j) = j + J in [0, 2J]; up to j+n it is i(j) + n.
    s_min, s_max = 0, 2 * J
    best, best_t, best_s = -1.0, 0, 0
    max_dq: deque[int] = deque()
    min_dq: deque[int] = deque()
    added = s_min - 1
    for t in range(1, len(f)):
        lo = max(s_min, t - N)
        hi = min(s_max, t - 1)
        if hi < lo:
            continue
        while added < hi:
            added += 1
            v = f[added]
            while max_dq and f[max_dq[-1]] <= v:
                max_dq.pop()
            max_dq.append(added)
            while min_dq and f[min_dq[-1]] >= v:
                min_dq.pop()
            min_dq.append(added)
        while max_dq[0] < lo:
            max_dq.popleft()
        while min_dq[0] < lo:
            min_dq.popleft()
        ft = f[t]
        for s in (max_dq[0], min_dq[0]):
            cand = abs(ft - f[s])
            if cand > best:
                best, best_t, best_s = cand, t, s
    j = best_s - J
    n = best_t - best_s
    return BrsStatistic(best, n, j, N, J, mes, region.describe())


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


def bmo_stat(
    seq: Sequence[float],
    window_lengths: Sequence[int],
    chunk_elems: int = 1 << 22,
) -> float:
    """Max over the window family of mean absolute deviation from window mean.

    Windows are every contiguous run of each supplied length.  The family
    is finite by design; callers report which lengths they used.
    """
    c = np.asarray(seq, dtype=np.float64)
    n = len(c)
    c = c - c.mean()  # translation-invariant; keeps cumsum well conditioned
    best = 0.0
    cs = np.concatenate([[0.0], np.cumsum(c)])
    for L in window_lengths:
        if L < 1 or L > n:
            raise PreconditionError(
                f"window length {L} outside the sequence range (1..{n})"
            )
        means = (cs[L:] - cs[:-L]) / L
        n_win = n - L + 1
        step = max(1, chunk_elems // L)
        view = np.lib.stride_tricks.sliding_window_view(c, L)
        for s in range(0, n_win, step):
            e = min(s + step, n_win)
            dev = np.abs(view[s:e] - means[s:e, None]).mean(axis=1)
            m = float(dev.max())
            if m > best:
                best = m
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
