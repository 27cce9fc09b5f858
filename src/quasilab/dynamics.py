"""Discrepancy of irrational rotations against region multiplicity functions.

Orbit evaluations x0 + k*alpha run on a vectorized float path whose guard
band is derived from the actual magnitudes involved; any evaluation landing
inside the band is recomputed exactly in the algebra, so boundary hits
(which decide semi-closed membership) are never resolved by float luck and
there is no drift at k ~ 10^6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .algebra import QValue, join
from .errors import PreconditionError
from .regions import _BLOCK, RegionSet

__all__ = [
    "orbit_hits",
    "DiscrepancyTrace",
    "discrepancy_trace",
    "BrsStatistic",
    "brs_empirical",
    "bmo_stat",
]


# elements per block of the direct bmo_stat scan: the block buffer stays in cache
_BMO_BLOCK = 1 << 15
_ORBIT_CHUNK = 4 * _BLOCK  # orbit points per kernel call: whole blocks, decided as in one call
_EPS = 2.0 ** -53  # unit roundoff of float64


def _alpha_vector(region: RegionSet, alpha) -> tuple[QValue, ...]:
    if isinstance(alpha, (QValue, int, Fraction, float)):
        alpha = (alpha,)
    if any(isinstance(a, float) for a in alpha):
        raise PreconditionError(
            "alpha must be exact: a QValue, int or Fraction per coordinate, not a float"
        )
    vec = tuple(join(region.values, alpha)[1][1])
    if len(vec) != region.dim:
        raise PreconditionError("alpha dimension does not match the region")
    return vec


def _x0_vector(region: RegionSet, x0) -> tuple[QValue, ...]:
    """The start point as a vector: None is the zero vector, a scalar a 1-vector."""
    if x0 is None:
        x0 = (0,) * region.dim
    elif not isinstance(x0, (tuple, list, np.ndarray)):
        x0 = (x0,)
    vec = tuple(join(region.values, x0)[1][1])
    if len(vec) != region.dim:
        raise PreconditionError("x0 dimension does not match the region")
    return vec


def orbit_hits(region: RegionSet, alpha, x0, k_lo: int, k_hi: int) -> np.ndarray:
    """Multiplicity counts chi_S(x0 + k*alpha) for k = k_lo..k_hi.

    x0 is a vector of the region's dimension (a scalar in one dimension),
    and None is the zero vector.  Every dimension runs through the region's
    membership kernel: one vectorized float pass, with exact fallback for
    the orbit points inside the guard band derived from the orbit's
    magnitudes.
    """
    if k_hi < k_lo:
        raise PreconditionError("empty orbit range")
    return _count_orbit(region, alpha, x0, k_lo, np.empty(k_hi - k_lo + 1, dtype=np.int64))


def _count_orbit(region: RegionSet, alpha, x0, k_lo: int, out: np.ndarray) -> np.ndarray:
    """out[i] = chi_S(x0 + (k_lo + i) alpha), counted chunk by chunk into out."""
    alpha_vec, x0_vec = [_alpha_vector(region, alpha)], _x0_vector(region, x0)
    for s in range(0, len(out), _ORBIT_CHUNK):  # one short k column per chunk
        ks = np.arange(k_lo + s, k_lo + min(s + _ORBIT_CHUNK, len(out)), dtype=np.int64)
        region.membership.count(x0_vec, alpha_vec, ks[:, None], out=out[s:s + len(ks)])
    return out


@dataclass(eq=False)
class DiscrepancyTrace:
    """Orbit discrepancy values D_n over a range of n (possibly two-sided)."""

    alpha_desc: str
    region_desc: str
    x0: tuple[QValue, ...]
    n_lo: int
    values: np.ndarray
    mes: float

    @property
    def ns(self) -> np.ndarray:
        """The n of each value, n_lo onwards, made on each read."""
        return np.arange(self.n_lo, self.n_lo + len(self.values), dtype=np.int64)

    @property
    def max_abs(self) -> float:
        return float(np.abs(self.values).max())

    @property
    def argmax_n(self) -> int:
        return self.n_lo + int(np.abs(self.values).argmax())


def discrepancy_trace(
    region: RegionSet,
    alpha,
    x0=None,
    n_range: tuple[int, int] = (0, 1000),
    two_sided: bool = False,
) -> DiscrepancyTrace:
    """Exact-summation trace of D_n(S, x0).

    x0 is a vector of the region's dimension (a scalar in one dimension),
    and None is the zero vector.  For n > 0 this is the hit count over
    k = 0..n-1 minus n*mes S; n = 0 gives 0 and negative n (two-sided mode)
    uses the reflected convention with k = n..-1.  Hit counts accumulate in
    exact integers; the only floating step is the single product n*mes per
    entry.
    """
    n_lo, n_hi = n_range
    if n_lo > n_hi:
        raise PreconditionError("empty n range")
    x0 = _x0_vector(region, x0)
    if n_lo < 0 and not two_sided:
        raise PreconditionError("negative n requires two_sided=True")
    alpha, mes = _alpha_vector(region, alpha), float(region.volume())
    # c[j] counts the hits over k_lo .. k_lo + j - 1, so c[n - k_lo] - c[-k_lo]
    # is the count over 0..n-1 for n > 0 and minus the count over n..-1 for n < 0
    k_lo, k_hi = min(n_lo, 0), max(n_hi, 0)
    c = np.zeros(k_hi - k_lo + 1, dtype=np.int64)
    np.cumsum(_count_orbit(region, alpha, x0, k_lo, c[1:]), out=c[1:])
    counts = c[n_lo - k_lo:n_hi - k_lo + 1]
    counts -= c[-k_lo]  # in place: c[-k_lo] is read out first
    values = np.arange(n_lo, n_hi + 1, dtype=np.float64)  # n * mes as ns * mes, for |n| < 2^53
    values *= mes
    np.subtract(counts, values, out=values)
    return DiscrepancyTrace(
        ", ".join(map(str, alpha)), region.describe(), x0, int(n_lo), values, mes,
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

    Van Herk / Gil-Werman on the window clamped to v = min(w, len(g)): cut g,
    padded with -inf to a multiple of v, into blocks of v, and take each
    window as a block suffix maximum joined with the next block's prefix
    maximum.  Both are maximum scans along the blocks of the flat array, the
    suffixes over its reversed view, so with v = len(g) they are the prefix
    and suffix maxima of g itself.  out[i] for i < v is a prefix maximum; a
    window longer than g covers all of it at i = v-1 .. w-1, so the entries
    past v-1 of that run repeat out[v-1] = max(g) (an empty run when w <=
    len(g)); a window whose next block is past the padding is a suffix
    maximum alone.  The cost is O(len(g)) plus the output.
    """
    n, v = len(g), min(w, len(g))
    x = np.concatenate([g, np.full(-n % v, -np.inf)])
    pre = np.maximum.accumulate(x.reshape(-1, v), axis=1).ravel()
    suf = np.maximum.accumulate(x[::-1].reshape(-1, v), axis=1).ravel()[::-1]
    t = len(x) - v  # windows from s = 1 .. t end in a block after s's
    out = np.empty(n + w - 1)
    out[:v] = pre[:v]
    out[v:w] = out[v - 1]
    np.maximum(suf[1:t + 1], pre[v:], out=out[w:w + t])
    out[w + t:] = suf[t + 1:n]
    return out


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
    # f[i] sums the orbit values k = -J + 1 .. -J + i minus i*mes, so the
    # prefix up to k = j is f-index j + J in [0, 2J]; up to j+n it is j + J + n.
    f = np.zeros(N + 2 * J + 1)
    f[1:] = np.cumsum(orbit_hits(region, alpha, None, -J + 1, J + N)) - mes * np.arange(1, len(f))
    starts = f[:2 * J + 1]
    ends = f[1:]  # t = 1 .. 2J + N; entry t - 1 of top/bottom covers s in [t-N, t-1]
    top = _sliding_max(starts, N)
    bottom = -_sliding_max(-starts, N)
    cand = top - ends
    np.maximum(cand, ends - bottom, out=cand)
    t = int(cand.argmax()) + 1
    best = cand[t - 1]
    ext = top[t - 1] if abs(f[t] - top[t - 1]) == best else bottom[t - 1]
    s_lo = max(0, t - N)
    s = s_lo + int(np.flatnonzero(f[s_lo:min(2 * J, t - 1) + 1] == ext)[-1])
    return BrsStatistic(best, t - s, s - J, N, J, mes, region.describe())


def _scan_max(c: np.ndarray, means: np.ndarray, L: int, keep=None) -> float:
    """Largest computed sum_i |c_i - mean| / L over the windows in keep (all
    windows when None), in blocks of about ``_BMO_BLOCK`` elements.

    Each window is summed in its own contiguous row of L elements, so its
    value does not depend on which other windows share the block.
    """
    view = np.lib.stride_tricks.sliding_window_view(c, L)
    rows = max(1, _BMO_BLOCK // L)
    count = len(means) if keep is None else len(keep)
    buf = np.empty((min(rows, count), L))
    best = 0.0
    for s in range(0, count, rows):
        idx = slice(s, s + rows) if keep is None else keep[s:s + rows]
        dev = buf[:min(rows, count - s)]
        np.subtract(view[idx], means[idx, None], out=dev)
        np.abs(dev, out=dev)
        best = max(best, float(dev.sum(axis=1).max()) / L)
    return best


def _few_valued_max(c: np.ndarray, cs: np.ndarray, values: np.ndarray,
                    lengths: list[int]) -> float:
    """Largest sum_v count_v(window) * |v - mean| / L over the windows of
    each length, for a sequence c taking only the given sorted values.

    The window starts run in chunks.  Per chunk, each value's prefix count
    over the elements of the chunk's windows is taken once and serves every
    length, whose total adds one term per value in value order, as a loop
    over the lengths would.  The chunk is ``_BMO_BLOCK`` starts, or more
    when a length L has min(L, n - L + 1) above that, so each value's counts
    cost O(n) in all: a length longer than the chunk has all of its windows
    in one chunk.  Memory is a total and a mean per length and start of the
    chunk, plus one count buffer of chunk + max L entries.
    """
    n, top = len(c), lengths[-1]
    chunk = max(_BMO_BLOCK, *(min(L, n - L + 1) for L in lengths))
    value_idx = np.searchsorted(values, c)
    hit = np.empty(chunk + top - 1, dtype=bool)
    # float counts are exact integers (n < 2**53), and a float product skips
    # the int64 cast that multiplying by an int count would take
    count = np.zeros(chunk + top)
    term, diff = np.empty(chunk), np.empty(chunk)
    best = dict.fromkeys(lengths, 0.0)
    for s in range(0, n - lengths[0] + 1, chunk):
        # (L, starts in this chunk, their means, their totals) per live length
        live = []
        for L in lengths:
            m = min(chunk, n - L + 1 - s)
            if m > 0:
                live.append((L, m, (cs[s + L:s + L + m] - cs[s:s + m]) / L, np.zeros(m)))
        span = max(L + m - 1 for L, m, _, _ in live)
        for k, v in enumerate(values):
            np.equal(value_idx[s:s + span], k, out=hit[:span])
            np.cumsum(hit[:span], out=count[1:span + 1])
            for L, m, means, total in live:
                t, d = term[:m], diff[:m]
                np.subtract(v, means, out=t)
                np.abs(t, out=t)
                np.subtract(count[L:L + m], count[:m], out=d)
                t *= d
                total += t
        for L, m, _, total in live:
            best[L] = max(best[L], float(total.max()))
    return max(b / L for L, b in best.items())


def bmo_stat(seq: Sequence[float], window_lengths: Sequence[int]) -> float:
    """Max over the window family of mean absolute deviation from window mean.

    Windows are every contiguous run of each supplied length.  The family
    is finite by design; callers report which lengths they used.

    A sequence with few distinct values V (a rational mes S puts D_n in
    (1/q)Z + const) takes, for each length L > |V|, the window sum
    sum_v count_v(window) * |v - mean| from per-value prefix counts.  The
    window starts run in chunks of 2^15 (more only for a length L with
    min(L, n - L + 1) above that), and each chunk counts each value once
    for all such lengths: O(n |V|) for the counts, plus O(n |V|) per length
    for the sums.  Memory is two floats per length and chunk start plus one
    count buffer of chunk + max L entries, never a |V| x n table.  Other
    lengths scan the windows directly in
    blocks of about ``_BMO_BLOCK`` elements, at O(n L) per length, but
    only the windows that could raise the maximum.

    The pruning is branch and bound.  By Cauchy-Schwarz a window's mean
    absolute deviation is at most its standard deviation, and the
    variances of all windows of one length come in O(n) from prefix sums
    of c and c^2 (c the centred sequence).  The bound is widened by a
    slack taken from the input's own magnitudes (n, sum c^2, max |c|) that
    covers the rounding of both prefix sums and of the computed window
    mean, and by a factor 1 + O(L eps) that covers the rounded row sum.
    So no window whose computed value could reach the running maximum is
    dropped.  The running maximum starts from the exact value of each
    length's highest-bound window; a length whose bound stays below it is
    skipped whole, and one where more than a quarter of the windows
    survive is scanned in full.  Every window that is evaluated goes
    through the same subtract / abs / row-sum arithmetic in its own row,
    so the result is the direct scan's float, bit for bit.
    """
    c = np.asarray(seq, dtype=np.float64)
    if not np.isfinite(c).all():
        raise PreconditionError("bmo_stat needs a finite sequence")
    n = len(c)
    for L in window_lengths:
        if L < 1 or L > n:
            raise PreconditionError(
                f"window length {L} outside the sequence range (1..{n})"
            )
    c = c - c.mean()  # translation-invariant; keeps cumsum well conditioned
    cs = np.concatenate([[0.0], np.cumsum(c)])
    values = np.unique(c)
    few = sorted({L for L in window_lengths if len(values) < L})
    best = _few_valued_max(c, cs, values, few) if few else 0.0
    # a repeated length has the same windows
    scan = list(dict.fromkeys(L for L in window_lengths if len(values) >= L))
    if not scan:
        return best

    with np.errstate(over="ignore", invalid="ignore"):
        c2s = np.concatenate([[0.0], np.cumsum(c * c)])
        big, total2 = float(np.abs(c).max()), float(c2s[-1])
        # twice the rounding bounds of a window sum of c (whose magnitudes
        # sum to at most sqrt(n sum c^2)) and of c^2 from the prefix sums
        e1 = 4 * (n + 2) * _EPS * math.sqrt(n * total2)
        e2 = 4 * (n + 3) * _EPS * total2
    if not math.isfinite(e1):
        # n sum c^2 overflows: no bound, so scan every window in the old blocks
        return max([best] + [_scan_max(c, (cs[L:] - cs[:-L]) / L, L) for L in scan])

    def variance(L: int, means: np.ndarray) -> np.ndarray:
        q = c2s[L:] - c2s[:-L]
        q /= L
        q -= means * means
        return q

    def cut(L: int) -> float:
        # A window with computed variance q below the cut has a computed
        # value below best: with m the exact and m' the computed mean,
        # |m - m'| <= dm, so the exact mean square deviation from m' is at
        # most q + slack, and its mean absolute deviation at most the root
        # of that; the row sum adds at most a factor 1 + (L + 1) eps.
        dm = e1 / L + 2 * _EPS * (big + e1 / L)
        top = big + dm
        slack = 2 * (e2 / L + 2 * top * dm + 6 * _EPS * top * top)
        return (best / (1 + 4 * (L + 8) * _EPS)) ** 2 - slack

    top_q = {}
    for L in scan:
        means = (cs[L:] - cs[:-L]) / L
        q = variance(L, means)
        j = int(q.argmax())
        top_q[L] = q[j]
        best = max(best, _scan_max(c, means, L, np.array([j])))
    for L in scan:
        bar = cut(L)
        if top_q[L] < bar:
            continue
        means = (cs[L:] - cs[:-L]) / L
        keep = np.flatnonzero(~(variance(L, means) < bar))
        best = max(best, _scan_max(c, means, L, None if 4 * len(keep) > len(means) else keep))
    return best

