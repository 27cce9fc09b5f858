"""Reference answers that share no code path with quasilab.

Single-surd values a + b*sqrt(r) are decided with integer arithmetic
(``math.isqrt``, vectorized in int64 where the magnitudes allow it).
Values that mix several surds are evaluated in ``decimal`` with 60 digits.
The statistics (``bmo_stat``, ``brs_empirical``) are recomputed over every
window with loops ordered differently from the library's, and Gram extreme
eigenvalues come from an independent closed form and LAPACK driver.

Nothing here imports quasilab.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

import numpy as np

DIGITS = 60

# A surd value a + b*sqrt(r) with rational a, b; r is fixed per use.
Surd = tuple[Fraction, Fraction]

_INT64_SAFE = 1 << 62


def floor_surd(a: Fraction, b: Fraction, r: int) -> int:
    """floor(a + b*sqrt(r)) exactly, for a non-square integer r."""
    d = math.lcm(a.denominator, b.denominator)
    big_a = a.numerator * (d // a.denominator)
    big_b = b.numerator * (d // b.denominator)
    if big_b == 0:
        return big_a // d
    s = math.isqrt(big_b * big_b * r)
    # b*sqrt(r) is irrational, so it lies strictly between t and t + 1
    t = s if big_b > 0 else -s - 1
    return (big_a + t) // d


def _floor_surd_vec(big_a: np.ndarray, big_b: np.ndarray, r: int, d: int) -> np.ndarray:
    """floor((A + B*sqrt(r)) / d) for int64 arrays with B*B*r < 2**62."""
    n = big_b * big_b * r
    s = np.floor(np.sqrt(n.astype(np.float64))).astype(np.int64)
    s -= (s * s > n).astype(np.int64)
    s += ((s + 1) * (s + 1) <= n).astype(np.int64)
    t = np.where(big_b >= 0, s, -s - 1)
    t[big_b == 0] = 0
    return (big_a + t) // d


def orbit_counts(
    x0: Fraction,
    alpha: Surd,
    pieces: Sequence[tuple[Surd, Surd]],
    r: int,
    k_lo: int,
    k_hi: int,
) -> np.ndarray:
    """#{m : x0 + k*alpha + m in U [lo, hi)} for k = k_lo..k_hi.

    Each piece is left-closed; the count is floor(x - lo) - floor(x - hi).
    """
    ks_py = range(k_lo, k_hi + 1)
    out = np.zeros(len(ks_py), dtype=np.int64)
    kmax = max(abs(k_lo), abs(k_hi))
    for lo, hi in pieces:
        for bound, sign in ((lo, 1), (hi, -1)):
            a0 = x0 - bound[0]
            da, db = alpha
            b0 = -bound[1]
            d = math.lcm(a0.denominator, da.denominator, b0.denominator, db.denominator)
            ia0, ida = int(a0 * d), int(da * d)
            ib0, idb = int(b0 * d), int(db * d)
            b_max = abs(ib0) + abs(idb) * kmax
            a_max = abs(ia0) + abs(ida) * kmax
            if b_max * b_max * r < _INT64_SAFE and a_max < _INT64_SAFE:
                ks = np.arange(k_lo, k_hi + 1, dtype=np.int64)
                fl = _floor_surd_vec(ia0 + ida * ks, ib0 + idb * ks, r, d)
            else:
                fl = np.array(
                    [floor_surd(a0 + da * k, b0 + db * k, r) for k in ks_py],
                    dtype=np.int64,
                )
            out += sign * fl
    return out


def discrepancy(
    x0: Fraction,
    alpha: Surd,
    pieces: Sequence[tuple[Surd, Surd]],
    r: int,
    n_lo: int,
    n_hi: int,
    mes: float,
) -> np.ndarray:
    """D_n for n = n_lo..n_hi: hits over k = 0..n-1 (n > 0) or k = n..-1
    (n < 0, reflected sign) minus n * mes."""
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    hits = np.zeros(len(ns), dtype=np.int64)
    if n_hi > 0:
        chi = orbit_counts(x0, alpha, pieces, r, 0, n_hi - 1)
        csum = np.concatenate([[0], np.cumsum(chi)])
        pos = ns > 0
        hits[pos] = csum[ns[pos]]
    if n_lo < 0:
        chi = orbit_counts(x0, alpha, pieces, r, n_lo, -1)
        rsum = np.concatenate([[0], np.cumsum(chi[::-1])])
        neg = ns < 0
        hits[neg] = -rsum[-ns[neg]]
    return hits - ns * mes


def surd_float(v: Surd, r: int) -> float:
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return float(
            Decimal(v[0].numerator) / Decimal(v[0].denominator)
            + Decimal(v[1].numerator) / Decimal(v[1].denominator) * Decimal(r).sqrt()
        )


def dual_points(
    alpha: Surd, beta: Fraction, pieces: Sequence[tuple[Surd, Surd]], r: int,
    n_lo: int, n_hi: int,
) -> dict[tuple[int, int], float]:
    """1-D dual model set {(m, n): n*alpha + m in S} -> n + (n*alpha + m)*beta."""
    out = {}
    for n in range(n_lo, n_hi + 1):
        a, b = alpha[0] * n, alpha[1] * n
        for lo, hi in pieces:
            m_first = -floor_surd(a - lo[0], b - lo[1], r)
            m_last = -floor_surd(a - hi[0], b - hi[1], r) - 1
            for m in range(m_first, m_last + 1):
                out[(m, n)] = surd_float(
                    (n + (a + m) * beta, b * beta), r
                )
    return out


def primal_points(
    alpha: Surd, beta: Fraction, window: tuple[Fraction, Fraction], r: int,
    m_lo: int, m_hi: int,
) -> dict[tuple[int, int], float]:
    """Special-form quasicrystal m - beta*(n - alpha*m), n - alpha*m in [w0, w1)."""
    out = {}
    w0, w1 = window
    for m in range(m_lo, m_hi + 1):
        a, b = alpha[0] * m, alpha[1] * m
        # n - a - b*sqrt(r) in [w0, w1)  <=>  n in [a + w0 + b*sqrt(r), ...)
        n_first = -floor_surd(-(a + w0), -b, r)
        n_last = -floor_surd(-(a + w1), -b, r) - 1
        for n in range(n_first, n_last + 1):
            out[(m, n)] = surd_float((m - beta * (n - a), beta * b), r)
    return out


def sqrt_dec(r: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return Decimal(r).sqrt()


def special_points_2d(
    m_box: Sequence[tuple[int, int]],
) -> dict[tuple[int, int, int], tuple[float, float]]:
    """alpha = (sqrt2, sqrt3), beta = (1, 1), window (-1, 0].

    n - alpha.m in (-1, 0]  <=>  n = floor(alpha.m); the fractional part is
    decided in 60-digit decimal, which is exact here because alpha.m is an
    integer only at m = 0 (1, sqrt2, sqrt3 are independent over Q).
    """
    s2, s3 = sqrt_dec(2), sqrt_dec(3)
    out = {}
    with localcontext() as ctx:
        ctx.prec = DIGITS
        for m1 in range(m_box[0][0], m_box[0][1] + 1):
            for m2 in range(m_box[1][0], m_box[1][1] + 1):
                am = s2 * m1 + s3 * m2
                n = int(am.to_integral_value(rounding="ROUND_FLOOR"))
                frac = am - n
                if (m1 or m2) and (frac < Decimal("1e-40") or 1 - frac < Decimal("1e-40")):
                    raise ArithmeticError("decimal precision too low to decide")
                p2 = n - am
                out[(m1, m2, n)] = (float(m1 - p2), float(m2 - p2))
    return out


def bmo_max(seq: np.ndarray, lengths: Sequence[int]) -> float:
    """Max over every window of each length of the mean absolute deviation
    from the window mean, accumulated offset by offset."""
    c = np.asarray(seq, dtype=np.float64)
    n = len(c)
    best = 0.0
    for length in lengths:
        w = n - length + 1
        mean = np.zeros(w)
        for j in range(length):
            mean += c[j:j + w]
        mean /= length
        dev = np.zeros(w)
        for j in range(length):
            dev += np.abs(c[j:j + w] - mean)
        best = max(best, float(dev.max()) / length)
    return best


def sliding_max(x: np.ndarray, w: int) -> np.ndarray:
    """out[i] = max(x[i:i+w]) (van Herk / Gil-Werman block prefix maxima)."""
    n = len(x)
    pad = (-n) % w
    xp = np.concatenate([x, np.full(pad, -np.inf)]).reshape(-1, w)
    pre = np.maximum.accumulate(xp, axis=1).ravel()
    suf = np.maximum.accumulate(xp[:, ::-1], axis=1)[:, ::-1].ravel()
    m = n - w + 1
    return np.maximum(suf[:m], pre[w - 1:w - 1 + m])


def brs_window(chi: np.ndarray, k_first: int, mes: float, j: int, n: int) -> float:
    """sum_{k=j+1}^{j+n} chi(k) - n*mes, with chi[i] = chi(k_first + i)."""
    i0 = j + 1 - k_first
    return float(chi[i0:i0 + n].sum()) - n * mes


def brs_max(chi: np.ndarray, k_first: int, mes: float, N: int, J: int) -> float:
    """max over 1 <= n <= N, |j| <= J of |brs_window(j, n)|.

    chi must cover k = -J+1 .. J+N (k_first = -J+1).
    """
    assert k_first == -J + 1 and len(chi) == 2 * J + N
    f = np.concatenate([[0.0], np.cumsum(chi - mes)])  # f[s] = prefix up to k = s-J
    hi = sliding_max(f[1:], N)[: 2 * J + 1]  # max f[s+1 .. s+N], s = j + J
    lo = -sliding_max(-f[1:], N)[: 2 * J + 1]
    s = f[: 2 * J + 1]
    return float(max((hi - s).max(), (s - lo).max()))


def gram_extremes(lam: np.ndarray, pieces: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Extreme eigenvalues of G_jk = int_S exp(-2 pi i (lam_k - lam_j) x) dx."""
    t = lam[None, :] - lam[:, None]
    g = np.zeros(t.shape, dtype=complex)
    zero = t == 0
    ts = np.where(zero, 1.0, t)
    for a, b in pieces:
        ent = (np.exp(-2j * np.pi * ts * b) - np.exp(-2j * np.pi * ts * a)) / (-2j * np.pi * ts)
        g += np.where(zero, b - a, ent)
    ev = np.linalg.eigvalsh(g)
    return float(ev[0]), float(ev[-1])


# -- self-tests against facts the repository pins -------------------------------

SQRT2: Surd = (Fraction(0), Fraction(1))


def self_test() -> list[str]:
    """Return the names of failed oracle self-tests (empty when all pass)."""
    failed = []
    half = [((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0)))]
    d = np.abs(discrepancy(Fraction(0), SQRT2, half, 2, 0, 10**6, 0.5))
    if float(d[: 1000 + 1].max()) != 2.5 or float(d.max()) != 4.5:
        failed.append("max|D_n| is 2.5 (n <= 1e3) and 4.5 (n <= 1e6)")
    irr = [((Fraction(0), Fraction(0)), (Fraction(-1), Fraction(1)))]
    mes = surd_float((Fraction(-1), Fraction(1)), 2)
    n_big, j_big = 100000, 10000
    chi = orbit_counts(Fraction(0), SQRT2, irr, 2, -j_big + 1, j_big + n_big)
    if f"{brs_max(chi, -j_big + 1, mes, n_big, j_big):.7f}" != "0.9999956":
        failed.append("criterion-4 statistic is 0.9999956")
    n0 = 100000000331
    if not any(n == n0 for _, n in dual_points(SQRT2, Fraction(1), irr, 2, n0, n0)):
        failed.append("n = 100000000331 is in the dual model set of [0, sqrt2-1)")
    return failed
