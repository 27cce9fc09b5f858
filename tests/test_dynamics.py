import functools
import itertools
import math
import time
import tracemalloc
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasilab.algebra import AlgebraSpec, QValue
from quasilab import dynamics, regions
from quasilab.dynamics import (
    bmo_stat,
    brs_empirical,
    discrepancy_trace,
    orbit_hits,
)
from quasilab.errors import PreconditionError
from quasilab.modelset import dual_model_points
from quasilab.regions import (
    box_region,
    brs_parallelepiped,
    interval,
    multiplicity,
    parse_region_literal,
)


def orbit_oracle(member, n_pts: int, lo: int = 0):
    """Independent orbit oracle: Fraction-exact {k sqrt2} membership."""
    out = []
    for k in range(lo, lo + n_pts):
        # {k sqrt2} via integer sqrt of 2 k^2 scaled to 30 digits
        scale = 10 ** 30
        s = math.isqrt(2 * k * k * scale * scale)
        frac = Fraction(s, scale) - math.floor(Fraction(s, scale)) if k >= 0 else None
        val = Fraction(s, scale)
        frac = val - math.floor(val)
        out.append(1 if member(frac) else 0)
    return np.array(out)


@pytest.fixture
def half(sqrt2):
    return interval(sqrt2.zero(), sqrt2.parse("1/2"))


@pytest.fixture
def hecke(sqrt2):
    return interval(sqrt2.zero(), sqrt2.basis_element("w1") - 1)


def test_trace_example_values(sqrt2, half):
    tr = discrepancy_trace(half, sqrt2.basis_element("w1"), 0, (0, 3))
    assert np.allclose(tr.values, [0.0, 0.5, 1.0, 0.5])


def test_trace_full_window_is_zero(sqrt2):
    full = interval(sqrt2.zero(), sqrt2.one())
    tr = discrepancy_trace(full, sqrt2.basis_element("w1"), 0, (0, 200))
    assert np.abs(tr.values).max() == 0.0


def test_trace_two_sided_zero_at_origin(sqrt2, half):
    tr = discrepancy_trace(half, sqrt2.basis_element("w1"), 0, (-50, 50),
                           two_sided=True)
    assert tr.values[-tr.n_lo] == 0.0
    assert not np.allclose(tr.values, 0.0)


def _increments_consistent(tr, region, alpha) -> bool:
    """D_{n+1} - D_n = chi_S(x0 + n*alpha) - mes S on the whole range, to 1e-9."""
    chi = orbit_hits(region, alpha, tr.x0, tr.n_lo, tr.n_lo + len(tr.values) - 2)
    return bool(np.max(np.abs(np.diff(tr.values) - (chi - tr.mes))) <= 1e-9)


def test_trace_increment_identity(sqrt2, half):
    a = sqrt2.basis_element("w1")
    tr = discrepancy_trace(half, a, 0, (-200, 200), two_sided=True)
    assert _increments_consistent(tr, half, a)
    tr2 = discrepancy_trace(half, a, 0.3, (0, 300))
    assert _increments_consistent(tr2, half, a)


@pytest.mark.parametrize("x0", ["1/2 - 1*w1", "1/2 - 3*w1"])
def test_trace_keeps_exact_x0(sqrt2, half, x0):
    # x0 + k*sqrt2 lands on the endpoint 1/2 at k = 1 or 3; a float x0
    # misses that hit when the increments are recomputed
    a, x = sqrt2.basis_element("w1"), sqrt2.parse(x0)
    tr = discrepancy_trace(half, a, x, (0, 10))
    assert tr.x0 == (x,)
    assert _increments_consistent(tr, half, a)


def test_trace_negative_only_range_against_per_k_count(sqrt2, half):
    # D_n for n < 0 is minus the hits over k = n..-1 minus n*mes; {k sqrt2} is
    # in [0, 1/2) exactly when floor(2k sqrt2) = 2 floor(k sqrt2)
    tr = discrepancy_trace(half, sqrt2.basis_element("w1"), 0, (-300, -100), two_sided=True)
    hit = {k: int(floor_surd(0, 2 * k, 2) == 2 * floor_surd(0, k, 2)) for k in range(-300, 0)}
    want = [-sum(hit[k] for k in range(n, 0)) - n * 0.5 for n in range(-300, -99)]
    assert tr.ns.tolist() == list(range(-300, -99))
    assert tr.values.tolist() == want


@pytest.mark.parametrize("lo, hi, two_sided", [
    (100, 300, False), (-150, 250, True), (-300, -100, True), (0, 0, False), (-1, -1, True),
])
def test_trace_sub_range_is_a_slice_of_a_wider_trace(sqrt2, half, lo, hi, two_sided):
    # the counts are exact integers, so D_n does not depend on the range around n
    a, x = sqrt2.basis_element("w1"), sqrt2.parse("1/3")
    wide = discrepancy_trace(half, a, x, (-400, 400), two_sided=True)
    tr = discrepancy_trace(half, a, x, (lo, hi), two_sided=two_sided)
    assert tr.ns.tolist() == list(range(lo, hi + 1))
    assert np.array_equal(tr.values, wide.values[lo + 400:hi + 401])


def test_float_alpha_refused(half):
    with pytest.raises(PreconditionError, match="alpha must be exact"):
        orbit_hits(half, 1.4142, 0, 0, 5)


def test_trace_negative_requires_two_sided(sqrt2, half):
    with pytest.raises(PreconditionError):
        discrepancy_trace(half, sqrt2.basis_element("w1"), 0, (-5, 5))


def test_orbit_hits_against_oracle(sqrt2, hecke):
    lim = Fraction(math.isqrt(2 * 10 ** 60), 10 ** 30) - 1
    chi = orbit_hits(hecke, sqrt2.basis_element("w1"), 0, 0, 500)
    oracle = orbit_oracle(lambda f: 0 <= f < lim, 501)
    assert np.array_equal(chi, oracle)


def test_orbit_hits_multiplicity(sqrt2):
    wide = interval(sqrt2.zero(), sqrt2.parse("5/2"))  # chi in {2, 3}
    chi = orbit_hits(wide, sqrt2.basis_element("w1"), 0, 0, 100)
    assert set(np.unique(chi)) <= {2, 3}
    assert chi[0] == 3  # translates 0, 1, 2 of x=0 land in [0, 2.5)


def test_orbit_hits_two_dim(sqrt23):
    alpha = [sqrt23.basis_element("w1"), sqrt23.basis_element("w2")]
    cube = box_region(sqrt23, [0, 0], [1, 1])
    chi = orbit_hits(cube, alpha, (0, 0), 0, 50)
    assert np.all(chi == 1)  # the unit cube covers the torus once
    halfcube = box_region(sqrt23, [0, 0], ["0.5", "0.5"])
    chi2 = orbit_hits(halfcube, alpha, (0, 0), 0, 200)
    assert 0 < chi2.mean() < 1


@pytest.mark.parametrize("upper, want", [
    # [0,sqrt2-1) x [0,1) is a bounded remainder set: max |D_n| = 2 - sqrt2
    (("w1 - 1", "1"), (0.586, 0.586, 0.586)),
    # [0,1) x [0,sqrt2-1) has the same measure and is not one: it grows
    (("1", "w1 - 1"), (1.68, 2.29, 2.45)),
])
def test_two_dim_discrepancy_pair(sqrt23, upper, want):
    alpha = (sqrt23.basis_element("w1"), sqrt23.basis_element("w2"))
    box = box_region(sqrt23, [0, 0], [sqrt23.parse(u) for u in upper])
    tr = discrepancy_trace(box, alpha, n_range=(0, 100_000))
    assert tr.x0 == (sqrt23.zero(), sqrt23.zero())
    chi = orbit_hits(box, alpha, (0, 0), 0, 99_999)
    counts = np.concatenate([[0.0], np.cumsum(chi) - np.arange(1, 100_001) * tr.mes])
    assert np.array_equal(tr.values, counts)
    got = [np.abs(tr.values[:n + 1]).max() for n in (1_000, 10_000, 100_000)]
    assert np.allclose(got, want, atol=5e-3)
    assert _increments_consistent(tr, box, alpha)


def test_two_dim_brs_and_transfer(sqrt23):
    alpha = (sqrt23.basis_element("w1"), sqrt23.basis_element("w2"))
    box = box_region(sqrt23, [0, 0], [sqrt23.parse("w1 - 1"), 1])
    stat = brs_empirical(box, alpha, 2_000, 500)
    assert (stat.value, stat.argmax_n, stat.argmax_j) == _brs_reference(box, alpha, 2_000, 500)
    assert stat.value <= 1.0
    g = discrepancy_trace(box, alpha, None, (-500, 500), two_sided=True)
    assert g.values[-g.n_lo] == 0.0 and g.max_abs <= 2 - math.sqrt(2) + 1e-12


def test_orbit_hits_two_dim_faces(sqrt23):
    # sheared parallelepiped; x0 = s*e1 + r*e2 - k0*alpha puts the orbit
    # point k = k0 on a face or a corner; at k0 = 1e17 floats cannot place
    # the orbit at all
    alpha = [sqrt23.basis_element("w1"), sqrt23.basis_element("w2")]
    region = brs_parallelepiped(alpha, [(1, (-1, -1)), (1, (-2, -1))])
    piece = region.pieces[0]
    e1, e2 = piece.edge_columns()
    corners = np.array([[float(v) for v in c] for c in piece.corners()])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    for k0, s, r in itertools.product((10**6, 10**17), (0, Fraction(1, 3), 1), (0, 1)):
        x0 = tuple(e1[i] * s + e2[i] * r - alpha[i] * k0 for i in range(2))
        chi = orbit_hits(region, alpha, x0, k0 - 2, k0 + 2)
        for k, got in zip(range(k0 - 2, k0 + 3), chi):
            x = [x0[i] + alpha[i] * k for i in range(2)]
            shifts = [
                range(math.floor(lo[i]) - x[i].floor() - 1, math.ceil(hi[i]) - x[i].floor() + 1)
                for i in range(2)
            ]
            want = sum(piece.contains((x[0] + a, x[1] + b)) for a, b in itertools.product(*shifts))
            assert got == want, (s, r, k)


def floor_surd(p: int, q: int, r: int) -> int:
    """Integer-only floor(p + q*sqrt(r)) for a non-square r."""
    s = math.isqrt(q * q * r)
    return p + s if q >= 0 else p - s - 1


@settings(max_examples=40)
@given(
    r=st.sampled_from([2, 3]),
    k0=st.builds(lambda e, u, sign: sign * (10**e + u), st.sampled_from(range(18)),
                 st.integers(0, 10**6), st.sampled_from([1, -1])),
    anchored=st.booleans(),
    a=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    width=st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda w: w != (0, 0)),
    left_closed=st.booleans(),
)
def test_orbit_kernel_against_isqrt_oracle(r, k0, anchored, a, width, left_closed):
    # window endpoints in Z + Z*alpha; anchored ones meet the orbit k*alpha
    # exactly at some k in the range, which exercises the half-open side
    if width[0] + width[1] * math.sqrt(r) < 0:
        width = (-width[0], -width[1])
    a0, a1 = a[0], a[1] + (k0 if anchored else 0)
    b0, b1 = a0 + width[0], a1 + width[1]
    spec = AlgebraSpec.from_sqrt([r])
    alpha = spec.basis_element("w1")
    region = interval(a1 * alpha + a0, b1 * alpha + b0, left_closed=left_closed)
    ks = range(k0 - 5, k0 + 6)

    def translates(k):
        # integers m with k*alpha + m in the window, from exact floors
        if left_closed:
            return range(-floor_surd(-a0, k - a1, r), -floor_surd(-b0, k - b1, r))
        return range(floor_surd(a0, a1 - k, r) + 1, floor_surd(b0, b1 - k, r) + 1)

    want = [len(translates(k)) for k in ks]
    assert orbit_hits(region, alpha, 0, ks[0], ks[-1]).tolist() == want
    assert [multiplicity(region, (alpha * k,)) for k in ks] == want
    pts = dual_model_points([alpha], [spec.one()], region, (ks[0], ks[-1]))
    assert set(map(tuple, pts.provenance.tolist())) == {
        (m, k) for k in ks for m in translates(k)}


def test_brs_statistic_oracle_small(sqrt2, hecke):
    # brute-force double loop over (n, j) on an oracle-computed orbit; the
    # small cases include the window starting at j = -J
    a = sqrt2.basis_element("w1")
    mes = float(hecke.volume())
    for N, J in ((60, 40), (7, 5), (1, 0), (10, 10)):
        chi = orbit_hits(hecke, a, 0, -J + 1, J + N)

        def window(j, n):
            return sum(chi[k - (-J + 1)] for k in range(j + 1, j + n + 1)) - n * mes

        best = max(abs(window(j, n)) for j in range(-J, J + 1) for n in range(1, N + 1))
        stat = brs_empirical(hecke, a, N, J)
        assert abs(stat.value - best) < 1e-9
        assert 1 <= stat.argmax_n <= N and abs(stat.argmax_j) <= J
        assert abs(abs(window(stat.argmax_j, stat.argmax_n)) - stat.value) < 1e-9


def _brs_reference(region, alpha, N, J):
    """Sliding-window deque scan over window ends t, one start at a time."""
    mes = float(region.volume())
    chi = orbit_hits(region, alpha, None, -J + 1, J + N)
    f = np.concatenate([[0.0], np.cumsum(chi) - mes * np.arange(1, len(chi) + 1)])
    best, best_t, best_s = -1.0, 0, 0
    max_dq: deque[int] = deque()
    min_dq: deque[int] = deque()
    added = -1
    for t in range(1, len(f)):
        lo, hi = max(0, t - N), min(2 * J, t - 1)
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
        for s in (max_dq[0], min_dq[0]):
            cand = abs(f[t] - f[s])
            if cand > best:
                best, best_t, best_s = cand, t, s
    return best, best_t - best_s, best_s - J


def test_brs_matches_deque_reference(sqrt2, half, hecke):
    # rational mes 1/2 makes many windows tie exactly; the argmax must be
    # the one the deque scan keeps (first end, max side, latest start)
    a = sqrt2.basis_element("w1")
    for region in (hecke, half):
        for N, J in ((60, 40), (7, 5), (1, 0), (10, 10), (500, 300)):
            stat = brs_empirical(region, a, N, J)
            assert (stat.value, stat.argmax_n, stat.argmax_j) == _brs_reference(region, a, N, J)


def test_brs_long_windows_match_deque_reference(sqrt2, half, hecke):
    # N > 2J + 1: every window length reaches past all 2J + 1 starts, the
    # benchmark's shape (N = 200,000 against J = 20,000)
    a = sqrt2.basis_element("w1")
    for region in (hecke, half):
        for N, J in ((200, 30), (1000, 0), (5000, 400)):
            stat = brs_empirical(region, a, N, J)
            assert (stat.value, stat.argmax_n, stat.argmax_j) == _brs_reference(region, a, N, J)


def test_sliding_max_against_brute_force():
    rng = np.random.default_rng(7)
    for n in range(1, 41):
        g = rng.integers(-5, 6, n).astype(float)  # small integers, so windows tie
        for w in range(1, 3 * n + 1):
            want = np.array([g[max(0, i - w + 1):i + 1].max() for i in range(n + w - 1)])
            assert np.array_equal(dynamics._sliding_max(g, w), want), (n, w)


def test_sliding_max_allocates_about_its_output():
    # a window far longer than g costs the output, not a -inf padding of 2w
    g = np.arange(10.0)
    w = 10**6
    tracemalloc.start()
    try:
        out = dynamics._sliding_max(g, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == len(g) + w - 1 and out[-1] == 9.0
    assert peak <= 4 * out.nbytes


def _traced(call):
    """call()'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("n_range, two_sided", [((0, 1 << 20), False),
                                                ((-(1 << 18), 1 << 18), True)])
def test_trace_allocates_about_its_output(sqrt2, half, n_range, two_sided):
    # the hits are counted into the prefix buffer and the values built in place:
    # no orbit-length k or n column (4.1x the values with them)
    tr, peak = _traced(lambda: discrepancy_trace(half, sqrt2.basis_element("w1"), sqrt2.parse("1/3"),
                                                 n_range, two_sided=two_sided))
    assert peak <= 2.25 * tr.values.nbytes
    assert tr.ns.dtype == np.int64 and np.array_equal(tr.ns, np.arange(n_range[0], n_range[1] + 1))


def test_orbit_hits_allocates_about_its_output(sqrt2, half):
    # one short k column per chunk, not one for the orbit (2.1x the output with it)
    hits, peak = _traced(lambda: orbit_hits(half, sqrt2.basis_element("w1"), 0, 0, (1 << 20) - 1))
    assert len(hits) == 1 << 20 and peak <= 1.5 * hits.nbytes


def test_brs_allocates_a_few_orbit_lengths(sqrt2, hecke):
    N, J = 200_000, 20_000
    _, peak = _traced(lambda: brs_empirical(hecke, sqrt2.basis_element("w1"), N, J))
    assert peak <= 6 * 8 * (N + 2 * J)  # 7.0x with the orbit held to the end


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_orbit_chunks_match_per_point_multiplicity(sqrt2, monkeypatch, extra):
    # blocks of 16 and chunks of 64 points: an orbit from k = 37, off a chunk boundary,
    # of chunk - 1, chunk or chunk + 1 points; its points 63 and 64, the chunk's last
    # and the next one's first, land on the ends 0 and sqrt2 - 1 (mod 1)
    monkeypatch.setattr(regions, "_BLOCK", 16)
    monkeypatch.setattr(dynamics, "_ORBIT_CHUNK", 64)
    w1 = sqrt2.basis_element("w1")
    region = parse_region_literal(sqrt2, "[0,1/4) U (1/3,-1+1*w1]")
    k_lo = 37
    x0, ks = w1 * -(k_lo + 63), range(k_lo, k_lo + 64 + extra)
    want = [multiplicity(region, (x0 + w1 * k,)) for k in ks]
    assert orbit_hits(region, w1, x0, ks[0], ks[-1]).tolist() == want
    assert want[63:65] == [1, 1][:len(ks) - 63]


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_orbit_chunks_match_one_kernel_call(sqrt2, hecke, extra):
    # the kernel's own chunk: the counts are those of one call over the whole k column
    w1, k_lo = sqrt2.basis_element("w1"), -12_345
    ks = np.arange(k_lo, k_lo + dynamics._ORBIT_CHUNK + extra)
    whole = hecke.membership.count((sqrt2.parse("1/3"),), [(w1,)], ks[:, None])
    assert np.array_equal(orbit_hits(hecke, w1, sqrt2.parse("1/3"), k_lo, ks[-1]), whole)


def test_brs_bounded_vs_growth(sqrt2, half, hecke):
    a = sqrt2.basis_element("w1")
    bounded = brs_empirical(hecke, a, 5000, 500)
    assert bounded.value <= 1.001
    small = brs_empirical(half, a, 1000, 500)
    large = brs_empirical(half, a, 100000, 500)
    assert large.value > small.value  # growth regime


def test_brs_certificate_pair_commonly_bounded(sqrt2):
    # a certified union and its translation target have comparably bounded
    # statistics (coarse level: both under one constant)
    a = sqrt2.basis_element("w1")
    s = parse_region_literal(sqrt2, "[0,-1+1*w1) U [1,3-1*w1)")
    t = parse_region_literal(sqrt2, "[0,1)")
    st_s = brs_empirical(s, a, 20000, 2000)
    st_t = brs_empirical(t, a, 20000, 2000)
    assert st_s.value <= 3.0 and st_t.value <= 3.0


def test_transfer_matches_trace(sqrt2, hecke):
    # the transfer function g(n alpha), g(0) = 0, is the two-sided trace from the zero vector
    a = sqrt2.basis_element("w1")
    g = discrepancy_trace(hecke, a, None, (-2000, 2000), two_sided=True)
    tr = discrepancy_trace(hecke, a, 0, (-2000, 2000), two_sided=True)
    assert np.abs(g.values - tr.values).max() < 1e-9
    assert g.values[-g.n_lo] == 0.0
    assert abs(g.values[1 - g.n_lo] - (1.0 - float(hecke.volume()))) < 1e-12


def test_transfer_bounded_on_bounded_region(sqrt2, hecke):
    a = sqrt2.basis_element("w1")
    g = discrepancy_trace(hecke, a, None, (-100000, 100000), two_sided=True)
    assert np.abs(g.values).max() <= 3.0


def _bmo_reference(seq, window_lengths, chunk_elems=1 << 22):
    """Direct scan: every window's deviations, in chunks of windows."""
    c = np.asarray(seq, dtype=np.float64)
    n = len(c)
    c = c - c.mean()
    best = 0.0
    cs = np.concatenate([[0.0], np.cumsum(c)])
    for L in window_lengths:
        means = (cs[L:] - cs[:-L]) / L
        n_win = n - L + 1
        step = max(1, chunk_elems // L)
        view = np.lib.stride_tricks.sliding_window_view(c, L)
        for s in range(0, n_win, step):
            e = min(s + step, n_win)
            dev = np.abs(view[s:e] - means[s:e, None]).mean(axis=1)
            best = max(best, float(dev.max()))
    return best


def test_bmo_matches_reference(rng, sqrt2, half):
    # normal traces take the direct scan; integers / 4 with 1..12 distinct
    # values take the per-value counts for every length above the count
    cases = [(np.full(64, 3.7), [1, 2, 4, 8]), (np.array([1.0, -1.0] * 64), [2, 4, 8])]
    for n_values in range(1, 13):
        n = int(rng.integers(20, 400))
        lengths = sorted({1, n, *rng.integers(1, n + 1, size=6).tolist()})
        cases.append((rng.normal(size=n), lengths))
        cases.append((rng.integers(0, n_values, size=n) / 4, lengths))
    trace = discrepancy_trace(half, sqrt2.basis_element("w1"), 0, (0, 1 << 14))
    cases.append((trace.values, [1 << j for j in range(0, 15)]))
    for seq, lengths in cases:
        assert abs(bmo_stat(seq, lengths) - _bmo_reference(seq, lengths)) <= 1e-12


def _bmo_scan_reference(seq, window_lengths, block=1 << 15):
    """bmo_stat as the direct scan computed it before the variance bound:
    every window of every length, in blocks of about ``block`` elements."""
    c = np.asarray(seq, dtype=np.float64)
    n = len(c)
    c = c - c.mean()
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
            rows = max(1, block // L)
            buf = np.empty((rows, L))
            for s in range(0, len(means), rows):
                e = min(s + rows, len(means))
                dev = buf[:e - s]
                np.subtract(view[s:e], means[s:e, None], out=dev)
                np.abs(dev, out=dev)
                best = max(best, float(dev.sum(axis=1).max()) / L)
    return best


@functools.lru_cache(maxsize=None)
def _rotation_trace(lit: str) -> np.ndarray:
    spec = AlgebraSpec.from_sqrt([2])
    region = parse_region_literal(spec, lit)
    return discrepancy_trace(region, spec.basis_element("w1"), None, (0, 4000)).values


@st.composite
def bmo_inputs(draw):
    kind = draw(st.sampled_from(["bounded", "growth", "few", "outliers", "ramp",
                                 "offset", "constant", "alternating"]))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("bounded", "growth"):
        # a bounded remainder set, and a set of irrational measure that is not one
        trace = _rotation_trace("[0,-1+1*w1)" if kind == "bounded" else "[0,2/3*w1)")
        start = draw(st.integers(0, len(trace) - n))
        seq = trace[start:start + n]
    elif kind == "few":
        seq = rng.integers(0, draw(st.integers(1, 12)), size=n) / 4
    elif kind == "outliers":
        seq = rng.normal(size=n)
        hits = rng.integers(0, n, size=draw(st.integers(1, 3)))
        seq[hits] = rng.choice([-1.0, 1.0], size=len(hits)) * 10.0 ** draw(st.integers(3, 12))
    elif kind == "ramp":
        # steps of up to 1e8 with noise of up to 1e8: sum c^2 dwarfs a
        # window's variance, which the prefix sums then get by cancellation
        step = draw(st.sampled_from([1.0, 1e4, 1e8]))
        noise = draw(st.sampled_from([0.0, 1e-3, 1.0, 1e8]))
        seq = np.cumsum(step + noise * rng.uniform(-1, 1, size=n))
    elif kind == "offset":
        seq = 1e9 + draw(st.integers(-1000, 1000)) + rng.normal(size=n) * draw(
            st.sampled_from([1e-6, 1e-3, 1.0]))
    elif kind == "constant":
        seq = np.full(n, draw(st.floats(-1e9, 1e9)))
    else:
        seq = np.resize([1.0, -1.0], n) * draw(st.floats(1e-3, 1e9))
    # short lengths alone: for L = 1 the computed deviation is only the
    # rounding of the prefix sums, which the variance's own rounding dwarfs
    lengths = draw(st.one_of(st.lists(st.integers(1, n), min_size=1, max_size=6),
                             st.lists(st.integers(1, min(n, 3)), min_size=1, max_size=2)))
    if draw(st.booleans()):
        lengths += [n, lengths[0]]  # the whole sequence, and a repeated length
    return seq, lengths


@settings(max_examples=250)
@given(bmo_inputs())
def test_bmo_bit_identical_to_direct_scan(case):
    # the variance bound only skips windows; the float is the scan's, bit for bit
    seq, lengths = case
    assert bmo_stat(seq, lengths) == _bmo_scan_reference(seq, lengths)


def test_bmo_bit_identical_under_cancellation():
    # a unit ramp with 1e-9 noise: sum c^2 ~ n^3 / 12, so the prefix sums
    # give the L = 2 variances (1/4 each) only to about 1e-9, the size of
    # the noise that separates the windows; only the slack keeps the
    # window whose computed value is highest
    rng = np.random.default_rng(5)
    for _ in range(60):
        seq = np.arange(300.0) + rng.normal(size=300) * 1e-9
        assert bmo_stat(seq, [2]) == _bmo_scan_reference(seq, [2])


def test_bmo_overflowing_squares_match_scan():
    # where c^2 or the prefix sums overflow there is no bound, and every
    # window is scanned in the old blocks (a non-finite window value drops
    # its whole block from the maximum there)
    cases = [[1e308, -1e308, 1e308, 5.0], [1e200, -3e199, 7.0, 1e200, 2.0, -1e200],
             np.linspace(-1e307, 1e307, 50), [1e160, 3.0, -2e159, 1.0] * 20]
    with np.errstate(all="ignore"):
        for seq in cases:
            assert bmo_stat(seq, [1, 2, 3]) == _bmo_scan_reference(seq, [1, 2, 3])


def test_bmo_large_bounded_trace(sqrt2, hecke):
    # 2^20 terms of a bounded remainder set's trace: the maximum is
    # 1 - 1/sqrt2, attained at L = 2 by a single step of +1 - mes S, and the
    # bound leaves little of the 2^0..2^12 scan (about 14 s as a full scan)
    tr = discrepancy_trace(hecke, sqrt2.basis_element("w1"), None, (0, 1 << 20))
    start = time.perf_counter()
    val = bmo_stat(tr.values, [1 << j for j in range(13)])
    elapsed = time.perf_counter() - start
    # the pinned float is the direct scan's; D_n itself carries n * mes S
    # rounding at n ~ 1e6, so the closed form holds to 1e-10
    assert abs(val - 0.29289321883697994) <= 1e-12
    assert abs(val - (1 - 1 / math.sqrt(2))) <= 1e-10
    assert bmo_stat(tr.values, [2]) == val
    assert elapsed < 10.0


def test_bmo_bound_prunes_growth_trace(sqrt2, monkeypatch):
    # a trace that grows: the seeded maximum leaves about a tenth of the
    # direct scan's window elements (over half when nothing seeds it)
    region = parse_region_literal(sqrt2, "[0,2/3*w1)")
    seq = discrepancy_trace(region, sqrt2.basis_element("w1"), None, (0, 1 << 14)).values
    lengths = [1 << j for j in range(13)]
    evaluated = []
    scan = dynamics._scan_max

    def counting(c, means, L, keep=None):
        evaluated.append((len(means) if keep is None else len(keep)) * L)
        return scan(c, means, L, keep)

    monkeypatch.setattr(dynamics, "_scan_max", counting)
    assert bmo_stat(seq, lengths) == _bmo_scan_reference(seq, lengths)
    assert sum(evaluated) <= 0.25 * sum((len(seq) - L + 1) * L for L in lengths)


@pytest.mark.parametrize("n_values", range(1, 13))
def test_bmo_few_valued_chunks_match_per_length_loop(n_values):
    # the few-valued path counts each value once per chunk of window starts
    # for every length; _bmo_scan_reference runs one count per value and
    # length over the whole sequence, and the floats agree bit for bit
    # below one chunk, at exactly one chunk of starts and over several
    # chunks plus a partial one
    chunk = dynamics._BMO_BLOCK
    rng = np.random.default_rng(n_values)
    pool = rng.choice(np.arange(-9, 10), size=n_values, replace=False) / 3
    for n in (chunk // 3, chunk + n_values, 3 * chunk + 517):
        seq = rng.choice(pool, size=n)
        lengths = [L for L in (1, n_values + 1, chunk - 1, chunk, chunk + 1, n,
                               n_values + 1) if L <= n]
        assert bmo_stat(seq, lengths) == _bmo_scan_reference(seq, lengths)
        short = [L for L in lengths if L < chunk]  # the chunk is _BMO_BLOCK here
        assert bmo_stat(seq, short) == _bmo_scan_reference(seq, short)


def test_bmo_few_valued_maximum_at_a_chunk_edge():
    # zeros with one burst of alternating -1/3, 1/3 filling exactly the
    # window of length L at start p: that window alone attains the maximum
    # (1/3 for even L, less by 1/(3L^2) for odd L; other windows of length 5
    # reach 4/15), so a chunk that loses its first or last start changes the
    # float.  The length-5 windows fill two chunks and one start of a third.
    chunk = dynamics._BMO_BLOCK
    n = 2 * chunk + 5
    for L in (5, 6, chunk - 1):
        for p in sorted(p for p in {0, chunk - 1, chunk, 2 * chunk - 1, n - L} if p <= n - L):
            seq = np.zeros(n)
            seq[p:p + L] = np.resize([-1 / 3, 1 / 3], L)
            got = bmo_stat(seq, sorted({5, L}))
            assert got == _bmo_scan_reference(seq, sorted({5, L}))
            assert abs(got - (1 / 3 if L % 2 == 0 else 1 / 3 - 1 / (3 * L * L))) <= 1e-12


def test_bmo_rotation_rational_trace_matches_per_length_loop(sqrt2, half):
    # the benchmark's bmo_rational input: D_n of [0,1/2) under sqrt2 from a
    # rational start, n = 0..2^16, lengths 2^0..2^9
    tr = discrepancy_trace(half, sqrt2.basis_element("w1"), Fraction(77, 256), (0, 1 << 16))
    lengths = [1 << j for j in range(10)]
    assert bmo_stat(tr.values, lengths) == _bmo_scan_reference(tr.values, lengths)


def test_bmo_constant_zero():
    assert bmo_stat(np.full(64, 3.7), [1, 2, 4, 8]) == 0.0


def test_bmo_alternating():
    seq = np.array([1.0, -1.0] * 64)
    assert bmo_stat(seq, [2, 4, 8]) == 1.0


def test_bmo_coarse_bound(rng):
    # bmo <= 2 sup |seq - mean(seq)|
    for _ in range(10):
        seq = rng.normal(size=256)
        val = bmo_stat(seq, [1, 2, 4, 8, 16, 32])
        assert val <= 2 * np.abs(seq - seq.mean()).max() + 1e-12


def test_bmo_growth_regime(sqrt2, half):
    a = sqrt2.basis_element("w1")
    tr = discrepancy_trace(half, a, 0, (0, 1 << 14))
    short = bmo_stat(tr.values, [1 << j for j in range(0, 8)])
    long = bmo_stat(tr.values, [1 << j for j in range(0, 15)])
    assert long > short


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_bmo_refuses_non_finite(bad):
    with pytest.raises(PreconditionError, match="finite"):
        bmo_stat([0, bad, 1, 2], [1, 2])


def test_bmo_window_validation():
    with pytest.raises(PreconditionError):
        bmo_stat(np.arange(10.0), [11])


HUGE_BOX_K = 10**15


def _huge_box(sqrt23):
    alpha = (sqrt23.basis_element("w1"), sqrt23.basis_element("w2"))
    return box_region(sqrt23, [0, 0], [alpha[0] - 1, alpha[1] - 1]), alpha


def test_two_dim_box_orbit_at_1e15_against_isqrt_oracle(sqrt23):
    # k (sqrt2, sqrt3) + m lies in [0, sqrt2 - 1) x [0, sqrt3 - 1) exactly when
    # each axis does: ceil(-k sqrt r) <= m_r < ceil(sqrt r - 1 - k sqrt r)
    box, alpha = _huge_box(sqrt23)
    ks = range(HUGE_BOX_K, HUGE_BOX_K + 400)
    want = [math.prod(floor_surd(0, k, r) - floor_surd(1, k - 1, r) for r in (2, 3)) for k in ks]
    start = time.perf_counter()
    got = orbit_hits(box, alpha, None, ks[0], ks[-1])
    elapsed = time.perf_counter() - start
    assert got.tolist() == want and sum(want) > 50
    assert elapsed < 10.0


def test_two_dim_exact_fallback_does_not_grow_with_the_batch(sqrt23, monkeypatch):
    # x0 = -K alpha puts orbit point K on the box's corner, so every batch takes
    # the exact fallback; its algebra products are per batch, never per point
    calls = [0]
    mul = QValue.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    box, alpha = _huge_box(sqrt23)
    x0 = tuple(-a * HUGE_BOX_K for a in alpha)
    monkeypatch.setattr(QValue, "__mul__", counted)
    monkeypatch.setattr(QValue, "__rmul__", counted)
    counts = []
    for n in (50, 400):
        fresh = box_region(sqrt23, [0, 0], [alpha[0] - 1, alpha[1] - 1])
        calls[0] = 0
        chi = orbit_hits(fresh, alpha, x0, HUGE_BOX_K - n // 2, HUGE_BOX_K + n // 2 - 1)
        assert chi[n // 2] == 1
        counts.append(calls[0])
    assert counts[0] == counts[1]
