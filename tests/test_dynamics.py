import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasilab.algebra import AlgebraSpec
from quasilab.dynamics import (
    bmo_stat,
    brs_empirical,
    counting_discrepancy,
    discrepancy_trace,
    orbit_hits,
    orbit_transfer,
)
from quasilab.errors import PreconditionError
from quasilab.modelset import dual_model_points, sequence_points
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
    assert tr.value_at(0) == 0.0
    assert not np.allclose(tr.values, 0.0)


def test_trace_increment_identity(sqrt2, half):
    a = sqrt2.basis_element("w1")
    tr = discrepancy_trace(half, a, 0, (-200, 200), two_sided=True)
    assert tr.increments_consistent(half, a)
    tr2 = discrepancy_trace(half, a, 0.3, (0, 300))
    assert tr2.increments_consistent(half, a)


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
    assert set(pts.provenance) == {(m, k) for k in ks for m in translates(k)}


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
    chi = orbit_hits(region, alpha, 0, -J + 1, J + N)
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
    a = sqrt2.basis_element("w1")
    g = orbit_transfer(hecke, a, (-2000, 2000))
    tr = discrepancy_trace(hecke, a, 0, (-2000, 2000), two_sided=True)
    assert np.abs(g.values - tr.values).max() < 1e-9
    assert g.value_at(0) == 0.0
    assert abs(g.value_at(1) - (1.0 - float(hecke.volume()))) < 1e-12


def test_transfer_bounded_on_bounded_region(sqrt2, hecke):
    a = sqrt2.basis_element("w1")
    g = orbit_transfer(hecke, a, (-100000, 100000))
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


def test_bmo_window_validation():
    with pytest.raises(PreconditionError):
        bmo_stat(np.arange(10.0), [11])


def test_counting_integers():
    d = counting_discrepancy(np.arange(-50, 51, dtype=float), 1.0,
                             np.linspace(-40, 40, 801))
    assert np.abs(d).max() <= 1.0


def test_counting_example_sequence(sqrt2):
    seq = sequence_points([sqrt2.basis_element("w1")], [sqrt2.one()],
                          [(-120, 120)])
    xs = np.linspace(-100, 100, 4001)
    d = counting_discrepancy(seq, 1.0, xs)
    assert np.abs(d).max() <= 2.0


def test_counting_block_mode(sqrt2):
    from quasilab.modelset import dual_model_points
    from quasilab.regions import parse_region_literal

    w1 = sqrt2.basis_element("w1")
    region = parse_region_literal(sqrt2, "[0,-1+1*w1) U [1,3-1*w1)")
    pts = dual_model_points([w1], [sqrt2.one()], region, (-80, 80))
    xs = np.linspace(-60, 60, 2001)
    plain = counting_discrepancy(pts, 1.0, xs)
    block = counting_discrepancy(pts, 1.0, xs, block_mode=True)
    lo, hi = region.bbox()
    r_bound = max(abs(lo[0]), abs(hi[0]))
    sizes = {}
    for p in pts.provenance:
        sizes[p[-1]] = sizes.get(p[-1], 0) + 1
    bound = (2 * math.ceil(r_bound) + 1) * max(sizes.values())
    assert np.abs(plain - block).max() <= bound


def test_counting_block_mode_needs_provenance():
    with pytest.raises(PreconditionError, match="provenance"):
        counting_discrepancy(np.arange(10.0), 1.0, [0.5], block_mode=True)
