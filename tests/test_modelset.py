import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from quasilab import modelset
from quasilab.algebra import join, lift_to
from quasilab.dynamics import orbit_hits
from quasilab.errors import PreconditionError
from quasilab.lattice import Lattice, make_special_lattice
from quasilab.modelset import (
    PointSet,
    _csv_bytes,
    _csv_chunks,
    cut_and_project,
    density_estimate,
    dual_model_points,
    periodic_dual,
    periodic_points,
    separation,
    sequence_points,
    special_quasicrystal,
)
from quasilab.regions import Membership, box_region, interval, parse_region_literal, union


def frac_oracle(x: float) -> float:
    # independent float oracle for fractional parts (math library route)
    return x - math.floor(x)


def assert_provenance(got, want):
    want = np.asarray(want, dtype=np.int64)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)


def assert_lattice_coords(pts, lat, coord=None):
    # every float coordinate is float() of the exact lattice point of its
    # provenance: the first d entries, or entry ``coord`` alone
    want = []
    for prov in pts.provenance.tolist():
        point = lat.point(prov)
        exact = point[: pts.dim] if coord is None else (point[coord],)
        want.append([float(v) for v in exact])
    want = np.array(want, dtype=float).reshape(-1, pts.dim)
    assert pts.coords.tobytes() == want.tobytes()


@pytest.fixture
def gamma(sqrt2):
    return make_special_lattice([sqrt2.basis_element("w1")], [sqrt2.one()])[0]


@pytest.fixture
def window_neg1_0(sqrt2):
    return parse_region_literal(sqrt2, "(-1,0]")


def test_cut_and_project_example(sqrt2, gamma, window_neg1_0):
    pts = cut_and_project(gamma, window_neg1_0, [(-3, 3), (-6, 6)])
    expected = sorted(m + frac_oracle(m * math.sqrt(2)) for m in range(-3, 4))
    assert len(pts) == 7
    assert np.allclose(np.sort(pts.values), expected, atol=1e-9)


def test_cut_and_project_boundary_conventions(sqrt2, gamma):
    # p2 exactly at the closed endpoint of (a, b] is included, at the open
    # endpoint excluded: p2(m=0, n=0) = 0 lies in (-1, 0] but not [0, 1)...
    win_incl = parse_region_literal(sqrt2, "(-1,0]")
    win_excl = parse_region_literal(sqrt2, "(0,1]")
    at_zero = [(0, 0), (0, 0)]
    pts_incl = cut_and_project(gamma, win_incl, [(0, 0), (0, 0)])
    pts_excl = cut_and_project(gamma, win_excl, [(0, 0), (0, 0)])
    assert len(pts_incl) == 1
    assert_provenance(pts_incl.provenance, [(0, 0)])
    assert len(pts_excl) == 0
    # ...and the same when the coordinate solved for has e < 0, which flips
    # the scaled window's closed side, or the basis entries are ints.  Over
    # c = (0, n), p2 = e_n n steps through both ends of each window.
    w1 = sqrt2.basis_element("w1")
    cases = [
        (Lattice(1, [[1, w1], [w1, -2]]), "[-2,0)", [(0, 1)]),  # p2 = -2 n
        (Lattice(1, [[1, w1], [w1, -2]]), "(-2,0]", [(0, 0)]),
        (Lattice(1, [[2, 1], [1, -3]]), "(-3,0]", [(0, 0)]),  # p2 = -3 n
        (Lattice(1, [[2, 1], [1, -3]]), "[-3,0)", [(0, 1)]),
        (Lattice(1, [[1, 0], [w1, 2]]), "[0,2)", [(0, 0)]),  # p2 = 2 n
        (Lattice(1, [[1, 0], [w1, 2]]), "(0,2]", [(0, 1)]),
    ]
    for lat, text, want in cases:
        window = parse_region_literal(sqrt2, text)
        pts = cut_and_project(lat, window, [(0, 0), (-3, 3)])
        assert_provenance(pts.provenance, want)
        assert_same_points(pts, _cut_and_project_reference(lat, window, [(0, 0), (-3, 3)]))


def test_cut_and_project_count_matches_window_density(sqrt2, window_neg1_0):
    # point count over a long m range ~ |I| * range / det
    w1 = sqrt2.basis_element("w1")
    pts = special_quasicrystal([w1], [sqrt2.one()], window_neg1_0,
                               [(-1000, 1000)])
    assert len(pts) == 2001  # |I| = 1, det = 1: exactly one point per m
    narrow = interval(sqrt2.zero(), w1 - 1)
    pts2 = special_quasicrystal([w1], [sqrt2.one()], narrow, [(-1000, 1000)])
    expect = (math.sqrt(2) - 1) * 2001
    assert abs(len(pts2) - expect) <= 3


def test_cut_and_project_equals_sequence(sqrt2, gamma, window_neg1_0):
    pts = cut_and_project(gamma, window_neg1_0, [(-20, 20), (-40, 40)])
    seq = sequence_points([sqrt2.basis_element("w1")], [sqrt2.one()],
                          [(-20, 20)])
    assert_provenance(pts.provenance, seq.provenance)
    assert pts.coords.tobytes() == seq.coords.tobytes()
    # exact pointwise identity: both are the points of gamma
    assert_lattice_coords(seq, gamma)


def test_special_quasicrystal_matches_general(sqrt2, gamma, window_neg1_0):
    fast = special_quasicrystal([sqrt2.basis_element("w1")], [sqrt2.one()],
                                window_neg1_0, [(-20, 20)])
    slow = cut_and_project(gamma, window_neg1_0, [(-20, 20), (-40, 40)])
    assert_provenance(fast.provenance, slow.provenance)
    assert fast.coords.tobytes() == slow.coords.tobytes()
    assert_lattice_coords(fast, gamma)


def test_coords_are_float_of_lattice_points(sqrt2, sqrt23, gamma, window_neg1_0):
    # primal points on Gamma, dual points as coordinate d of Gamma*
    assert_lattice_coords(
        cut_and_project(gamma, window_neg1_0, [(-10, 10), (-20, 20)]), gamma)
    w1 = sqrt2.basis_element("w1")
    beta = [sqrt2.parse("2/7")]
    lat = make_special_lattice([w1], beta)[0]
    window = parse_region_literal(sqrt2, "[-1/2,1/2)")
    assert_lattice_coords(special_quasicrystal([w1], beta, window, [(-200, 200)]), lat)
    assert_lattice_coords(sequence_points([w1], beta, [(-200, 200)]), lat)
    region = parse_region_literal(sqrt2, "[0,-1+1*w1) U [1,3-1*w1)")
    region = region.translate([sqrt2.from_rational(Fraction(511234, 10**9))])
    lat_star = make_special_lattice([w1], [sqrt2.one()])[1]
    for n_range in ((-400, 400), (10**11, 10**11 + 300)):
        pts = dual_model_points([w1], [sqrt2.one()], region, n_range)
        assert len(pts) > 100
        assert_lattice_coords(pts, lat_star, coord=1)
    w = [sqrt23.basis_element(f"w{i}") for i in (1, 2, 3)]
    for beta in ([w[1], sqrt23.parse("1/5")], [sqrt23.parse("1/3"), w[2]]):
        lat, lat_star = make_special_lattice(w[:2], beta)
        window = parse_region_literal(sqrt23, "(-1,0]")
        box = [(-6, 6), (-5, 7)]
        assert_lattice_coords(special_quasicrystal(w[:2], beta, window, box), lat)
        assert_lattice_coords(sequence_points(w[:2], beta, box), lat)
        region = box_region(sqrt23, [0, 0], [w[0] - 1, w[1] - 1])
        pts = dual_model_points(w[:2], beta, region, (-150, 150))
        assert len(pts) > 50
        assert_lattice_coords(pts, lat_star, coord=2)


def test_sequence_point_values(sqrt2):
    seq = sequence_points([sqrt2.basis_element("w1")], [sqrt2.one()], [(0, 3)])
    lam3 = seq.values[seq.provenance.tolist().index([3, 4])]
    assert abs(lam3 - 3.2426406871) < 1e-9
    lam0 = seq.values[seq.provenance.tolist().index([0, 0])]
    assert lam0 == 0.0


def test_sequence_two_dim_example(sqrt23):
    alpha = [sqrt23.basis_element("w1"), sqrt23.basis_element("w2")]
    seq = sequence_points(alpha, alpha, [(0, 1), (0, 0)])
    idx = [i for i, p in enumerate(seq.provenance.tolist()) if p[:2] == [1, 0]][0]
    assert np.allclose(
        seq.coords[idx], [1.5857864376, 0.7174389352], atol=1e-9
    )


def test_sequence_rejects_bad_rank(sqrt2):
    with pytest.raises(PreconditionError, match="condition"):
        sequence_points([sqrt2.parse("1/2")], [sqrt2.one()], [(0, 1)])


def test_dual_model_points_scan(sqrt2):
    # S = [0, sqrt2 - 1), n in [0, 5]: n = 1 lands exactly on the open
    # endpoint ({sqrt2} = sqrt2 - 1) and is excluded; n = 0, 3, 5 are in
    w1 = sqrt2.basis_element("w1")
    region = interval(sqrt2.zero(), w1 - 1)
    pts = dual_model_points([w1], [sqrt2.one()], region, (0, 5))
    got = sorted(pts.values)
    expect = [0.0, 3 + frac_oracle(3 * math.sqrt(2)), 5 + frac_oracle(5 * math.sqrt(2))]
    assert np.allclose(got, expect, atol=1e-9)
    assert sorted(pts.provenance[:, -1].tolist()) == [0, 3, 5]


def test_dual_model_points_match_orbit_at_huge_n(sqrt2):
    # at n ~ 1e11 the float error of n*sqrt2 exceeds 1e-7; the emitted
    # blocks must still be exactly the orbit hits, n = 100000000331 included
    w1 = sqrt2.basis_element("w1")
    region = interval(sqrt2.zero(), w1 - 1)
    lo, hi = 10**11, 10**11 + 3000
    pts = dual_model_points([w1], [sqrt2.one()], region, (lo, hi))
    chi = orbit_hits(region, w1, 0, lo, hi)
    emitted = sorted(pts.provenance[:, -1].tolist())
    assert emitted == [lo + int(i) for i in np.flatnonzero(chi > 0)]
    assert 100000000331 in emitted


def test_dual_model_points_beta_zero(sqrt2):
    w1 = sqrt2.basis_element("w1")
    region = interval(sqrt2.zero(), w1 - 1)
    pts = dual_model_points([w1], [sqrt2.zero()], region, (0, 5))
    assert all(v == int(v) for v in pts.values)


def test_dual_block_bound(sqrt2):
    # all points of block n lie within [n - R, n + R], R from S's corners
    w1 = sqrt2.basis_element("w1")
    region = parse_region_literal(sqrt2, "[0,-1+1*w1) U [1,3-1*w1)")
    beta = [sqrt2.one()]
    pts = dual_model_points([w1], beta, region, (-100, 100))
    lo, hi = region.bbox()
    r_bound = max(abs(lo[0]), abs(hi[0])) * 1.0
    sizes = {}
    for (m, n), v in zip(pts.provenance, pts.values):
        assert abs(v - n) <= r_bound + 1e-12
        sizes[n] = sizes.get(n, 0) + 1
    assert max(sizes.values()) <= 2  # uniformly bounded blocks


def test_periodic_points_exact_boundary(sqrt2):
    # I = [0, sqrt2 - 1): n = 1 hits the open endpoint exactly -> excluded
    w1 = sqrt2.basis_element("w1")
    window = interval(sqrt2.zero(), w1 - 1)
    pts = periodic_points([w1], window, [(0, 2)])
    assert list(pts.values) == [0.0]
    # with the closed variant (0, sqrt2-1] it is included
    window2 = interval(sqrt2.zero(), w1 - 1, left_closed=False)
    pts2 = periodic_points([w1], window2, [(0, 2)])
    assert list(pts2.values) == [1.0]


def test_periodic_density(sqrt2):
    w1 = sqrt2.basis_element("w1")
    window = interval(sqrt2.zero(), w1 - 1)
    pts = periodic_points([w1], window, [(-100000, 100000)])
    dens = len(pts) / 200001
    assert abs(dens - (math.sqrt(2) - 1)) < 1e-3


def test_periodic_full_cover(sqrt2):
    window = parse_region_literal(sqrt2, "[0,999/1000)")
    pts = periodic_points([sqrt2.basis_element("w1")], window, [(-50, 50)])
    assert len(pts) >= 99  # all but boundary-sliver hits


def test_periodic_window_length_validated(sqrt2):
    with pytest.raises(PreconditionError, match="length"):
        periodic_points([sqrt2.basis_element("w1")],
                        interval(sqrt2.zero(), sqrt2.parse("3/2")), [(0, 1)])


def test_periodic_dual_example(sqrt2):
    w1 = sqrt2.basis_element("w1")
    region = interval(sqrt2.zero(), w1 - 1)
    pts = periodic_dual([w1], region, (-5, 5))
    assert sorted(pts.values) == [-5.0, -3.0, 0.0, 2.0, 4.0]


def test_density_integers(rng):
    z = PointSet(1, np.arange(-600, 601, dtype=float).reshape(-1, 1),
                 tuple((int(i),) for i in range(-600, 601)))
    rows = density_estimate(z, [5.0, 50.0])
    for _, lo, hi in rows:
        assert lo == 1.0 and hi == 1.0
    assert separation(z) == 1.0


def test_density_integer_grid_two_dim():
    # Z^2 on [-20, 20]^2: every half-open window of integer side 2r holds (2r)^2 points
    ij = np.indices((41, 41)).reshape(2, -1).T - 20
    z2 = PointSet(2, ij.astype(float), ij)
    assert density_estimate(z2, [1.5, 2.0, 5.0]) == [(1.5, 1.0, 1.0), (2.0, 1.0, 1.0),
                                                     (5.0, 1.0, 1.0)]
    with pytest.raises(PreconditionError, match="radius 20.0 too large"):
        density_estimate(z2, [20.0])


@pytest.mark.parametrize("radii", [[-5.0, 10.0], [0.0, 10.0], [math.nan], [10.0, 5.0]])
def test_density_refuses_radii_that_are_not_positive_and_increasing(radii):
    # -5 gave lower 1.1 > upper -0.0, and 0 gave NaN
    z = PointSet(1, np.arange(-600, 601, dtype=float).reshape(-1, 1),
                 tuple((int(i),) for i in range(-600, 601)))
    with pytest.raises(PreconditionError, match="radii must be positive and increasing"):
        density_estimate(z, radii)


def test_density_example_sequence(sqrt2):
    seq = sequence_points([sqrt2.basis_element("w1")], [sqrt2.one()],
                          [(-550, 550)])
    rows = density_estimate(seq, [500.0])
    _, lo, hi = rows[0]
    assert abs(lo - 1.0) < 0.02 and abs(hi - 1.0) < 0.02
    gap = separation(seq)
    assert abs(gap - (math.sqrt(2) - 1)) < 1e-9


def test_separation_two_dim(sqrt23):
    alpha = [sqrt23.basis_element("w1"), sqrt23.basis_element("w2")]
    seq = sequence_points(alpha, alpha, [(-5, 5), (-5, 5)])
    assert separation(seq) > 0


def test_csv_roundtrip(sqrt2, gamma, window_neg1_0):
    pts = cut_and_project(gamma, window_neg1_0, [(-5, 5), (-10, 10)])
    again = PointSet.from_csv(pts.to_csv())
    assert np.array_equal(again.coords, pts.coords)
    assert_provenance(again.provenance, pts.provenance)
    assert pts.to_csv().splitlines()[0] == "# quasilab pointset v1 dim=1"


def _csv_reference(header, columns) -> bytes:
    # one f-string per cell, row by row: (is_float, Python values) per column
    lines = [header]
    for row in zip(*(vals for _, vals in columns)):
        lines.append(",".join(
            f"{v:.17g}" if is_float else str(int(v))
            for (is_float, _), v in zip(columns, row)
        ))
    return ("\n".join(lines) + "\n").encode()


_NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0123))[0]
_FLOAT_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, _NAN_PAYLOAD,
                5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                1e-300, -1e-300, 0.1, -2.5, 1 / 3]
_INT_EDGES = [0, 1, -1, 2**62, -2**62, 2**63 - 1, -(2**63 - 1), -2**63,
              10**18, -10**18]


@st.composite
def _csv_columns(draw):
    n = draw(st.integers(0, 30))
    floats = st.one_of(st.floats(), st.sampled_from(_FLOAT_EDGES))
    columns = []
    for kind in draw(st.lists(st.sampled_from(
            ["int64", "few", "distinct"]), min_size=1, max_size=4)):
        if kind == "int64":
            ints = st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from(_INT_EDGES))
            columns.append((False, draw(st.lists(ints, min_size=n, max_size=n))))
        elif kind == "few":
            pool = draw(st.lists(floats, min_size=1, max_size=3))
            vals = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
            columns.append((True, vals))
        else:
            vals = draw(st.lists(floats, min_size=n, max_size=n,
                                 unique_by=lambda v: struct.pack("<d", v)))
            columns.append((True, vals))
    return columns


@given(columns=_csv_columns())
def test_csv_bytes_matches_per_row_formatting(columns):
    arrays = [np.array(vals, dtype=np.float64 if is_float else np.int64)
              for is_float, vals in columns]
    assert _csv_bytes("h,e", arrays) == _csv_reference("h,e", columns)


def test_csv_bytes_zero_rows_and_signed_zeros():
    assert _csv_bytes("a,b", [np.array([]), np.array([], dtype=np.int64)]) == b"a,b\n"
    assert _csv_bytes("x", [np.array([0.0, -0.0, 0.0, -0.0])]) == b"x\n0\n-0\n0\n-0\n"


_UINT32_EDGES = [2**32 - 1, 2**32, -(2**32 - 1), -2**32, 0, 9, 10, 2**63 - 1, -2**63]


def test_csv_bytes_int_columns_at_the_uint32_switch():
    # magnitudes below 2^32 take their digits in uint32, larger ones in uint64
    below = [0, 9, 10, 2**32 - 1, -(2**32 - 1), 1, -1, 99, -100]
    above = [0, 9, 10, 2**32, -2**32, 2**32 - 1, -(2**32 - 1), 11, -11]
    cases = [[v] for v in _UINT32_EDGES] + [below, above, _UINT32_EDGES]
    for vals in cases:
        got = _csv_bytes("i", [np.array(vals, dtype=np.int64)])
        assert got == _csv_reference("i", [(False, vals)])
    columns = [(False, below), (False, above), (False, _UINT32_EDGES)]
    arrays = [np.array(vals, dtype=np.int64) for _, vals in columns]
    assert _csv_bytes("a,b,c", arrays) == _csv_reference("a,b,c", columns)


def test_csv_bytes_few_valued_float_column_past_2_16_rows():
    # a float column with four bit patterns over 70,001 rows, gathered from
    # one formatted table, beside an int column that crosses 2^16
    rng = np.random.default_rng(3)
    pool = [-0.0, 0.0, _NAN_PAYLOAD, -1 / 3]
    vals = [pool[i] for i in rng.integers(0, len(pool), size=70_001)]
    ints = list(range(-3, 70_001 - 3))
    columns = [(True, vals), (False, ints), (True, vals[::-1])]
    arrays = [np.array(v, dtype=np.float64 if f else np.int64) for f, v in columns]
    assert _csv_bytes("x,i,y", arrays) == _csv_reference("x,i,y", columns)


def test_csv_chunks_differ_in_width_and_kind():
    # chunks of 2^14 rows: the first holds distinct floats and small ints, the next
    # repeats few floats beside a negative and the widest ints, the last is short
    n = 2 * (1 << 14) + 5
    rng = np.random.default_rng(5)
    floats = np.concatenate([rng.random(1 << 14) * 10.0 ** rng.integers(-320, 300, 1 << 14),
                             np.array([0.1, -2.5e-308, _NAN_PAYLOAD])[rng.integers(0, 3, n - (1 << 14))]])
    ints = np.arange(n, dtype=np.int64) % 7
    ints[1 << 14] = -5
    ints[-3:] = [2**63 - 1, -2**63, -(10**18)]
    columns = [(True, floats.tolist()), (False, ints.tolist())]
    chunks = list(_csv_chunks("f,i", [floats, ints]))
    assert len(chunks) == 4 and b"".join(chunks) == _csv_reference("f,i", columns)


def test_pointset_refuses_provenance_outside_int64():
    coords = [[0.5], [-0.0], [1e-320]]
    for bad in (2**63, -2**63 - 1, 10**30):
        with pytest.raises(PreconditionError, match="int64"):
            PointSet(1, coords, ((0, -1), (bad, 2), (0, 1)))
        text = f"# quasilab pointset v1 dim=1\n0.5,0,-1\n-0,{bad},2\n"
        with pytest.raises(PreconditionError, match="int64"):
            PointSet.from_csv(text)
    with pytest.raises(PreconditionError, match="int64"):
        PointSet(1, coords, np.array([[0], [2**63], [1]], dtype=np.uint64))
    with pytest.raises(PreconditionError, match="int64"):
        PointSet(1, coords, [[0], [0.5], [1]])
    with pytest.raises(PreconditionError, match=r"shape \(2, 1\) for 3 points"):
        PointSet(1, coords, ((0,), (1,)))
    # the int64 edges are kept, and written digit for digit
    prov = ((2**63 - 1, -1), (-2**63, 10**18), (0, -(2**63 - 1)))
    pts = PointSet(1, coords, prov)
    assert_provenance(pts.provenance, prov)
    columns = [(True, [0.5, -0.0, 1e-320]), (False, [p[0] for p in prov]),
               (False, [p[1] for p in prov])]
    expected = _csv_reference("# quasilab pointset v1 dim=1", columns)
    assert pts.to_csv().encode() == expected
    assert_provenance(PointSet.from_csv(pts.to_csv()).provenance, prov)


def test_empty_search_box_rejected(sqrt2, gamma, window_neg1_0):
    with pytest.raises(PreconditionError, match="empty"):
        cut_and_project(gamma, window_neg1_0, [(3, -3), (0, 0)])


# -- per-point references ----------------------------------------------------
#
# The generators build each point from one integer affine map of its
# provenance.  These references keep the earlier construction: every point
# rebuilt with QValue ring operations, floats by float(QValue), and the
# dual set ordered by a Python tuple sort.  Selection goes through the same
# membership kernel, except the sequence, which takes floor() per point.


def _reference_pointset(dim, pts, window, k):
    coords = np.array([[float(v) for v in q] for _, q in pts]).reshape(-1, dim)
    prov = np.array([p for p, _ in pts], dtype=np.int64).reshape(-1, k)
    return PointSet(dim, coords, prov, window)


def _cut_and_project_reference(gamma, window, search):
    d = gamma.dim_d
    axes = [np.arange(lo, hi + 1) for lo, hi in search]
    coeffs = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, d + 1)
    idx, shift = window.membership.translates(
        (gamma.spec.zero(),), [(v,) for v in gamma.basis[d]], coeffs
    )
    pts = []
    for i in idx[shift[:, 0] == 0]:
        prov = tuple(int(v) for v in coeffs[i])
        pts.append((prov, gamma.point(prov)[:d]))
    return _reference_pointset(d, pts, window.describe(), d + 1)


def _special_reference(alpha, beta, window, m_box):
    d = len(alpha)
    spec, (alpha, beta) = join(alpha, beta)
    axes = [np.arange(lo, hi + 1) for lo, hi in m_box]
    ms = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, d)
    idx, ns = window.membership.translates((spec.zero(),), [(-a,) for a in alpha], ms)
    pts = []
    for i, n in zip(idx.tolist(), ns[:, 0].tolist()):
        m = ms[i].tolist()
        p2 = n - sum((alpha[j] * m[j] for j in range(1, d)), alpha[0] * m[0])
        point = tuple(spec.from_rational(m[j]) - beta[j] * p2 for j in range(d))
        pts.append((tuple(m) + (n,), point))
    return _reference_pointset(d, pts, window.describe(), d + 1)


def _dual_reference(alpha, beta, region, n_range):
    d = len(alpha)
    spec = region.spec
    alpha = [lift_to(spec, a) for a in alpha]
    beta = [lift_to(spec, b) for b in beta]
    ns = np.arange(n_range[0], n_range[1] + 1, dtype=np.int64)
    idx, ms = region.membership.translates(
        tuple(spec.zero() for _ in range(d)), [tuple(alpha)], ns[:, None]
    )
    pts = []
    for i, m in zip(idx.tolist(), ms.tolist()):
        n = int(ns[i])
        x = [alpha[j] * n + m[j] for j in range(d)]
        lam = sum((x[j] * beta[j] for j in range(1, d)), x[0] * beta[0]) + n
        pts.append((tuple(m) + (n,), (lam,)))
    pts.sort(key=lambda t: t[0])
    return _reference_pointset(1, pts, region.describe(), d + 1)


def _sequence_reference(alpha, beta, m_box):
    d = len(alpha)
    spec, (alpha, beta) = join(alpha, beta)
    axes = [np.arange(lo, hi + 1) for lo, hi in m_box]
    pts = []
    for m in np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, d).tolist():
        am = sum((alpha[i] * m[i] for i in range(1, d)), alpha[0] * m[0])
        n = am.floor()
        point = tuple(spec.from_rational(m[i]) + beta[i] * (am - n) for i in range(d))
        pts.append((tuple(m) + (n,), point))
    return _reference_pointset(d, pts, "sequence", d + 1)


def assert_same_points(got, want):
    assert got.dim == want.dim and got.window == want.window
    assert_provenance(got.provenance, want.provenance)
    assert got.coords.shape == want.coords.shape
    assert got.coords.tobytes() == want.coords.tobytes()


def test_dual_matches_reference_duality_region(sqrt2):
    # the duality experiment's two-piece region, translated as its seed does
    w1 = sqrt2.basis_element("w1")
    region = parse_region_literal(sqrt2, "[0,-1+1*w1) U [1,3-1*w1)")
    region = region.translate([sqrt2.from_rational(Fraction(511234, 10**9))])
    args = ([w1], [sqrt2.one()], region, (-2136, 2136))
    got = dual_model_points(*args)
    assert len(got) > 4000
    assert_same_points(got, _dual_reference(*args))


@pytest.mark.parametrize("n_lo", [10**11, 10**17])
def test_dual_matches_reference_at_huge_n(sqrt2, n_lo):
    w1 = sqrt2.basis_element("w1")
    region = interval(sqrt2.zero(), w1 - 1)
    args = ([w1], [sqrt2.one()], region, (n_lo, n_lo + 300))
    got = dual_model_points(*args)
    assert len(got) > 100
    assert_same_points(got, _dual_reference(*args))


def test_dual_matches_reference_two_dim(sqrt23):
    # lambda has three irrational parts, and 1/5, 2/7 make the common
    # denominator of the map 35
    w1, w2, w3 = (sqrt23.basis_element(f"w{i}") for i in (1, 2, 3))
    region = box_region(sqrt23, [0, 0], [w1 - 1, w2 - 1])
    for beta in ([w2, sqrt23.parse("1/5")], [sqrt23.parse("2/7"), w3]):
        args = ([w1, w2], beta, region, (-150, 150))
        got = dual_model_points(*args)
        assert len(got) > 50
        assert_same_points(got, _dual_reference(*args))


def test_generators_match_reference_rational_beta(sqrt2):
    w1 = sqrt2.basis_element("w1")
    beta = [sqrt2.parse("2/7")]
    region = parse_region_literal(sqrt2, "(-1/3,1/2]")
    assert_same_points(dual_model_points([w1], beta, region, (-700, 700)),
                       _dual_reference([w1], beta, region, (-700, 700)))
    window = parse_region_literal(sqrt2, "[-1/2,1/2)")
    assert_same_points(special_quasicrystal([w1], beta, window, [(-300, 300)]),
                       _special_reference([w1], beta, window, [(-300, 300)]))
    assert_same_points(sequence_points([w1], beta, [(-300, 300)]),
                       _sequence_reference([w1], beta, [(-300, 300)]))


def test_special_matches_reference_two_dim(sqrt23):
    w1, w2, w3 = (sqrt23.basis_element(f"w{i}") for i in (1, 2, 3))
    window = parse_region_literal(sqrt23, "(-1,0]")
    for beta in ([w1, w2], [sqrt23.parse("1/3"), w3]):
        box = [(-10, 10), (-7, 12)]
        got = special_quasicrystal([w1, w2], beta, window, box)
        assert len(got) == 21 * 20
        assert_same_points(got, _special_reference([w1, w2], beta, window, box))
        assert_same_points(sequence_points([w1, w2], beta, box),
                           _sequence_reference([w1, w2], beta, box))


def test_cut_and_project_matches_reference_general_lattice(sqrt2, sqrt23):
    p, q = sqrt2.parse, sqrt23.parse
    special = make_special_lattice([sqrt2.basis_element("w1")], [sqrt2.one()])[0]
    two = sqrt2.from_rational(2)
    cases = [
        (Lattice(1, [[p("1/2 + 1/3*w1"), p("3")], [p("1*w1"), p("1 - 1*w1")]]),
         "[-3/2,2)", [(-30, 30), (-40, 40)], 100),
        # criterion 3's lattice: the special one with its first row doubled,
        # one point per m
        (Lattice(1, [[v * two for v in special.basis[0]], list(special.basis[1])]),
         "(-1,0]", [(-30, 30), (-50, 50)], 60),
        (Lattice(2, [[q("1"), q("1*w1"), q("1/2")], [q("1*w2"), q("1"), q("1")],
                     [q("1/3"), q("-1*w1"), q("1 + 1*w3")]]),
         "(-1,1] U [3/2,2)", [(-6, 6), (-7, 7), (-8, 8)], 100),
    ]
    for gamma, text, search, least in cases:
        window = parse_region_literal(gamma.spec, text)
        got = cut_and_project(gamma, window, search)
        assert len(got) > least
        assert_same_points(got, _cut_and_project_reference(gamma, window, search))


_E_SCALES = [Fraction(1, 1000), Fraction(1, 7), Fraction(1, 2), 1, Fraction(5, 3), 4, 10]


@st.composite
def _general_lattices(draw, specs):
    # a d = 1 or 2 basis of ints, Fractions and QValues, some of its last-row
    # entries zero and the others e with either sign and 1/1000 <= |e| <= 10
    spec = draw(st.sampled_from(specs))
    d = draw(st.integers(1, 2))
    units = [spec.one()] + [spec.basis_element(f"w{i}") for i in range(1, spec.dim)]
    small = st.fractions(-3, 3, max_denominator=4)

    def entry(last):
        kind = draw(st.sampled_from(["int", "fraction", "qvalue"]))
        if last and draw(st.integers(0, 3)) == 0:
            return {"int": 0, "fraction": Fraction(0), "qvalue": spec.zero()}[kind]
        if last:
            scale = draw(st.sampled_from(_E_SCALES if kind != "int" else [1, 4, 10]))
            v = scale * draw(st.sampled_from([-1, 1]))
            v = v * draw(st.sampled_from(units)) if kind == "qvalue" else v
            assume(Fraction(1, 1000) <= abs(float(v)) <= 10)
            return Fraction(v) if kind == "fraction" else v
        if kind == "int":
            return draw(st.integers(-3, 3))
        if kind == "fraction":
            return draw(small)
        return draw(small) + draw(small) * draw(st.sampled_from(units))

    basis = [[entry(i == d) for _ in range(d + 1)] for i in range(d + 1)]
    try:
        gamma = Lattice(d, basis)
    except PreconditionError:  # singular
        assume(False)
    width = 12 if d == 1 else 5
    search = [(lo, lo + draw(st.integers(2, width)))
              for lo in draw(st.lists(st.integers(-6, 1), min_size=d + 1, max_size=d + 1))]
    pieces = []
    for _ in range(draw(st.integers(1, 2))):
        # around p2 of a box point, often exactly at one end of the piece
        length = draw(st.fractions(Fraction(1, 4), 3, max_denominator=4))
        p2 = gamma.point([draw(st.integers(lo, hi)) for lo, hi in search])[d]
        start = lift_to(spec, p2) - draw(st.one_of(st.sampled_from([0, length]),
                                                   st.fractions(0, length, max_denominator=8)))
        pieces.append(interval(start, start + length, left_closed=draw(st.booleans())))
    return gamma, union(*pieces), search


@given(data=st.data())
def test_cut_and_project_matches_grid_reference(sqrt2, sqrt23, data):
    # the one d-coordinate selection against the (d+1)-dimensional grid it
    # replaced: the same provenance, coordinate bytes and window text
    gamma, window, search = data.draw(_general_lattices([sqrt2, sqrt23]))
    got = cut_and_project(gamma, window, search)
    assert_same_points(got, _cut_and_project_reference(gamma, window, search))
    assert got.window == window.describe()


def test_cut_and_project_kernel_sees_one_face(sqrt2, monkeypatch):
    # work bound: one kernel call over a grid of d coordinates, not the
    # (d+1)-dimensional box (4,001 x 5,661 cells on the first lattice)
    seen = []
    translates = Membership.translates

    def spy(self, base, gens, coeffs):
        seen.append(len(coeffs))
        return translates(self, base, gens, coeffs)

    w1 = sqrt2.basis_element("w1")
    window = parse_region_literal(sqrt2, "[0,1)")
    special = special_quasicrystal([w1], [sqrt2.one()], window, [(-2000, 2000)])
    gamma = make_special_lattice([w1], [sqrt2.one()])[0]
    monkeypatch.setattr(Membership, "translates", spy)
    got = cut_and_project(gamma, window, [(-2000, 2000), (-2830, 2830)])
    assert len(seen) == 1 and seen[0] <= 5661
    assert len(got) == 4001
    assert_same_points(got, special)
    # e = 1/1000 on n: solving for n would list ~1000 n per m of 1,001; m is
    # solved for instead, over the smaller face of 81 n
    seen.clear()
    lat = Lattice(1, [[1, 0], [w1, Fraction(1, 1000)]])
    search = [(-500, 500), (-40, 40)]
    got = cut_and_project(lat, window, search)
    assert len(seen) == 1 and seen[0] <= 81
    assert len(got) > 0
    assert_same_points(got, _cut_and_project_reference(lat, window, search))
    # here n is solved for (1/1000 * 10,001 > sqrt2 * 2), so the kernel sees
    # m sqrt2 / (1/1000) ~ 1.4e20 at m = 10^17, past its int64 bound: the box
    # is refused, not answered, though the grid kept below the bound
    with pytest.raises(PreconditionError, match="int64"):
        cut_and_project(lat, window, [(10**17, 10**17 + 1), (0, 10**4)])


def test_generators_empty_range(sqrt2, sqrt23):
    # in-range boxes whose points all miss a narrow window
    w1 = sqrt2.basis_element("w1")
    narrow = parse_region_literal(sqrt2, "[1/1000,2/1000)")
    got = dual_model_points([w1], [sqrt2.one()], narrow, (0, 0))
    assert len(got) == 0 and got.coords.shape == (0, 1)
    assert_same_points(got, _dual_reference([w1], [sqrt2.one()], narrow, (0, 0)))
    v = [sqrt23.basis_element("w1"), sqrt23.basis_element("w2")]
    window = parse_region_literal(sqrt23, "[1/1000,2/1000)")
    got = special_quasicrystal(v, v, window, [(0, 0), (0, 0)])
    assert len(got) == 0 and got.coords.shape == (0, 2)
    assert_same_points(got, _special_reference(v, v, window, [(0, 0), (0, 0)]))
    gamma = make_special_lattice([w1], [sqrt2.one()])[0]
    got = cut_and_project(gamma, narrow, [(0, 0), (0, 0)])
    assert len(got) == 0 and got.coords.shape == (0, 1)
    got = periodic_points(v, window, [(0, 0), (0, 0)])
    assert len(got) == 0 and got.coords.shape == (0, 2)


def test_generators_refuse_reversed_ranges(sqrt2, sqrt23):
    # one rule for every generator: a range with lo > hi is refused, in
    # any axis of a d = 2 box as in one dimension
    w1 = sqrt2.basis_element("w1")
    v = [sqrt23.basis_element("w1"), sqrt23.basis_element("w2")]
    window = parse_region_literal(sqrt2, "(-1,0]")
    window23 = parse_region_literal(sqrt23, "(-1,0]")
    half23 = parse_region_literal(sqrt23, "[0,1/2)")
    box23 = box_region(sqrt23, [0, 0], v)
    gamma = make_special_lattice([w1], [sqrt2.one()])[0]
    for bad in ([(0, -1), (-3, 3)], [(-3, 3), (1, 0)]):
        calls = [
            lambda: special_quasicrystal(v, v, window23, bad),
            lambda: sequence_points(v, v, bad),
            lambda: periodic_points(v, half23, bad),
        ]
        for call in calls:
            with pytest.raises(PreconditionError, match="empty"):
                call()
    calls = [
        lambda: special_quasicrystal([w1], [sqrt2.one()], window, [(1, 0)]),
        lambda: sequence_points([w1], [sqrt2.one()], [(1, 0)]),
        lambda: periodic_points([w1], parse_region_literal(sqrt2, "[0,1/2)"), [(1, 0)]),
        lambda: cut_and_project(gamma, window, [(0, 0), (1, 0)]),
        # e_m = 0, so n is the coordinate solved for, and its range is reversed
        lambda: cut_and_project(Lattice(1, [[1, w1], [0, 1]]), window, [(-3, 3), (1, 0)]),
        lambda: dual_model_points(v, v, box23, (1, 0)),
        lambda: periodic_dual(v, box23, (1, 0)),
    ]
    for call in calls:
        with pytest.raises(PreconditionError, match="empty"):
            call()


def assert_provenance_contract(pts, k):
    # int64 rows of the documented width, in lexicographic order
    prov = pts.provenance
    assert prov.dtype == np.int64 and prov.shape == (len(pts), k)
    assert np.array_equal(np.lexsort(prov.T[::-1]), np.arange(len(pts)))


@pytest.mark.parametrize("empty", [False, True], ids=["points", "empty"])
def test_generators_provenance_contract(sqrt2, sqrt23, empty):
    # empty: in-range boxes and n ranges whose points all miss a narrow
    # window; the sequence has one point per m, so it is never empty
    w1 = sqrt2.basis_element("w1")
    one = sqrt2.one()
    hi = 0 if empty else 40
    narrow = parse_region_literal(sqrt2, "[1/1000,2/1000)")
    window = narrow if empty else parse_region_literal(sqrt2, "(-1,0]")
    circle = narrow if empty else interval(sqrt2.zero(), w1 - 1)
    region = narrow if empty else parse_region_literal(sqrt2, "[0,-1+1*w1) U [1,3-1*w1)")
    n_range = (0, 0) if empty else (-40, 40)
    side3, side5 = ((0, 0), (0, 0)) if empty else ((-3, 3), (-5, 5))
    gamma = make_special_lattice([w1], [one])[0]
    v = [sqrt23.basis_element("w1"), sqrt23.basis_element("w2")]
    narrow23 = parse_region_literal(sqrt23, "[1/1000,2/1000)")
    window23 = narrow23 if empty else parse_region_literal(sqrt23, "(-1,0]")
    circle23 = narrow23 if empty else parse_region_literal(sqrt23, "[0,1/2)")
    tiny = sqrt23.parse("1/1000")
    box23 = (box_region(sqrt23, [tiny, tiny], [2 * tiny, 2 * tiny]) if empty
             else box_region(sqrt23, [0, 0], v))
    cases = [
        (cut_and_project(gamma, window, [(-20, 20), (-40, 40)]), 2),
        (special_quasicrystal([w1], [one], window, [(0, hi)]), 2),
        (special_quasicrystal(v, v, window23, [(0, hi), side3]), 3),
        (dual_model_points([w1], [one], region, n_range), 2),
        (dual_model_points(v, v, box23, n_range), 3),
        (periodic_points([w1], circle, [(0, 2 * hi)]), 1),
        (periodic_points(v, circle23, [(0, hi), side5]), 2),
        (periodic_dual([w1], circle, n_range), 1),
    ]
    if not empty:
        cases += [
            (sequence_points([w1], [one], [(0, hi)]), 2),
            (sequence_points(v, v, [(-3, 3), (0, hi)]), 3),
        ]
    for pts, k in cases:
        assert (len(pts) == 0) == empty
        assert_provenance_contract(pts, k)


def _affine_fsum_reference(mat, prov):
    # per point and coordinate: Python-int numerators over the common
    # denominator, then the fsum rule of float(QValue)
    spec = next((v.spec for row in mat for v in row if not v.is_rational()),
                mat[0][0].spec)
    mat = [[lift_to(spec, v) for v in row] for row in mat]
    den = math.lcm(*(c.denominator for row in mat for v in row for c in v.coeffs))
    coords = []
    for c in np.asarray(prov).tolist():
        for row in mat:
            nums = [sum(p * int(v.coeffs[l] * den) for p, v in zip(c, row))
                    for l in range(spec.dim)]
            coords.append(math.fsum(n / den * x for n, x in zip(nums, spec.numerics) if n))
    return np.array(coords).reshape(len(prov), len(mat))


def _vectorized_share(mat, prov):
    # the share of rows the numpy map decides without the exact path
    got = modelset._affine_points(mat, np.asarray(prov, dtype=np.int64), "")
    assert got.coords.tobytes() == _affine_fsum_reference(mat, prov).tobytes()
    spec = next((v.spec for row in mat for v in row if not v.is_rational()))
    den = math.lcm(*(c.denominator for row in mat for v in row for c in v.coeffs))
    cols = [[[int(v.coeffs[l] * den) for v in row] for l in range(spec.dim)]
            for row in mat]
    _, exact = modelset._affine_floats(cols, den, spec.numerics,
                                       np.asarray(prov, dtype=np.int64))
    return 1 - exact.mean()


def test_affine_map_matches_fsum_reference_generators(sqrt2, sqrt23):
    w1 = sqrt2.basis_element("w1")
    dual = dual_model_points([w1], [sqrt2.one()], interval(sqrt2.zero(), w1 - 1),
                             (10**11, 10**11 + 3000))
    assert len(dual) > 1000
    assert _vectorized_share([[sqrt2.one(), w1 + 1]], dual.provenance) == 1
    # the sqrt:2,3 box: up to four nonzero terms per coordinate
    alpha = [sqrt23.basis_element("w1"), sqrt23.basis_element("w2")]
    box = special_quasicrystal(alpha, alpha, parse_region_literal(sqrt23, "(-1,0]"),
                               [(-40, 40), (-40, 40)])
    assert len(box) == 81 * 81
    one, zero = sqrt23.one(), sqrt23.zero()
    mat = [[(one if i == j else zero) + alpha[i] * alpha[j] for j in range(2)]
           + [-alpha[i]] for i in range(2)]
    assert _vectorized_share(mat, box.provenance) > 0.99


def test_affine_map_rows_at_the_float_integer_bound(sqrt2):
    # x = (p0 + p1 sqrt2) / 3: a numerator of 2^53 + 1 is no float, so only
    # the exact path gives (2^53 + 1) / 3 = 3002399751580331
    third = sqrt2.parse("1/3")
    mat = [[third, third * sqrt2.basis_element("w1")]]
    rows = [(2**53 + 1, 0), (2**53 - 5, 5), (-(2**53) + 1, -1), (2**52, 2**51),
            (2**52 + 7, -(2**20)), (3, -7)]
    prov = np.array(rows, dtype=np.int64)
    got = modelset._affine_points(mat, prov, "")
    assert got.coords.tobytes() == _affine_fsum_reference(mat, rows).tobytes()
    assert got.coords[0, 0] == 3002399751580331.0
    assert float(2**53 + 1) / 3 != 3002399751580331.0
    _, exact = modelset._affine_floats([[[1, 0], [0, 1]]], 3, sqrt2.numerics, prov)
    assert exact.tolist() == [True, True, True, False, False, False]


def test_affine_map_at_binade_edges(sqrt23):
    # n + a sqrt2 + b sqrt3 + c sqrt6 within 1/2 of +-2^k: many of these
    # round to the power of two itself, where the float spacing halves
    w1, w2, w3 = (sqrt23.basis_element(f"w{i}") for i in (1, 2, 3))
    rng = np.random.default_rng(53)
    abc = rng.integers(-10**4, 10**4, size=(3000, 3))
    k = rng.choice([1, 10, 30, 45, 50, 51, 52], size=len(abc))
    sign = rng.choice([-1, 1], size=len(abc))
    irr = abc.astype(float) @ np.sqrt([2.0, 3.0, 6.0])
    n = sign * 2.0 ** k - np.round(irr)
    prov = np.column_stack([n.astype(np.int64), abc])
    mat = [[sqrt23.one(), w1, w2, w3]]
    assert _vectorized_share(mat, prov) > 0.9
    got = modelset._affine_points(mat, prov, "").coords[:, 0]
    assert np.count_nonzero(np.abs(got) == 2.0 ** k) > 300


def test_sum2_proves_only_correct_roundings():
    # near-ties at 2^53 + 2k, where fl(p + sigma) can round the wrong way:
    # (1) a tiny third term just off the midpoint; (2) errors near +-1 that
    # cancel in sigma and leave residuals of about 2^-50
    rng = np.random.default_rng(2)
    n = 20000
    ties = np.zeros((n, 4))
    ties[:, 1] = rng.choice([1.0, -1.0, 3.0, 0.5], size=n)
    ties[:, 2] = rng.choice([2.0**-80, -(2.0**-80), 2.0**-1074, 0.0], size=n)
    ties[:, 3] = rng.standard_normal(n) * 2.0 ** rng.integers(-110, -40, size=n)
    residues = rng.choice([1.0, -1.0, 0.5, -0.5, 1.5], size=(n, 5))
    residues[:, 1:] += rng.standard_normal((n, 4)) * 2.0**-50
    for terms in (ties, residues):
        terms[:, 0] = 2.0**53 + 2 * rng.integers(0, 4, size=n)
        s, proven = modelset._sum2(terms)
        want = np.array([math.fsum(row) for row in terms.tolist()])
        assert np.array_equal(s[proven], want[proven])
        assert 0 < np.count_nonzero(s[~proven] != want[~proven])
        assert proven.mean() > 0.3
