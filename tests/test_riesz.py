import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from quasilab import riesz
from quasilab.algebra import AlgebraSpec
from quasilab.dynamics import brs_empirical
from quasilab.errors import PreconditionError, QuasilabError
from quasilab.lattice import transform_pointset, transform_region
from quasilab.modelset import (
    PointSet,
    dual_model_points,
    sequence_points,
    special_quasicrystal,
)
from quasilab.regions import (
    box_region,
    brs_parallelepiped,
    ft_indicator,
    interval,
    parse_region_literal,
    union,
)
from quasilab.riesz import (
    DeltaSequence,
    avdonin_check,
    delta_sequence,
    duality_experiment,
    enumerate_blocks,
    extreme_eigs,
    gram_matrix,
    riesz_bound_trace,
)


@pytest.fixture
def unit_interval(sqrt2):
    return interval(sqrt2.zero(), sqrt2.one())


@pytest.fixture
def example_enum(sqrt2, unit_interval):
    pts = dual_model_points([sqrt2.basis_element("w1")], [sqrt2.one()],
                            unit_interval, (-300, 300))
    return enumerate_blocks(pts)


def test_enumeration_singleton_blocks(example_enum):
    assert np.diff(example_enum.s).max() == 1
    for n in range(example_enum.n_lo, example_enum.n_hi + 1):
        assert example_enum.s[n - example_enum.n_lo] == n
    assert np.allclose(
        example_enum.lambdas,
        example_enum.js + np.mod(example_enum.js * math.sqrt(2), 1.0),
    )


def test_enumeration_empty_blocks_allowed(sqrt2):
    # a short window leaves many n with no lattice hit; the ramp s stays
    # flat across those blocks
    w1 = sqrt2.basis_element("w1")
    region = interval(sqrt2.zero(), sqrt2.parse("1/10"))
    pts = dual_model_points([w1], [sqrt2.one()], region, (-60, 60))
    enum = enumerate_blocks(pts)
    sizes = np.diff(enum.s)
    assert (sizes == 0).any()
    assert sizes.sum() == len(pts)
    # block membership: every lambda_j with s_n <= j < s_{n+1} is block n
    for j, b in zip(enum.js, enum.blocks):
        assert enum.s[b - enum.n_lo] <= j < enum.s[b - enum.n_lo + 1]


def test_enumeration_orders_blocks_ascending(sqrt2):
    w1 = sqrt2.basis_element("w1")
    region = parse_region_literal(sqrt2, "[0,-1+1*w1) U [1,3-1*w1)")
    pts = dual_model_points([w1], [sqrt2.one()], region, (-50, 50))
    enum = enumerate_blocks(pts)
    assert np.diff(enum.s).max() == 2
    for n in range(enum.n_lo, enum.n_hi + 1):
        lo, hi = enum.s[n - enum.n_lo], enum.s[n - enum.n_lo + 1]
        vals = enum.lambdas[(enum.js >= lo) & (enum.js < hi)]
        assert np.all(np.diff(vals) >= 0)


def test_enumeration_anchor(example_enum):
    j0 = np.nonzero(example_enum.js == 0)[0][0]
    assert example_enum.blocks[j0] == 0  # lambda_0 is the first of block 0


def test_enumeration_refuses_an_empty_set(sqrt2):
    w1 = sqrt2.basis_element("w1")
    narrow = parse_region_literal(sqrt2, "[1/1000,2/1000)")
    pts = dual_model_points([w1], [sqrt2.one()], narrow, (0, 0))
    assert pts.provenance.shape == (0, 2)
    with pytest.raises(PreconditionError, match="empty point set"):
        enumerate_blocks(pts)


def test_delta_recomputable(example_enum, sqrt2):
    ds = delta_sequence(example_enum, sqrt2.one())
    assert np.abs(ds.deltas + ds.js / 1.0 - ds.lambdas).max() < 1e-9


def test_delta_mean_near_half(sqrt2, unit_interval):
    pts = dual_model_points([sqrt2.basis_element("w1")], [sqrt2.one()],
                            unit_interval, (-10000, 10000))
    ds = delta_sequence(enumerate_blocks(pts), sqrt2.one())
    v = avdonin_check(ds, 1.0, 1, (-9000, 9000))
    assert abs(v.c_hat - 0.5) < 0.01


# an interval this long sets a threshold no window meets, so sup_deviation
# is the deviation of the length-n_max windows
NEVER = 1e12


def test_delta_shift_invariance(example_enum, sqrt2):
    ds = delta_sequence(example_enum, sqrt2.one())
    shifted = DeltaSequence(ds.js, ds.lambdas + 0.37, ds.deltas + 0.37, ds.mes)
    for n in (4, 16):
        v = avdonin_check(ds, NEVER, n, (-200, 200))
        v2 = avdonin_check(shifted, NEVER, n, (-200, 200))
        assert v.satisfied_at is None and v2.satisfied_at is None
        assert abs(v2.c_hat - (v.c_hat + 0.37)) < 1e-12
        assert abs(v2.sup_deviation - v.sup_deviation) < 1e-9


def test_means_window_of_length_one(example_enum, sqrt2):
    ds = delta_sequence(example_enum, sqrt2.one())
    v = avdonin_check(ds, 1.0, 1, (-250, 250))
    direct = np.abs(ds.deltas - v.c_hat)
    js = ds.js
    mask = (js >= -249) & (js <= 251)
    assert abs(v.sup_deviation - direct[mask].max()) < 1e-12


def test_avdonin_kadec_degenerate():
    js = np.arange(-200, 201)
    ds = DeltaSequence(js, js.astype(float), np.zeros(len(js)), 1.0)
    v = avdonin_check(ds, 1.0, 8, (-100, 100))
    assert v.satisfied_at == 1
    assert abs(v.margin - 0.25) < 1e-15


def test_avdonin_alternating():
    js = np.arange(-200, 201)
    deltas = 0.3 * (-1.0) ** js
    ds = DeltaSequence(js, js + deltas, deltas, 1.0)
    v = avdonin_check(ds, 1.0, 8, (-100, 100))
    assert v.satisfied_at == 2  # N=1 fails at 0.3 > 1/4, N=2 means vanish


def test_avdonin_example_sequence(sqrt2, unit_interval):
    pts = dual_model_points([sqrt2.basis_element("w1")], [sqrt2.one()],
                            unit_interval, (-1200, 1200))
    enum = enumerate_blocks(pts)
    ds = delta_sequence(enum, sqrt2.one())
    v = avdonin_check(ds, sqrt2.one(), 128, (-1000, 1000))
    assert v.satisfied_at is not None and v.satisfied_at <= 128
    assert v.margin > 0


def test_avdonin_rejects_coincident_points():
    js = np.arange(0, 10)
    lam = np.zeros(10)
    ds = DeltaSequence(js, lam, lam - js, 1.0)
    with pytest.raises(PreconditionError, match="separated"):
        avdonin_check(ds, 1.0, 4, (0, 5))


def test_avdonin_refuses_windows_the_sequence_does_not_hold():
    js = np.arange(-200, 201)
    deltas = 0.01 * js  # a drift: no windowed mean stays within 1/4 of c_hat
    ds = DeltaSequence(js, js + deltas, deltas, 1.0)
    v = avdonin_check(ds, 1.0, 100, (-100, 100))  # k + N <= 200 for every N
    assert v.satisfied_at is None and v.k_range == (-100, 100)
    with pytest.raises(PreconditionError,
                       match="length N = 101 at k = 100 ends at j = 201, past the last "
                             "generated j = 200"):
        avdonin_check(ds, 1.0, 150, (-100, 100))
    with pytest.raises(PreconditionError,
                       match="k = -202 starts at j = -201, before the first generated j = -200"):
        avdonin_check(ds, 1.0, 1, (-202, 100))
    # a window length that passes before the sequence runs out still answers
    alt = 0.3 * (-1.0) ** js
    v = avdonin_check(DeltaSequence(js, js + alt, alt, 1.0), 1.0, 150, (-100, 100))
    assert v.satisfied_at == 2


def test_gram_orthonormal_identity(unit_interval):
    pts = np.arange(-20, 21, dtype=float)
    g = gram_matrix(pts, unit_interval)
    assert np.abs(g - np.eye(41)).max() < 1e-12
    lo, hi = extreme_eigs(g)
    assert abs(lo - 1) < 1e-12 and abs(hi - 1) < 1e-12


def test_gram_diagonal_is_volume(sqrt2):
    region = parse_region_literal(sqrt2, "[0,-1+1*w1) U [1,3-1*w1)")
    pts = np.array([0.0, 0.7, 2.4])
    g = gram_matrix(pts, region)
    assert np.allclose(np.diag(g), float(region.volume()))
    assert np.array_equal(g, g.conj().T)  # Hermitian exactly


def test_gram_two_point_closed_form(unit_interval):
    g = gram_matrix(np.array([0.0, 0.5]), unit_interval)
    assert abs(abs(g[0, 1]) - 2 / math.pi) < 1e-12
    lo, hi = extreme_eigs(g)
    assert abs(lo - (1 - 2 / math.pi)) < 1e-12
    assert abs(hi - (1 + 2 / math.pi)) < 1e-12


def test_extreme_eigs_examples():
    lo, hi = extreme_eigs(np.eye(5, dtype=complex))
    assert (lo, hi) == (1.0, 1.0)
    lo, hi = extreme_eigs(np.diag([0.2, 5.0]).astype(complex))
    assert abs(lo - 0.2) < 1e-12 and abs(hi - 5.0) < 1e-12
    with pytest.raises(PreconditionError, match="Hermitian"):
        extreme_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))
    for empty in (np.zeros((0, 0)), np.zeros((0, 0), dtype=complex)):  # no extreme eigenvalue
        with pytest.raises(PreconditionError, match="square and not empty"):
            extreme_eigs(empty)


def test_gram_positive_semidefinite(sqrt2, rng):
    region = parse_region_literal(sqrt2, "[0,-1+1*w1) U [1,3-1*w1)")
    pts = np.sort(rng.uniform(-10, 10, size=24))
    lo, _ = extreme_eigs(gram_matrix(pts, region))
    assert lo > -1e-9


def test_bound_trace_integers(unit_interval, sqrt2):
    seq = sequence_points([sqrt2.basis_element("w1")], [sqrt2.one()],
                          [(-40, 40)])
    from quasilab.modelset import PointSet

    z = PointSet(1, np.arange(-40, 41, dtype=float).reshape(-1, 1),
                 tuple((int(i),) for i in range(-40, 41)))
    tr = riesz_bound_trace(z, [5.0, 10.0, 20.0], unit_interval)
    for _, _, lo, hi in tr.rows:
        assert abs(lo - 1) < 1e-10 and abs(hi - 1) < 1e-10


def test_bound_trace_monotonicity(sqrt2):
    seq = sequence_points([sqrt2.basis_element("w1")], [sqrt2.one()],
                          [(-60, 60)])
    region = parse_region_literal(sqrt2, "[0,1/2) U [1,3/2)")
    tr = riesz_bound_trace(seq, [10.0, 25.0, 50.0], region)
    lmins = [r[2] for r in tr.rows]
    lmaxs = [r[3] for r in tr.rows]
    assert all(b <= a + 1e-9 for a, b in zip(lmins, lmins[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(lmaxs, lmaxs[1:]))


def _bound_trace_reference(points, radii, region):
    """The per-radius trace: restrict, build the complex Gram, dense solve."""
    rows = []
    for r in radii:
        pset = points.restrict_box(r)
        ev = scipy.linalg.eigvalsh(gram_matrix(pset, region))
        rows.append((float(r), len(pset), float(ev[0]), float(ev[-1])))
    return rows


def assert_trace_matches_reference(points, radii, region):
    got = riesz_bound_trace(points, radii, region).rows
    want = _bound_trace_reference(points, radii, region)
    assert [row[:2] for row in got] == [row[:2] for row in want]
    for (_, _, lo, hi), (_, _, lo_w, hi_w) in zip(got, want):
        tol = 1e-12 * max(1.0, hi_w)
        assert abs(lo - lo_w) <= tol and abs(hi - hi_w) <= tol


DUALITY_REGION = "[0,-1+1*w1) U [1,3-1*w1)"


@pytest.mark.parametrize("window", ["[0,1)", "(-1,0]", "[0,-1+1*w1)"])
def test_trace_matches_reference_one_interval(sqrt2, window):
    # the dual side of a duality run: a translated two-piece region's dual
    # model set on one interval
    w1 = sqrt2.basis_element("w1")
    region = parse_region_literal(sqrt2, DUALITY_REGION).translate(
        [sqrt2.from_rational(Fraction(123457, 10**9))])
    pts = dual_model_points([w1], [sqrt2.one()], region, (-110, 110))
    assert_trace_matches_reference(pts, [10, 25, 50, 100],
                                   parse_region_literal(sqrt2, window))


def test_trace_matches_reference_duality_region(sqrt2):
    # the primal side: two pieces keep the complex Gram matrix
    w1 = sqrt2.basis_element("w1")
    pts = special_quasicrystal([w1], [sqrt2.one()],
                               parse_region_literal(sqrt2, "[0,1)"), [(-110, 110)])
    assert_trace_matches_reference(pts, [10, 25, 50, 100],
                                   parse_region_literal(sqrt2, DUALITY_REGION))


@pytest.mark.parametrize("shape", ["box", "parallelepiped"])
def test_trace_matches_reference_two_dim(sqrt23, shape):
    alpha = [sqrt23.basis_element("w1"), sqrt23.basis_element("w2")]
    if shape == "box":
        region = box_region(sqrt23, [0, sqrt23.parse("-1/3")],
                            [sqrt23.parse("w1 - 1"), 1])
    else:  # sheared, |det E| = sqrt3 - 1
        region = brs_parallelepiped(alpha, [(1, (-1, -1)), (1, (-2, -1))])
    pts = sequence_points(alpha, alpha, [(-8, 8), (-8, 8)])
    assert_trace_matches_reference(pts, [2.5, 4, 6, 8], region)


@pytest.mark.parametrize("dim, region_text", [
    (1, "[0,1/2)"), (1, DUALITY_REGION), (2, "box"),
])
def test_trace_matches_reference_points_on_the_box_boundary(sqrt2, dim, region_text):
    # integer points lie exactly on |x| = R for every integer radius
    grid = np.stack(np.meshgrid(*[np.arange(-9, 10)] * dim, indexing="ij"), -1)
    coords = grid.reshape(-1, dim).astype(float)
    pts = PointSet(dim, coords, tuple(tuple(int(v) for v in row) for row in coords))
    region = (box_region(sqrt2, [0, 0], [Fraction(1, 2), Fraction(1, 3)])
              if region_text == "box" else parse_region_literal(sqrt2, region_text))
    assert_trace_matches_reference(pts, [0, 1, 2, 5, 9], region)


def test_bound_trace_refusals(sqrt2, unit_interval, monkeypatch):
    pts = PointSet(1, np.array([[3.0], [-4.0]]), ((3,), (-4,)))
    with pytest.raises(PreconditionError, match="no points within radius 2.5"):
        riesz_bound_trace(pts, [2.5, 5.0], unit_interval)
    with pytest.raises(PreconditionError, match="increasing"):
        riesz_bound_trace(pts, [5.0, 5.0], unit_interval)
    # NaN passes any order test, and inf takes every point: both refused before a matrix
    monkeypatch.setattr(riesz, "_spectral_gram", lambda *a: pytest.fail("matrix built"))
    for radii in ([1.0, math.nan], [math.nan], [5.0, math.inf], [-math.inf, 5.0]):
        with pytest.raises(PreconditionError, match="radii must be finite"):
            riesz_bound_trace(pts, radii, unit_interval)
    monkeypatch.undo()
    assert riesz_bound_trace(pts, [], unit_interval).rows == []
    # 2-D points on a 1-D region, on the real one-piece kernel and the complex one
    plane = PointSet(2, np.array([[0.5, 0.25], [-1.0, 2.0]]), ((0, 0), (1, 1)))
    for region in (unit_interval, parse_region_literal(sqrt2, "[0,1/2) U [1,3/2)")):
        for points in (plane, plane.coords):
            with pytest.raises(PreconditionError, match="point dimension does not match"):
                riesz_bound_trace(points, [1.0, 3.0], region)


@pytest.mark.parametrize("region_text", ["[0,1)", "[0,-1+1*w1) U [1,3-1*w1)"])
def test_bound_trace_solves_each_section_through_extreme_eigs(sqrt2, monkeypatch, region_text):
    # the public solver checks and solves every section: one call per radius
    pts = sequence_points([sqrt2.basis_element("w1")], [sqrt2.one()], [(-30, 30)])
    solve, shapes = riesz.extreme_eigs, []
    monkeypatch.setattr(riesz, "extreme_eigs", lambda g: shapes.append(g.shape) or solve(g))
    trace = riesz_bound_trace(pts, [5.0, 10.0, 20.0], parse_region_literal(sqrt2, region_text))
    assert shapes == [(n, n) for _, n, _, _ in trace.rows] and len(shapes) == 3


def _gram_reference(pts, region):
    # one gather of the whole upper triangle, then the conjugate mirror
    iu = np.triu_indices(len(pts))
    t = pts.coords[iu[1]] - pts.coords[iu[0]]
    vals = ft_indicator(region, t if pts.dim > 1 else t[:, 0])
    g = np.zeros((len(pts), len(pts)), dtype=complex)
    g[iu] = vals
    g[iu[1], iu[0]] = np.conj(vals)
    return g


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_gram_row_blocks_are_bit_identical(sqrt2, sqrt23, monkeypatch, block):
    w1 = sqrt2.basis_element("w1")
    alpha = [sqrt23.basis_element("w1"), sqrt23.basis_element("w2")]
    one_d = special_quasicrystal([w1], [sqrt2.one()],
                                 parse_region_literal(sqrt2, "[0,1)"), [(-60, 60)])
    cases = [
        (one_d, parse_region_literal(sqrt2, DUALITY_REGION)),
        (one_d, parse_region_literal(sqrt2, "[0,-1+1*w1)")),
        (sequence_points(alpha, alpha, [(-5, 5), (-5, 5)]),
         brs_parallelepiped(alpha, [(1, (-1, -1)), (1, (-2, -1))])),
    ]
    # 121 points: the default block holds the whole triangle
    whole = [(_gram_reference(p, r), riesz._spectral_gram(p.coords, r)) for p, r in cases]
    monkeypatch.setattr(riesz, "_GRAM_BLOCK", block)
    for (pts, region), (gram, kernel) in zip(cases, whole):
        assert gram_matrix(pts, region).tobytes() == gram.tobytes()
        assert riesz._spectral_gram(pts.coords, region).tobytes() == kernel.tobytes()


def _kernel_reference(pts, region, dedupe=False):
    # the real one-piece kernel on the whole upper triangle (with dedupe, once
    # per distinct difference and gathered back), then the mirror
    piece = region.pieces[0]
    e_mat = np.array([[float(v) for v in row] for row in piece.edges])
    iu = np.triu_indices(len(pts))
    t = pts.coords[iu[1]] - pts.coords[iu[0]]
    t, inv = riesz._distinct_rows(t) if dedupe else (t, slice(None))
    vals = abs(float(piece.det())) * np.prod(np.sinc(t @ e_mat), axis=1)[inv]
    k = np.zeros((len(pts), len(pts)))
    k[iu] = vals
    k[iu[1], iu[0]] = vals
    return k


def test_distinct_rows_of_one_column_match_np_unique(rng):
    # the lexsort path serves d = 1 too: np.unique of the bit patterns is the reference
    t = rng.choice([-0.0, 0.0, 1.5, -2.25, 3.0, np.nan], size=(500, 1))
    distinct, inv = riesz._distinct_rows(t)
    uniq, uinv = np.unique(t.view(np.int64)[:, 0], return_inverse=True)
    assert np.array_equal(distinct.view(np.int64)[:, 0], uniq) and np.array_equal(inv, uinv)


@pytest.mark.parametrize("d", [2, 3])
def test_distinct_rows_keep_signed_zeros_and_nan_payloads_apart(rng, d):
    # rows are told apart by bit pattern: -0.0 and 0.0, and NaNs of different payloads
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000 - 2**64],
                    dtype=np.int64).view(np.float64)
    t = rng.choice([-0.0, 0.0, 1.5, -2.25, *nans], size=(600, d))
    distinct, inv = riesz._distinct_rows(t)
    uniq, uinv = np.unique(t.view(np.int64), axis=0, return_inverse=True)
    assert distinct.dtype == np.float64 and np.array_equal(distinct.view(np.int64), uniq)
    assert np.array_equal(inv, uinv.reshape(-1))
    assert distinct[inv].tobytes() == t.tobytes()


def test_gram_entries_once_per_distinct_difference(sqrt2, sqrt23, monkeypatch):
    w1 = sqrt2.basis_element("w1")
    primal = special_quasicrystal([w1], [sqrt2.one()], parse_region_literal(sqrt2, "[0,1)"),
                                  [(-110, 110)]).restrict_box(100)
    alpha = [sqrt23.basis_element("w1"), sqrt23.basis_element("w2")]
    box = box_region(sqrt23, [0, sqrt23.parse("-1/3")], [sqrt23.parse("w1 - 1"), 1])
    evals = []
    monkeypatch.setattr(riesz, "ft_indicator",
                        lambda region, t: evals.append(len(t)) or ft_indicator(region, t))
    two_piece = parse_region_literal(sqrt2, DUALITY_REGION)
    assert np.array_equal(gram_matrix(primal, two_piece), _gram_reference(primal, two_piece))
    # a Meyer set: its differences repeat, and each distinct one is evaluated once
    assert len(primal) == 200 and sum(evals) < len(primal) ** 2 / 20
    one_piece = parse_region_literal(sqrt2, "[0,-1+1*w1)")
    assert np.array_equal(riesz._spectral_gram(primal.coords, one_piece),
                          _kernel_reference(primal, one_piece))
    plane = sequence_points(alpha, alpha, [(-6, 6), (-6, 6)])
    assert np.array_equal(gram_matrix(plane, box), _gram_reference(plane, box))
    assert np.array_equal(riesz._spectral_gram(plane.coords, box),
                          _kernel_reference(plane, box))


@pytest.mark.parametrize("rows", [1, 2, 7, None])
def test_real_kernel_direct_matches_dedupe_bits(sqrt2, monkeypatch, rows):
    # the real kernel evaluates every difference of a row block; its bits must
    # be those of one evaluation per distinct difference, gathered back, for
    # any number of rows per block (None: the whole triangle in one block)
    s3 = AlgebraSpec.from_sqrt([2, 3, 5])
    w1 = sqrt2.basis_element("w1")
    a2 = [s3.basis_element("w1"), s3.basis_element("w2")]
    a3 = [*a2, s3.basis_element("w3")]
    cases = [
        (special_quasicrystal([w1], [sqrt2.one()], parse_region_literal(sqrt2, "[0,1)"),
                              [(-60, 60)]), parse_region_literal(sqrt2, "[0,-1+1*w1)")),
        (sequence_points(a2, a2, [(-5, 5), (-5, 5)]),
         brs_parallelepiped(a2, [(1, (-1, -1)), (1, (-2, -1))])),
        (sequence_points(a3, a3, [(-2, 2)] * 3),
         brs_parallelepiped(a3, [(1, (-1, -1, -2)), (1, (-2, -1, -2)), (1, (-1, -2, -3))])),
    ]
    for pts, region in cases:
        n = len(pts)
        monkeypatch.setattr(riesz, "_GRAM_BLOCK", n * (rows or n))
        got = riesz._spectral_gram(pts.coords, region)
        assert got.tobytes() == _kernel_reference(pts, region, dedupe=True).tobytes()


def test_gram_covariance_scaling(sqrt2):
    # Gram of (A Lambda) on A^{-T} S equals |det A|^{-1} Gram(Lambda) on S
    seq = sequence_points([sqrt2.basis_element("w1")], [sqrt2.one()],
                          [(-25, 25)])
    region = parse_region_literal(sqrt2, "[0,-1+1*w1) U [1,3-1*w1)")
    g = gram_matrix(seq, region)
    a = np.array([[2.0]])
    seq2 = transform_pointset(seq, a)
    region2 = transform_region(region, [["1/2"]])
    g2 = gram_matrix(seq2, region2)
    assert np.abs(g2 - 0.5 * g).max() < 1e-9
    lo, _ = extreme_eigs(g)
    lo2, _ = extreme_eigs(g2)
    assert abs(lo2 - 0.5 * lo) < 1e-9


def test_gram_covariance_two_dim(sqrt23):
    alpha = [sqrt23.basis_element("w1"), sqrt23.basis_element("w2")]
    seq = sequence_points(alpha, alpha, [(-3, 3), (-3, 3)])
    region = box_region(sqrt23, [0, 0], [1, 1])
    g = gram_matrix(seq, region)
    a = np.array([[2.0, 1.0], [0.0, 1.0]])  # det 2
    seq2 = transform_pointset(seq, a)
    inv_t = np.linalg.inv(a).T
    region2 = transform_region(
        region, [[str(__import__("fractions").Fraction(x).limit_denominator(10**9))
                  for x in row] for row in inv_t]
    )
    g2 = gram_matrix(seq2, region2)
    assert np.abs(g2 - g / 2.0).max() < 1e-9


def test_delta_three_term_bound(sqrt2):
    # sup |delta_j| <= R + max|s_n - n mes|/mes + max block size/mes
    w1 = sqrt2.basis_element("w1")
    region = parse_region_literal(sqrt2, "[0,-1+1*w1) U [1,3-1*w1)")
    pts = dual_model_points([w1], [sqrt2.one()], region, (-400, 400))
    enum = enumerate_blocks(pts)
    mes = float(region.volume())
    ds = delta_sequence(enum, region.volume())
    r_data = float(np.abs(pts.values - np.array([p[-1] for p in pts.provenance])).max())
    ns = np.arange(enum.n_lo, enum.n_hi + 2)
    ramp_dev = float(np.abs(enum.s - ns * mes).max())
    bound = r_data + ramp_dev / mes + np.diff(enum.s).max() / mes
    assert np.abs(ds.deltas).max() <= bound + 1e-9


def test_duality_experiment_basis_regime(sqrt2):
    w1 = sqrt2.basis_element("w1")
    window = parse_region_literal(sqrt2, "(-1,0]")
    region = parse_region_literal(sqrt2, "[0,-1+1*w1) U [1,3-1*w1)")
    rep = duality_experiment([w1], [sqrt2.one()], window, region,
                             [10.0, 20.0], n_max=16, k_bound=300)
    assert rep.measures_match and rep.length_is_admissible
    assert rep.warning is None
    assert rep.dual_verdict.satisfied
    assert rep.primal.rows[-1][2] > 1e-4
    assert rep.dual.rows[-1][2] > 1e-4


def test_duality_experiment_growth_regime(sqrt2):
    w1 = sqrt2.basis_element("w1")
    window = parse_region_literal(sqrt2, "(-1,0]")
    region = parse_region_literal(sqrt2, "[0,1/2) U [1,3/2)")
    rep = duality_experiment([w1], [sqrt2.one()], window, region,
                             [10.0, 20.0], n_max=16, k_bound=300)
    good = parse_region_literal(sqrt2, "[0,-1+1*w1) U [1,3-1*w1)")
    rep_good = duality_experiment([w1], [sqrt2.one()], window, good,
                                  [10.0, 20.0], n_max=16, k_bound=300)
    # primal floor decays relative to the certified region
    assert rep.primal.rows[-1][2] < rep_good.primal.rows[-1][2]
    # and the orbit statistic grows where the certified one stays bounded
    a = w1
    grow = brs_empirical(region, a, 30000, 1000)
    stay = brs_empirical(good, a, 30000, 1000)
    assert grow.value > stay.value


def test_duality_experiment_refuses_a_check_with_no_window_first(sqrt2, monkeypatch):
    # n_max < 1 and k_bound < 0 leave the averaged-perturbation check no
    # window; they are refused before either point set or trace is built
    calls = []
    trace = riesz.riesz_bound_trace

    def counting(*args, **kwargs):
        calls.append(args)
        return trace(*args, **kwargs)

    monkeypatch.setattr(riesz, "riesz_bound_trace", counting)
    w1 = sqrt2.basis_element("w1")
    window = parse_region_literal(sqrt2, "(-1,0]")
    region = parse_region_literal(sqrt2, "[0,-1+1*w1) U [1,3-1*w1)")
    for kwargs, msg in (({"n_max": 0}, "n_max must be at least 1"),
                        ({"k_bound": -5}, r"k_range \(5, -5\) holds no window")):
        with pytest.raises(PreconditionError, match=msg):
            duality_experiment([w1], [sqrt2.one()], window, region, [5.0, 10.0], **kwargs)
    assert calls == []


def test_duality_experiment_checks_every_window_before_the_traces(sqrt2, monkeypatch):
    # mes S = 1/100: the dual range is padded by the measure itself, so the
    # check gets every delta_j with |j| <= k_bound + n_max
    w1 = sqrt2.basis_element("w1")
    thin = parse_region_literal(sqrt2, "[0,1/100)")
    seen, check = [], riesz.avdonin_check
    monkeypatch.setattr(riesz, "avdonin_check", lambda ds, *a: seen.append(ds) or check(ds, *a))
    rep = duality_experiment([w1], [sqrt2.one()], thin, thin, [10.0, 20.0],
                             n_max=16, k_bound=2000)
    assert rep.dual_verdict.k_range == (-2000, 2000)
    assert seen[0].js[0] <= -2016 and seen[0].js[-1] >= 2016
    # a refused check costs no trace
    calls = []
    monkeypatch.setattr(riesz, "riesz_bound_trace", lambda *a, **k: calls.append(a))

    def refuse(*args):
        raise PreconditionError("refused")

    monkeypatch.setattr(riesz, "avdonin_check", refuse)
    with pytest.raises(PreconditionError, match="refused"):
        duality_experiment([w1], [sqrt2.one()], thin, thin, [10.0], n_max=4, k_bound=10)
    assert calls == []


@pytest.mark.parametrize("window", ["[5,6)", "[-6,-5)"])
def test_duality_primal_reach_comes_from_the_window_endpoints(sqrt2, window):
    # a point is m - beta * p with p in the window, so a window far from 0
    # needs m up to R + |beta| max|p|
    w1 = sqrt2.basis_element("w1")
    win = parse_region_literal(sqrt2, window)
    region = parse_region_literal(sqrt2, "[0,1)")
    rep = duality_experiment([w1], [sqrt2.one()], win, region, [10.0, 20.0],
                             n_max=16, k_bound=300)
    wide = special_quasicrystal([w1], [sqrt2.one()], win, [(-60, 60)])
    norms = np.abs(wide.coords).max(axis=1)
    assert [row[1] for row in rep.primal.rows] == [int((norms <= r).sum()) for r in (10, 20)]


def test_duality_experiment_measure_mismatch_warns(sqrt2):
    w1 = sqrt2.basis_element("w1")
    window = parse_region_literal(sqrt2, "(-1,0]")
    region = interval(sqrt2.zero(), sqrt2.parse("3/4"))
    rep = duality_experiment([w1], [sqrt2.one()], window, region,
                             [5.0, 10.0], n_max=8, k_bound=100)
    assert not rep.measures_match
    assert rep.warning is not None
    assert len(rep.primal.rows) == 2 and len(rep.dual.rows) == 2
