import decimal
import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from quasilab import regions
from quasilab.algebra import (
    RATIONAL, AlgebraSpec, QValue, admissible_decomposition, exact_det, mat_inverse, mat_vec,
    parse_algebra,
)
from quasilab.dynamics import DiscrepancyTrace, brs_empirical, discrepancy_trace, orbit_hits
from quasilab.errors import (
    AlgebraMismatchError, PreconditionError, SearchExhaustedError, SignUndecidableError,
)
from quasilab.lattice import transform_region
from quasilab.modelset import (
    PointSet, dual_model_points, periodic_dual, periodic_points, special_quasicrystal,
)
from quasilab.regions import (
    Piece,
    RegionSet,
    box_region,
    brs_parallelepiped,
    check_disjoint,
    construct_brs_between,
    ft_indicator,
    interval,
    make_certificate,
    multiplicity,
    parse_region_literal,
    realize_measure,
    region_from_text,
    region_to_text,
    union,
    verify_equidecomposition,
)
from quasilab.riesz import DualityReport, duality_experiment


def quad_ft_box(lows, highs, t):
    """Independent oracle: per-axis adaptive quadrature of the transform."""
    val = 1.0 + 0.0j
    for lo, hi, ti in zip(lows, highs, t):
        re, _ = scipy.integrate.quad(
            lambda x: math.cos(2 * math.pi * ti * x), lo, hi, epsabs=1e-10
        )
        im, _ = scipy.integrate.quad(
            lambda x: -math.sin(2 * math.pi * ti * x), lo, hi, epsabs=1e-10
        )
        val *= re + 1j * im
    return val


def test_volume_and_multiplicity(sqrt2):
    s = interval(sqrt2.zero(), sqrt2.parse("3/2"))
    assert s.volume() == sqrt2.parse("3/2")
    assert multiplicity(s, [0.25]) == 2
    cube = box_region(sqrt2, [0, 0], [1, 1])
    assert cube.volume() == sqrt2.one()


def test_parallelepiped_volume(sqrt23):
    w1, w2 = sqrt23.basis_element("w1"), sqrt23.basis_element("w2")
    p = RegionSet(2, [Piece(
        (sqrt23.zero(), sqrt23.zero()),
        ((w1, sqrt23.zero()), (w2, sqrt23.one())),
    )])
    assert p.volume() == w1


def test_semi_closed_conventions(sqrt2):
    left = interval(sqrt2.zero(), sqrt2.one(), left_closed=True)
    assert left.contains((sqrt2.zero(),))
    assert not left.contains((sqrt2.one(),))
    right = interval(sqrt2.zero(), sqrt2.one(), left_closed=False)
    assert not right.contains((sqrt2.zero(),))
    assert right.contains((sqrt2.one(),))


def test_window_literal_rejects_closed(sqrt2):
    with pytest.raises(PreconditionError, match="semi-closed"):
        parse_region_literal(sqrt2, "[0,1]")
    r = parse_region_literal(sqrt2, "[0,1]", allow_closed=True)
    assert r.volume() == sqrt2.one()


def test_ft_at_zero_is_volume(sqrt2):
    s = union(interval(sqrt2.zero(), sqrt2.parse("1/2")),
              interval(sqrt2.one(), sqrt2.parse("7/4")))
    assert abs(ft_indicator(s, 0.0) - float(s.volume())) < 1e-14


def test_ft_unit_interval_values(sqrt2):
    s = interval(sqrt2.zero(), sqrt2.one())
    assert abs(abs(ft_indicator(s, 0.5)) - 2 / math.pi) < 1e-12
    for k in (1, 2, 5):
        assert abs(ft_indicator(s, float(k))) < 1e-12


def test_ft_matches_quadrature_random_boxes(sqrt2, rng):
    for _ in range(20):
        d = int(rng.integers(1, 4))
        lows = rng.uniform(-2, 1, size=d)
        highs = lows + rng.uniform(0.1, 2.0, size=d)
        t = rng.uniform(-1, 1, size=d)
        t *= min(1.0, 10.0 / max(1e-9, np.linalg.norm(t)))
        region = box_region(sqrt2, [float(x) for x in lows],
                            [float(x) for x in highs])
        mine = ft_indicator(region, t if d > 1 else float(t[0]))
        oracle = quad_ft_box(lows, highs, t)
        assert abs(mine - oracle) < 1e-6


def test_ft_matches_2d_nquad(sqrt2, rng):
    # spot-check the unfactorized 2-D integral as well
    for _ in range(3):
        lows = rng.uniform(-1, 0.5, size=2)
        highs = lows + rng.uniform(0.2, 1.5, size=2)
        t = rng.uniform(-3, 3, size=2)
        region = box_region(sqrt2, [float(x) for x in lows],
                            [float(x) for x in highs])

        def re_f(y, x):
            return math.cos(2 * math.pi * (t[0] * x + t[1] * y))

        def im_f(y, x):
            return -math.sin(2 * math.pi * (t[0] * x + t[1] * y))

        re, _ = scipy.integrate.nquad(
            re_f, [[lows[1], highs[1]], [lows[0], highs[0]]])
        im, _ = scipy.integrate.nquad(
            im_f, [[lows[1], highs[1]], [lows[0], highs[0]]])
        assert abs(ft_indicator(region, t) - (re + 1j * im)) < 1e-6


def test_brs_parallelepiped_hecke_interval(sqrt2):
    w1 = sqrt2.basis_element("w1")
    p = brs_parallelepiped([w1], [(1, (-1,))])
    assert p.volume() == w1 - 1
    assert p.pieces[0].witnesses == ((1, (-1,)),)


def test_brs_parallelepiped_two_dim(sqrt23):
    w1, w2 = sqrt23.basis_element("w1"), sqrt23.basis_element("w2")
    p = brs_parallelepiped([w1, w2], [(1, (0, 0)), (0, (0, 1))])
    assert p.volume() == w1
    unit = brs_parallelepiped([w1, w2], [(0, (1, 0)), (0, (0, 1))])
    assert unit.volume() == sqrt23.one()
    with pytest.raises(PreconditionError, match="degenerate"):
        brs_parallelepiped([w1, w2], [(1, (0, 0)), (2, (0, 0))])


@pytest.mark.parametrize("build", [
    lambda w1: brs_parallelepiped([w1], [(1, (0, 5))]),
    lambda w1: brs_parallelepiped([w1], [(1, ())]),
    lambda w1: Piece((0,), ((w1,),), ((1, (0,)), (2, (1,)))),
], ids=["two_m", "no_m", "two_witnesses"])
def test_every_construction_refuses_a_wrong_witness_shape(sqrt2, build):
    # the region reader's rule, kept by Piece: the first built a region whose
    # text the reader refused, the second raised IndexError, and the third
    # wrote back "witness = 1: 0 / 2: 1"
    with pytest.raises(PreconditionError,
                       match=r"^a 1-D piece takes 1 witnesses 'n: m', each with 1 m$"):
        build(sqrt2.basis_element("w1"))


def test_realize_measure_of_a_rational_gamma_writes_alphas_algebra(sqrt2):
    # the edge is built from alpha and the witness, so the text declares
    # alpha's algebra even for a gamma declared as a plain rational
    r = realize_measure([sqrt2.basis_element("w1")], RATIONAL.from_rational(2))
    text = region_to_text(r)
    assert text == "basis w1 = sqrt 2\ndim = 1\npiece offset = 0 | edges = 2 | witness = 0: 2\n"
    assert region_to_text(region_from_text(text)) == text


def test_realize_measure_interval(sqrt2):
    r = realize_measure([sqrt2.basis_element("w1")], sqrt2.parse("2 - 1*w1"))
    lo, hi, lc = r.intervals()[0]
    assert lo == sqrt2.zero() and hi == sqrt2.parse("2 - 1*w1") and lc


def test_realize_measure_two_dim(sqrt23):
    w1, w2 = sqrt23.basis_element("w1"), sqrt23.basis_element("w2")
    r = realize_measure([w1, w2], w1, 2)
    det = r.pieces[0].det()
    assert det == w1 or det == -w1
    assert r.pieces[0].witnesses is not None
    for (n, m) in r.pieces[0].witnesses:
        assert isinstance(n, int) and len(m) == 2
    unit = realize_measure([w1, w2], sqrt23.one(), 2)
    assert unit.volume() == sqrt23.one()


def test_realize_measure_errors(sqrt23):
    w1, w2 = sqrt23.basis_element("w1"), sqrt23.basis_element("w2")
    with pytest.raises(PreconditionError, match="integer combination"):
        realize_measure([w1, w2], sqrt23.parse("1/2"))
    with pytest.raises(SearchExhaustedError):
        realize_measure([w1, w2], sqrt23.parse("5*w1"), 1)


_SQRT235 = AlgebraSpec.from_sqrt([2, 3, 5])


@settings(max_examples=80)
@given(d=st.integers(1, 3), data=st.data())
def test_witness_minor_coefficients_match_exact_det(d, data):
    # a minor of the edge matrix with columns n_j*alpha + m_j is the integer
    # combination c_0 + sum_k c_k*alpha_{rows[k - 1]} that _det_coeffs returns
    alpha = [_SQRT235.basis_element(f"w{i}") for i in range(1, d + 1)]
    entry = st.integers(-3, 3)
    wits = [(data.draw(entry), tuple(data.draw(entry) for _ in range(d))) for _ in range(d)]
    k = data.draw(st.integers(1, d))
    rows = sorted(data.draw(st.permutations(range(d)))[:k])
    chosen = data.draw(st.permutations(range(d)))[:k]
    cols = [tuple(alpha[i] * wits[j][0] + wits[j][1][i] for i in range(d)) for j in chosen]
    coeffs = list(regions._det_coeffs([wits[j] for j in chosen], rows))
    assert all(type(c) is int for c in coeffs) and len(coeffs) == k + 1
    value = sum((c * a for c, a in zip(coeffs[1:], [alpha[i] for i in rows])),
                _SQRT235.from_rational(coeffs[0]))
    assert value == exact_det([[col[i] for col in cols] for i in rows])
    # [W | w_j] repeats a column, W the rows n, m[rows] of the chosen witnesses:
    # its zero determinant is the hyperplane measure_candidates filters on
    for j in chosen:
        n, m = wits[j]
        assert n * coeffs[0] == sum(c * m[i] for c, i in zip(coeffs[1:], rows))


def _candidates_reference(alpha, gamma, bound):
    """Every d-subset of the candidate edges, in order, whose exact determinant is +-gamma."""
    d = len(alpha)
    seq = [0] + [v for b in range(1, bound + 1) for v in (b, -b)]
    cands = [(t[0], t[1:]) for t in itertools.product(seq, repeat=d + 1) if any(t)]
    zero = tuple(gamma.spec.zero() for _ in range(d))
    for combo in itertools.combinations(cands, d):
        edges = tuple(tuple(alpha[i] * n + m[i] for n, m in combo) for i in range(d))
        if exact_det(edges) in (gamma, -gamma):
            yield region_to_text(RegionSet(d, [Piece(zero, edges, combo)]))


@pytest.mark.parametrize("gens, bound, gamma, first", [
    pytest.param("sqrt:2,3", b, g, f, id=f"{b}-{g}-{f}") for b, g, f in [
        (1, "w1", None), (1, "1", None), (1, "1 + w1 - w2", None), (1, "5*w1", None),
        (2, "w1", 25), (2, "2 - w2", 25), (2, "1 + w1 + w2", 25),
    ]] + [("sqrt:2,3,5", 1, "w2", 10), ("sqrt:2,3,5", 1, "2 + w1 - w2", 10)])
def test_measure_candidates_order_and_completeness(gens, bound, gamma, first):
    # the integer-witness search emits exactly the brute-force hits, in order;
    # in 2-D at bound 1 the whole stream is compared, else its first regions
    spec = parse_algebra(gens)
    alpha = [spec.basis_element(f"w{i}") for i in range(1, gens.count(",") + 2)]
    g = spec.parse(gamma)
    got = [region_to_text(r) for r in itertools.islice(
        regions.measure_candidates(alpha, g, bound), first)]
    want = list(itertools.islice(_candidates_reference(alpha, g, bound), first))
    assert got == want and (gamma == "5*w1") == (got == [])


def test_measure_candidates_refuses_a_dependent_alpha(sqrt23):
    w1, w2 = sqrt23.basis_element("w1"), sqrt23.basis_element("w2")
    with pytest.raises(PreconditionError, match="dependent"):
        next(iter(regions.measure_candidates([w1, 2 * w1], w1, 1)))
    assert list(regions.measure_candidates([w1, 2 * w1], w2, 1)) == []
    for alpha in ([w1], [w1, w2]):  # gamma = 0 has the all-zero decomposition
        with pytest.raises(PreconditionError, match="nonzero"):
            next(iter(regions.measure_candidates(alpha, sqrt23.zero(), 1)))
    assert next(iter(regions.measure_candidates([w1, w2], -w1, 1))).volume() == w1


def test_realize_measure_three_dim():
    alpha = [_SQRT235.basis_element(f"w{i}") for i in (1, 2, 3)]
    gamma = _SQRT235.parse("1 + w1")
    t0 = time.perf_counter()
    r = realize_measure(alpha, gamma, 1)
    assert time.perf_counter() - t0 < 5.0
    piece = r.pieces[0]
    assert piece.det() in (gamma, -gamma) and r.volume() == gamma
    assert piece.edges == tuple(tuple(alpha[i] * n + m[i] for n, m in piece.witnesses)
                                for i in range(3))


@pytest.mark.parametrize("gens, epsilon, want", [
    ([2, 3], 0.3, [41, 157]),  # n = 82 and 123 are short too: 2 and 3 times n = 41
    ([2, 3, 5], 0.6, [123, 157, 343]),  # n = 280 is short too: the sum of 123 and 157
])
def test_tile_edges_skip_dependent_candidates(gens, epsilon, want):
    spec = AlgebraSpec.from_sqrt(gens)
    alpha = [spec.basis_element(f"w{i}") for i in range(1, len(gens) + 1)]
    assert [n for (n, _), _ in regions._tile_edges(alpha, epsilon, 400)] == want


def test_certificate_valid_pair(sqrt2):
    w1 = sqrt2.basis_element("w1")
    source = union(interval(sqrt2.zero(), w1 - 1),
                   interval(sqrt2.one(), sqrt2.parse("3 - 1*w1")))
    target = union(interval(sqrt2.zero(), w1 - 1),
                   interval(w1 - 1, sqrt2.one()))
    cert = make_certificate([w1], source, target,
                            [[sqrt2.zero()], [w1 - 2]])
    assert verify_equidecomposition(cert).ok
    assert source.volume() == target.volume() == sqrt2.one()


def test_certificate_identity(sqrt2):
    w1 = sqrt2.basis_element("w1")
    s = interval(sqrt2.zero(), w1 - 1)
    cert = make_certificate([w1], s, s, [[sqrt2.zero()]])
    assert verify_equidecomposition(cert).ok


def test_certificate_takes_int_and_fraction_shifts(sqrt2):
    # ints and Fractions are rationals: they lift into the regions' algebra
    w1 = sqrt2.basis_element("w1")
    s = interval(sqrt2.zero(), w1 - 1)
    cert = make_certificate([w1], s, s.translate([1]), [[1]])
    assert verify_equidecomposition(cert).ok and cert.witnesses == ((0, (1,)),)
    half = Fraction(1, 2)
    verdict = verify_equidecomposition(make_certificate([w1], s, s.translate([half]), [[half]]))
    assert not verdict.ok and "Z*alpha" in verdict.reason


def test_certificate_bad_shift_named(sqrt2):
    w1 = sqrt2.basis_element("w1")
    half = sqrt2.parse("1/2")
    source = interval(sqrt2.zero(), half)
    target = interval(half, sqrt2.one())
    cert = make_certificate([w1], source, target, [[half]])
    verdict = verify_equidecomposition(cert)
    assert not verdict.ok
    assert "1/2" in verdict.reason and "Z*alpha" in verdict.reason


def test_certificate_mismatch_detected(sqrt2):
    w1 = sqrt2.basis_element("w1")
    source = interval(sqrt2.zero(), w1 - 1)
    target = interval(sqrt2.one(), w1)  # same edge, wrong offset for shift 0
    cert = make_certificate([w1], source, target, [[sqrt2.zero()]])
    verdict = verify_equidecomposition(cert)
    assert not verdict.ok and "offset" in verdict.reason


def test_certificate_refuses_unequal_counts_edges_and_a_wrong_witness(sqrt2):
    w1, zero, one = sqrt2.basis_element("w1"), sqrt2.zero(), sqrt2.one()
    s = interval(zero, w1 - 1)
    two = union(s, interval(one, sqrt2.parse("3 - 1*w1")))
    verdict = verify_equidecomposition(make_certificate([w1], two, s, [[zero], [zero]]))
    assert verdict.reason == "piece/shift counts differ: 2 vs 1 vs 2 shifts"
    half = interval(zero, sqrt2.parse("1/2"))
    verdict = verify_equidecomposition(make_certificate([w1], s, half, [[zero]]))
    assert verdict.reason == "piece 0: edge matrices differ"
    # a certificate built by hand whose witness 0*alpha + 2 is not the shift 1
    cert = regions.EquidecompCertificate((w1,), s, s.translate([1]), ((one,),), ((0, (2,)),))
    verdict = verify_equidecomposition(cert)
    assert verdict.reason == "piece 0: stored witness does not reproduce the shift"
    assert verify_equidecomposition(
        regions.EquidecompCertificate((w1,), s, s.translate([1]), ((one,),), ((0, (1,)),))).ok


def test_construct_brs_between_interval(sqrt2):
    w1 = sqrt2.basis_element("w1")
    k = parse_region_literal(sqrt2, "[1/10,2/5]", allow_closed=True)
    u = parse_region_literal(sqrt2, "(0,1)", allow_closed=True)
    s = construct_brs_between([w1], k, u, w1 - 1, 0.05, tile_bound=50)
    assert s.volume() == w1 - 1
    ivs = sorted(((float(a), float(b)) for a, b, _ in s.intervals()))
    # contiguous pieces forming one interval that contains K inside U
    for (a0, b0), (a1, b1) in zip(ivs, ivs[1:]):
        assert abs(b0 - a1) < 1e-12
    assert ivs[0][0] > 0 and ivs[-1][1] < 1
    assert ivs[0][0] <= 0.1 and ivs[-1][1] >= 0.4
    for p in s.pieces:
        assert p.witnesses is not None
    assert check_disjoint(s) == []


def test_construct_brs_between_exact_tile_union(sqrt2):
    # gamma equal to a whole number of tiles: no residual piece
    w1 = sqrt2.basis_element("w1")
    ell = sqrt2.parse("17 - 12*w1")  # the first orbit vector below 0.045
    k = parse_region_literal(sqrt2, "[1/10,11/100]", allow_closed=True)
    u = parse_region_literal(sqrt2, "(0,1)", allow_closed=True)
    s = construct_brs_between([w1], k, u, 3 * ell, 0.045, tile_bound=50)
    assert s.volume() == 3 * ell
    assert len(s.pieces) == 3
    assert all(p.edges == s.pieces[0].edges for p in s.pieces)


def test_construct_brs_between_two_dim(sqrt23):
    # the deterministic tile scan at epsilon = 0.9 picks the orbit vectors
    # for n = 7 and n = 12; their span has exact volume 6 - 3 sqrt2 - sqrt3
    from quasilab.algebra import mat_inverse, mat_vec

    w1, w2 = sqrt23.basis_element("w1"), sqrt23.basis_element("w2")
    alpha = [w1, w2]
    v1 = (7 * w1 - 10, 7 * w2 - 12)
    v2 = (12 * w1 - 17, 12 * w2 - 21)
    edges = ((v1[0], v2[0]), (v1[1], v2[1]))
    tile_vol = sqrt23.parse("6 - 3*w1 - 1*w2")
    k = box_region(sqrt23, ["0.9", "0.9"], ["1.1", "1.1"])
    u = box_region(sqrt23, [-1, -1], [3, 3])
    # replicate the box cover of K in tile coordinates to pick a target
    # measure that needs two whole free tiles and no residual
    inv = mat_inverse(edges)
    coords = [mat_vec(inv, list(c)) for c in k.pieces[0].corners()]
    count = 1
    for i in range(2):
        lo = min(c[i].floor() for c in coords)
        hi = max(c[i].floor() for c in coords)
        count *= hi - lo + 1
    gamma = tile_vol * (count + 2)
    s = construct_brs_between(alpha, k, u, gamma, 0.9, tile_bound=500)
    assert s.volume() == gamma
    assert len(s.pieces) == count + 2
    assert all(p.witnesses == ((7, (-10, -12)), (12, (-17, -21)))
               for p in s.pieces)
    for corner in k.pieces[0].corners():
        assert s.contains(corner, closure=True)


def test_construct_brs_between_two_dim_fitting_surfaced(sqrt23):
    # a generic admissible measure leaves a residual the bounded fitting
    # search cannot realize; the failure must surface, not be masked
    w1, w2 = sqrt23.basis_element("w1"), sqrt23.basis_element("w2")
    k = box_region(sqrt23, ["0.9", "0.9"], ["1.1", "1.1"])
    u = box_region(sqrt23, [-1, -1], [3, 3])
    gamma = sqrt23.parse("10 - 4*w1 - 2*w2")  # ~0.88
    with pytest.raises(SearchExhaustedError, match="residual fitting"):
        construct_brs_between([w1, w2], k, u, gamma, 0.9, tile_bound=500)


def test_construct_brs_between_preconditions(sqrt2):
    w1 = sqrt2.basis_element("w1")
    k = parse_region_literal(sqrt2, "[1/10,2/5]", allow_closed=True)
    u = parse_region_literal(sqrt2, "(0,1)", allow_closed=True)
    with pytest.raises(PreconditionError, match="integer combination"):
        construct_brs_between([w1], k, u, sqrt2.parse("2/5"), 0.05)
    with pytest.raises(PreconditionError, match="mes K < gamma"):
        construct_brs_between([w1], k, u, sqrt2.parse("3 - 1*w1"), 0.05)
    poking_k = parse_region_literal(sqrt2, "[-1/10,1/10]", allow_closed=True)
    with pytest.raises(PreconditionError, match="contained"):
        construct_brs_between([w1], poking_k, u, w1 - 1, 0.05)


GAP_U = "(0,9/20) U (1/2,1)"


def _probes_in(region, den, n):
    """The rationals x/den, 0 <= x < n, that lie in a 1-D region (exact)."""
    spec = region.spec
    idx, shift = region.membership.translates(
        (spec.zero(),), [(spec.from_rational(Fraction(1, den)),)], np.arange(n)[:, None])
    return [Fraction(int(i), den) for i in idx[shift[:, 0] == 0]]


def test_construct_brs_between_keeps_tiles_inside_one_piece_of_u(sqrt2):
    # at epsilon 0.5 the one tile meeting K is [w1 - 1, 2 w1 - 2), with one
    # corner in each piece of U: it crosses the gap [9/20, 1/2]
    w1 = sqrt2.basis_element("w1")
    k = parse_region_literal(sqrt2, "[21/50,43/100]", allow_closed=True)
    u = parse_region_literal(sqrt2, GAP_U, allow_closed=True)
    with pytest.raises(SearchExhaustedError, match="a tile meeting K leaves the interior of U"):
        construct_brs_between([w1], k, u, w1 - 1, 0.5)
    s = construct_brs_between([w1], k, u, w1 - 1, 0.05)
    probes = _probes_in(s, 2000, 2000)
    assert len(probes) > 500
    assert all(0 < x < Fraction(9, 20) or Fraction(1, 2) < x < 1 for x in probes)


def test_construct_brs_between_takes_k_piece_by_piece(sqrt2):
    # K = [2/5, 3/5] lies in the closure of no single piece of U: it bridges the gap
    w1 = sqrt2.basis_element("w1")
    k = parse_region_literal(sqrt2, "[2/5,3/5]", allow_closed=True)
    u = parse_region_literal(sqrt2, GAP_U, allow_closed=True)
    for eps in (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7):
        with pytest.raises(PreconditionError, match="K is not contained in U"):
            construct_brs_between([w1], k, u, w1 - 1, eps)


def test_construct_brs_between_joins_abutting_pieces_of_u(sqrt2, sqrt23):
    # 1/2 lies in U for the first two unions, which are [0, 1) with its interior
    # (0, 1); the third leaves 1/2 out, so K = [2/5, 3/5] is not inside it
    w1 = sqrt2.basis_element("w1")
    k = parse_region_literal(sqrt2, "[2/5,3/5]", allow_closed=True)
    whole = region_to_text(construct_brs_between(
        [w1], k, parse_region_literal(sqrt2, "[0,1)"), w1 - 1, 0.05))
    for lit in ("[0,1/2) U [1/2,1)", "(0,1/2] U (1/2,1]", "[1/2,1) U [0,1/2)"):
        u = parse_region_literal(sqrt2, lit)
        assert region_to_text(construct_brs_between([w1], k, u, w1 - 1, 0.05)) == whole
    with pytest.raises(PreconditionError, match="K is not contained in U$"):
        construct_brs_between([w1], k, parse_region_literal(sqrt2, "[0,1/2) U (1/2,1]"),
                              w1 - 1, 0.05)
    # an open or closed literal is stored left-closed, which would put 1/2 in U
    # here: it may not touch another piece
    for lit in ("[0,1/2) U (1/2,1)", "(0,1/2) U (1/2,1)", "[0,1/2] U [1/2,1]"):
        with pytest.raises(PreconditionError, match="shares an endpoint with"):
            parse_region_literal(sqrt2, lit, allow_closed=True)
    # in 2-D U is taken piece by piece, and the message says so
    v = [sqrt23.basis_element("w1"), sqrt23.basis_element("w2")]
    halves = union(box_region(sqrt23, [0, 0], [Fraction(1, 2), 1]),
                   box_region(sqrt23, [Fraction(1, 2), 0], [1, 1]))
    k2 = box_region(sqrt23, [Fraction(2, 5)] * 2, [Fraction(3, 5)] * 2)
    with pytest.raises(PreconditionError, match="closure of one piece of U"):
        construct_brs_between(v, k2, halves, sqrt23.parse("10 - 4*w1 - 2*w2"), 0.9)


def _reference_between(alpha, k, u, gamma, epsilon, tile_bound, fit_bound=2):
    """construct_brs_between with every tile corner decided on its own, exactly,
    in the unit coordinates of each piece of U."""
    d = k.dim
    if admissible_decomposition(alpha, gamma) is None:
        raise PreconditionError("target measure is not an integer combination of 1, alpha_i")
    if not ((gamma - k.volume()).sign() > 0 and (u.volume() - gamma).sign() > 0):
        raise PreconditionError("need mes K < gamma < mes U")
    if not all(any(all(up.contains(c, closure=True) for c in p.corners()) for up in u.pieces)
               for p in k.pieces):
        raise PreconditionError("K is not contained in U")
    chosen = regions._tile_edges(alpha, epsilon, tile_bound)
    edges = tuple(tuple(v[i] for _, v in chosen) for i in range(d))
    inv = mat_inverse(edges)
    tile_vol = Piece(edges[0], edges).volume()
    zero = gamma.spec.zero()

    def tile(j):
        off = tuple(sum((edges[i][a] * int(j[a]) for a in range(d)), zero) for i in range(d))
        return Piece(off, edges, tuple(w for w, _ in chosen))

    def inside(j):
        corners = [tile([a + e for a, e in zip(j, eps)]).offset
                   for eps in itertools.product((0, 1), repeat=d)]
        return any(all(0 < t < 1 for x in corners for t in up.frame(x, [])[0]) for up in u.pieces)

    def cover(region, pad):
        coords = [mat_vec(inv, list(c)) for p in region.pieces for c in p.corners()]
        return [range(min(c[i].floor() for c in coords) - pad,
                      max(c[i].floor() for c in coords) + pad + 1) for i in range(d)]

    a_tiles = list(itertools.product(*cover(k, 0)))
    if not all(inside(j) for j in a_tiles):
        raise SearchExhaustedError(
            "a tile meeting K leaves the interior of U; retry with a smaller epsilon")
    mes_a = tile_vol * len(a_tiles)
    if (gamma - mes_a).sign() < 0:
        raise SearchExhaustedError(
            "tiles covering K already exceed the target measure; retry with a smaller epsilon")
    free = [j for j in itertools.product(*cover(u, 1)) if j not in set(a_tiles) and inside(j)]
    if d == 1:
        free = (sorted(j for j in free if j > a_tiles[-1])
                + sorted((j for j in free if j < a_tiles[0]), reverse=True))
    remaining = gamma - mes_a
    k_full = (remaining * tile_vol.inverse()).floor()
    residual = remaining - tile_vol * k_full
    needed = k_full + (0 if residual == 0 else 1)
    if needed > len(free):
        raise SearchExhaustedError(
            f"not enough free tiles inside U ({len(free)} available, {needed} needed); "
            "retry with a smaller epsilon or a larger U")
    pieces = [tile(j) for j in a_tiles + free[:k_full]]
    if residual != 0:
        host = tile(free[k_full]).offset
        for cand in regions.measure_candidates(alpha, residual, fit_bound):
            cp = cand.pieces[0]
            coords = [mat_vec(inv, list(c)) for c in cp.corners()]
            mins = [min(c[i] for c in coords) for i in range(d)]
            if any((max(c[i] for c in coords) - mins[i] - 1).sign() > 0 for i in range(d)):
                continue
            if d == 1 and free[k_full] < a_tiles[0]:  # flush right in a left tile
                off = (host[0] + edges[0][0] - cp.edges[0][0],)
            else:
                off = tuple(host[i] - sum((edges[i][a] * mins[a] for a in range(d)), zero)
                            for i in range(d))
            pieces.append(Piece(off, cp.edges, cp.witnesses))
            break
        else:
            raise SearchExhaustedError(
                "residual fitting search exhausted; retry with a larger fit bound or "
                "smaller epsilon")
    return RegionSet(d, pieces)


def _between_corpus(sqrt2, sqrt23):
    """Seeded inputs with single-piece U: 1-D intervals over Q(sqrt 2), 2-D boxes
    over Q(sqrt 2, sqrt 3) (epsilon 0.9, tile volume 6 - 3 w1 - w2)."""
    r = random.Random(15)
    w1 = sqrt2.basis_element("w1")
    gammas = [w1 - 1, 2 - w1, 3 * w1 - 4, 3 - 2 * w1, 5 * w1 - 7]
    for _ in range(30):
        den = r.choice([10, 20, 50, 100])
        u0 = r.randint(-den, den // 2)
        u1 = u0 + r.randint(den // 2, 2 * den)
        k0 = u0 if r.random() < 0.2 else r.randint(u0, u1 - den // 10 - 1)
        k1 = r.randint(k0 + 1, k0 + den // 10)
        u = f"{r.choice('[(')}{Fraction(u0, den)},{Fraction(u1, den)}{r.choice('])')}"
        yield ([w1], parse_region_literal(sqrt2, f"[{Fraction(k0, den)},{Fraction(k1, den)}]",
                                          allow_closed=True),
               parse_region_literal(sqrt2, u, allow_closed=True),
               r.choice(gammas), r.choice([0.02, 0.05, 0.1, 0.3]), r.choice([50, 200]))
    v1, v2 = sqrt23.basis_element("w1"), sqrt23.basis_element("w2")
    tile_vol = 6 - 3 * v1 - v2
    for _ in range(2):
        lo = [Fraction(r.randint(0, 10), 10) for _ in range(2)]
        hi = [x + Fraction(r.randint(1, 2), 10) for x in lo]
        yield ([v1, v2], box_region(sqrt23, lo, hi),
               box_region(sqrt23, [x - Fraction(1, 2) for x in lo], [x + Fraction(1, 2) for x in hi]),
               r.choice([12 * tile_vol, 20 * tile_vol, 10 - 4 * v1 - 2 * v2]), 0.9, 500)


def test_construct_brs_between_matches_per_corner_reference(sqrt2, sqrt23):
    def outcome(f, *args):
        try:
            return region_to_text(f(*args))
        except (PreconditionError, SearchExhaustedError) as exc:
            return f"{type(exc).__name__}: {exc}"

    seen = set()
    for args in _between_corpus(sqrt2, sqrt23):
        got = outcome(construct_brs_between, *args)
        assert got == outcome(_reference_between, *args)
        seen.add(got if got.endswith(" epsilon") or "Error: " in got[:30] else "ok")
    assert "ok" in seen and len(seen) >= 4  # successes and several refusals


def test_construct_brs_between_large_u_is_fast(sqrt23):
    # U spans about 19,000 tiles; each tile corner is one kernel row per unit cube
    w1, w2 = sqrt23.basis_element("w1"), sqrt23.basis_element("w2")
    k = box_region(sqrt23, ["0.9", "0.9"], ["1.1", "1.1"])
    u = box_region(sqrt23, [-10, -10], [12, 12])
    gamma = 12 * (6 - 3 * w1 - w2)
    t0 = time.perf_counter()
    s = construct_brs_between([w1, w2], k, u, gamma, 0.9, tile_bound=500)
    assert time.perf_counter() - t0 < 5.0
    assert s.volume() == gamma and len(s.pieces) == 12
    assert all(s.contains(c, closure=True) for c in k.pieces[0].corners())


def test_volume_additivity_of_certificates(sqrt2, rng):
    # source and target volumes of a valid certificate are exactly equal
    w1 = sqrt2.basis_element("w1")
    for _ in range(10):
        n = int(rng.integers(1, 4))
        pieces, shifts = [], []
        for i in range(n):
            lo = sqrt2.from_rational(i)
            hi = lo + (w1 - 1)
            pieces.append(interval(lo, hi))
            shift = w1 * int(rng.integers(-3, 4)) + int(rng.integers(-3, 4))
            shifts.append([shift])
        source = union(*pieces)
        target = union(*(p.translate(s) for p, s in zip(pieces, shifts)))
        cert = make_certificate([w1], source, target, shifts)
        assert verify_equidecomposition(cert).ok
        assert source.volume() == target.volume()


def test_region_text_roundtrip(sqrt23):
    w1, w2 = sqrt23.basis_element("w1"), sqrt23.basis_element("w2")
    r = realize_measure([w1, w2], w1, 2)
    again = region_from_text(region_to_text(r))
    assert again.volume() == r.volume()
    assert again.pieces[0].witnesses == r.pieces[0].witnesses
    assert again.pieces[0].edges == r.pieces[0].edges


def test_region_text_roundtrip_of_a_mixed_union(sqrt2):
    # the region's algebra is the join of its pieces, so the rational piece
    # does not decide which algebra lines are written
    w1 = sqrt2.basis_element("w1")
    r = union(interval(RATIONAL.zero(), RATIONAL.parse("1/2")), interval(sqrt2.one(), w1))
    text = region_to_text(r)
    assert r.spec == sqrt2 and text.startswith(sqrt2.to_text())
    again = region_from_text(text)
    assert region_to_text(again) == text and again.describe() == r.describe()


def test_box_region_refuses_an_axis_with_hi_not_above_lo(sqrt2, sqrt23):
    # [1, 0) x [0, 1) was (1, 0) + [0,1)*(-1, 0) + [0,1)*(0, 1), that is (0,1] x [0,1)
    for spec, lows, highs in ((sqrt23, [1, 0], [0, 1]), (sqrt2, [1], [0]),
                              (sqrt23, [0, 1], [1, 1])):
        with pytest.raises(PreconditionError, match="lo < hi on every axis"):
            box_region(spec, lows, highs)


def test_overlap_detection(sqrt2):
    a = interval(sqrt2.zero(), sqrt2.one())
    b = interval(sqrt2.parse("1/2"), sqrt2.parse("3/2"))
    c = interval(sqrt2.one(), sqrt2.parse("2"))
    assert check_disjoint(union(a, b)) == [(0, 1)]
    assert check_disjoint(union(a, c)) == []


def _rational_piece(spec, offset, edges):
    q = spec.from_rational
    return Piece(tuple(q(Fraction(v)) for v in offset),
                 tuple(tuple(q(Fraction(v)) for v in row) for row in edges))


def test_check_disjoint_is_exact_on_sheared_pieces(sqrt2):
    # unit cells sheared by the edge (1, 1), shifted along x; no edge is axis-aligned
    def cell(x0):
        return RegionSet(2, [_rational_piece(sqrt2, (x0, 0), ((1, 1), (0, 1)))])

    strip = union(cell(0), cell(1 - Fraction(1, 10**10)))  # overlap 1e-10 wide
    assert check_disjoint(strip) == [(0, 1)]
    assert check_disjoint(union(cell(0), cell(1))) == []  # the cells only touch


def _clipped_area(p, q):
    """Exact area of the intersection of two 2-D pieces with rational entries:
    p's corner polygon clipped by the four half-planes of q."""
    def vec(v):
        return [c.coeffs[0] for c in v]

    o_p, o_q = vec(p.offset), vec(q.offset)
    e = [vec(col) for col in p.edge_columns()]
    poly = [(o_p[0] + a * e[0][0] + b * e[1][0], o_p[1] + a * e[0][1] + b * e[1][1])
            for a, b in ((0, 0), (1, 0), (1, 1), (0, 1))]
    for row in q.inverse:
        r = vec(row)
        for f in (lambda x: r[0] * (x[0] - o_q[0]) + r[1] * (x[1] - o_q[1]),
                  lambda x: 1 - r[0] * (x[0] - o_q[0]) - r[1] * (x[1] - o_q[1])):
            out = []
            for a, b in zip(poly, poly[1:] + poly[:1]):
                fa, fb = f(a), f(b)
                if fa >= 0:
                    out.append(a)
                if fa * fb < 0:
                    t = fa / (fa - fb)
                    out.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
            poly = out
    return abs(sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(poly, poly[1:] + poly[:1]))) / 2


def test_check_disjoint_matches_exact_clipping(sqrt2):
    # random sheared pairs with small rational data: many overlap, many touch
    r = random.Random(7)
    verdicts = []
    for _ in range(150):
        pieces = []
        for _ in range(2):
            while True:
                e = [[Fraction(r.randint(-4, 4), 2) for _ in range(2)] for _ in range(2)]
                if e[0][0] * e[1][1] != e[0][1] * e[1][0] and (e[0][1] or e[1][0]):
                    break
            pieces.append(_rational_piece(sqrt2, [Fraction(r.randint(-4, 4), 2)] * 2, e))
        overlap = check_disjoint(RegionSet(2, pieces)) == [(0, 1)]
        assert overlap == (_clipped_area(*pieces) > 0)
        verdicts.append(overlap)
    assert 20 < sum(verdicts) < 130


def test_check_disjoint_uses_edge_cross_products_in_3d(sqrt2):
    # no face normal of either piece separates them; the cross product of an
    # edge of each does, with a gap
    p = _rational_piece(sqrt2, (0, 0, 0), ((0, 2, -2), (-2, -2, -2), (0, 0, 1)))
    q = _rational_piece(sqrt2, (-1, -1, 0), ((1, -1, -2), (2, 0, -2), (2, -1, -1)))
    assert check_disjoint(RegionSet(3, [p, q])) == []
    moved = _rational_piece(sqrt2, (1, -3, Fraction(1, 2)),  # q centred on p's centre
                            ((1, -1, -2), (2, 0, -2), (2, -1, -1)))
    assert check_disjoint(RegionSet(3, [p, moved])) == [(0, 1)]


def _kernel_batches(sqrt2, sqrt23, block):
    """(region, base, gens, coeffs) batches of the membership kernel, the last
    one empty and the others spanning several blocks of the given size."""
    w1, zero = sqrt2.basis_element("w1"), (sqrt2.zero(),)
    irr = parse_region_literal(sqrt2, "[0,-1+1*w1)")
    n = 2 * block + 40
    out = []
    # orbit point k_hit is the endpoint 1/2, or sqrt2 = (sqrt2 - 1) + 1, and
    # it is the first row of the second block
    for region, x0, k_hit in ((parse_region_literal(sqrt2, "[0,1/2)"), "1/2 - 3*w1", 3),
                              (parse_region_literal(sqrt2, "(0,1/2]"), "1/2 - 3*w1", 3),
                              (irr, "0", 1)):
        ks = np.arange(k_hit - block, k_hit - block + n)[:, None]
        out.append((region, (sqrt2.parse(x0),), [(w1,)], ks))
    # small and k ~ 1e15 magnitudes interleaved: each block's guard must cover its largest
    huge = np.column_stack([np.arange(20), 10**15 + np.arange(20)]).reshape(-1, 1)
    out.append((irr, zero, [(w1,)], huge))
    alpha = (sqrt23.basis_element("w1"), sqrt23.basis_element("w2"))
    for upper in (("w1 - 1", "1"), ("1", "w1 - 1")):  # as test_two_dim_discrepancy_pair
        box = box_region(sqrt23, [0, 0], [sqrt23.parse(u) for u in upper])
        out.append((box, (sqrt23.zero(),) * 2, [alpha], np.arange(n)[:, None]))
    out.append((irr, zero, [(w1,)], np.zeros((0, 1), dtype=np.int64)))
    return out


@pytest.mark.parametrize("block", [1, 7, regions._BLOCK])
def test_membership_blocks_are_bit_identical(sqrt2, sqrt23, monkeypatch, block):
    w1 = sqrt2.basis_element("w1")
    irr, unit = parse_region_literal(sqrt2, "[0,-1+1*w1)"), parse_region_literal(sqrt2, "[0,1)")
    box = [(-block - 20, block + 20)]

    def run():
        batches = [(r.membership.count(*b), *r.membership.translates(*b))
                   for r, *b in _kernel_batches(sqrt2, sqrt23, block)]
        return batches + [(p.coords, p.provenance) for p in (
            periodic_points([w1], irr, box), special_quasicrystal([w1], [sqrt2.one()], unit, box))]

    monkeypatch.setattr(regions, "_BLOCK", 1 << 40)  # the whole batch as one block
    whole = run()
    monkeypatch.setattr(regions, "_BLOCK", block)
    for want, got in zip(whole, run(), strict=True):
        for a, b in zip(want, got, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    empty = whole[-3]  # the last kernel batch, before the two point sets
    assert [a.shape for a in empty] == [(0,), (0,), (0, 1)]
    assert empty[0].dtype == np.int64


@pytest.mark.parametrize("lit, at_left, at_right", [("[0,-1+1*w1)", 1, 0), ("(0,-1+1*w1]", 0, 1)])
def test_membership_decides_endpoint_hits_on_either_float_side(sqrt2, lit, at_left, at_right):
    # x0 = e - K*sqrt2 puts orbit point K exactly on the endpoint e; for e = sqrt2 - 1
    # its float lands above e for 266 and below it for 132 of K = 1..399
    w1 = sqrt2.basis_element("w1")
    kernel = parse_region_literal(sqrt2, lit).membership
    for e, want in ((sqrt2.zero(), at_left), (w1 - 1, at_right)):
        got = {int(kernel.count((e - w1 * K,), [(w1,)], [[K]])[0]) for K in range(1, 400)}
        assert got == {want}


@pytest.mark.parametrize("block", [1, 7, regions._BLOCK])
def test_membership_refusal_is_decided_on_the_whole_batch(sqrt2, monkeypatch, block):
    monkeypatch.setattr(regions, "_BLOCK", block)
    w1 = sqrt2.basis_element("w1")
    kernel = parse_region_literal(sqrt2, "[0,1/2)").membership
    base, gens = (sqrt2.zero(),), [(w1,), (w1,)]
    # each column maximum alone stays below 2^62, and they lie in different blocks
    c = np.zeros((2 * block, 2), dtype=np.int64)
    c[0, 0] = c[-1, 1] = 2**61
    for row in (0, -1):  # either row alone is accepted
        assert kernel.count(base, gens, c[[row]]).shape == (1,)
    for call in (kernel.count, kernel.translates):
        with pytest.raises(PreconditionError, match="beyond the int64 range"):
            call(base, gens, c)


@pytest.mark.parametrize("call, match", [
    (lambda s: parse_region_literal(s, "[0,1/2)").contains((Fraction(1, 4), 7)),
     "another length for a 1-D piece"),
    (lambda s: parse_region_literal(s, "[0,1/2)").translate((Fraction(1, 4), 9)),
     "translate of length 2 for a 1-D region"),
    (lambda s: multiplicity(box_region(s, [0, 0], [1, 1]), (Fraction(1, 4),)), "batch in 2-D"),
    (lambda s: parse_region_literal(s, "[0,1/2)").membership.count(
        (0,), [(s.basis_element("w1"),) * 2], np.zeros((3, 1), dtype=np.int64)), "batch in 1-D"),
    (lambda s: parse_region_literal(s, "[0,1/2)").membership.count(
        (0,), [(s.basis_element("w1"),)], np.zeros((3, 2), dtype=np.int64)), "batch in 1-D"),
], ids=["contains", "translate", "multiplicity", "count_generator", "count_columns"])
def test_wrong_dimension_refused(sqrt2, call, match):
    # a length mismatch is refused, never truncated by zip or left to numpy
    with pytest.raises(PreconditionError, match=match):
        call(sqrt2)


def test_membership_count_writes_into_out(sqrt2):
    kernel = parse_region_literal(sqrt2, "[0,1/2)").membership
    batch = ((sqrt2.zero(),), [(sqrt2.basis_element("w1"),)], np.arange(100)[:, None])
    buf = np.full(102, -7, dtype=np.int64)
    assert kernel.count(*batch, out=buf[1:-1]).base is buf
    assert np.array_equal(buf[1:-1], kernel.count(*batch)) and buf[0] == buf[-1] == -7
    for bad in (np.empty(99, np.int64), np.empty(100), np.empty((100, 1), np.int64)):
        with pytest.raises(PreconditionError, match="out takes one int64 entry per point"):
            kernel.count(*batch, out=bad)


def test_distinct_rows_match_np_unique(rng):
    # np.unique(axis=0) sorts the rows as int64 tuples: the reference for every shape
    top, bottom = np.iinfo(np.int64).max, np.iinfo(np.int64).min
    cases = [np.zeros((0, 2), np.int64), np.zeros((0, 1), np.int64)]
    for n, k in ((1, 1), (300, 1), (1, 3), (300, 2), (300, 3), (300, 4)):
        cases.append(rng.integers(bottom, top, size=(n, k), endpoint=True))
        cases.append(rng.integers(-2, 3, size=(n, k)))  # heavy duplicates
        cases.append(rng.choice([bottom, -top, -1, 0, 1, top], size=(n, k)))
    for rows in cases:
        distinct, inv = regions.distinct_rows(rows)
        want, want_inv = np.unique(rows, axis=0, return_inverse=True)
        assert distinct.dtype == np.int64 and distinct.shape == want.shape
        assert np.array_equal(distinct, want) and np.array_equal(inv, want_inv.reshape(-1))
        assert np.array_equal(distinct[inv], rows)


def _translates_reference(region, xs):
    """Per point x, the shifts s with x + s in the region, decided by exact
    containment, after checking that their piece count is multiplicity(x)."""
    out = []
    for i, x in enumerate(xs):
        lo = -math.floor(float(x)) - 2
        hits = {s: sum(p.contains((x + s,)) for p in region.pieces) for s in range(lo, lo + 5)}
        assert sum(hits.values()) == multiplicity(region, (x,))
        out += [(i, s) for s, c in hits.items() if c]
    return out


@pytest.mark.parametrize("lit, ks", [
    # blocks of 16: k = 985 and 1970 hit [0, 1/1000) (frac(k sqrt2) ~ 3.6e-4, 7.2e-4),
    # the middle block k = 1..16 has no hit
    ("[0,1/1000)", [*range(977, 993), *range(1, 17), *range(1962, 1978)]),
    ("[0,1/2) U [1/4,3/4)", list(range(-30, 20))),  # a hit in both pieces is one shift
], ids=["empty_middle_block", "overlapping_pieces"])
def test_translates_returns_each_hit_once(sqrt2, monkeypatch, lit, ks):
    monkeypatch.setattr(regions, "_BLOCK", 16)
    w1, region = sqrt2.basis_element("w1"), parse_region_literal(sqrt2, lit)
    base = sqrt2.parse("1/7") if "U" in lit else sqrt2.zero()
    c = np.array(ks)[:, None]
    idx, shifts = region.membership.translates((base,), [(w1,)], c)
    got = list(zip(idx.tolist(), shifts[:, 0].tolist()))
    assert got == _translates_reference(region, [base + w1 * k for k in ks])
    counts = region.membership.count((base,), [(w1,)], c)
    if "U" in lit:  # the overlap [1/4, 1/2) holds hits that count twice and come back once
        assert (counts == 2).any() and len(got) < counts.sum()
    else:
        assert [counts[b:b + 16].sum() > 0 for b in (0, 16, 32)] == [True, False, True]


def test_membership_refuses_the_int64_minimum(sqrt2):
    # abs(-2**63) overflows int64, so the bound takes column extremes as Python ints
    w1 = sqrt2.basis_element("w1")
    window = parse_region_literal(sqrt2, "[0,1/2)")
    for call in (lambda: orbit_hits(window, w1, 0, -2**63, -2**63),
                 lambda: periodic_points([w1], window, [(-2**63, -2**63)])):
        with pytest.raises(PreconditionError, match="beyond the int64 range"):
            call()


# a + b sqrt2 + c sqrt3 + e sqrt6 over a small denominator
_SURD = st.tuples(*[st.integers(-1, 1)] * 4, st.integers(2, 4))
_T = st.sampled_from([Fraction(v, 6) for v in range(-3, 10)])


@settings(max_examples=60)
@given(
    dim=st.sampled_from([1, 2]),
    offset=st.lists(_SURD, min_size=2, max_size=2),
    edges=st.lists(_SURD, min_size=4, max_size=4),
    alpha=st.lists(_SURD, min_size=2, max_size=2),
    k0=st.builds(lambda e, u, sign: sign * (10**e + u), st.sampled_from(range(18)),
                 st.integers(0, 10**6), st.sampled_from([1, -1])),
    t=st.lists(_T, min_size=2, max_size=2),
    face=st.sampled_from([None, (0, 0), (0, 1), (1, 0), (1, 1)]),
)
def test_membership_integer_path_matches_piece_contains(sqrt23, dim, offset, edges, alpha,
                                                        k0, t, face):
    # the orbit point k0 is offset + edges @ t, on a face of the piece when
    # face = (axis, side) puts t[axis] = side; rows k0 and k0 + 1 at |k0| up to 1e17
    def q(v):
        return QValue(sqrt23, [Fraction(c, v[4]) for c in v[:4]])

    e = tuple(tuple(q(edges[dim * i + j]) for j in range(dim)) for i in range(dim))
    a = [q(v) for v in alpha[:dim]]
    assume(exact_det(e) != 0 and any(v != 0 for v in a))
    piece = Piece(tuple(q(v) for v in offset[:dim]), e)
    t = list(t[:dim])
    if face is not None and face[0] < dim:
        t[face[0]] = Fraction(face[1])
    point = [o + sum((e[i][j] * t[j] for j in range(dim)), sqrt23.zero())
             for i, o in enumerate(piece.offset)]
    x0 = tuple(p - ai * k0 for p, ai in zip(point, a))
    rows = np.array([[k0], [k0 + 1]])
    corners = np.array([[float(v) for v in c] for c in piece.corners()])
    want = []
    for i, k in enumerate(rows[:, 0].tolist()):
        x = [xi + ai * k for xi, ai in zip(x0, a)]
        shifts = [range(math.floor(corners[:, j].min()) - x[j].floor() - 1,
                        math.ceil(corners[:, j].max()) - x[j].floor() + 1) for j in range(dim)]
        want += [(i, *m) for m in itertools.product(*shifts)
                 if piece.contains([xi + mi for xi, mi in zip(x, m)])]
    kernel = RegionSet(dim, [piece]).membership
    idx, shift = kernel.translates(x0, [a], rows)
    assert [(i, *m) for i, m in zip(idx.tolist(), shift.tolist())] == want
    assert kernel.count(x0, [a], rows).tolist() == [sum(w[0] == i for w in want) for i in range(2)]


def test_membership_decides_value_elements_in_the_band_on_t():
    # t = u - q with q the float after u: float(t) ~ -1.1e-16 is inside the 1e-9
    # band of the sign rule, while den * t ~ -1 (den ~ 2^53) would lie outside it
    spec = AlgebraSpec.from_text("basis u = value 0.7071067811865476\nproduct u u = 1/2")
    u = spec.parse("u")
    q = Fraction(math.nextafter(float(u), 1))
    for dim in (1, 2):
        region = box_region(spec, [0] * dim, [1] * dim)
        x = (u - q,) + (spec.from_rational(Fraction(1, 2)),) * (dim - 1)
        for decide in (region.pieces[0].contains, lambda x: multiplicity(region, x)):
            with pytest.raises(SignUndecidableError):
                decide(x)


def test_membership_places_value_elements_by_their_float():
    # a value-declared element has no exact floor: 2^52 * 1.7320508075688772 is an
    # integer, so a floor by the sign rule would raise in its 1e-9 band; the float
    # places x instead, and where floats cannot place x the kernel refuses
    spec = AlgebraSpec.from_text("basis u = value 1.7320508075688772\nproduct u u = 3")
    u = spec.parse("u")
    window = parse_region_literal(spec, "[0,2)")
    assert [multiplicity(window, (u * m,)) for m in (1, 2)] == [2, 2]
    ks = np.arange(10**6, 10**6 + 500)[:, None]
    got = window.membership.count((u,), [(u,)], ks)
    assert got.tolist() == [2] * len(ks)  # [0, 2) holds two translates of every point
    with pytest.raises(PreconditionError, match="value-declared elements beyond float placement"):
        window.membership.count((u,), [(u,)], ks + 10**15)


def _floor_root(a: int, b: int, t: int, r: int) -> int:
    """floor((a + b sqrt r) / t) for integers, t > 0 and squarefree r > 1, by isqrt alone:
    floor(b sqrt r) is isqrt(b^2 r) or -isqrt(b^2 r) - 1, and the floor of the sum
    divided by t is that of the floors."""
    s = math.isqrt(b * b * r)
    return (a + (s if b >= 0 else -s - 1)) // t


_AXIS = st.tuples(st.integers(-6, 6), st.integers(-6, 6),  # x0 = (a + b sqrt r) / t
                  st.integers(-6, 6), st.sampled_from([-3, -2, -1, 1, 2, 3]),  # irrational alpha
                  st.integers(-6, 6), st.integers(-2, 2),  # lo
                  st.integers(1, 4), st.integers(-1, 1))  # hi - lo, at most 3 in either unit


# batches of 2^14 rows are slow to shrink: report the first failing one as drawn
@settings(max_examples=20, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    dim=st.sampled_from([1, 2]),
    kind=st.sampled_from(["orbit", "far", "face", "empty", "nogens"]),
    t=st.sampled_from([2, 6]),
    axes=st.lists(_AXIS, min_size=2, max_size=2),
    left_closed=st.booleans(),
    shear=st.sampled_from([0, 0, 1, -5]),
    k0=st.builds(lambda e, u, sign: sign * (10**e + u), st.sampled_from(range(18)),
                 st.integers(0, 10**6), st.sampled_from([1, -1])),
    extra=st.integers(1, 40),
    face=st.tuples(st.integers(0, 1), st.booleans()),
)
def test_membership_anchored_blocks_match_isqrt_floors(sqrt23, dim, kind, t, axes, left_closed,
                                                       shear, k0, extra, face):
    # axis i of the box carries sqrt(r_i), r = (2, 3), so every coordinate of
    # x0 + K * alpha is (a + b sqrt r_i) / t over integers and each axis's shifts
    # are ceil/floor of endpoints minus x, taken with isqrt: absolute shifts at |K|
    # up to 1e17, not shifts relative to a block anchor
    roots, axes = (2, 3)[:dim], axes[:dim]
    assume(all(dl + db * math.sqrt(r) > 0 for r, (*_, dl, db) in zip(roots, axes)))  # hi > lo
    left_closed = left_closed or dim == 2  # a 2-D box is half-open [lo, hi)

    def q(a, b, r):
        b = Fraction(b, t)
        return QValue(sqrt23, [Fraction(a, t), b * (r == 2), b * (r == 3), 0])

    x0 = [[a, b] for a, b, *_ in axes]
    if kind in ("face", "nogens"):  # x0 on the lower or upper face of one axis
        ax = face[0] % dim
        la, lb, dl, db = axes[ax][4:]
        x0[ax] = [la + dl * face[1], lb + db * face[1]]
    lo = [q(la, lb, r) for r, (*_, la, lb, _, _) in zip(roots, axes)]
    hi = [q(la + dl, lb + db, r) for r, (*_, la, lb, dl, db) in zip(roots, axes)]
    alpha = tuple(q(aa, ba, r) for r, (_, _, aa, ba, *_) in zip(roots, axes))
    base = tuple(q(a, b, r) for r, (a, b) in zip(roots, x0))
    n = 64 + extra if kind == "face" else regions._BLOCK + extra  # else two blocks
    ks = k0 + np.arange(n)
    if kind == "far":  # one far row in the second block: its spread forces per-row anchors
        ks[-extra] = -np.sign(k0) * 10**17
    gens, rows, big_k = [alpha], ks[:, None], ks.tolist()
    if kind == "face":  # every other row is (k, k): x0 + k alpha - k alpha = x0, on the face
        # k steps by 1e11, so the terms of (c - r0) @ gens cancel with float errors ~1e-4
        d = np.where(np.arange(n) % 2, np.arange(n) % 5 + 1, 0)
        ks = k0 + np.arange(n) * 10**11
        gens, rows = [alpha, tuple(-a for a in alpha)], np.column_stack([ks, ks + d])
        big_k = (-d).tolist()
    elif kind == "empty":
        rows, big_k = np.zeros((0, 1), dtype=np.int64), []
    elif kind == "nogens":  # multiplicity's call
        gens, rows, big_k = [], np.zeros((1, 0), dtype=np.int64), [0]

    if dim == 2 and shear:  # a sheared parallelepiped: sampled rows against Piece.contains
        piece = Piece(tuple(lo), ((hi[0] - lo[0], sqrt23.from_rational(Fraction(shear, t))),
                                  (sqrt23.zero(), hi[1] - lo[1])))
        kernel = RegionSet(2, [piece]).membership
        idx, shift = kernel.translates(base, gens, rows)
        cnt = kernel.count(base, gens, rows)
        got = {}
        for i, m in zip(idx.tolist(), shift.tolist()):
            got.setdefault(i, []).append(tuple(m))
        corners = np.array([[float(v) for v in c] for c in piece.corners()])
        sample = {0, 1, 2, regions._BLOCK - 1, regions._BLOCK, n - extra, n - 1}
        for i in sorted(i for i in sample if i < len(big_k)):
            x = [b + a * big_k[i] for b, a in zip(base, alpha)]
            want = [m for m in itertools.product(*[range(
                math.floor(corners[:, j].min()) - x[j].floor() - 1,
                math.ceil(corners[:, j].max()) - x[j].floor() + 1) for j in range(2)])
                if piece.contains([xj + mj for xj, mj in zip(x, m)])]
            assert got.get(i, []) == want and cnt[i] == len(want)
        return

    region = interval(lo[0], hi[0], left_closed) if dim == 1 else box_region(sqrt23, lo, hi)
    kernel = region.membership
    per_axis = []
    for r, (a, b, aa, ba, la, lb, dl, db), (xa, xb) in zip(roots, axes, x0):
        a_k = [xa + aa * k for k in big_k]
        b_k = [xb + ba * k for k in big_k]
        if left_closed:  # lo <= x + m < hi: m from ceil(lo - x) = -floor(x - lo)
            ends = [[-_floor_root(u - ea, v - eb, t, r) for u, v in zip(a_k, b_k)]
                    for ea, eb in ((la, lb), (la + dl, lb + db))]
        else:  # lo < x + m <= hi: m from floor(lo - x) + 1
            ends = [[_floor_root(ea - u, eb - v, t, r) + 1 for u, v in zip(a_k, b_k)]
                    for ea, eb in ((la, lb), (la + dl, lb + db))]
        per_axis.append(list(zip(*ends)))
    want = np.array([(i, *m) for i, spans in enumerate(zip(*per_axis))
                     for m in itertools.product(*[range(s, e) for s, e in spans])],
                    dtype=np.int64).reshape(-1, dim + 1)
    idx, shift = kernel.translates(base, gens, rows)
    assert np.array_equal(np.column_stack([idx, shift]), want)
    assert np.array_equal(kernel.count(base, gens, rows),
                          np.bincount(want[:, 0], minlength=len(big_k)))


def _face_pieces(spec, dim):
    """[0,1)^d, its mirror (0,1]^d and a sheared piece with an irrational edge entry."""
    one, zero, w1 = spec.one(), spec.zero(), spec.basis_element("w1")
    eye = [[one if i == j else zero for j in range(dim)] for i in range(dim)]
    shear = [row[:] for row in eye]
    shear[0][1], shear[dim - 2][dim - 1] = spec.from_rational(Fraction(1, 3)), w1 - 1
    return [Piece((zero,) * dim, tuple(map(tuple, eye))),
            Piece((one,) * dim, tuple(tuple(-v for v in row) for row in eye)),
            Piece((spec.from_rational(Fraction(-1, 5)), *(zero,) * (dim - 1)),
                  tuple(map(tuple, shear)))]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("k0", [0, 10**15])
def test_membership_decides_lattice_points_and_faces_of_shifted_copies(sqrt23, dim, k0):
    # points p + j, p = offset + edges @ t with t in {0, 1/2, 1}^d (corners, faces, middles;
    # for [0,1)^d the corners are lattice points) or t = 0 or 1 within 1e-16 on one axis,
    # j a small integer vector: on faces of the shifted copies of the piece.  A row reads
    # x = k alpha - k alpha + j + p at k = k0 + row % 5, so the block's float placement
    # spans several unit cells (the reduction's kb is not 0) and anchors come from x's
    # float at k0 = 0 and from exact floors at k0 = 1e15
    spec, (w1, w2) = sqrt23, (sqrt23.basis_element(w) for w in ("w1", "w2"))
    alpha = (w1, w2, w1 + w2)[:dim]
    tiny = Fraction(1, 10**16)
    ts = [list(t) for t in itertools.product(*[(0, Fraction(1, 2), 1)] * dim)]
    ts += [[Fraction(1, 2)] * a + [side + sgn * tiny] + [Fraction(1, 2)] * (dim - 1 - a)
           for a in range(dim) for side in (0, 1) for sgn in (1, -1)]
    js = [(0,) * dim, (1,) * dim, (-3, 2, 5)[:dim], (4, -1, -2)[:dim]]
    for piece in _face_pieces(spec, dim):
        points = [[o + sum((piece.edges[i][a] * t[a] for a in range(dim)), spec.zero())
                   for i, o in enumerate(piece.offset)] for t in ts]
        gens = [alpha, tuple(-a for a in alpha)]
        gens += [tuple(spec.one() if i == a else spec.zero() for i in range(dim))
                 for a in range(dim)] + [tuple(p) for p in points]
        rows = np.array([[k0 + r % 5, k0 + r % 5, *j, *(q == i for i in range(len(points)))]
                         for r, (j, q) in enumerate(itertools.product(js, range(len(points))))],
                        dtype=np.int64)
        kernel = RegionSet(dim, [piece]).membership
        idx, shift = kernel.translates((spec.zero(),) * dim, gens, rows)
        cnt = kernel.count((spec.zero(),) * dim, gens, rows)
        got = {}
        for i, m in zip(idx.tolist(), shift.tolist()):
            got.setdefault(i, []).append(tuple(m))
        corners = np.array([[float(v) for v in c] for c in piece.corners()])
        for i, (j, q) in enumerate(itertools.product(js, range(len(points)))):
            x = [p + ja for p, ja in zip(points[q], j)]  # |x| < 10: float(x) within 1e-14
            want = [m for m in itertools.product(*[range(
                math.ceil(corners[:, a].min() - float(x[a]) - 1e-9),
                math.floor(corners[:, a].max() - float(x[a]) + 1e-9) + 1) for a in range(dim)])
                if piece.contains([xa + ma for xa, ma in zip(x, m)])]
            assert got.get(i, []) == want and cnt[i] == len(want)


_B = regions._BLOCK


@pytest.mark.parametrize("n, k0, hit", [
    (0, 10**17, 0), (_B - 1, 10**15, _B - 2), (_B, 0, 0), (_B, -10**17, _B - 1),
    (_B + 1, 10**15, _B), (_B + 1, 10**17, _B - 1),
])
def test_membership_count_matches_isqrt_counts_at_block_edges(sqrt2, n, k0, hit):
    # [0, 1/4) U (1/3, sqrt2 - 1]: a left- and a right-closed piece.  Row k of the batch
    # is x = x0 + (k0 + k) sqrt2 with x0 = -(k0 + hit) sqrt2, so rows hit and hit + 1
    # land exactly on the ends 0 and sqrt2 - 1 (mod 1): guarded points at a block's
    # first or last row, reached through terms of size |k0| up to 1e17
    w1 = sqrt2.basis_element("w1")
    region = parse_region_literal(sqrt2, "[0,1/4) U (1/3,-1+1*w1]")
    ks = k0 + np.arange(n, dtype=np.int64)[:, None]
    got = region.membership.count((w1 * -(k0 + hit),), [(w1,)], ks)
    # x = b sqrt2, b = k - hit: floor(x) - floor(x - 1/4) translates land in [0, 1/4),
    # floor(sqrt2 - 1 - x) - floor(1/3 - x) in (1/3, sqrt2 - 1]
    want = [_floor_root(0, b, 1, 2) - _floor_root(-1, 4 * b, 4, 2)
            + _floor_root(-1, 1 - b, 1, 2) - _floor_root(1, -3 * b, 3, 2)
            for b in range(-hit, n - hit)]
    assert got.dtype == np.int64 and got.shape == (n,) and got.tolist() == want
    assert want[hit:hit + 2] == [1, 1][:n - hit]  # the two endpoint rows count


def test_membership_takes_exact_floors_per_block_not_per_point(sqrt2, sqrt23, monkeypatch):
    # each orbit holds 16,384 points at a magnitude where floats cannot place x:
    # at most d exact floors per block (its anchor) plus 2 per guarded 1-D point,
    # where anchoring every point took 32,768
    calls = []
    floor_of = AlgebraSpec.floor_of
    monkeypatch.setattr(AlgebraSpec, "floor_of",
                        lambda self, nums, den: calls.append(den) or floor_of(self, nums, den))
    n = 1 << 14
    blocks = -(-n // regions._BLOCK)
    w1 = sqrt2.basis_element("w1")
    hits = orbit_hits(parse_region_literal(sqrt2, "[0,-1+1*w1)"), w1, 0, 10**17, 10**17 + n - 1)
    # points within 1e-6 of an endpoint, from 50 digits: a superset of the guarded ones
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        r2 = decimal.Decimal(2).sqrt()
        frac = [(k * r2) % 1 for k in range(10**17, 10**17 + n)]
        near = sum(min(abs(f - e) for e in (0, 1, r2 - 1)) < decimal.Decimal("1e-6") for f in frac)
        assert hits.tolist() == [int(f < r2 - 1) for f in frac]
    assert len(calls) <= blocks + 2 * near
    calls.clear()
    v1, v2 = sqrt23.basis_element("w1"), sqrt23.basis_element("w2")
    box = box_region(sqrt23, [0, 0], [v1 - 1, v2 - 1])
    hits = orbit_hits(box, (v1, v2), (0, 0), 10**15, 10**15 + n - 1)
    assert len(calls) <= 2 * blocks  # a guarded 2-D point is decided by signs alone
    assert 0 < hits.sum() < n
    calls.clear()  # at k < 2^14 floats place every anchor, and no point is guarded
    hits = orbit_hits(box, (v1, v2), (0, 0), 0, n - 1)
    assert calls == [] and 0 < hits.sum() < n


def test_membership_lifts_region_and_batch_into_one_algebra(sqrt2, sqrt23):
    # a rational window, as a window file without algebra lines loads, decides an
    # irrational batch as the same window declared in the batch's algebra does: the
    # anchors and the exact fallback must not drop the batch's irrational terms
    alpha, beta = [sqrt2.parse("w1")], [sqrt2.one()]
    for m0 in (0, 10**12, 10**17):
        box = [(m0, m0 + 2000)]
        got, want = (special_quasicrystal(alpha, beta, parse_region_literal(spec, "(-1/2,0]"), box)
                     for spec in (RATIONAL, sqrt2))
        assert len(got.coords) == len(want.coords) > 0
        assert np.array_equal(got.provenance, want.provenance)
    v1, v2 = sqrt23.basis_element("w1"), sqrt23.basis_element("w2")
    base, ks = (sqrt23.zero(), sqrt23.parse("1/2")), np.arange(10**15, 10**15 + 2000)[:, None]
    sheared = [RegionSet(2, [Piece((spec.parse("1/5"), spec.zero()),
                                   ((spec.parse("1/2"), spec.parse("1/3")),
                                    (spec.parse("1/4"), spec.parse("2/3"))))])
               for spec in (RATIONAL, sqrt23)]
    got, want = (r.membership.translates(base, [(v1, v2)], ks) for r in sheared)
    assert all(np.array_equal(g, w) for g, w in zip(got, want)) and len(got[0]) > 0
    # sqrt 2 minus the float below it: about 1e-16 > 0, inside every guard band,
    # so the exact fallback decides it, on both sides of the face at 0
    t = v1 - Fraction(math.nextafter(math.sqrt(2), 0))
    for dim in (1, 2):
        for x, want in (((t,), 1), ((-t,), 0)):
            x = x + (sqrt23.parse("1/6"),) * (dim - 1)
            assert [box_region(spec, [0] * dim, ["1/2", "1/3"][:dim]).membership.count(
                x, [], np.zeros((1, 0), dtype=np.int64)).tolist()
                for spec in (RATIONAL, sqrt23)] == [[want], [want]]
    window = parse_region_literal(sqrt2, "[0,-1+1*w1)")
    third = RATIONAL.parse("1/3")  # a rational batch lifts into the window's algebra
    assert window.membership.count((third,), [(RATIONAL.parse("1/7"),)],
                                   np.arange(10)[:, None]).tolist() == [1, 0, 0, 0, 0, 1, 1, 1, 0, 0]
    with pytest.raises(AlgebraMismatchError):  # sqrt(3) is not in Q(sqrt 2)
        window.membership.count((third,), [(v2,)], np.arange(10)[:, None])


def _answer(x):
    """A comparable form of an entry's output: arrays by their bytes, text as written."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, PointSet):
        return _answer(x.coords), _answer(x.provenance), x.window
    if isinstance(x, DiscrepancyTrace):
        return (x.alpha_desc, x.region_desc, [str(v) for v in x.x0],
                _answer(x.ns), _answer(x.values), x.mes)
    if isinstance(x, RegionSet):
        return region_to_text(x), x.describe()
    if isinstance(x, DualityReport):
        return json.dumps(x.as_dict())
    return x


# every entry that decides a region against an orbit, a shift or a map, as
# (region, alpha) -> answer; the region is 1-D and alpha a QValue
_JOIN_ENTRIES = {
    "orbit_hits": lambda r, a: orbit_hits(r, a, None, -50, 999),
    "discrepancy_trace": lambda r, a: discrepancy_trace(r, a, None, (-20, 500), two_sided=True),
    "brs_empirical": lambda r, a: brs_empirical(r, a, 500, 50),
    "multiplicity": lambda r, a: [multiplicity(r, (a * k,)) for k in range(20)],
    "membership.count": lambda r, a: r.membership.count(
        (a.spec.zero(),), [(a,)], np.arange(100)[:, None]),
    "translate": lambda r, a: r.translate([a]),
    "dual_model_points": lambda r, a: dual_model_points([a], [a.spec.one()], r, (-50, 50)),
    "periodic_points": lambda r, a: periodic_points([a], r, [(-50, 50)]),
    "periodic_dual": lambda r, a: periodic_dual([a], r, (-50, 50)),
    "special_quasicrystal": lambda r, a: special_quasicrystal(
        [a], [a.spec.one()], r, [(-50, 50)]),
    "duality_experiment": lambda r, a: duality_experiment(
        [a], [a.spec.one()], parse_region_literal(a.spec, "(-1/2,0]"), r, [8, 16],
        n_max=16, k_bound=150),
    "transform_region": lambda r, a: transform_region(r, [[a]]),
    "construct_brs_between": lambda r, a: construct_brs_between(
        [a], parse_region_literal(a.spec, "[1/10,1/5)"), r, a.spec.parse("3 - 2*w1"), 0.05,
        tile_bound=50),
}


@pytest.mark.parametrize("entry", list(_JOIN_ENTRIES))
def test_rational_region_answers_as_the_declared_one(sqrt2, entry):
    # a region file without algebra lines loads in the rational algebra; every
    # entry joins it with sqrt 2 and answers as for the literal in Q(sqrt 2)
    f = _JOIN_ENTRIES[entry]
    w1 = sqrt2.basis_element("w1")
    rational = region_from_text("dim = 1\npiece offset = 0 | edges = 1/2\n")
    assert rational.spec == RATIONAL
    assert _answer(f(rational, w1)) == _answer(f(parse_region_literal(sqrt2, "[0,1/2)"), w1))
    # two algebras that both hold irrational values still do not combine
    with pytest.raises(AlgebraMismatchError):
        f(parse_region_literal(sqrt2, "[0,-1+1*w1)"), AlgebraSpec.from_sqrt([3]).basis_element("w1"))
