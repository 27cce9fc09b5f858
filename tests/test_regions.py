import math

import numpy as np
import pytest
import scipy.integrate

from quasilab import regions
from quasilab.dynamics import orbit_hits
from quasilab.errors import PreconditionError, SearchExhaustedError
from quasilab.modelset import periodic_points, special_quasicrystal
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


def test_overlap_detection(sqrt2):
    a = interval(sqrt2.zero(), sqrt2.one())
    b = interval(sqrt2.parse("1/2"), sqrt2.parse("3/2"))
    c = interval(sqrt2.one(), sqrt2.parse("2"))
    assert check_disjoint(union(a, b)) == [(0, 1)]
    assert check_disjoint(union(a, c)) == []


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


def test_membership_refuses_the_int64_minimum(sqrt2):
    # abs(-2**63) overflows int64, so the bound takes column extremes as Python ints
    w1 = sqrt2.basis_element("w1")
    window = parse_region_literal(sqrt2, "[0,1/2)")
    for call in (lambda: orbit_hits(window, w1, 0, -2**63, -2**63),
                 lambda: periodic_points([w1], window, [(-2**63, -2**63)])):
        with pytest.raises(PreconditionError, match="beyond the int64 range"):
            call()
