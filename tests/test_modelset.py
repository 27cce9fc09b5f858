import math

import numpy as np
import pytest

from quasilab.dynamics import orbit_hits
from quasilab.errors import PreconditionError
from quasilab.lattice import make_special_lattice
from quasilab.modelset import (
    PointSet,
    cut_and_project,
    density_estimate,
    dual_model_points,
    periodic_dual,
    periodic_points,
    separation,
    sequence_points,
    special_quasicrystal,
)
from quasilab.regions import interval, parse_region_literal


def frac_oracle(x: float) -> float:
    # independent float oracle for fractional parts (math library route)
    return x - math.floor(x)


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
    assert len(pts_incl) == 1 and pts_incl.provenance == ((0, 0),)
    assert len(pts_excl) == 0


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
    assert pts.provenance == seq.provenance
    assert np.allclose(pts.values, seq.values, atol=0)
    assert pts.qcoords == seq.qcoords  # exact pointwise identity


def test_special_quasicrystal_matches_general(sqrt2, gamma, window_neg1_0):
    fast = special_quasicrystal([sqrt2.basis_element("w1")], [sqrt2.one()],
                                window_neg1_0, [(-20, 20)])
    slow = cut_and_project(gamma, window_neg1_0, [(-20, 20), (-40, 40)])
    assert fast.provenance == slow.provenance
    assert fast.qcoords == slow.qcoords


def test_provenance_resubstitution_exact(sqrt2, gamma, window_neg1_0):
    pts = cut_and_project(gamma, window_neg1_0, [(-10, 10), (-20, 20)])
    for prov, q in zip(pts.provenance, pts.qcoords):
        full = gamma.point(prov)
        assert full[: pts.dim] == q


def test_sequence_point_values(sqrt2):
    seq = sequence_points([sqrt2.basis_element("w1")], [sqrt2.one()], [(0, 3)])
    lam3 = seq.values[list(seq.provenance).index((3, 4))]
    assert abs(lam3 - 3.2426406871) < 1e-9
    lam0 = seq.values[list(seq.provenance).index((0, 0))]
    assert lam0 == 0.0


def test_sequence_two_dim_example(sqrt23):
    alpha = [sqrt23.basis_element("w1"), sqrt23.basis_element("w2")]
    seq = sequence_points(alpha, alpha, [(0, 1), (0, 0)])
    idx = [i for i, p in enumerate(seq.provenance) if p[:2] == (1, 0)][0]
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
    blocks = sorted(p[-1] for p in pts.provenance)
    assert blocks == [0, 3, 5]


def test_dual_model_points_match_orbit_at_huge_n(sqrt2):
    # at n ~ 1e11 the float error of n*sqrt2 exceeds 1e-7; the emitted
    # blocks must still be exactly the orbit hits, n = 100000000331 included
    w1 = sqrt2.basis_element("w1")
    region = interval(sqrt2.zero(), w1 - 1)
    lo, hi = 10**11, 10**11 + 3000
    pts = dual_model_points([w1], [sqrt2.one()], region, (lo, hi))
    chi = orbit_hits(region, w1, 0, lo, hi)
    emitted = sorted(p[-1] for p in pts.provenance)
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
    assert again.provenance == pts.provenance
    assert pts.to_csv().splitlines()[0] == "# quasilab pointset v1 dim=1"


def test_empty_search_box_rejected(sqrt2, gamma, window_neg1_0):
    with pytest.raises(PreconditionError, match="empty"):
        cut_and_project(gamma, window_neg1_0, [(3, -3), (0, 0)])
