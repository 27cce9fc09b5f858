"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Expected values tagged as oracle-frozen were computed
once by independent pre-build oracles (brute-force prefix sums, adaptive
quadrature, direct scans) and are pinned here.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate

from quasilab.algebra import AlgebraSpec, exact_det
from quasilab.dynamics import bmo_stat, brs_empirical, discrepancy_trace
from quasilab.lattice import (
    Lattice,
    make_special_lattice,
    reduce_to_special,
    transform_pointset,
    transform_region,
)
from quasilab.modelset import (
    dual_model_points,
    periodic_points,
    sequence_points,
    special_quasicrystal,
)
from quasilab.regions import (
    box_region,
    construct_brs_between,
    ft_indicator,
    interval,
    make_certificate,
    parse_region_literal,
    realize_measure,
    verify_equidecomposition,
)
from quasilab.riesz import (
    avdonin_check,
    delta_sequence,
    enumerate_blocks,
    extreme_eigs,
    gram_matrix,
    riesz_bound_trace,
)

SQRT2 = AlgebraSpec.from_sqrt([2])
SQRT23 = AlgebraSpec.from_sqrt([2, 3])
W1 = SQRT2.basis_element("w1")
ONE = SQRT2.one()

_cache: dict = {}


def report(criterion: int, name: str, ok: bool, detail: str, budget: float,
           elapsed: float) -> None:
    line = (
        f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} {name}: "
        f"{detail} ({elapsed:.1f}s, budget {budget:.0f}s)"
    )
    print(line, flush=True)
    assert ok, line
    assert elapsed < budget, f"criterion {criterion} overran: {line}"


def example_points(radius: float):
    key = ("pts", radius)
    if key not in _cache:
        pad = int(radius) + 2
        pts = sequence_points([W1], [ONE], [(-pad, pad)]).restrict_box(radius)
        _cache[key] = pts
    return _cache[key]


def good_region():
    # two intervals with certified lengths, total measure exactly 1
    return parse_region_literal(SQRT2, "[0,-1+1*w1) U [1,3-1*w1)")


def test_criterion_01_orthonormal_sanity():
    t0 = time.time()
    pts = np.arange(-200, 201, dtype=float)
    g = gram_matrix(pts, interval(SQRT2.zero(), ONE))
    ent_err = float(np.abs(g - np.eye(401)).max())
    lo, hi = extreme_eigs(g)
    ok = ent_err <= 1e-12 and abs(lo - 1) <= 1e-12 and abs(hi - 1) <= 1e-12
    report(1, "orthonormal sanity", ok,
           f"entry err {ent_err:.2e}, eigs [{lo:.15f}, {hi:.15f}]",
           5.0, time.time() - t0)


def test_criterion_02_special_form_exactness():
    t0 = time.time()
    gamma, gamma_star = make_special_lattice([W1], [ONE])  # rank checks inside
    det = gamma.det
    pair = gamma.pairing_matrix(gamma_star)
    pair_ok = all(v.is_integer() for row in pair for v in row)
    n_pairings = sum(len(row) for row in pair)
    ok = (det == 1 or det == -1) and pair_ok and n_pairings == 4
    report(2, "special-form exactness", ok,
           f"det {det}, {n_pairings} exact integer pairings",
           1.0, time.time() - t0)


def test_criterion_03_reduction_round_trip():
    t0 = time.time()
    gamma, _ = make_special_lattice([W1], [ONE])
    two = SQRT2.from_rational(2)
    scaled = Lattice(1, [
        [gamma.basis[0][0] * two, gamma.basis[0][1] * two],
        [gamma.basis[1][0], gamma.basis[1][1]],
    ])
    a, b, reduced = reduce_to_special(scaled)
    ok = (
        a == [[SQRT2.parse("1/2")]]
        and b == ONE
        and reduced.basis == gamma.basis  # exact generator correspondence
    )
    report(3, "reduction round-trip", ok,
           f"A = {a[0][0]}, B = {b}, generators exact", 1.0, time.time() - t0)


def test_criterion_04_brs_boundedness():
    t0 = time.time()
    region = interval(SQRT2.zero(), W1 - 1)
    stat = brs_empirical(region, W1, 100000, 10000)
    # oracle-frozen constant: the pre-build brute-force prefix-sum oracle
    # over the same (N, J) range gives 0.9999956; frozen as C = 1.0
    c_frozen = 1.0
    ok = stat.value <= c_frozen and c_frozen <= 3.0
    report(4, "bounded-remainder regime", ok,
           f"statistic {stat.value:.7f} <= C = {c_frozen} (argmax n={stat.argmax_n}, "
           f"j={stat.argmax_j})", 30.0, time.time() - t0)


def test_criterion_05_growth_regime():
    t0 = time.time()
    region = interval(SQRT2.zero(), SQRT2.parse("1/2"))
    n_top = 1 << 20  # covers n <= 1e6 and the longest window
    trace = discrepancy_trace(region, W1, 0, (0, n_top))
    abs_vals = np.abs(trace.values)
    m_short = float(abs_vals[: 1000 + 1].max())
    m_long = float(abs_vals[: 1000000 + 1].max())
    growth_ok = m_long >= 2.0 * m_short
    # dyadic window family; the coarse lengths 2^11..2^19 are skipped, which
    # can only lower the large-family value, so a strict increase here
    # implies the strict increase for the full dyadic family a fortiori
    small_family = [1 << j for j in range(0, 11)]
    bmo_small = bmo_stat(trace.values, small_family)
    bmo_large = max(bmo_small, bmo_stat(trace.values, [1 << 20]))
    bmo_ok = bmo_large > bmo_small
    ok = growth_ok and bmo_ok
    report(
        5, "growth regime", ok,
        f"max|D| at 1e3: {m_short}, at 1e6: {m_long} "
        f"(ratio {m_long / m_short:.3f}, need >= 2: the max grows like "
        f"c*log n plus an offset, so this clause cannot reach 2); "
        f"bmo 2^10: {bmo_small:.4f} < bmo 2^20: {bmo_large:.4f}: {bmo_ok}",
        60.0, time.time() - t0,
    )


def test_criterion_06_avdonin_positive():
    t0 = time.time()
    window = interval(SQRT2.zero(), ONE)
    pts = dual_model_points([W1], [ONE], window, (-10140, 10140))
    enum = enumerate_blocks(pts)
    ds = delta_sequence(enum, ONE)
    # this enumeration is delta_j = {j sqrt2}
    assert np.allclose(ds.deltas, np.mod(ds.js * math.sqrt(2), 1.0), atol=1e-9)
    verdict = avdonin_check(ds, ONE, 128, (-10000, 10000))
    ok = (
        verdict.satisfied_at is not None
        and verdict.satisfied_at <= 128
        and verdict.sup_deviation < 0.25
        and verdict.margin > 0
    )
    report(6, "averaged perturbations satisfied", ok,
           f"N = {verdict.satisfied_at}, sup dev {verdict.sup_deviation:.5f}, "
           f"margin {verdict.margin:.5f}", 10.0, time.time() - t0)


def test_criterion_07_two_sided_bounds_evidence():
    t0 = time.time()
    region = good_region()
    # the region must carry an exact equidecomposition certificate to [0,1)
    target = parse_region_literal(SQRT2, "[0,-1+1*w1) U [-1+1*w1,1)")
    cert = make_certificate([W1], region, target,
                           [[SQRT2.zero()], [W1 - 2]])
    assert verify_equidecomposition(cert).ok
    pts = example_points(200.0)
    trace = riesz_bound_trace(pts, [25.0, 50.0, 100.0, 200.0], region)
    _cache["lmin200_good"] = trace.lmin(200.0)
    ok = (
        trace.lmin(200.0) >= 0.5 * trace.lmin(25.0)
        and trace.lmin(200.0) > 1e-4
    )
    report(7, "basis-regime evidence", ok,
           "lambda_min " + " -> ".join(f"{r[2]:.5f}" for r in trace.rows),
           120.0, time.time() - t0)


def test_criterion_08_decay_evidence():
    t0 = time.time()
    region = parse_region_literal(SQRT2, "[0,1/2) U [1,3/2)")
    pts = example_points(200.0)
    trace = riesz_bound_trace(pts, [25.0, 50.0, 100.0, 200.0], region)
    lmins = [r[2] for r in trace.rows]
    strictly_down = all(b < a for a, b in zip(lmins, lmins[1:]))
    below_good = trace.lmin(200.0) < _cache["lmin200_good"]
    ok = strictly_down and below_good
    report(8, "decay-regime evidence", ok,
           "lambda_min " + " -> ".join(f"{v:.2e}" for v in lmins)
           + f"; below certified floor {_cache['lmin200_good']:.5f}",
           120.0, time.time() - t0)


def test_criterion_09_fourier_oracle():
    t0 = time.time()
    rng = np.random.default_rng(90210)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        lows = rng.uniform(-2, 1, size=d)
        highs = lows + rng.uniform(0.1, 2.0, size=d)
        t = rng.uniform(-1, 1, size=d)
        norm = np.linalg.norm(t)
        t = t * (rng.uniform(0, 10.0) / norm)
        region = box_region(SQRT2, [float(x) for x in lows],
                            [float(x) for x in highs])
        mine = ft_indicator(region, t if d > 1 else float(t[0]))
        oracle = 1.0 + 0.0j
        for lo, hi, ti in zip(lows, highs, t):
            re, _ = scipy.integrate.quad(
                lambda x: math.cos(2 * math.pi * ti * x), lo, hi,
                epsabs=1e-10, limit=200,
            )
            im, _ = scipy.integrate.quad(
                lambda x: -math.sin(2 * math.pi * ti * x), lo, hi,
                epsabs=1e-10, limit=200,
            )
            oracle *= re + 1j * im
        worst = max(worst, abs(mine - oracle))
    ok = worst < 1e-6
    report(9, "Fourier oracle", ok,
           f"50 random boxes (d<=3), worst deviation {worst:.2e}",
           30.0, time.time() - t0)


def test_criterion_10_exact_geometry():
    t0 = time.time()
    w1, w2 = SQRT23.basis_element("w1"), SQRT23.basis_element("w2")
    piped = realize_measure([w1, w2], w1, 2)
    det = piped.pieces[0].det()
    realize_ok = (det == w1 or det == -w1) and piped.pieces[0].witnesses is not None
    k = parse_region_literal(SQRT2, "[1/10,2/5]", allow_closed=True)
    u = parse_region_literal(SQRT2, "(0,1)", allow_closed=True)
    between = construct_brs_between([W1], k, u, W1 - 1, 0.05, tile_bound=50)
    vol_ok = between.volume() == W1 - 1
    covers = all(
        between.contains(c, closure=True) for p in k.pieces for c in p.corners()
    )
    certs = all(p.witnesses is not None for p in between.pieces)
    ok = realize_ok and vol_ok and covers and certs
    report(10, "exact geometry", ok,
           f"|det| = {piped.pieces[0].volume()}; interval volume exact, "
           f"K covered, {len(between.pieces)} certified pieces",
           5.0, time.time() - t0)


def test_criterion_11_gram_covariance():
    t0 = time.time()
    region = good_region()
    pts = example_points(100.0)
    g = gram_matrix(pts, region)
    doubled = transform_pointset(pts, np.array([[2.0]]))
    halved = transform_region(region, [["1/2"]])
    g2 = gram_matrix(doubled, halved)
    ent_err = float(np.abs(g2 - 0.5 * g).max())
    lo, _ = extreme_eigs(g)
    lo2, _ = extreme_eigs(g2)
    ok = ent_err <= 1e-9 and abs(lo2 - 0.5 * lo) <= 1e-9
    report(11, "Gram covariance", ok,
           f"entrywise err {ent_err:.2e}; lambda_min {lo:.6f} -> {lo2:.6f}",
           30.0, time.time() - t0)


def test_criterion_12_periodic_density():
    t0 = time.time()
    window = interval(SQRT2.zero(), W1 - 1)
    pts = periodic_points([W1], window, [(-1000000, 1000000)])
    dens = len(pts) / 2000001
    target = math.sqrt(2) - 1
    ok = abs(dens - target) < 1e-3
    report(12, "periodic density", ok,
           f"density {dens:.6f} vs {target:.6f} "
           f"(diff {abs(dens - target):.2e})", 10.0, time.time() - t0)


def test_criterion_13_arithmetic_dichotomy_1d():
    # the paper's dichotomy for alpha = sqrt2, beta = 1: over the window
    # (1-sqrt2, 0], whose length is admissible, the BRS [0, sqrt2-1) keeps a
    # lower Riesz bound; over (-1/2, 0], whose length is not, lambda_min falls
    # for every region of measure 1/2, including one whose first piece is a BRS
    t0 = time.time()
    radii = [25.0, 50.0, 100.0, 200.0, 400.0]
    cases = [("(1-1*w1,0]", "[0,-1+1*w1)"),
             ("(1-1*w1,0]", "[0,1/4) U [1,-1/4+1*w1)"),
             ("(-1/2,0]", "[0,1/2)"),
             ("(-1/2,0]", "[0,1/4) U [1,5/4)"),
             ("(-1/2,0]", "[0,-1+1*w1) U [2,7/2-1*w1)")]
    lmins = []
    for window, region in cases:
        pts = special_quasicrystal([W1], [ONE], parse_region_literal(SQRT2, window),
                                   [(-900, 900)]).restrict_box(400.0)
        trace = riesz_bound_trace(pts, radii, parse_region_literal(SQRT2, region))
        lmins.append([r[2] for r in trace.rows])
    control = lmins[0][-1] >= 0.9 * lmins[0][0]
    falls = [v[0] / v[-1] for v in lmins[2:]]
    ok = control and all(f >= 10 for f in falls)
    report(13, "arithmetic dichotomy (1-D)", ok,
           "; ".join(f"{w} {r}: " + " -> ".join(f"{v:.2e}" for v in lm)
                     for (w, r), lm in zip(cases, lmins))
           + f"; BRS control moves {1 - lmins[0][-1] / lmins[0][0]:.0%}, inadmissible falls "
           + ", ".join(f"{f:.0f}x" for f in falls),
           10.0, time.time() - t0)
