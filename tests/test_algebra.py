import functools
import math
import operator
import os
import re
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasilab
from quasilab.algebra import (
    RATIONAL,
    AlgebraSpec,
    QValue,
    admissible_decomposition,
    exact_det,
    mat_inverse,
    mat_mul,
    module_membership,
    parse_algebra,
)
from quasilab.errors import (
    AlgebraMismatchError,
    PreconditionError,
    SignUndecidableError,
)


def test_linear_arithmetic(sqrt2):
    a = sqrt2.parse("1 + 2*w1")
    b = sqrt2.parse("2 - 1*w1")
    assert a + b == sqrt2.parse("3 + 1*w1")
    assert a - b == sqrt2.parse("-1 + 3*w1")
    assert a * b == sqrt2.parse("-2 + 3*w1")


def test_declared_square(sqrt2):
    w1 = sqrt2.basis_element("w1")
    assert w1 * w1 == sqrt2.from_rational(2)


def test_cross_product_table(sqrt23):
    w1 = sqrt23.basis_element("w1")
    w2 = sqrt23.basis_element("w2")
    assert w1 * w2 == sqrt23.basis_element("w3")
    # sqrt2 * sqrt6 = 2 sqrt3
    assert w1 * sqrt23.basis_element("w3") == 2 * w2


def test_eval_examples(sqrt2):
    assert abs(float(sqrt2.parse("1 + w1")) - 2.41421356237) < 1e-10
    assert float(sqrt2.zero()) == 0.0
    assert abs(float(sqrt2.parse("2 - 1*w1")) - 0.58578643763) < 1e-10


def test_eval_homomorphism_random(sqrt23, rng):
    # float(a op b) == float(a) op float(b) within 1e-9
    for _ in range(200):
        ca = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in range(4)]
        cb = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in range(4)]
        a, b = QValue(sqrt23, ca), QValue(sqrt23, cb)
        for op in (operator.add, operator.sub, operator.mul):
            lhs = float(op(a, b))
            rhs = op(float(a), float(b))
            assert abs(lhs - rhs) < 1e-9


def test_embedding_consistency_enforced():
    with pytest.raises(PreconditionError):
        AlgebraSpec(
            ["1", "w1"],
            [Fraction(1), Fraction(2)],
            [1.0, math.sqrt(2)],
            {(1, 1): (Fraction(3), Fraction(0))},  # declares w1^2 = 3, embeds sqrt2
        )


@pytest.mark.parametrize("rad", ["100000007", "1000000000000000"])
def test_embedding_tolerance_scales_with_magnitude(rad):
    # fl(sqrt r)^2 misses r by rounding, far beyond 1e-9 at these sizes
    spec = AlgebraSpec.from_text(f"basis w1 = sqrt {rad}")
    w1 = spec.basis_element("w1")
    assert w1 * w1 == spec.from_rational(int(rad))


@pytest.mark.parametrize("text", [
    "basis w1 = sqrt 100000007\nproduct w1 w1 = 100000008",  # off by 1 in 1e8
    "basis w1 = value 1.5\nproduct w1 w1 = 2.25000001",  # off by 1e-8 in 2.25
])
def test_embedding_still_refuses_wrong_tables(text):
    with pytest.raises(PreconditionError, match="inconsistent with the numeric embedding"):
        AlgebraSpec.from_text(text)


@pytest.mark.parametrize("text, product", [
    # within EMBED_TOL of the floats, so only an exact check sees them;
    # each once loaded and gave (w1*w2 - w3).sign() == 1 for a value that is 0
    ("basis w1 = sqrt 2\nbasis w2 = sqrt 3\nbasis w3 = sqrt 6\n"
     "product w1 w2 = w3 + 1/1000000000000", "w1*w2"),
    ("basis w1 = sqrt 100000007\nproduct w1 w1 = 100000007 + 1/10000000000", "w1*w1"),
    ("basis w1 = sqrt 1/3\nbasis w2 = sqrt 2\nbasis w3 = sqrt 6\nproduct w1 w2 = 1/3*w3\n"
     "product w1 w3 = w2\nproduct w2 w3 = 6*w1 + 1/100000000000000", "w2*w3"),
])
def test_declared_sqrt_products_must_be_exact(text, product):
    with pytest.raises(PreconditionError,
                       match=rf"product {re.escape(product)} is not the exact product"):
        AlgebraSpec.from_text(text)


@pytest.mark.parametrize("text, left, right, product", [
    ("sqrt:2,3,5", "w1", "w2", "w4"),
    ("basis w1 = sqrt 2\nbasis w2 = sqrt 3\nbasis w3 = sqrt 6\nproduct w1 w2 = w3\n"
     "product w1 w3 = 2*w2\nproduct w2 w3 = 3*w1", "w1", "w3", "2*w2"),
    ("basis w1 = sqrt 2\nbasis w2 = sqrt 3\nbasis w3 = sqrt 24\nproduct w1 w2 = 1/2*w3",
     "w1", "w2", "1/2*w3"),
    ("basis w1 = sqrt 1/3\nbasis w2 = sqrt 2\nbasis w3 = sqrt 6\nproduct w1 w2 = 1/3*w3\n"
     "product w1 w3 = w2\nproduct w2 w3 = 6*w1", "w2", "w3", "6*w1"),
])
def test_exact_sqrt_products_still_load(text, left, right, product):
    spec = parse_algebra(text)
    value = spec.basis_element(left) * spec.basis_element(right) - spec.parse(product)
    assert value.sign() == 0


def test_unit_embeds_as_exactly_one():
    # a unit at 1 + 1e-10 once loaded: 10^12 then had float 1000000000100.0, floor 10^12
    with pytest.raises(PreconditionError, match="unit element must embed as 1.0"):
        AlgebraSpec(["1", "u"], [1, None], [1 + 1e-10, 0.5])
    assert float(AlgebraSpec(["1", "u"], [1, None], [1.0, 0.5]).from_rational(10**12)) == 10**12


def test_mismatched_specs_rejected(sqrt2, sqrt23):
    a = sqrt2.basis_element("w1")
    b = sqrt23.basis_element("w2")
    with pytest.raises(AlgebraMismatchError):
        _ = a + b


def test_rational_values_port_across_specs(sqrt2, sqrt23):
    half = sqrt2.parse("1/2")
    w2 = sqrt23.basis_element("w2")
    assert (half + w2) == sqrt23.parse("1/2 + 1*w2")


def test_membership_identity(sqrt2):
    w1 = sqrt2.basis_element("w1")
    assert module_membership([w1], [w1]) == (1, (0,))


def test_membership_absent(sqrt2):
    w1 = sqrt2.basis_element("w1")
    assert module_membership([sqrt2.parse("1/2")], [w1]) is None


def test_membership_two_dim(sqrt23):
    w1 = sqrt23.basis_element("w1")
    w2 = sqrt23.basis_element("w2")
    v = (w1 - 1, w2 + 2)
    assert module_membership(v, (w1, w2)) == (1, (-1, 2))


def test_membership_witness_roundtrip(sqrt23, rng):
    # substituting the witness reproduces v exactly, for random integer data
    w1 = sqrt23.basis_element("w1")
    w2 = sqrt23.basis_element("w2")
    alpha = (w1, w2)
    for _ in range(100):
        n = int(rng.integers(-50, 51))
        m = [int(rng.integers(-50, 51)) for _ in range(2)]
        v = tuple(alpha[i] * n + m[i] for i in range(2))
        got = module_membership(v, alpha)
        assert got == (n, tuple(m))
        rebuilt = tuple(alpha[i] * got[0] + got[1][i] for i in range(2))
        assert rebuilt == v


def test_membership_rational_alpha_scan():
    half = RATIONAL.parse("1/2")
    v = RATIONAL.parse("3/2")
    n, m = module_membership([v], [half])
    assert v == half * n + m[0]


def test_admissible_decomposition(sqrt23):
    w1 = sqrt23.basis_element("w1")
    w2 = sqrt23.basis_element("w2")
    assert admissible_decomposition((w1, w2), w1) == (0, 1, 0)
    assert admissible_decomposition((w1,), sqrt23.parse("2 - 1*w1")) == (2, -1)
    assert admissible_decomposition((w1,), sqrt23.parse("1/2")) is None


def _identity(spec, n):
    return [[spec.from_rational(int(i == j)) for j in range(n)] for i in range(n)]


def test_det_identity(sqrt23):
    assert exact_det(_identity(sqrt23, 3)) == sqrt23.one()


def test_det_two_by_two(sqrt23):
    w1 = sqrt23.basis_element("w1")
    w2 = sqrt23.basis_element("w2")
    m = [[w1, w2], [sqrt23.zero(), sqrt23.one()]]
    assert exact_det(m) == w1


def test_det_multiplicative_random(sqrt23, rng):
    # det(AB) = det(A) det(B) on random integer 3x3 matrices
    for _ in range(25):
        a = [[sqrt23.from_rational(int(rng.integers(-4, 5))) for _ in range(3)]
             for _ in range(3)]
        b = [[sqrt23.from_rational(int(rng.integers(-4, 5))) for _ in range(3)]
             for _ in range(3)]
        assert exact_det(mat_mul(a, b)) == exact_det(a) * exact_det(b)


def test_det_of_int_and_singular_matrices(sqrt23):
    # one cofactor expansion for every exact ring: Python ints stay ints, and a
    # singular QValue matrix gives the QValue zero of its algebra
    assert exact_det([[2, -1, 0], [1, 3, 4], [0, 5, -2]]) == -54
    assert exact_det([[0, 0], [0, 0]]) == 0 and type(exact_det([[0, 0], [0, 0]])) is int
    w1, w2 = sqrt23.basis_element("w1"), sqrt23.basis_element("w2")
    zero = exact_det([[w1, w2, 1 + w1], [2 * w1, 2 * w2, 2 + 2 * w1], [w2, 3, w1 * w2]])
    assert isinstance(zero, QValue) and zero.spec is sqrt23 and zero == sqrt23.zero()
    zero = exact_det([[sqrt23.zero()] * 2] * 2)
    assert isinstance(zero, QValue) and zero.coeffs == sqrt23.zero().coeffs
    with pytest.raises(PreconditionError, match="square"):
        exact_det([[1, 2], [3]])


def test_inverse_and_zero_divisor(sqrt23):
    w1 = sqrt23.basis_element("w1")
    assert w1.inverse() * w1 == sqrt23.one()
    v = sqrt23.parse("3 - 1*w1 + 2*w2")
    assert v * v.inverse() == sqrt23.one()
    with pytest.raises(PreconditionError):
        sqrt23.zero().inverse()
    # e^2 = e: e and e - 1 are zero divisors, 1 + e is a unit
    idem = AlgebraSpec.from_text("basis e = value 1.0\nproduct e e = e")
    e = idem.basis_element("e")
    assert (1 + e) * (1 + e).inverse() == 1 and (1 + e).inverse() == 1 - e / 2
    for z in (e, e - 1, idem.zero()):
        with pytest.raises(PreconditionError, match="value is not invertible in the declared algebra"):
            z.inverse()
    with pytest.raises(PreconditionError, match="not invertible"):
        mat_inverse([[e]])


def test_matrix_inverse(sqrt23, rng):
    w1 = sqrt23.basis_element("w1")
    m = [[w1, sqrt23.one()], [sqrt23.one(), w1]]
    assert mat_mul(m, mat_inverse(m)) == _identity(sqrt23, 2)


def _adjugate_inverse(mat):
    # reference: the cofactor adjugate over the determinant
    n = len(mat)
    adj = [[(-1) ** (i + j) * exact_det([[mat[r][c] for c in range(n) if c != i]
                                          for r in range(n) if r != j]) if n > 1 else 1
            for j in range(n)] for i in range(n)]
    det_inv = exact_det(mat).inverse()
    return [[x * det_inv for x in row] for row in adj]


@pytest.mark.parametrize("literal", ["rational", "sqrt:2,3"])
def test_mat_inverse_matches_adjugate_reference(literal):
    spec = RATIONAL if literal == "rational" else parse_algebra(literal)
    rng = np.random.default_rng(22)

    def entry():
        return QValue(spec, tuple(Fraction(int(p), int(q)) for p, q in
                                  zip(rng.integers(-2, 3, spec.dim), rng.integers(1, 3, spec.dim))))

    refused = 0
    for size in (1, 2, 3):
        for _ in range(20):
            m = [[entry() for _ in range(size)] for _ in range(size)]
            if exact_det(m) == 0:
                refused += 1
                for inverse in (mat_inverse, _adjugate_inverse):
                    with pytest.raises(PreconditionError):
                        inverse(m)
                continue
            assert ([[x.coeffs for x in row] for row in mat_inverse(m)]
                    == [[x.coeffs for x in row] for row in _adjugate_inverse(m)])
    w = spec.basis_element(spec.names[-1])
    singular = [[w, 1 + w, w], [2 * w, 2 + 2 * w, 3 * w], [w, 1 + w, 1]]
    assert exact_det(singular) == 0
    with pytest.raises(PreconditionError, match="not invertible"):
        mat_inverse(singular)
    with pytest.raises(PreconditionError, match="square"):
        mat_inverse([[w, w]])
    assert refused < 60


def test_rational_over_qvalue_is_the_inverse(sqrt23):
    v = sqrt23.parse("3 - 1*w1 + 2*w2")
    assert (1 / v).coeffs == v.inverse().coeffs
    assert (Fraction(3, 4) / v).coeffs == (v.inverse() * Fraction(3, 4)).coeffs
    assert Fraction(3, 4) / v * v == Fraction(3, 4)
    with pytest.raises(PreconditionError):
        1 / sqrt23.zero()
    with pytest.raises(TypeError):
        1.5 / v


def _membership_brute(v, alpha, n_box=6, m_box=20):
    # every (n, m) with |n| <= n_box, |m_i| <= m_box and v = n*alpha + m, by
    # QValue arithmetic, in increasing n
    per_axis = [{n: m for n, rest in ((n, vi - ai * n) for n in range(-n_box, n_box + 1))
                 for m in range(-m_box, m_box + 1) if rest == m} for vi, ai in zip(v, alpha)]
    return [(n, tuple(axis[n] for axis in per_axis))
            for n in sorted(set.intersection(*(set(axis) for axis in per_axis)))]


@pytest.mark.parametrize("case", ["irrational", "rational alpha", "rational algebra"])
def test_module_membership_against_brute_force(sqrt23, case):
    rng = np.random.default_rng(23)
    spec = RATIONAL if case == "rational algebra" else sqrt23
    w1, w2 = sqrt23.basis_element("w1"), sqrt23.basis_element("w2")
    for trial in range(12):
        d = 1 + trial % 2
        if case == "irrational":
            alpha = [QValue(spec, tuple(Fraction(int(c), 2) for c in rng.integers(-2, 3, 4)))
                     for _ in range(d)]
        else:
            alpha = [spec.from_rational(Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 4))))
                     for _ in range(d)]
        n0 = int(rng.integers(-3, 4))
        v = [a * n0 + int(rng.integers(-3, 4)) for a in alpha]
        variants = [v, [v[0] + Fraction(1, 2), *v[1:]]]  # v, and v off by 1/2
        if case == "irrational":  # inconsistent irrational parts, and n = 1/2
            variants += [[*v[:-1], v[-1] + w2 / 3], [a * Fraction(1, 2) + 1 for a in alpha]]
        elif case == "rational alpha":  # an irrational v
            variants.append([*v[:-1], v[-1] + w1])
        for x in variants:
            got, brute = module_membership(x, alpha), _membership_brute(x, alpha)
            if all(a.is_rational() for a in alpha):  # the least n >= 0 with a witness
                assert got == next(((n, m) for n, m in brute if n >= 0), None)
            else:
                assert [got] == brute or got is None and brute == []


def _squarefree(n):
    r, p = 1, 2
    while n > 1:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        r, p = r * p ** (e % 2), p + 1
    return r


def _from_sqrt_reference(gens):
    # the radicands closed under pairwise products up to squares by iterating
    # to a fixed point, then the basis and its product table
    rads = {1} | {_squarefree(g) for g in gens}
    while new := {_squarefree(a * b) for a in rads for b in rads} - rads:
        rads |= new
    order = sorted(rads)
    products = {}
    for i in range(1, len(order)):
        for j in range(i, len(order)):
            r = _squarefree(order[i] * order[j])
            coeffs = [Fraction(0)] * len(order)
            coeffs[order.index(r)] = Fraction(math.isqrt(order[i] * order[j] // r))
            products[(i, j)] = tuple(coeffs)
    names = ["1"] + [f"w{i}" for i in range(1, len(order))]
    return AlgebraSpec(names, [Fraction(r) for r in order], [math.sqrt(r) for r in order],
                       products)


@pytest.mark.parametrize("gens", [
    [2], [2, 3], [3, 2], [2, 2], [8], [12, 3], [2, 3, 6], [6, 10, 15], [4, 2], [18, 50],
    [9], [2, 3, 5, 7], [45, 20, 7],
])
def test_from_sqrt_matches_fixed_point_closure(gens):
    assert AlgebraSpec.from_sqrt(gens)._key() == _from_sqrt_reference(gens)._key()


def test_sign_and_floor(sqrt2):
    w1 = sqrt2.basis_element("w1")
    assert (sqrt2.parse("2") - w1).sign() == 1
    assert (w1 - 2).sign() == -1
    assert sqrt2.zero().sign() == 0
    assert w1.floor() == 1
    assert (-w1).floor() == -2
    assert (3 * w1).floor() == 4
    f = (3 * w1).frac()
    assert abs(float(f) - 0.2426406871) < 1e-9
    # 8119/5741 is a below-sqrt2 convergent, so 5741*sqrt2 - 8119 > 0
    assert (5741 * w1 - 8119).sign() == 1
    # (sqrt2 - 1)^30 ~ 2e-12: the float embedding cancels catastrophically
    # (coefficients ~ 4e11), so only the exact interval escalation can
    # decide the sign
    tiny = sqrt2.one()
    for _ in range(30):
        tiny = tiny * (w1 - 1)
    assert abs(float(tiny)) < 1e-4  # float eval is pure cancellation noise
    assert tiny.sign() == 1
    assert (-tiny).sign() == -1


@given(
    a=st.integers(-10**17, 10**17),
    b=st.integers(-10**17, 10**17),
    q=st.integers(1, 10**6),
    near=st.booleans(),
)
def test_floor_against_isqrt_oracle(sqrt2, a, b, q, near):
    # x = a/q + b*sqrt2; near: a/q cancels b*sqrt2 to within a few units of 1/q,
    # where the float guess of a value with ~1e17 coefficients is off by tens
    big = 2 * b * b * q * q  # (q * b * sqrt2)^2
    root = math.isqrt(big)
    if near:
        a = -root * (1 if b >= 0 else -1) + a % 7 - 3
    x = sqrt2.from_rational(Fraction(a, q)) + b * sqrt2.basis_element("w1")
    floor_s = root if b >= 0 else -root - (root * root != big)  # floor(q * b * sqrt2)
    assert x.floor() == (a + floor_s) // q
    if a * b >= 0:  # q * x = a + s, s = q * b * sqrt2: opposite signs compare a^2 with s^2
        want = (a > 0) - (a < 0) or (b > 0) - (b < 0)
    else:
        want = ((a > 0) - (a < 0)) * ((a * a > big) - (a * a < big))
    assert x.sign() == want


# sqrt(p/q) declared as text: squarefree, not squarefree, rational
_CLOSED_FORM_RADICANDS = {"2": (2, 1), "8": (8, 1), "1/2": (1, 2)}
_CLOSED_FORM_SPECS = {
    rad: AlgebraSpec.from_text(f"basis w1 = sqrt {rad}") for rad in _CLOSED_FORM_RADICANDS
}


def _sqrt_convergents(n, bound):
    """Convergents P/Q of sqrt(n), n not a square, with P, Q <= bound.

    Integer-only periodic continued fraction: a_k = (a_0 + m_k) // d_k.
    """
    a0 = math.isqrt(n)
    m, d, a = 0, 1, a0
    p0, q0, p1, q1 = 1, 0, a0, 1
    out = []
    while p1 <= bound and q1 <= bound:
        out.append((p1, q1))
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
    return out


def _oracle_sign(a, b, p, q):
    """Sign of a + b*sqrt(p/q) in 60-digit decimal, and the decimal value."""
    with localcontext() as ctx:
        ctx.prec = 60
        v = Decimal(a) + Decimal(b) * (Decimal(p) / Decimal(q)).sqrt()
    # nonzero values here exceed 1e-19, far above the 1e-42 rounding error
    assert v == 0 or abs(v) > Decimal(10) ** -30
    return (v > 0) - (v < 0), v


def _oracle_floor(a, b, p, q, den):
    """floor((a + b*sqrt(p/q)) / den) from integer isqrt alone."""
    # (a + b sqrt(p/q)) / den = (a q + b sqrt(pq)) / (q den), and for m >= 1
    # floor(-sqrt(m)) = -ceil(sqrt(m)) = -(isqrt(m - 1) + 1)
    m = b * b * p * q
    part = math.isqrt(m) if b >= 0 or m == 0 else -(math.isqrt(m - 1) + 1)
    return (a * q + part) // (q * den)


@given(
    rad=st.sampled_from(sorted(_CLOSED_FORM_RADICANDS)),
    a=st.integers(-10**17, 10**17),
    b=st.integers(-10**17, 10**17),
    den=st.integers(1, 10**6),
    cancel=st.booleans(),
    second=st.booleans(),
)
def test_closed_form_sign_floor_against_oracle(rad, a, b, den, cancel, second):
    # cancel: a + b*sqrt(p/q) is a convergent's error, scaled by den >= 1e4
    # to |value| < 1e-20
    p, q = _CLOSED_FORM_RADICANDS[rad]
    if cancel:
        conv = _sqrt_convergents(p * q, 10**17 // q)
        big_p, big_q = conv[-2] if second else conv[-1]
        flip = -1 if b < 0 else 1
        a, b = -flip * big_p, flip * q * big_q
        den += 10**4
    want, v = _oracle_sign(a, b, p, q)
    if cancel:
        assert abs(v) < den * Decimal(10) ** -20
    spec = _CLOSED_FORM_SPECS[rad]
    x = (spec.from_rational(a) + b * spec.basis_element("w1")) / den
    assert x.sign() == want
    assert (-x).sign() == -want
    assert x.floor() == _oracle_floor(a, b, p, q, den)
    assert (-x).floor() == _oracle_floor(-a, -b, p, q, den)


# the tower's fields: two multiquadratic bases, and a text spec whose
# radicands 6, 10 and 15 share primes pairwise (gcd refinement, no products)
_TOWER_SPECS = {
    "2,3": AlgebraSpec.from_sqrt([2, 3]),
    "2,3,5": AlgebraSpec.from_sqrt([2, 3, 5]),
    "6,10,15": AlgebraSpec.from_text(
        "basis w1 = sqrt 6\nbasis w2 = sqrt 10\nbasis w3 = sqrt 15\n"),
}
# small units of Q(sqrt2, sqrt3), with the largest power whose coefficients
# stay below 1e16 (and whose value is below 1.2e-16)
_SMALL_UNITS = {"w1 - 1": 42, "2 - w2": 28, "w2 - w1": 32}


@functools.cache
def _unit_power(spec_name, unit, n):
    spec = _TOWER_SPECS[spec_name]
    return spec.one() if n == 0 else _unit_power(spec_name, unit, n - 1) * spec.parse(unit)


def _decimal_oracle(x):
    """(sign, floor, value) of x from 90-digit decimal, sharing no code with sign()."""
    if all(c == 0 for c in x.coeffs[1:]):  # the basis is independent over Q
        c = x.coeffs[0]
        return (c > 0) - (c < 0), math.floor(c), Decimal(c.numerator) / c.denominator
    with localcontext() as ctx:
        ctx.prec = 90
        v = sum(Decimal(c.numerator) / Decimal(c.denominator) * Decimal(int(r)).sqrt()
                for c, r in zip(x.coeffs, x.spec.radicands))
        fl = math.floor(v)
    # coefficients stay below 1e24, so the rounding error is below 1e-60;
    # an irrational value is at least 1e-40 from every integer here
    assert min(abs(v), v - fl, fl + 1 - v) > Decimal(10) ** -45
    return (v > 0) - (v < 0), fl, v


@given(
    spec_name=st.sampled_from(sorted(_TOWER_SPECS)),
    coeffs=st.lists(st.integers(-10**17, 10**17), min_size=8, max_size=8),
    den=st.integers(1, 10**6),
    cancel=st.booleans(),
    unit=st.sampled_from(sorted(_SMALL_UNITS)),
    drop=st.integers(0, 3),
    mult=st.lists(st.integers(-3, 3), min_size=8, max_size=8),
)
def test_tower_sign_floor_against_decimal_oracle(spec_name, coeffs, den, cancel, unit, drop,
                                                 mult):
    # cancel: a high power of a small unit times a small multiplier, over a
    # denominator above 1e8, so |value| < 1e-20 with coefficients up to ~1e17
    spec = _TOWER_SPECS[spec_name]
    cancel = cancel and spec_name != "6,10,15"  # the units lie in Q(sqrt2, sqrt3)
    if cancel:
        power = _unit_power(spec_name, unit, _SMALL_UNITS[unit] - drop)
        x = power * QValue(spec, [Fraction(c) for c in mult[:spec.dim]]) / (10**8 + den)
    else:
        x = QValue(spec, [Fraction(c, den) for c in coeffs[:spec.dim]])
    want, want_floor, v = _decimal_oracle(x)
    if cancel:
        assert abs(v) < Decimal(10) ** -20
    assert x.sign() == want
    assert (-x).sign() == -want
    assert x.floor() == want_floor


def test_spec_refuses_a_repeated_squarefree_root():
    # sqrt 8 = 2 sqrt 2: with both declared, 2*w1 - w2 would have sign 0
    # but nonzero coefficients, so == 0, < 0 and > 0 would all be False
    with pytest.raises(PreconditionError) as err:
        AlgebraSpec.from_text("basis w1 = sqrt 2\nbasis w2 = sqrt 3\nbasis w3 = sqrt 8\n")
    assert "'basis w1 = sqrt 2'" in str(err.value)
    assert "'basis w3 = sqrt 8'" in str(err.value)
    with pytest.raises(PreconditionError, match="sqrt 1/3"):  # sqrt(1/3) = sqrt(3)/3
        AlgebraSpec(["1", "a", "b"], [1, 3, Fraction(1, 3)])
    with pytest.raises(PreconditionError, match="same squarefree root sqrt 1"):
        AlgebraSpec.from_text("basis w1 = sqrt 4\nbasis w2 = sqrt 9\n")
    # a rational square or 0 alone shares the unit's root 1: w1 - 2 over sqrt 4
    # would be neither < 0, > 0 nor == 0
    for rad in ("4", "0", "9/4"):
        with pytest.raises(PreconditionError,
                           match=f"'basis 1 = sqrt 1' and 'basis w1 = sqrt {rad}'"):
            AlgebraSpec.from_text(f"basis w1 = sqrt {rad}\n")
    spec = AlgebraSpec.from_text(
        "basis w1 = sqrt 2\nbasis w2 = sqrt 3\nbasis w3 = sqrt 24\n"
        "product w1 w2 = 1/2*w3\n")  # sqrt 24 = 2 sqrt 6: distinct roots
    w1, w2, w3 = (spec.basis_element(f"w{i}") for i in (1, 2, 3))
    assert w3 - 2 * w1 * w2 == 0
    assert (w3 - w1 - w2).sign() == 1 and (w3 - w1 - w2).floor() == 1


def test_multi_root_floor_past_the_float_range(sqrt23):
    # a float guess overflows here; every sign the bracketing needs is exact
    w1, w2, w3 = (sqrt23.basis_element(f"w{i}") for i in (1, 2, 3))
    assert (sqrt23.from_rational(10**400) + w1 + w2).floor() == 10**400 + 3
    rng = np.random.default_rng(400)
    digits = 450  # the oracle floors each root term at 10^-450
    for _ in range(40):
        a, b, c = (int(v) * 10**398 + int(u) for v, u in rng.integers(-10**6, 10**6, (3, 2)))
        base = int(rng.integers(-10**6, 10**6)) * 10**400
        x = base + a * w1 + b * w2 + c * w3
        low = base * 10**digits + sum(
            math.isqrt(k * k * r * 10**(2 * digits)) if k >= 0
            else -math.isqrt(k * k * r * 10**(2 * digits)) - 1
            for k, r in ((a, 2), (b, 3), (c, 6)))
        # low <= x * 10^digits < low + 3: the floor is decided unless an
        # integer falls in between
        assert low // 10**digits == (low + 3) // 10**digits
        assert x.floor() == low // 10**digits
        assert (-x).floor() == -(low // 10**digits) - 1


def test_huge_radicand_refused_quickly(tmp_path):
    # trial division to the cube root would not finish on this prime; the
    # child process runs under a timeout, so a regression fails, not hangs
    src = str(Path(quasilab.__file__).resolve().parent.parent)
    code = ("import time; from quasilab.algebra import AlgebraSpec\n"
            "t = time.perf_counter()\n"
            "try:\n"
            "    AlgebraSpec.from_text('basis w1 = sqrt 1000000000000000000000000000057')\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, time.perf_counter() - t)\n")
    out = subprocess.run([sys.executable, "-c", code], check=True, timeout=30,
                         capture_output=True, text=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src})
    name, seconds = out.stdout.split()
    assert name == "PreconditionError" and float(seconds) < 1.0
    with pytest.raises(PreconditionError, match="exceeds 10\\^15"):
        AlgebraSpec.from_text(f"basis w1 = sqrt 1/{10**15 + 1}")
    # a prime at the bound: the longest trial division still accepted
    assert AlgebraSpec.from_text("basis w1 = sqrt 1/999999999999989").dim == 2


def test_scalar_product_matches_table(sqrt23, rng):
    for _ in range(20):
        x = QValue(sqrt23, [Fraction(int(v), int(w)) for v, w in
                            zip(rng.integers(-99, 99, 4), rng.integers(1, 9, 4))])
        for k in (0, 1, -3, Fraction(5, 7), 10**20):
            assert (x * k).coeffs == (x * sqrt23.from_rational(k)).coeffs
            assert (k * x).coeffs == (x * k).coeffs
    # numpy ints become Python ints: a product past 2^63 does not wrap
    big = sqrt23.from_rational(np.int64(2**62)) + QValue(sqrt23, [np.int64(0), np.int64(2**62), 0, 0])
    assert all(type(n) is int for n in big.nums) and (big * big).nums == (3 * 2**124, 2**125, 0, 0)


def test_sign_undecidable_without_descriptor():
    spec = AlgebraSpec(
        ["1", "u"], [Fraction(1), None], [1.0, 1.0000000001],
        {(1, 1): (Fraction(1), Fraction(0))},
    )
    u = spec.basis_element("u")
    with pytest.raises(SignUndecidableError, match=r"\|-1 \+ 1\*u\| ~ 1.000000082740371e-10 is inside the guard band 2e-09"):
        (u - 1).sign()  # inside the guard band, no sqrt descriptor


def test_value_element_band_scales_with_its_terms():
    # n*u - m with m = isqrt(3 n^2) is positive, but its float is the rounded
    # difference of two terms near 8.9e15; a band of 1e-9 times the terms'
    # magnitude refuses it where a fixed 1e-9 band read -1
    spec = AlgebraSpec.from_text("basis u = value 1.7320508075688772\nproduct u u = 3")
    n = 5150000000000045
    m = math.isqrt(3 * n * n)
    assert m == 8920061658979796
    with pytest.raises(SignUndecidableError, match="guard band"):
        spec.sign_of([-m, n], 1)
    # terms whose magnitudes sum to at most 1 keep the 1e-9 band
    assert spec.sign_of([-1, 0], 2) == -1
    assert spec.sign_of([-1732050801, 10**9], 4 * 10**9) == 1  # about 1.6e-9 over 0.87
    with pytest.raises(SignUndecidableError):
        spec.sign_of([-17320508075, 10**10], 2 * 10**10)


# two value-declared elements: every floor here is bracketed around the float
_VALUE_SPEC = AlgebraSpec.from_text(
    "basis u = value 0.7071067811865476\nbasis v = value 2.718281828459045")


def _doubling_floor(spec, nums, den):
    """Reference: the value-declared floor as a search from the float's floor g
    of every term, stepping 1, 2, 4, ... up or down until a bracket holds."""

    def at_least(m):
        return spec.sign_of([nums[0] - m * den, *nums[1:]], den) >= 0

    g = math.floor(math.fsum(n / den * x for n, x in zip(nums, spec.numerics) if n))
    step = 1
    if at_least(g):
        while at_least(g + step):
            step *= 2
        lo, hi = g + step // 2, g + step - 1
    else:
        while not at_least(g - step):
            step *= 2
        lo, hi = g - step, g - step // 2 - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if at_least(mid) else (lo, mid - 1)
    return lo


def _outcome(floor, nums, den):
    try:
        return floor(_VALUE_SPEC, nums, den)
    except SignUndecidableError:
        return "refused"


def test_value_floor_matches_the_doubling_search():
    # magnitudes up to 1e12; every third value lies within 1e-10 of an
    # integer k, above or below it: k + (s - round(s)) / den with den >= 1e10
    # and s the value terms' numerator.  Answers and refusals must agree.
    rng = np.random.default_rng(33)
    x = [Fraction(v) for v in _VALUE_SPEC.numerics[1:]]
    seen = {"answer": 0, "refused": 0, "near": 0}
    for i in range(3000):
        k = int(rng.uniform(-1, 1) * 10.0 ** rng.uniform(0, 12))
        if i % 3 == 0:
            den = int(rng.integers(10**10, 10**12))
            n = [int(v) for v in rng.integers(-10**6, 10**6, 2)]
            s = n[0] * x[0] + n[1] * x[1]
            nums = [k * den - round(s), *n]
            assert 0 < abs(k - (nums[0] + s) / den) < Fraction(1, 10**10)
            seen["near"] += 1
        else:
            den = int(rng.integers(1, 10**6))
            n = [int(rng.uniform(-1, 1) * 10.0 ** rng.uniform(0, 12) * den) for _ in range(2)]
            nums = [k * den + int(rng.integers(-den, den)), *n]
        want = _outcome(_doubling_floor, nums, den)
        assert _outcome(AlgebraSpec.floor_of, nums, den) == want, (nums, den)
        seen["refused" if want == "refused" else "answer"] += 1
    assert seen["near"] == 1000 and min(seen.values()) > 300, seen


def test_value_floor_probes_g_then_g_plus_one(monkeypatch):
    probes = []
    sign_of = AlgebraSpec.sign_of
    monkeypatch.setattr(AlgebraSpec, "sign_of",
                        lambda self, nums, den: probes.append(nums[0]) or sign_of(self, nums, den))
    u = _VALUE_SPEC.basis_element("u")
    assert (u + 10**12).floor() == 10**12  # 1e12 + 0.707...
    assert probes == [0, -1]  # the numerators of value - g and value - (g + 1)


def test_value_floor_just_below_and_just_above_an_integer():
    # 1e-8 off 10^12 is decided: the band is 1e-9 of the terms of value - m
    u = _VALUE_SPEC.basis_element("u")
    tiny = u * Fraction(1, 70710678)  # about 1e-8
    assert (10**12 - tiny).floor() == 10**12 - 1
    assert (10**12 + tiny).floor() == 10**12
    assert (5 - tiny).floor() == 4 and (-5 + tiny).floor() == -5


def test_value_floor_refuses_inside_the_band():
    u = _VALUE_SPEC.basis_element("u")
    with pytest.raises(SignUndecidableError, match="guard band"):
        (10**12 + u * Fraction(1, 7071067811)).floor()  # about 1e-10 above 10^12


def test_value_floor_takes_the_integer_part_exactly():
    # past 2^53 the float of 2^55 + 10 + u (u = 0.707...) is 2^55 + 8, so a
    # bracket [g - 1, g + 1] around that float's floor would answer 2^55 + 9;
    # the exact quotient q keeps g at the floor, as the doubling search finds it
    u = _VALUE_SPEC.basis_element("u")
    assert math.floor(float(2**55 + 10 + u)) == 2**55 + 8
    for k in (2**55 + 10, 2**54 + 3, -(2**60) - 7):
        for x, want in ((k + u, k), (k - u, k - 1), (k + u / 3, k)):
            assert x.floor() == _doubling_floor(_VALUE_SPEC, x.nums, x.den) == want


def test_parse_roundtrip(sqrt23):
    v = sqrt23.parse("3/2 + 1*w1 - 2*w2")
    assert sqrt23.parse(str(v)) == v
    assert str(sqrt23.zero()) == "0"
    assert sqrt23.parse("w1 - 1") == sqrt23.basis_element("w1") - 1


def test_parse_decimal_and_exponent_literals(sqrt2):
    # every plain decimal float() reads is an exact rational here; the
    # sign of an exponent does not split the literal into two terms
    w1 = sqrt2.basis_element("w1")
    for text in ("0.1171875", repr(float(37 / 256)), "1e-5", "-1e-5", "1E-5",
                 "2.5e+3", ".5", "1.", "0.3"):
        assert sqrt2.parse(text) == sqrt2.from_rational(Fraction(text))
    assert sqrt2.parse("1/2 - 3*w1") == sqrt2.from_rational(Fraction(1, 2)) - 3 * w1
    assert sqrt2.parse("-1e-3 + w1") == w1 - sqrt2.from_rational(Fraction(1, 1000))
    assert sqrt2.parse("w1-1") == w1 - 1
    with pytest.raises(PreconditionError):
        sqrt2.parse("1e-5/2")


def test_algebra_text_roundtrip(sqrt23):
    spec2 = parse_algebra(sqrt23.to_text())
    assert spec2 == sqrt23 and spec2.to_text() == sqrt23.to_text()
    assert parse_algebra("sqrt:2,3") == sqrt23


def test_spec_text_format_example():
    spec = AlgebraSpec.from_text(
        "basis w1 = sqrt 2\nbasis w2 = sqrt 3\nbasis w3 = sqrt 6\n"
        "product w1 w2 = w3\nproduct w1 w3 = 2*w2\nproduct w2 w3 = 3*w1\n"
    )
    w1, w2 = spec.basis_element("w1"), spec.basis_element("w2")
    assert w1 * w2 == spec.basis_element("w3")
    assert spec.parse("3/2 + 1*w1 - 2*w2").coeffs == (
        Fraction(3, 2), Fraction(1), Fraction(-2), Fraction(0),
    )


def test_undeclared_product_rejected():
    spec = AlgebraSpec.from_text("basis w1 = sqrt 2\nbasis w2 = sqrt 3\n")
    with pytest.raises(PreconditionError, match="not declared"):
        _ = spec.basis_element("w1") * spec.basis_element("w2")
    # only the products that need w1*w2 are refused
    w1, w2 = spec.basis_element("w1"), spec.basis_element("w2")
    assert (w1 + 3) * (w1 - 3) == -7 and (w1 + w2) * 5 == 5 * w1 + 5 * w2
    with pytest.raises(PreconditionError, match=r"product w1\*w2 is not declared"):
        _ = (w1 + 1) * (w2 + 1)
    with pytest.raises(PreconditionError, match=r"product w2\*w1 is not declared"):
        w1.inverse()  # its multiplication matrix holds w2*w1


# -- the integer form against a Fraction-tuple reference -----------------------

_FORM_SPECS = {
    "sqrt:2": parse_algebra("sqrt:2"),
    "sqrt:2,3": parse_algebra("sqrt:2,3"),
    "sqrt:2,3,5": parse_algebra("sqrt:2,3,5"),
    # w1 = golden ratio / 2: a product coefficient with denominator 4
    "value": AlgebraSpec.from_text(
        "basis w1 = value 0.8090169943749475\nproduct w1 w1 = 1/4 + 1/2*w1"),
}
_COEFF = st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**6)) | st.integers(-3, 3)


def _ref_mul(spec, a, b):
    """The product of two Fraction coefficient tuples, term by term from product_coeffs."""
    out = [Fraction(0)] * spec.dim
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x and y:
                for l, c in enumerate(spec.product_coeffs(i, j)):
                    out[l] += x * y * c
    return tuple(out)


def _ref_str(spec, coeffs):
    """The text of a value as its Fraction coefficients print it."""
    terms = [(c < 0, str(abs(c)) if i == 0 else f"{abs(c)}*{spec.names[i]}")
             for i, c in enumerate(coeffs) if c != 0]
    if not terms:
        return "0"
    out = ("-" if terms[0][0] else "") + terms[0][1]
    return out + "".join((" - " if neg else " + ") + body for neg, body in terms[1:])


@settings(max_examples=150)
@given(name=st.sampled_from(sorted(_FORM_SPECS)), data=st.data())
def test_integer_form_matches_fraction_reference(name, data):
    spec = _FORM_SPECS[name]
    ca, cb = (tuple(Fraction(c) for c in data.draw(st.lists(_COEFF, min_size=spec.dim,
                                                            max_size=spec.dim)))
              for _ in range(2))
    a, b = QValue(spec, ca), QValue(spec, cb)
    assert a.coeffs == ca and b.coeffs == cb
    assert a.den > 0 and math.gcd(a.den, *a.nums) == 1
    assert (a + b).coeffs == tuple(x + y for x, y in zip(ca, cb))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(ca, cb))
    assert (a * b).coeffs == _ref_mul(spec, ca, cb)
    k = data.draw(_COEFF)
    assert (a * k).coeffs == tuple(x * k for x in ca) == (k * a).coeffs
    assert (a + int(k)).coeffs == (ca[0] + int(k), *ca[1:])
    if any(cb):  # every algebra here is a field: only 0 has no inverse
        assert _ref_mul(spec, cb, b.inverse().coeffs) == (1,) + (0,) * (spec.dim - 1)
        assert (a / b).coeffs == _ref_mul(spec, ca, b.inverse().coeffs)
    # float: the fsum of float(c) * x, bit for bit; text: as the coefficients print
    assert float(a).hex() == math.fsum(float(c) * x for c, x in zip(ca, spec.numerics) if c).hex()
    assert str(a) == _ref_str(spec, ca)
    # a rational value equals, and hashes as, its int or Fraction
    r = QValue(spec, (ca[0],) + (0,) * (spec.dim - 1))
    assert r == ca[0] and hash(r) == hash(ca[0]) and r.is_rational()
    assert (r == int(ca[0])) == (ca[0].denominator == 1)
    if ca[0].denominator == 1:
        assert hash(r) == hash(int(ca[0])) and r.is_integer()
    assert (a == ca[0]) == (not any(ca[1:]))
