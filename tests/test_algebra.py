import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasilab.algebra import (
    AlgebraSpec,
    QValue,
    admissible_decomposition,
    exact_det,
    mat_identity,
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
    from quasilab.algebra import RATIONAL

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


def test_det_identity(sqrt23):
    assert exact_det(mat_identity(sqrt23, 3)) == sqrt23.one()


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


def test_inverse_and_zero_divisor(sqrt23):
    w1 = sqrt23.basis_element("w1")
    assert w1.inverse() * w1 == sqrt23.one()
    v = sqrt23.parse("3 - 1*w1 + 2*w2")
    assert v * v.inverse() == sqrt23.one()
    with pytest.raises(PreconditionError):
        sqrt23.zero().inverse()


def test_matrix_inverse(sqrt23, rng):
    w1 = sqrt23.basis_element("w1")
    m = [[w1, sqrt23.one()], [sqrt23.one(), w1]]
    assert mat_mul(m, mat_inverse(m)) == mat_identity(sqrt23, 2)


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
    near=st.booleans(),
)
def test_floor_against_isqrt_oracle(sqrt2, a, b, near):
    # near: a cancels b*sqrt2 to within a few units, where the float guess
    # of a value with ~1e17 coefficients is off by tens
    if near:
        a = -math.isqrt(2 * b * b) * (1 if b >= 0 else -1) + a % 7 - 3
    s = math.isqrt(2 * b * b)
    want = a + s if b >= 0 else a - s - 1
    assert (a + b * sqrt2.basis_element("w1")).floor() == want


def test_sign_undecidable_without_descriptor():
    spec = AlgebraSpec(
        ["1", "u"], [Fraction(1), None], [1.0, 1.0000000001],
        {(1, 1): (Fraction(1), Fraction(0))},
    )
    u = spec.basis_element("u")
    with pytest.raises(SignUndecidableError):
        (u - 1).sign()  # inside the guard band, no sqrt descriptor


def test_parse_roundtrip(sqrt23):
    v = sqrt23.parse("3/2 + 1*w1 - 2*w2")
    assert sqrt23.parse(str(v)) == v
    assert str(sqrt23.zero()) == "0"
    assert sqrt23.parse("w1 - 1") == sqrt23.basis_element("w1") - 1


def test_algebra_text_roundtrip(sqrt23):
    spec2 = parse_algebra(sqrt23.to_text())
    assert spec2 == sqrt23
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
