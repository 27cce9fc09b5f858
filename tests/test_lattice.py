import numpy as np
import pytest

from quasilab.algebra import RATIONAL, QValue, exact_det, mat_mul
from quasilab.errors import PreconditionError
from quasilab.lattice import (
    Lattice,
    lattice_from_text,
    lattice_to_text,
    make_special_lattice,
    reduce_to_special,
    transform_pointset,
    transform_region,
)


@pytest.fixture
def special_pair(sqrt2):
    return make_special_lattice([sqrt2.basis_element("w1")], [sqrt2.one()])


def test_special_generator_formula(sqrt2, special_pair):
    gamma, _ = special_pair
    w1 = sqrt2.basis_element("w1")
    # generator for (m, n) = (1, 0) is (1 + sqrt2, -sqrt2)
    assert gamma.generator(0) == (sqrt2.one() + w1, -w1)
    assert gamma.generator(1) == (sqrt2.from_rational(-1), sqrt2.one())


def test_special_pairings_are_integers(special_pair):
    gamma, gamma_star = special_pair
    pair = gamma.pairing_matrix(gamma_star)
    assert all(v.is_integer() for row in pair for v in row)


def test_special_det_is_unit(special_pair):
    gamma, gamma_star = special_pair
    assert gamma.det == 1 or gamma.det == -1
    assert gamma_star.det == 1 or gamma_star.det == -1


def test_special_orthogonal_pairing_example(sqrt2, special_pair):
    gamma, gamma_star = special_pair
    w1 = sqrt2.basis_element("w1")
    g = gamma.generator(0)        # (1+sqrt2, -sqrt2)
    gs = gamma_star.generator(1)  # (sqrt2, 1+sqrt2)
    ip = g[0] * gs[0] + g[1] * gs[1]
    assert ip == sqrt2.zero()


def test_rank_checks_reject_dependent_data(sqrt2, sqrt23):
    with pytest.raises(PreconditionError, match=r"condition \(i\)"):
        make_special_lattice([sqrt2.parse("1/2")], [sqrt2.one()])
    w1 = sqrt23.basis_element("w1")
    with pytest.raises(PreconditionError, match=r"condition \(ii\)"):
        # beta = -1/alpha => 1 + beta^T alpha = 0, rationally dependent
        make_special_lattice([w1], [sqrt23.parse("-1/2*w1")])


def test_dual_lattice_identity(sqrt2):
    eye = Lattice(1, [[sqrt2.one(), sqrt2.zero()], [sqrt2.zero(), sqrt2.one()]])
    assert eye.dual.basis == eye.basis


def test_dual_lattice_diagonal(sqrt2):
    lat = Lattice(1, [[sqrt2.from_rational(2), sqrt2.zero()],
                      [sqrt2.zero(), sqrt2.one()]])
    dual = lat.dual
    assert dual.basis[0][0] == sqrt2.parse("1/2")
    assert dual.basis[1][1] == sqrt2.one()


def test_dual_matches_displayed_formula(special_pair):
    gamma, gamma_star = special_pair
    assert gamma.dual.basis == gamma_star.basis


def test_dual_matches_displayed_formula_random(sqrt23, rng):
    # exact dual == displayed dual generators for small-integer alpha, beta
    # data over {1, sqrt2, sqrt3, sqrt6}, in one and two dimensions
    names = ["w1", "w2", "w3"]

    def draw():
        coeffs = rng.integers(-2, 3, size=4)
        return sum(
            (int(c) * sqrt23.basis_element(n) for c, n in zip(coeffs[1:], names)),
            sqrt23.from_rational(int(coeffs[0])),
        )

    for d in (1, 2):
        found = 0
        while found < 5:
            alpha = [draw() for _ in range(d)]
            beta = [draw() for _ in range(d)]
            try:
                gamma, gamma_star = make_special_lattice(alpha, beta)
            except PreconditionError:
                continue
            found += 1
            assert gamma.dual.basis == gamma_star.basis
            assert gamma.pairings_are_integer(gamma_star)
            assert gamma.det == 1 or gamma.det == -1


def test_reduce_fixed_point(special_pair):
    gamma, _ = special_pair
    a, b, reduced = reduce_to_special(gamma)
    assert a == [[gamma.spec.one()]]
    assert b == gamma.spec.one()
    assert reduced.basis == gamma.basis


def test_reduce_recovers_scaling(sqrt2, special_pair):
    gamma, _ = special_pair
    two = sqrt2.from_rational(2)
    scaled = Lattice(1, [
        [gamma.basis[0][0] * two, gamma.basis[0][1] * two],
        [gamma.basis[1][0], gamma.basis[1][1]],
    ])
    a, b, reduced = reduce_to_special(scaled)
    assert a == [[sqrt2.parse("1/2")]]
    assert b == sqrt2.one()
    assert reduced.basis == gamma.basis


def test_reduce_preserves_duality(sqrt2, special_pair):
    gamma, _ = special_pair
    two = sqrt2.from_rational(2)
    scaled = Lattice(1, [
        [gamma.basis[0][0] * two, gamma.basis[0][1] * two],
        [gamma.basis[1][0], gamma.basis[1][1]],
    ])
    _, _, reduced = reduce_to_special(scaled)
    assert reduced.pairings_are_integer(reduced.dual)


def test_reduce_d2(sqrt23):
    w1, w2 = sqrt23.basis_element("w1"), sqrt23.basis_element("w2")
    gamma, _ = make_special_lattice([w1, w2], [w1, w2])
    # pre-compose with (x, y) -> (2x, y)
    two = sqrt23.from_rational(2)
    basis = [list(row) for row in gamma.basis]
    for j in range(3):
        basis[0][j] = basis[0][j] * two
        basis[1][j] = basis[1][j] * two
    a, b, reduced = reduce_to_special(Lattice(2, basis))
    assert reduced.basis == gamma.basis
    assert a == [[sqrt23.parse("1/2"), sqrt23.zero()],
                 [sqrt23.zero(), sqrt23.parse("1/2")]]


def test_lattice_point_evaluation(special_pair, sqrt2):
    gamma, _ = special_pair
    w1 = sqrt2.basis_element("w1")
    # point for (m, n) = (1, 1): ((1+ba)m - bn, n - am) = (sqrt2, 1 - sqrt2)
    assert gamma.point([1, 1]) == (w1, sqrt2.one() - w1)


def test_text_roundtrip(special_pair, sqrt2):
    gamma, _ = special_pair
    again = lattice_from_text(lattice_to_text(gamma))
    assert again.basis == gamma.basis and lattice_to_text(again) == lattice_to_text(gamma)
    # the algebra written is the join of the basis, not its first entry's
    mixed = Lattice(1, [[RATIONAL.one(), sqrt2.basis_element("w1")],
                        [RATIONAL.zero(), RATIONAL.one()]])
    assert mixed.spec == sqrt2
    assert lattice_from_text(lattice_to_text(mixed)).basis == mixed.basis


@pytest.mark.parametrize("text, named", [
    ("dim_d = 1\ngenerator 1, 0\ngenerator 0\n", "d+1 generators of d+1 entries"),
    ("dim_d = 1\ngenerator 1, 0\ngenerator 0, 1, 5\n", "d+1 generators of d+1 entries"),
    ("dim_d = 1\ndim_d = 1\ngenerator 1, 0\ngenerator 0, 1\n", "one dim_d >= 1"),
    ("dim_d = -1\n", "one dim_d >= 1"),
    ("dim = 1\ngenerator 1, 0\ngenerator 0, 1\n", "line 1 'dim = 1'"),
    ("dim_d 1\ngenerator 1, 0\ngenerator 0, 1\n", "line 1 'dim_d 1'"),
    ("dim_d = 1\ngenerator 1, 0\n# comment lines count\ngenerator 0, 1/0\n", "line 4 'generator 0, 1/0'"),
])
def test_lattice_text_refuses_malformed_lines(text, named):
    # a third entry of a generator was dropped without a word
    with pytest.raises(PreconditionError) as exc:
        lattice_from_text(text)
    assert named in str(exc.value)


def test_transforms(sqrt2):
    from quasilab.modelset import PointSet
    from quasilab.regions import interval

    pts = PointSet(1, np.array([[0.0], [1.0], [2.0]]), ((0,), (1,), (2,)))
    doubled = transform_pointset(pts, np.array([[2.0]]))
    assert np.allclose(doubled.coords[:, 0], [0.0, 2.0, 4.0])
    assert doubled.provenance.dtype == np.int64
    assert doubled.provenance.shape == (3, 1)
    assert np.array_equal(doubled.provenance, pts.provenance)

    region = interval(sqrt2.zero(), sqrt2.one())
    half = transform_region(region, [[sqrt2.parse("1/2")]])
    assert half.volume() == sqrt2.parse("1/2")
    with pytest.raises(PreconditionError):
        transform_pointset(pts, np.array([[0.0]]))


def test_transform_pointset_decides_singularity_exactly(sqrt2):
    # float and int entries are their exact rationals: a tiny or nearly
    # singular map is invertible, and a float-cancelling singular one is refused
    from quasilab.modelset import PointSet

    pts = PointSet(2, np.array([[1.0, 2.0], [3.0, 4.0]]), ((0, 0), (1, 1)))
    tiny = transform_pointset(pts, np.diag([1e-8, 1e-8]))
    assert np.array_equal(tiny.coords, pts.coords @ np.diag([1e-8, 1e-8]).T)
    near = [[1, 1], [1, 1 + 1e-15]]
    assert np.array_equal(transform_pointset(pts, near).coords, pts.coords @ np.array(near).T)
    w1 = sqrt2.basis_element("w1")
    for singular in ([[1e8, 1e8], [1, 1]], [[w1, 1], [2, w1]]):
        with pytest.raises(PreconditionError, match="singular"):
            transform_pointset(pts, singular)
