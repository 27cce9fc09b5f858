"""Full-rank lattices in R^(d+1), their duals, and the special form.

Basis matrices follow a column-generator convention throughout: column i of
the basis matrix is the i-th generator.  The first d generator indices are
written m_1..m_d and the last one n, matching the integer coordinates used
for point provenance.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .algebra import (
    AlgebraSpec,
    QMatrix,
    QValue,
    coeff_rank,
    declared_int,
    exact_det,
    join,
    mat_inverse,
    mat_mul,
    mat_transpose,
    mat_vec,
    read_declaration,
)
from .errors import PreconditionError


class Lattice:
    """Lattice given by an exact basis matrix (columns are generators).

    ``spec`` is the :func:`~quasilab.algebra.join` of the basis entries.
    """

    def __init__(self, dim_d: int, basis: QMatrix) -> None:
        n = dim_d + 1
        if len(basis) != n or any(len(row) != n for row in basis):
            raise PreconditionError(f"basis must be {n}x{n}")
        det = exact_det(basis)
        if det == 0:
            raise PreconditionError("basis matrix is singular")
        self.dim_d = dim_d
        self.basis = tuple(tuple(row) for row in basis)
        self.spec: AlgebraSpec = join(*self.basis)[0]
        self._det = det
        self._dual: Optional["Lattice"] = None

    @property
    def det(self) -> QValue:
        return self._det

    def generator(self, i: int) -> tuple[QValue, ...]:
        return tuple(row[i] for row in self.basis)

    def generators(self) -> list[tuple[QValue, ...]]:
        return [self.generator(i) for i in range(self.dim_d + 1)]

    def point(self, coeffs: Sequence[int]) -> tuple[QValue, ...]:
        """Lattice point for integer coordinates (m_1..m_d, n)."""
        if len(coeffs) != self.dim_d + 1:
            raise PreconditionError("coefficient length mismatch")
        return tuple(
            sum((row[j] * int(coeffs[j]) for j in range(1, len(row))),
                row[0] * int(coeffs[0]))
            for row in self.basis
        )

    @property
    def dual(self) -> "Lattice":
        """Dual lattice, with basis the exact inverse transpose."""
        if self._dual is None:
            dual_basis = mat_transpose(mat_inverse(self.basis))
            dual = Lattice(self.dim_d, dual_basis)
            dual._dual = self
            self._dual = dual
        return self._dual

    def pairing_matrix(self, other: "Lattice") -> list[list[QValue]]:
        """Exact inner products <g_i, g*_j> of generators against another lattice."""
        return mat_mul(mat_transpose(self.basis), other.basis)

    def pairings_are_integer(self, other: "Lattice") -> bool:
        return all(
            v.is_integer() for row in self.pairing_matrix(other) for v in row
        )

    def __repr__(self) -> str:
        return f"Lattice(d={self.dim_d})"


def special_bases(
    alpha: Sequence[QValue], beta: Sequence[QValue]
) -> tuple[QMatrix, QMatrix]:
    """The basis matrices of the special-form pair (Gamma, Gamma*), unchecked.

    Generators (columns), for integer coordinates (m, n):

        Gamma      m=e_i: (e_i + beta*alpha_i, -alpha_i)   n=1: (-beta, 1)
        Gamma*     m=e_i: (e_i, beta_i)                    n=1: (alpha, 1+beta^T alpha)

    The entries are joined into one algebra; neither the rank conditions
    nor the pairing is checked (``make_special_lattice`` does both), only
    that alpha and beta have one common, nonzero length.
    """
    if len(beta) != len(alpha) or len(alpha) == 0:
        raise PreconditionError("alpha and beta must be nonempty, equal length")
    spec, (alpha, beta) = join(alpha, beta)
    d, one, zero = len(alpha), spec.one(), spec.zero()
    g = [[(one if i == j else zero) + beta[i] * alpha[j] for j in range(d)] + [-beta[i]]
         for i in range(d)] + [[-a for a in alpha] + [one]]
    gs = [[one if i == j else zero for j in range(d)] + [alpha[i]] for i in range(d)]
    gs.append(list(beta) + [one + sum((b * a for b, a in zip(beta, alpha)), zero)])
    return g, gs


def check_special_form(alpha: Sequence[QValue], beta: Sequence[QValue]) -> None:
    """Exact rank checks for the two independence conditions.

    Condition (i): the coefficient vectors of 1, alpha_1..alpha_d (Gamma's
    last row, up to sign) have full rank over Q.  Condition (ii): the same
    for beta_1..beta_d together with 1 + beta^T alpha (Gamma*'s last row).
    Raises naming the violated condition.
    """
    g, gs = special_bases(alpha, beta)
    d = len(alpha)
    if coeff_rank(g[d]) != d + 1:
        raise PreconditionError(
            "condition (i) violated: 1, alpha_1..alpha_d are rationally "
            "dependent (coefficient rank < d+1)"
        )
    if coeff_rank(gs[d]) != d + 1:
        raise PreconditionError(
            "condition (ii) violated: beta_1..beta_d, 1+beta^T alpha are "
            "rationally dependent (coefficient rank < d+1)"
        )


def make_special_lattice(
    alpha: Sequence[QValue], beta: Sequence[QValue]
) -> tuple[Lattice, Lattice]:
    """Build the special-form lattice pair of ``special_bases(alpha, beta)``.

    The pair is validated exactly: the rank conditions of
    ``check_special_form``, det Gamma = +-1 and every generator pairing an
    exact integer.
    """
    check_special_form(alpha, beta)
    d = len(alpha)
    g, gs = special_bases(alpha, beta)
    gamma = Lattice(d, g)
    gamma_star = Lattice(d, gs)
    det = gamma.det
    if not (det == 1 or det == -1):
        raise PreconditionError(f"special-form determinant is {det}, not +-1")
    if not gamma.pairings_are_integer(gamma_star):
        raise PreconditionError("generator pairings are not all integers")
    return gamma, gamma_star


def reduce_to_special(lat: Lattice) -> tuple[list[list[QValue]], QValue, Lattice]:
    """Map a lattice in general position onto one of special form.

    Takes the block decomposition [[a, b], [c^T, e]] of the basis of the
    dual lattice, forms alpha = a^{-1} b and beta = c / (e - c^T a^{-1} b),
    and returns (A, B, Gamma) where the transform T(x, y) = (A x, B y) with
    A = a^T and B = e - c^T a^{-1} b maps the input lattice onto Gamma
    exactly.  Generator correspondence is verified exactly: the unimodular
    change of basis between T(basis) and Gamma's basis is checked to be an
    integer matrix of determinant +-1.

    Raises if block a is singular in the algebra or if the derived alpha,
    beta fail the special-form rank checks (reported, not silently accepted).
    """
    d = lat.dim_d
    m = lat.dual.basis
    a = [[m[i][j] for j in range(d)] for i in range(d)]
    b = [m[i][d] for i in range(d)]
    c = [m[d][j] for j in range(d)]
    e = m[d][d]
    try:
        a_inv = mat_inverse(a)
    except PreconditionError:
        raise PreconditionError(
            "block a of the dual basis is singular in the algebra"
        ) from None
    alpha = mat_vec(a_inv, b)
    spec = lat.spec
    cta = sum((ci * ai for ci, ai in zip(c, alpha)), spec.zero())
    b_primal = e - cta
    b_dual = b_primal.inverse()
    beta = [ci * b_dual for ci in c]
    gamma, _ = make_special_lattice(alpha, beta)

    a_primal = mat_transpose(a)
    # T applied to the input basis, T = diag(a^T, B)
    t_basis = mat_mul(a_primal, lat.basis[:d]) + [[b_primal * v for v in lat.basis[d]]]

    change = mat_mul(mat_inverse(gamma.basis), t_basis)
    if not all(v.is_integer() for row in change for v in row):
        raise PreconditionError(
            "reduction verification failed: T(L) generators are not integer "
            "combinations of the special-form generators"
        )
    cdet = exact_det(change)
    if not (cdet == 1 or cdet == -1):
        raise PreconditionError(
            "reduction verification failed: change of basis is not unimodular"
        )
    return a_primal, b_primal, gamma


def transform_pointset(points, a) -> "PointSet":
    """Image of a point set under an invertible linear map (numeric); singularity
    is decided exactly, with float and int entries as their exact rationals."""
    from .modelset import PointSet

    if exact_det(join(*a)[1]) == 0:
        raise PreconditionError("transform matrix is singular")
    a_f = np.array(
        [[float(v) for v in row] for row in a]
        if not isinstance(a, np.ndarray)
        else a,
        dtype=float,
    )
    return PointSet(points.dim, points.coords @ a_f.T, points.provenance,
                    points.window)


def transform_region(region, m) -> "RegionSet":
    """Image of a region under an invertible linear map, kept exact.

    Matrix entries may be QValues, Fractions, ints or floats (floats are
    exact rationals); edge witnesses no longer apply after a general map
    and are dropped.
    """
    from .regions import Piece, RegionSet

    d = region.dim
    _, (_, *mq) = join(region.values, *([m[i][j] for j in range(d)] for i in range(d)))
    if exact_det(mq) == 0:
        raise PreconditionError("transform matrix is singular")
    pieces = []
    for p in region.pieces:
        off = mat_vec(mq, list(p.offset))
        edges = mat_mul(mq, [list(row) for row in p.edges])
        pieces.append(Piece(tuple(off), tuple(tuple(r) for r in edges)))
    return RegionSet(d, pieces)


def lattice_to_text(lat: Lattice) -> str:
    lines = [lat.spec.to_text().rstrip("\n"), f"dim_d = {lat.dim_d}"]
    for gen in lat.generators():
        lines.append("generator " + ", ".join(str(v) for v in gen))
    return "\n".join(lines) + "\n"


def lattice_from_text(text: str) -> Lattice:
    parsers = {"dim_d": declared_int, "generator": AlgebraSpec.parse_vector}
    _, (dims, gens) = read_declaration(text, parsers)
    d = dims[0] if len(dims) == 1 else 0
    if d < 1 or len(gens) != d + 1 or any(len(g) != d + 1 for g in gens):
        raise PreconditionError("a lattice needs one dim_d >= 1 and d+1 generators of d+1 entries")
    return Lattice(d, [list(row) for row in zip(*gens)])
