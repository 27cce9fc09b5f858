"""Exact region geometry: unions of half-open parallelepipeds.

Every piece is the image of [0,1)^d under an invertible edge matrix plus an
offset, with entries kept in the declared algebra, so volumes, corners and
translation identities are exact.  In one dimension a piece with positive
edge is the left-closed interval [o, o+e) and a piece with negative edge is
the right-closed interval (o+e, o]; the half-open side is load-bearing for
window conventions and is never approximated.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .algebra import (
    AlgebraSpec,
    QValue,
    admissible_decomposition,
    exact_det,
    lift_to,
    mat_inverse,
    mat_vec,
    module_membership,
)
from .errors import PreconditionError, SearchExhaustedError

Witness = tuple[int, tuple[int, ...]]


@dataclass(frozen=True, eq=False)
class Piece:
    """One half-open parallelepiped: offset + edges @ [0,1)^d.

    ``edges`` is a d x d matrix whose columns are the edge vectors.
    ``witnesses`` optionally certifies each edge as n*alpha + m.
    """

    offset: tuple[QValue, ...]
    edges: tuple[tuple[QValue, ...], ...]
    witnesses: Optional[tuple[Witness, ...]] = None

    @property
    def dim(self) -> int:
        return len(self.offset)

    @property
    def spec(self) -> AlgebraSpec:
        return self.offset[0].spec

    def det(self) -> QValue:
        return exact_det(self.edges)

    def volume(self) -> QValue:
        det = self.det()
        return -det if det.sign() < 0 else det

    def corners(self) -> list[tuple[QValue, ...]]:
        d = self.dim
        out = []
        for eps in itertools.product((0, 1), repeat=d):
            out.append(
                tuple(
                    self.offset[i]
                    + sum(
                        (self.edges[i][j] * eps[j] for j in range(d) if eps[j]),
                        self.spec.zero(),
                    )
                    for i in range(d)
                )
            )
        return out

    def edge_columns(self) -> list[tuple[QValue, ...]]:
        d = self.dim
        return [tuple(self.edges[i][j] for i in range(d)) for j in range(d)]

    @functools.cached_property
    def inverse(self) -> tuple[tuple[QValue, ...], ...]:
        """Exact inverse of the edge matrix: point to unit coordinates."""
        return tuple(tuple(row) for row in mat_inverse(self.edges))

    def unit_coords(self, x: Sequence[QValue]) -> list[QValue]:
        """Exact coordinates of x in the piece's frame: x = offset + edges @ t."""
        return mat_vec(self.inverse, [xi - oi for xi, oi in zip(x, self.offset)])

    def contains(self, x: Sequence[QValue], closure: bool = False) -> bool:
        """Exact membership of a point; half-open unless ``closure``."""
        top = 0 if closure else -1  # the largest sign of t - 1 allowed
        return all(ti.sign() >= 0 and (ti - 1).sign() <= top for ti in self.unit_coords(x))

    def strictly_inside_unit_coords(self, x: Sequence[QValue]) -> bool:
        return all(ti.sign() > 0 and (ti - 1).sign() < 0 for ti in self.unit_coords(x))


def _vec_text(v: Sequence[QValue]) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


class RegionSet:
    """Finite union of half-open parallelepiped pieces in R^d."""

    def __init__(self, dim: int, pieces: Sequence[Piece]) -> None:
        if not pieces:
            raise PreconditionError("a region needs at least one piece")
        for p in pieces:
            if p.dim != dim:
                raise PreconditionError("piece dimension mismatch")
            if p.det() == 0:
                raise PreconditionError("degenerate piece (singular edges)")
        self.dim = dim
        self.pieces = tuple(pieces)

    @property
    def spec(self) -> AlgebraSpec:
        return self.pieces[0].spec

    def volume(self) -> QValue:
        total = self.pieces[0].volume()
        for p in self.pieces[1:]:
            total = total + p.volume()
        return total

    def translate(self, t: Sequence[QValue]) -> "RegionSet":
        t = [lift_to(self.spec, v) for v in t]
        return RegionSet(
            self.dim,
            [
                Piece(
                    tuple(o + ti for o, ti in zip(p.offset, t)),
                    p.edges,
                    p.witnesses,
                )
                for p in self.pieces
            ],
        )

    def contains(self, x: Sequence[QValue], closure: bool = False) -> bool:
        return any(p.contains(x, closure=closure) for p in self.pieces)

    @functools.cached_property
    def membership(self) -> "Membership":
        """The region's batch membership kernel, built on first use."""
        return Membership(self)

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        corners = np.array(
            [[float(c) for c in corner] for p in self.pieces for corner in p.corners()]
        )
        return corners.min(axis=0), corners.max(axis=0)

    def intervals(self) -> list[tuple[QValue, QValue, bool]]:
        """1-D view: (lo, hi, left_closed) per piece."""
        if self.dim != 1:
            raise PreconditionError("intervals() is for 1-D regions")
        out = []
        for p in self.pieces:
            o, e = p.offset[0], p.edges[0][0]
            if e.sign() > 0:
                out.append((o, o + e, True))
            else:
                out.append((o + e, o, False))
        return out

    def describe(self) -> str:
        if self.dim == 1:
            parts = []
            for lo, hi, lc in self.intervals():
                parts.append(f"[{lo},{hi})" if lc else f"({lo},{hi}]")
            return " U ".join(parts)
        # offset + [0,1)*e_1 + ... + [0,1)*e_d, the edges e_j being the columns
        return " U ".join(
            " + ".join([_vec_text(p.offset)] + [f"[0,1)*{_vec_text(e)}" for e in p.edge_columns()])
            for p in self.pieces
        )

    def __repr__(self) -> str:
        return f"RegionSet({self.describe()})"


_EPS = float(np.finfo(float).eps)
# coefficient rows per block of the membership kernel: a block's buffers stay in L2
_BLOCK = 1 << 14


def _mag(v: QValue) -> float:
    """Sum of |coefficient * basis value|: float(v) is within 2*eps*_mag(v)."""
    return sum(abs(float(c) * x) for c, x in zip(v.coeffs, v.spec.numerics) if c)


def _expand(lo: np.ndarray, cnt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (i, lo[i] + r) for every r in the integer box [0, cnt[i])."""
    tot = np.prod(np.maximum(cnt, 0), axis=1)
    idx = np.repeat(np.arange(len(lo)), tot)
    r = np.arange(len(idx)) - np.repeat(np.cumsum(tot) - tot, tot)
    k = np.empty((len(idx), lo.shape[1]), dtype=np.int64)
    for a in reversed(range(lo.shape[1])):
        c = cnt[idx, a]
        k[:, a] = lo[idx, a] + r % c
        r = r // c
    return idx, k


class Membership:
    """Guarded float-then-exact membership of point batches in one region.

    A batch is the family x = base + c @ gens over integer rows c, with
    exact base and generator vectors.  Points are placed in floats and a
    float decision is trusted only outside a guard band around every face;
    the band bounds the float error from the batch's own magnitudes (the
    coefficients times the generators, the base, the piece corners and
    the norm of the piece's inverse).  Inside the band the point is
    recomputed exactly in the algebra, so semi-closed boundary hits are
    decided, not guessed.  One-dimensional pieces count integer translates
    in closed form, ceil/floor of the endpoints minus x, with two exact
    floor() calls per piece as the fallback.
    """

    def __init__(self, region: RegionSet) -> None:
        self.dim = region.dim
        if self.dim == 1:
            self._pieces = [(a, b, lc, float(a), float(b), _mag(a) + _mag(b))
                            for a, b, lc in region.intervals()]
            return
        self._pieces = []
        for p in region.pieces:
            corners_q = p.corners()
            corners = np.array([[float(v) for v in c] for c in corners_q])
            ext = max(_mag(v) for c in corners_q for v in c)
            norm = max(sum(_mag(v) for v in row) for row in p.inverse)
            self._pieces.append((
                p, np.array([[float(v) for v in row] for row in p.inverse]),
                np.array([float(v) for v in p.offset]),
                corners.min(axis=0), corners.max(axis=0), ext, norm,
            ))

    def _blocks(self, base, gens, coeffs):
        """(first row, xf, x_err, exact) per block of _BLOCK coefficient rows.

        The int64 refusal is decided on the whole batch; a block's error bound
        comes from its own coefficients, valid for its points and usually tighter."""
        c = np.asarray(coeffs, dtype=np.int64)
        base_mag = max(_mag(v) for v in base)
        gen_mags = [max(_mag(v) for v in g) for g in gens]

        def scale(c) -> float:
            """Bound on the terms of every coordinate: |base| + sum_j max|c_j| * |g_j|."""
            # column extremes as Python ints: abs(-2**63) overflows int64
            return base_mag + sum(
                max(-int(c[:, j].min(initial=0)), int(c[:, j].max(initial=0))) * m
                for j, m in enumerate(gen_mags)
            )

        if not scale(c) < 2.0 ** 62:
            raise PreconditionError("point magnitudes beyond the int64 range")
        gens_f = np.array([[float(v) for v in g] for g in gens]).reshape(-1, self.dim)
        base_f = np.array([float(v) for v in base])
        for start in range(0, max(len(c), 1), _BLOCK):  # an empty batch is one block
            cb = c[start:start + _BLOCK]
            # each coordinate is a float sum of len(gens) + 1 rounded terms
            x_err = (len(gens) + 4) * _EPS * scale(cb)
            xf = base_f + cb.astype(np.float64) @ gens_f
            yield start, xf, x_err, self._exact(base, gens, cb)

    def _exact(self, base, gens, c):
        """Point i of the batch, base + c[i] @ gens, rebuilt in the algebra (cached)."""

        @functools.cache
        def exact(i: int) -> tuple[QValue, ...]:
            return tuple(
                sum((g[a] * int(ci) for g, ci in zip(gens, c[i])), base[a])
                for a in range(self.dim)
            )

        return exact

    def _ranges_1d(self, xf, x_err, exact) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per piece, the integer translates k of each point, lo <= k < hi."""
        x = xf[:, 0]
        xmax = np.abs(x).max(initial=0.0)
        y, r = np.empty_like(x), np.empty_like(x)
        out = []
        for a, b, left_closed, af, bf, span in self._pieces:
            guard = 2 * x_err + 4 * _EPS * (span + xmax + 1)
            # y = e - x is near an integer when d = |y - rnd(y)|, in [0, 1),
            # is below guard or above 1 - guard.  d is exact unless |y| < 1,
            # where it and 1 - guard round by at most eps/2 each; the guard's
            # 4 eps is spare above the float error of y and covers both.
            rnd = np.ceil if left_closed else np.floor
            ends, flag = [], np.zeros(len(x), dtype=bool)
            for e in (af, bf):
                rnd(np.subtract(e, x, out=y), out=r)
                ends.append(r.astype(np.int64))
                d = np.subtract(r, y, out=y) if left_closed else np.subtract(y, r, out=y)
                flag |= (d < guard) | (d > 1 - guard)
            lo, hi = ends
            for i in np.flatnonzero(flag):
                xq = exact(int(i))[0]
                if left_closed:  # [a, b): ceil(a - x) <= k < ceil(b - x)
                    lo[i], hi[i] = -(xq - a).floor(), -(xq - b).floor()
                else:  # (a, b]: floor(a - x) < k <= floor(b - x)
                    lo[i], hi[i] = (a - xq).floor(), (b - xq).floor()
            if not left_closed:
                lo, hi = lo + 1, hi + 1
            out.append((lo, hi))
        return out

    def _hits(self, xf, x_err, exact) -> tuple[np.ndarray, np.ndarray]:
        """(point index, integer shift) per piece a shifted point lands in."""
        d = self.dim
        anchor = np.zeros(xf.shape, dtype=np.int64)
        if x_err >= 0.25:  # floats no longer place x: use x - floor(x) in [0, 1)^d
            anchor = np.array([[v.floor() for v in exact(i)] for i in range(len(xf))],
                              dtype=np.int64).reshape(xf.shape)
            xf, x_err = np.full(xf.shape, 0.5), 0.5
        xmax = np.abs(xf).max(initial=0.0)
        idx_all, k_all = [], []
        for piece, inv_f, off_f, lo_f, hi_f, ext, norm in self._pieces:
            # error of x + k - offset, and of its image in unit coordinates
            y_err = 2 * x_err + 4 * _EPS * (xmax + ext + 1)
            guard = 2 * norm * (y_err + (d + 4) * _EPS * (ext + 1))
            lo = np.floor(lo_f - xf - 2 * y_err).astype(np.int64)
            idx, kf = _expand(lo, np.floor(hi_f - xf + 2 * y_err).astype(np.int64) - lo + 1)
            t = (xf[idx] + kf - off_f) @ inv_f.T
            k = kf - anchor[idx]
            inside = np.all((t >= guard) & (t <= 1 - guard), axis=1)
            unsure = ~inside & ~np.any((t <= -guard) | (t >= 1 + guard), axis=1)
            for j in np.flatnonzero(unsure):
                x = exact(int(idx[j]))
                inside[j] = piece.contains([xi + int(ki) for xi, ki in zip(x, k[j])])
            idx_all.append(idx[inside])
            k_all.append(k[inside])
        return np.concatenate(idx_all), np.concatenate(k_all)

    def count(self, base, gens, coeffs) -> np.ndarray:
        """Per point, the number of (piece, integer shift) pairs that land."""
        out = []
        for _, xf, x_err, exact in self._blocks(base, gens, coeffs):
            if self.dim == 1:
                out.append(sum(hi - lo for lo, hi in self._ranges_1d(xf, x_err, exact)))
            else:
                out.append(np.bincount(self._hits(xf, x_err, exact)[0], minlength=len(xf)))
        return np.concatenate(out)

    def translates(self, base, gens, coeffs) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct (point index, integer shift) with x + shift in the region."""
        out = []
        for start, xf, x_err, exact in self._blocks(base, gens, coeffs):
            if self.dim == 1:
                pairs = [_expand(lo[:, None], (hi - lo)[:, None])
                         for lo, hi in self._ranges_1d(xf, x_err, exact)]
            else:
                pairs = [self._hits(xf, x_err, exact)]
            rows = np.unique(np.concatenate([np.column_stack(p) for p in pairs]), axis=0)
            rows[:, 0] += start  # blocks are contiguous, so the rows stay sorted
            out.append(rows)
        rows = np.concatenate(out)
        return rows[:, 0], rows[:, 1:]


def interval(a: QValue, b: QValue, left_closed: bool = True) -> RegionSet:
    """Semi-closed interval [a,b) or (a,b] with exact endpoints."""
    spec = a.spec if not a.is_rational() else b.spec
    a = lift_to(spec, a)
    b = lift_to(spec, b)
    if (b - a).sign() <= 0:
        raise PreconditionError("interval endpoints must satisfy a < b")
    if left_closed:
        return RegionSet(1, [Piece((a,), ((b - a,),))])
    return RegionSet(1, [Piece((b,), ((a - b,),))])


def union(*regions: RegionSet) -> RegionSet:
    dim = regions[0].dim
    pieces: list[Piece] = []
    for r in regions:
        if r.dim != dim:
            raise PreconditionError("union of regions with different dimensions")
        pieces.extend(r.pieces)
    return RegionSet(dim, pieces)


def box_region(spec: AlgebraSpec, lows: Sequence, highs: Sequence) -> RegionSet:
    """Axis-aligned half-open box [lo_1,hi_1) x ... x [lo_d,hi_d)."""
    lows = [lift_to(spec, v) if isinstance(v, QValue) else spec.from_rational(Fraction(v))
            for v in lows]
    highs = [lift_to(spec, v) if isinstance(v, QValue) else spec.from_rational(Fraction(v))
             for v in highs]
    d = len(lows)
    zero = spec.zero()
    edges = tuple(
        tuple((highs[i] - lows[i]) if i == j else zero for j in range(d))
        for i in range(d)
    )
    return RegionSet(d, [Piece(tuple(lows), edges)])


def parse_region_literal(
    spec: AlgebraSpec, text: str, allow_closed: bool = False
) -> RegionSet:
    """Parse 1-D literals like ``"[0,w1-1) U [1,3-1*w1)"``.

    Semi-closed brackets give the exact half-open piece; fully closed or
    open brackets are accepted only with ``allow_closed`` (for sets whose
    closure/interior semantics are applied by the consumer) and are
    represented by the left-closed piece of the same endpoints.
    """
    parts = [p.strip() for p in text.replace("∪", " U ").split(" U ")]
    regions = []
    for part in parts:
        if len(part) < 5 or part[0] not in "([" or part[-1] not in ")]":
            raise PreconditionError(f"bad interval literal: {part!r}")
        lopen, rclosed = part[0] == "(", part[-1] == "]"
        inner = part[1:-1]
        pieces = inner.split(",")
        if len(pieces) != 2:
            raise PreconditionError(f"bad interval literal: {part!r}")
        a, b = spec.parse(pieces[0]), spec.parse(pieces[1])
        if lopen == rclosed:  # "(a,b]" or "[a,b)"
            regions.append(interval(a, b, left_closed=not lopen))
        else:
            if not allow_closed:
                raise PreconditionError(
                    f"window must be semi-closed ([a,b) or (a,b]): {part!r}"
                )
            regions.append(interval(a, b, left_closed=True))
    return union(*regions)


# -- numeric views -------------------------------------------------------------


def ft_indicator(region: RegionSet, t) -> complex | np.ndarray:
    """Fourier transform of the region indicator at frequency t.

    Closed form per piece: exp(-2 pi i <t, offset>) * |det E| times the
    product over axes of the unit-interval transform of (E^T t); the
    removable singularities at zero frequencies take their exact limit
    values through np.sinc.
    """
    d = region.dim
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0 or (d > 1 and t_arr.ndim == 1)
    if d == 1:
        t_vec = t_arr.reshape(-1, 1)
    else:
        t_vec = t_arr.reshape(-1, d)
    out = np.zeros(t_vec.shape[0], dtype=complex)
    for p in region.pieces:
        off = np.array([float(v) for v in p.offset])
        e_mat = np.array([[float(v) for v in row] for row in p.edges])
        vol = abs(float(p.det()))
        s = t_vec @ e_mat  # (n, d): <E^T t>_axis values
        phase = np.exp(-2j * np.pi * (t_vec @ off))
        axis_factors = np.exp(-1j * np.pi * s) * np.sinc(s)
        out += phase * vol * np.prod(axis_factors, axis=1)
    if scalar:
        return complex(out[0])
    return out.reshape(t_arr.shape if d == 1 else t_arr.shape[:-1])


def _as_qpoint(spec: AlgebraSpec, x: Sequence) -> tuple[QValue, ...]:
    out = []
    for xi in x:
        if isinstance(xi, QValue):
            out.append(lift_to(spec, xi))
        else:
            out.append(spec.from_rational(Fraction(xi)))
    return tuple(out)


def multiplicity(region: RegionSet, x: Sequence) -> int:
    """Number of integer translates of x landing in the region (exact)."""
    point = _as_qpoint(region.spec, x)
    return int(region.membership.count(point, [], np.zeros((1, 0)))[0])


def check_disjoint(region: RegionSet, tol: float = 1e-9) -> list[tuple[int, int]]:
    """Pairwise overlap report (indices of pieces that may overlap).

    Axis-aligned pairs are decided exactly; general pairs use a numeric
    separating-axis test over the face normals (and, in 3-D, edge cross
    products), reported conservatively.
    """

    def axis_aligned(p: Piece) -> bool:
        d = p.dim
        return all(
            i == j or p.edges[i][j] == 0 for i in range(d) for j in range(d)
        )

    def overlap(p: Piece, q: Piece) -> bool:
        if axis_aligned(p) and axis_aligned(q):
            for i in range(p.dim):
                alo, ahi = sorted(
                    [p.offset[i], p.offset[i] + p.edges[i][i]], key=float
                )
                blo, bhi = sorted(
                    [q.offset[i], q.offset[i] + q.edges[i][i]], key=float
                )
                lo = alo if (alo - blo).sign() >= 0 else blo
                hi = ahi if (ahi - bhi).sign() <= 0 else bhi
                if (hi - lo).sign() <= 0:
                    return False
            return True
        pa = np.array([[float(v) for v in c] for c in p.corners()])
        qa = np.array([[float(v) for v in c] for c in q.corners()])
        axes = []
        for piece in (p, q):
            inv = np.linalg.inv(
                np.array([[float(v) for v in row] for row in piece.edges])
            )
            axes.extend(inv)  # face normals
        if p.dim == 3:
            ep = np.array([[float(v) for v in row] for row in p.edges]).T
            eq = np.array([[float(v) for v in row] for row in q.edges]).T
            for u in ep:
                for v in eq:
                    w = np.cross(u, v)
                    if np.linalg.norm(w) > tol:
                        axes.append(w)
        for ax in axes:
            a0, a1 = (pa @ ax).min(), (pa @ ax).max()
            b0, b1 = (qa @ ax).min(), (qa @ ax).max()
            if a1 <= b0 + tol or b1 <= a0 + tol:
                return False
        return True

    bad = []
    for i in range(len(region.pieces)):
        for j in range(i + 1, len(region.pieces)):
            if overlap(region.pieces[i], region.pieces[j]):
                bad.append((i, j))
    return bad


# -- constructions certified over Z*alpha + Z^d --------------------------------


def _combo_vector(
    alpha: Sequence[QValue], n: int, m: Sequence[int]
) -> tuple[QValue, ...]:
    return tuple(a * n + int(mi) for a, mi in zip(alpha, m))


def brs_parallelepiped(
    alpha: Sequence[QValue], generators: Sequence[Witness]
) -> RegionSet:
    """Parallelepiped spanned by edges n_i*alpha + m_i, certified per edge."""
    d = len(alpha)
    if len(generators) != d:
        raise PreconditionError(f"need exactly {d} generators")
    cols = [_combo_vector(alpha, n, m) for n, m in generators]
    edges = tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))
    if exact_det(edges) == 0:
        raise PreconditionError("degenerate span: edge vectors are dependent")
    spec = cols[0][0].spec
    zero = tuple(spec.zero() for _ in range(d))
    witnesses = tuple((int(n), tuple(int(x) for x in m)) for n, m in generators)
    return RegionSet(d, [Piece(zero, edges, witnesses)])


def _spiral(bound: int) -> list[int]:
    out = [0]
    for v in range(1, bound + 1):
        out.extend((v, -v))
    return out


def _edge_candidates(
    alpha: Sequence[QValue], bound: int
) -> list[tuple[Witness, tuple[QValue, ...]]]:
    d = len(alpha)
    seq = _spiral(bound)
    out = []
    for tup in itertools.product(seq, repeat=d + 1):
        if all(v == 0 for v in tup):
            continue
        n, m = tup[0], tup[1:]
        out.append(((n, m), _combo_vector(alpha, n, m)))
    return out


def _float_det(cols: Sequence[Sequence[float]]) -> float:
    """Determinant by cofactor expansion along the first column."""
    if len(cols) == 1:
        return cols[0][0]
    rest = cols[1:]
    return sum((-1) ** i * cols[0][i] * _float_det([c[:i] + c[i + 1:] for c in rest])
               for i in range(len(cols)))


def measure_candidates(
    alpha: Sequence[QValue], gamma: QValue, search_bound: int
) -> Iterable[RegionSet]:
    """Deterministic stream of certified parallelepipeds of measure gamma.

    Candidate edges enumerate integer data (n, m) with entries 0, 1, -1,
    2, -2, ... up to the bound, lexicographically; edge subsets are tried
    in the induced order and every emitted piece has |det| = gamma exactly.
    The exact determinant is taken only where the float |det| is within
    its error bound of |gamma|.
    """
    d = len(alpha)
    if d == 1:
        dec = admissible_decomposition(alpha, gamma)
        if dec is not None:
            n0, n1 = dec
            spec = gamma.spec
            yield RegionSet(
                1, [Piece((spec.zero(),), ((gamma,),), ((n1, (n0,)),))]
            )
        return
    cands = _edge_candidates(alpha, search_bound)
    cols_f = [[float(v) for v in col] for _, col in cands]
    # the float determinant sums d! products of d entries, each entry within
    # 2 eps of its _mag; the product of column _mag sums bounds every term
    col_mag = [sum(_mag(v) for v in col) for _, col in cands]
    gamma_f = abs(float(gamma))
    gamma_err = 4 * _EPS * _mag(gamma)
    det_err = 8 * math.factorial(d + 1) * _EPS
    for combo in itertools.combinations(range(len(cands)), d):
        guard = det_err * math.prod(col_mag[i] for i in combo) + gamma_err
        if abs(abs(_float_det([cols_f[i] for i in combo])) - gamma_f) > guard:
            continue
        cols = [cands[i][1] for i in combo]
        edges = tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))
        det = exact_det(edges)
        if det == gamma or det == -gamma:
            spec = gamma.spec
            zero = tuple(spec.zero() for _ in range(d))
            witnesses = tuple(cands[i][0] for i in combo)
            yield RegionSet(d, [Piece(zero, edges, witnesses)])


def realize_measure(
    alpha: Sequence[QValue], gamma: QValue, search_bound: int = 2
) -> RegionSet:
    """Parallelepiped with edges in Z*alpha + Z^d and exact measure gamma.

    gamma must be an integer combination of 1, alpha_1..alpha_d (checked
    exactly); the bounded search is deterministic, and exhaustion is
    reported as such, distinct from nonexistence.
    """
    if gamma.sign() <= 0:
        raise PreconditionError("measure must be positive")
    if admissible_decomposition(alpha, gamma) is None:
        raise PreconditionError(
            "measure is not an integer combination of 1, alpha_1..alpha_d"
        )
    for region in measure_candidates(alpha, gamma, search_bound):
        return region
    raise SearchExhaustedError(
        f"no parallelepiped of measure {gamma} found with coefficient "
        f"bound {search_bound}"
    )


# -- equidecomposition certificates ---------------------------------------------


@dataclass(frozen=True, eq=False)
class EquidecompCertificate:
    """Piecewise-translation certificate between two regions.

    Piece i of the source translated by shifts[i] must equal piece i of the
    target, and every shift must lie in Z*alpha + Z^d with the stored
    integer witness.
    """

    alpha: tuple[QValue, ...]
    source: RegionSet
    target: RegionSet
    shifts: tuple[tuple[QValue, ...], ...]
    witnesses: tuple[Optional[Witness], ...]


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def make_certificate(
    alpha: Sequence[QValue],
    source: RegionSet,
    target: RegionSet,
    shifts: Sequence[Sequence[QValue]],
) -> EquidecompCertificate:
    spec = source.spec
    alpha = tuple(lift_to(spec, a) for a in alpha)
    shifts_q = tuple(tuple(lift_to(spec, v) for v in s) for s in shifts)
    witnesses = tuple(module_membership(s, alpha) for s in shifts_q)
    return EquidecompCertificate(alpha, source, target, shifts_q, witnesses)


def verify_equidecomposition(cert: EquidecompCertificate) -> Verdict:
    """Check all certificate invariants exactly; report the first violation."""
    ns, nt = len(cert.source.pieces), len(cert.target.pieces)
    if ns != nt or len(cert.shifts) != ns or len(cert.witnesses) != ns:
        return Verdict(False, f"piece/shift counts differ: {ns} vs {nt} vs "
                              f"{len(cert.shifts)} shifts")
    for i, (sp, tp, shift, wit) in enumerate(
        zip(cert.source.pieces, cert.target.pieces, cert.shifts, cert.witnesses)
    ):
        if sp.edges != tp.edges:
            return Verdict(False, f"piece {i}: edge matrices differ")
        moved = tuple(o + v for o, v in zip(sp.offset, shift))
        if moved != tp.offset:
            return Verdict(False, f"piece {i}: translated offset differs")
        if wit is None:
            return Verdict(
                False,
                f"piece {i}: translation {_vec_text(shift)} is not in Z*alpha + Z^d",
            )
        n, m = wit
        rebuilt = _combo_vector(cert.alpha, n, m)
        if tuple(rebuilt) != tuple(shift):
            return Verdict(False, f"piece {i}: stored witness does not "
                                  f"reproduce the shift")
    src_vol, tgt_vol = cert.source.volume(), cert.target.volume()
    if src_vol != tgt_vol:
        return Verdict(False, f"volumes differ: {src_vol} vs {tgt_vol}")
    return Verdict(True)


# -- the K subset-of S subset-of U construction ---------------------------------


def _tile_edges(
    alpha: Sequence[QValue], epsilon: float, tile_bound: int
) -> list[tuple[Witness, tuple[QValue, ...]]]:
    """Small independent edge vectors of the form n*alpha + m.

    Scans n = 1..bound, rounding each coordinate of n*alpha to the nearest
    integer, and keeps the first d candidates (by |n|) that are short
    enough and exactly independent.
    """
    d = len(alpha)
    limit = epsilon / (2 * d) if d > 1 else epsilon
    chosen: list[tuple[Witness, tuple[QValue, ...]]] = []
    for n in range(1, tile_bound + 1):
        m = []
        for a in alpha:
            f = (a * n).floor()
            frac_f = float(a) * n - f
            m.append(-(f + 1) if frac_f > 0.5 else -f)
        vec = _combo_vector(alpha, n, m)
        if max(abs(float(v)) for v in vec) >= limit:
            continue
        if d == 1 and vec[0].sign() < 0:
            vec = (-vec[0],)
            n, m = -n, [-m[0]]
        trial = chosen + [((n, tuple(m)), vec)]
        cols = [t[1] for t in trial]
        if len(trial) == d:
            sub = tuple(
                tuple(cols[j][i] for j in range(len(trial))) for i in range(d)
            )
            if exact_det(sub) == 0:
                continue
        elif d > 1:
            fm = np.array([[float(v) for v in col] for col in cols]).T
            if np.linalg.matrix_rank(fm, tol=1e-12) < len(trial):
                continue
        chosen = trial
        if len(chosen) == d:
            return chosen
    raise SearchExhaustedError(
        f"no tile of diameter < {epsilon} found with orbit bound {tile_bound}"
    )


def construct_brs_between(
    alpha: Sequence[QValue],
    region_k: RegionSet,
    region_u: RegionSet,
    gamma: QValue,
    epsilon: float,
    tile_bound: int = 1000,
    fit_bound: int = 2,
) -> RegionSet:
    """Build a certified bounded-remainder set S with K inside S inside U.

    Tiles space by a small certified parallelepiped, takes the tiles meeting
    K, adds whole free tiles inside U, and finishes with one exactly-sized
    residual parallelepiped fitted inside a further free tile.  The output
    volume equals gamma exactly and every piece carries edge witnesses.

    K is treated through its closure and U through its interior, so the
    result is safe for closed K and open U inputs.  Search exhaustion (no
    small tile, not enough room, residual does not fit) is reported rather
    than silently accepting an approximate answer.
    """
    d = region_k.dim
    if region_u.dim != d or len(alpha) != d:
        raise PreconditionError("dimension mismatch between K, U and alpha")
    spec = region_u.spec
    alpha = tuple(lift_to(spec, a) for a in alpha)
    gamma = lift_to(spec, gamma)
    if admissible_decomposition(alpha, gamma) is None:
        raise PreconditionError(
            "target measure is not an integer combination of 1, alpha_i"
        )
    vol_k, vol_u = region_k.volume(), region_u.volume()
    if not ((gamma - vol_k).sign() > 0 and (vol_u - gamma).sign() > 0):
        raise PreconditionError("need mes K < gamma < mes U")
    for p in region_k.pieces:
        for corner in p.corners():
            if not region_u.contains(corner, closure=True):
                raise PreconditionError("K is not contained in U")

    chosen = _tile_edges(alpha, epsilon, tile_bound)
    witnesses = tuple(w for w, _ in chosen)
    cols = [v for _, v in chosen]
    edges = tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))
    inv = mat_inverse(edges)
    det = exact_det(edges)
    tile_vol = -det if det.sign() < 0 else det

    def tile_coords(x: Sequence[QValue]) -> list[QValue]:
        return mat_vec(inv, list(x))

    def tile_piece(j: Sequence[int]) -> Piece:
        off = tuple(
            sum(
                (edges[i][axis] * int(j[axis]) for axis in range(1, d)),
                edges[i][0] * int(j[0]),
            )
            for i in range(d)
        )
        return Piece(off, edges, witnesses)

    # Tiles meeting K: box cover of K's corners in tile coordinates.
    k_corner_coords = [
        tile_coords(c) for p in region_k.pieces for c in p.corners()
    ]
    lo_j = [min(c[i].floor() for c in k_corner_coords) for i in range(d)]
    hi_j = [max(c[i].floor() for c in k_corner_coords) for i in range(d)]
    a_tiles = sorted(itertools.product(*[
        range(lo_j[i], hi_j[i] + 1) for i in range(d)
    ]))

    @functools.cache
    def corner_inside_u(c: tuple[int, ...]) -> bool:
        # interior test of the tile corner edges @ c (shared by 2^d tiles)
        x = tile_piece(c).offset
        return any(up.strictly_inside_unit_coords(x) for up in region_u.pieces)

    def strictly_inside_u(j: Sequence[int]) -> bool:
        return all(corner_inside_u(tuple(a + e for a, e in zip(j, eps)))
                   for eps in itertools.product((0, 1), repeat=d))

    for j in a_tiles:
        if not strictly_inside_u(j):
            raise SearchExhaustedError(
                "a tile meeting K leaves the interior of U; retry with a "
                "smaller epsilon"
            )
    mes_a = tile_vol * len(a_tiles)
    if (gamma - mes_a).sign() < 0:
        raise SearchExhaustedError(
            "tiles covering K already exceed the target measure; retry with "
            "a smaller epsilon"
        )

    # Free tiles inside U, preferring contiguity with the block in 1-D.
    u_corner_coords = [
        tile_coords(c) for p in region_u.pieces for c in p.corners()
    ]
    ulo = [min(c[i].floor() for c in u_corner_coords) - 1 for i in range(d)]
    uhi = [max(c[i].floor() for c in u_corner_coords) + 1 for i in range(d)]
    a_set = set(a_tiles)
    free = [
        j
        for j in itertools.product(*[range(ulo[i], uhi[i] + 1) for i in range(d)])
        if j not in a_set and strictly_inside_u(j)
    ]
    if d == 1:
        right = sorted(j for j in free if j[0] > hi_j[0])
        left = sorted((j for j in free if j[0] < lo_j[0]), reverse=True)
        free = right + left
    else:
        free = sorted(free)

    remaining = gamma - mes_a
    k_full = (remaining * tile_vol.inverse()).floor()
    residual = remaining - tile_vol * k_full
    needed = k_full + (0 if residual == 0 else 1)
    if needed > len(free):
        raise SearchExhaustedError(
            f"not enough free tiles inside U ({len(free)} available, "
            f"{needed} needed); retry with a smaller epsilon or a larger U"
        )

    pieces: list[Piece] = [tile_piece(j) for j in a_tiles]
    pieces.extend(tile_piece(j) for j in free[:k_full])
    if residual != 0:
        host = tile_piece(free[k_full])
        placed = None
        for cand in measure_candidates(alpha, residual, fit_bound):
            cp = cand.pieces[0]
            corner_coords = [mat_vec(inv, list(c)) for c in cp.corners()]
            mins = [min(c[i] for c in corner_coords) for i in range(d)]
            maxs = [max(c[i] for c in corner_coords) for i in range(d)]
            if any((maxs[i] - mins[i] - 1).sign() > 0 for i in range(d)):
                continue
            if d == 1 and free[k_full][0] < lo_j[0]:
                # extending left: park the residual flush with the tile's
                # right end so the 1-D union stays an interval
                off0 = host.offset[0] + edges[0][0] - cp.edges[0][0]
                placed = Piece((off0,), cp.edges, cp.witnesses)
            else:
                offset = tuple(
                    host.offset[i]
                    - sum(
                        (edges[i][j] * mins[j] for j in range(1, d)),
                        edges[i][0] * mins[0],
                    )
                    for i in range(d)
                )
                placed = Piece(offset, cp.edges, cp.witnesses)
            break
        if placed is None:
            raise SearchExhaustedError(
                "residual fitting search exhausted; retry with a larger "
                "fit bound or smaller epsilon"
            )
        pieces.append(placed)

    result = RegionSet(d, pieces)
    if result.volume() != gamma:
        raise PreconditionError("internal error: constructed volume mismatch")
    return result


# -- text formats ----------------------------------------------------------------


def region_to_text(region: RegionSet) -> str:
    lines = [region.spec.to_text().rstrip("\n"), f"dim = {region.dim}"]
    for p in region.pieces:
        off = ", ".join(str(v) for v in p.offset)
        rows = "; ".join(", ".join(str(v) for v in row) for row in p.edges)
        line = f"piece offset = {off} | edges = {rows}"
        if p.witnesses is not None:
            wit = " / ".join(
                f"{n}: " + ", ".join(str(x) for x in m) for n, m in p.witnesses
            )
            line += f" | witness = {wit}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def region_from_text(text: str) -> RegionSet:
    algebra_lines, dim, piece_lines = [], None, []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(("basis", "product")):
            algebra_lines.append(line)
        elif line.startswith("dim"):
            dim = int(line.split("=", 1)[1])
        elif line.startswith("piece"):
            piece_lines.append(line[len("piece"):].strip())
        else:
            raise PreconditionError(f"bad region line: {raw!r}")
    if dim is None or not piece_lines:
        raise PreconditionError("region text needs dim and at least one piece")
    spec = (
        AlgebraSpec.from_text("\n".join(algebra_lines))
        if algebra_lines
        else None
    )
    from .algebra import RATIONAL

    spec = spec or RATIONAL
    pieces = []
    for pl in piece_lines:
        fields = {}
        for chunk in pl.split("|"):
            key, _, val = chunk.partition("=")
            fields[key.strip()] = val.strip()
        offset = spec.parse_vector(fields["offset"])
        edges = tuple(
            spec.parse_vector(row) for row in fields["edges"].split(";")
        )
        witnesses = None
        if "witness" in fields:
            wit = []
            for w in fields["witness"].split("/"):
                n_s, _, m_s = w.partition(":")
                wit.append(
                    (int(n_s), tuple(int(x) for x in m_s.split(",")))
                )
            witnesses = tuple(wit)
        pieces.append(Piece(offset, edges, witnesses))
    return RegionSet(dim, pieces)
