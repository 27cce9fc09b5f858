"""Exact region geometry: unions of half-open parallelepipeds.

Every piece is the image of [0,1)^d under an invertible edge matrix plus an
offset, with entries kept in the declared algebra, so volumes, corners and
translation identities are exact.  In one dimension a piece with positive
edge is the left-closed interval [o, o+e) and a piece with negative edge is
the right-closed interval (o+e, o]; the half-open side is load-bearing for
window conventions and is never approximated.  Membership decides point batches;
its hits come back once per (point, shift), sorted by distinct_rows (int64 rows).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .algebra import (
    AlgebraSpec,
    QValue,
    admissible_decomposition,
    declared_int,
    exact_det,
    integer_form,
    join,
    lift_to,
    mat_inverse,
    mat_vec,
    module_membership,
    read_declaration,
)
from .errors import PreconditionError, SearchExhaustedError

Witness = tuple[int, tuple[int, ...]]


@dataclass(frozen=True, eq=False)
class Piece:
    """One half-open parallelepiped: offset + edges @ [0,1)^d.

    ``edges`` is a d x d matrix whose columns are the edge vectors.
    ``witnesses`` optionally certifies each edge as n*alpha + m.  The piece
    owns the witness shape, d witnesses (n, m) with d integers m each, so
    every construction refuses another shape, the region reader's included.
    """

    offset: tuple[QValue, ...]
    edges: tuple[tuple[QValue, ...], ...]
    witnesses: Optional[tuple[Witness, ...]] = None

    def __post_init__(self) -> None:
        d, wits = self.dim, self.witnesses
        if wits is not None and {len(wits), *(len(m) for _, m in wits)} != {d}:
            raise PreconditionError(f"a {d}-D piece takes {d} witnesses 'n: m', each with {d} m")

    @property
    def dim(self) -> int:
        return len(self.offset)

    def det(self) -> QValue:
        return exact_det(self.edges)

    def volume(self) -> QValue:
        det = self.det()
        return -det if det.sign() < 0 else det

    def corners(self) -> list[tuple[QValue, ...]]:
        return [tuple(o + v for o, v in zip(self.offset, mat_vec(self.edges, eps)))
                for eps in itertools.product((0, 1), repeat=self.dim)]

    def edge_columns(self) -> list[tuple[QValue, ...]]:
        d = self.dim
        return [tuple(self.edges[i][j] for i in range(d)) for j in range(d)]

    @functools.cached_property
    def inverse(self) -> tuple[tuple[QValue, ...], ...]:
        """Exact inverse of the edge matrix: point to unit coordinates."""
        return tuple(tuple(row) for row in mat_inverse(self.edges))

    def frame(self, base: Sequence[QValue], gens: Sequence[Sequence[QValue]]):
        """The batch base + c @ gens in unit coordinates t, x = offset + edges @ t:
        the base inverse @ (base - offset) and the generators inverse @ g."""
        if len(base) != self.dim or any(len(g) != self.dim for g in gens):
            raise PreconditionError(f"a vector of another length for a {self.dim}-D piece")
        return (mat_vec(self.inverse, [b - o for b, o in zip(base, self.offset)]),
                [mat_vec(self.inverse, list(g)) for g in gens])

    def contains(self, x: Sequence[QValue], closure: bool = False) -> bool:
        """Exact membership of a point; half-open unless ``closure``."""
        top = 0 if closure else -1  # the largest sign of t - 1 allowed
        return all(ti.sign() >= 0 and (ti - 1).sign() <= top for ti in self.frame(x, [])[0])


def _vec_text(v: Sequence[QValue]) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


class RegionSet:
    """Finite union of half-open parallelepiped pieces in R^d.

    ``values`` holds every exact entry, offsets then edge rows piece by
    piece, and ``spec`` is their :func:`~quasilab.algebra.join`.
    """

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
        self.values = tuple(v for p in self.pieces for v in (*p.offset, *itertools.chain(*p.edges)))
        self.spec: AlgebraSpec = join(self.values)[0]

    def volume(self) -> QValue:
        total = self.pieces[0].volume()
        for p in self.pieces[1:]:
            total = total + p.volume()
        return total

    def translate(self, t: Sequence[QValue]) -> "RegionSet":
        if len(t) != self.dim:
            raise PreconditionError(f"a translate of length {len(t)} for a {self.dim}-D region")
        t = join(self.values, t)[1][1]
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
    return sum(abs(n / v.den * x) for n, x in zip(v.nums, v.spec.numerics) if n)


def _form(base: Sequence[QValue], gens: Sequence[Sequence[QValue]]):
    """(nums, den): the integer numerators of base (nums[0]) and gens[j] (nums[1 + j])."""
    nums, den = integer_form(list(base) + [v for g in gens for v in g])
    return np.array(nums, dtype=object).reshape(len(gens) + 1, len(base), -1), den


def _numerators(form, rows: np.ndarray):
    """(den * (base + r @ gens) per integer row r, den) in Python ints, from a _form."""
    return (form[0][0] + np.tensordot(rows.astype(object), form[0][1:], 1)).tolist(), form[1]


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an int64 matrix in lexicographic order, and each row's index among
    them: np.unique(rows, axis=0, return_inverse=True) in one sort of the rows, not of a void
    view.  Tied rows are equal, so one column takes numpy's faster unstable argsort."""
    order = np.argsort(rows[:, 0]) if rows.shape[1] == 1 else np.lexsort(rows.T[::-1])
    ranked, new = rows[order], np.ones(len(rows), dtype=bool)  # zero rows: new[1:] is empty
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inv = np.empty(len(rows), dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    return ranked[new], inv


class Membership:
    """Guarded float-then-exact membership of point batches in one region.

    A batch is the family x = base + c @ gens over integer rows c, lifted with
    the region into one algebra and taken in blocks of _BLOCK rows.  Membership
    of x + k depends on x only mod Z^d, so a block is anchored at its first row
    r0 by fine = floor(2^52 x(r0)), A = fine >> 52: from x(r0)'s float where that
    is within 2^-20, else by the algebra's exact floor.  Its points are placed in
    floats as xf ~ x - A, and their shifts are moved back by A.  A float decision
    is trusted only outside a guard band around every face, bounded from the
    block's spread |c - r0|, the piece corners and the norm of the piece's
    inverse; a block whose spread leaves floats no room is anchored at every row.
    Inside the band a point is decided exactly, on the integer numerators of x.
    1-D pieces count translates in closed form: ceil/floor of the ends minus x.
    In d >= 2 each point is reduced once to a fixed unit cell, so one box of shifts
    per piece, from its corner extremes, serves every point, tested as one array.
    Each call reuses one set of block buffers, and a count is written in place.
    """

    def __init__(self, region: RegionSet) -> None:
        # join picks the same algebra for a batch with the region as with this one value
        self.dim, self._rep = region.dim, next(
            (v for v in region.values if not v.is_rational()), region.values[0])
        if self.dim == 1:
            self._pieces = [(a, b, lc, np.array([[float(a)], [float(b)]]), _mag(a) + _mag(b))
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

    def _blocks(self, base, gens, coeffs, cnt=None):
        """(first row, anchors, per piece the (point index, shift minus its anchor) pairs of
        the hits) per block; given cnt, the decisions write each point's count into it instead."""
        c, d = np.asarray(coeffs, dtype=np.int64), self.dim
        if len(base) != d or any(len(g) != d for g in gens) or c.shape[1:] != (len(gens),):
            raise PreconditionError(f"a batch in {d}-D takes a base and generators of length {d} "
                                    "and one coefficient column per generator")
        spec, (_, base, *gens) = join([self._rep], base, *gens)
        lift = lambda vs: [lift_to(spec, v) for v in vs]  # noqa: E731
        (n, k), form, frames = c.shape, None, {}
        mags = [max(_mag(v) for v in g) for g in (base, *gens)]

        def scale(lo, hi) -> float:  # column extremes as Python ints: abs(-2**63) overflows int64
            """Bound on the terms of every coordinate: |base| + sum_j max|c_j| * |g_j|."""
            return mags[0] + sum(max(-a, b, 0) * m for a, b, m in zip(lo, hi, mags[1:]))

        def frame(i):
            """The batch in piece i's unit coordinates; 1-D: s (x - a), s (x - b), s = ±1."""
            if i not in frames and d > 1:
                b, g = self._pieces[i][0].frame(base, gens + np.eye(d, dtype=int).tolist())
                frames[i] = _form(lift(b), [lift(r) for r in g])
            elif i not in frames:
                s, (lo, hi) = 1 if self._pieces[i][2] else -1, lift(self._pieces[i][:2])
                frames[i] = _form([s * (base[0] - e) for e in (lo, hi)],
                                  [[s * g[0]] * 2 for g in gens])
            return frames[i]

        starts = np.arange(0, max(n, 1), _BLOCK)  # an empty batch is one block
        lows, highs = (f.reduceat(c, starts).tolist() if n else [[0] * k]
                       for f in (np.minimum, np.maximum))  # per block, one pass each
        if not scale([min(v) for v in zip(*lows)], [max(v) for v in zip(*highs)]) < 2.0**62:
            raise PreconditionError("point magnitudes beyond the int64 range")
        gens_f = np.array([[float(v) for v in g] for g in gens]).reshape(-1, d)
        base_l, cols_l = [float(v) for v in base], gens_f.T.tolist()
        dc, xb = np.empty((min(n, _BLOCK), k), np.int64), np.empty((min(n, _BLOCK), d))
        decide = functools.partial(self._ranges_1d if d == 1 else self._hits, spec, frame,
                                   np.empty((4, d * len(xb))))
        unit = (k + 4) * _EPS  # xf sums k + 1 rounded terms
        for start, lo, hi in zip(starts.tolist(), lows, highs):
            cb, span = c[start:start + _BLOCK], [h - l for l, h in zip(lo, hi)]
            rows, ext = cb[:1], (cb[:1].tolist() or [lo]) * 2
            spread = sum(s * m for s, m in zip(span, mags[1:]))
            if not (unit * spread < 0.125 and max(span, default=0) < 2**53):
                # floats leave no room, or c - r0 is inexact: anchor every row
                rows, spread, ext = cb, 0, (lo, hi)
            # the middle of [fine, fine + 1) * 2^-52 is within 2^-53 of x(rows), and x(rows)'s
            # float within f_err: below 2^-20 that widens the band by less than a floor costs
            x_err, f_err = unit * (1 + spread) + 2.0**-53, unit * scale(*ext)
            if f_err < 2.0**-20 or None in spec.radicands:  # value-declared: no exact floor
                if not (x_err := x_err + f_err) < 0.25:  # below 1/4 if f_err < 2^-20
                    raise PreconditionError("value-declared elements beyond float placement")
                # in Python floats: numpy calls on the one-row arrays of most blocks cost more
                fine = [[math.floor((b + sum(r * g for r, g in zip(row, col))) * 2.0**52)
                         for b, col in zip(base_l, cols_l)] for row in rows.tolist()]
            else:
                nums, den = _numerators(form := form or _form(base, gens), rows)
                fine = [[spec.floor_of([n << 52 for n in v], den) for v in f] for f in nums]
            # per row of fine = floor(2^52 x): the anchor A = fine >> 52, and the middle of
            # [fine, fine + 1) * 2^-52 minus A
            anchor = np.array([[v >> 52 for v in f] for f in fine], dtype=np.int64).reshape(-1, d)
            frac = np.array([[(v % 2**52 + 0.5) * 2.0**-52 for v in f] for f in fine]).reshape(-1, d)
            if len(anchor) < len(cb):  # one anchor row, seen by every point: a zero-stride view
                anchor = np.ndarray((len(cb), d), np.int64, anchor, strides=(0, 8))
            xf, dcb = xb[:len(cb)], np.subtract(cb, rows, out=dc[:len(cb)])
            if k == d == 1:  # one product per point: in place, no BLAS call
                np.copyto(xf, dcb)
                xf *= gens_f
            else:
                np.dot(dcb.astype(np.float64), gens_f, out=xf)
            xf += frac
            yield start, anchor, decide(cb, xf, anchor, x_err,
                                        None if cnt is None else cnt[start:start + len(cb)])

    def _ranges_1d(self, spec, frame, buf, c, xf, anchor, x_err, cnt) -> list:
        """Per piece, the (point index, k - anchor) pairs of the integer translates k of each
        point, lo <= k - anchor < hi; given cnt, their number per point, summed into cnt."""
        x, out = xf[:, 0], []
        xmax = max(-x.min(initial=0.0), x.max(initial=0.0))  # max|x| with no temporary
        ys, rs = buf[:2, :len(x)], buf[2:, :len(x)]  # row 0 for the end a, row 1 for b
        for j, (_, _, left_closed, ends_f, span) in enumerate(self._pieces):
            guard = 2 * x_err + 4 * _EPS * (span + xmax + 1)
            # y = e - x is near an integer when d = |y - rnd(y)|, in [0, 1),
            # is below guard or above 1 - guard.  d is exact unless |y| < 1,
            # where it and 1 - guard round by at most eps/2 each; the guard's
            # 4 eps is spare above the float error of y and covers both.
            rnd, s = (np.ceil, 1) if left_closed else (np.floor, -1)
            rnd(np.subtract(ends_f, x, out=ys), out=rs)
            np.subtract(rs, ys, out=ys) if left_closed else np.subtract(ys, rs, out=ys)
            # outside the band rnd's floats are exact integers: the ends, or given cnt hi - lo
            got = rs.astype(np.int64) if cnt is None else np.subtract(rs[1], rs[0], out=rs[1])
            if ys.min(initial=1) < guard or ys.max(initial=0) > 1 - guard:  # rare: decide exactly
                # [a, b): ceil(e - x) = -floor(x - e); (a, b]: floor(e - x)
                flagged = np.flatnonzero(np.any((ys < guard) | (ys > 1 - guard), axis=0))
                nums, den = _numerators(frame(j), c[flagged])
                exact = np.array([[anchor[i, 0] - s * spec.floor_of(y, den) for y in ends_i]
                                  for i, ends_i in zip(flagged, nums)], dtype=np.int64).T
                got[..., flagged] = exact if cnt is None else exact[1] - exact[0]
            if cnt is None:  # the shifts lo + r below hi, r below the widest range
                lo, hi = got if left_closed else got + 1
                k = lo[:, None] + np.arange((hi - lo).max(initial=0))
                out.append((np.nonzero(keep := k < hi[:, None])[0], k[keep][:, None]))
            else:
                np.add(cnt, got, out=cnt, casting="unsafe") if j else np.copyto(cnt, got, "unsafe")
        return out

    def _hits(self, spec, frame, buf, c, xf, anchor, x_err, cnt) -> list:
        """Per piece, the (point index, integer shift minus its anchor) pairs of its hits;
        given cnt, the number per point is written into it."""
        (n, d), sign = xf.shape, spec.sign_of
        kb, y, p = (b[:d * n].reshape(d, n) for b in buf[:3])  # axis by axis, as rows
        xmax = np.abs(xf).max(initial=0.0)
        # one reduction for every piece: y = x - A - kb in [-2 y_red, 1 - 2 y_red), up to the
        # rounding of xf + 2 y_red; y + m lands at the shift m - kb from the anchor
        y_red = 2 * x_err + 4 * _EPS * (xmax + max(ext for *_, ext, _ in self._pieces) + 1)
        np.floor(np.add(xf.T, 2 * y_red, out=kb), out=kb)
        np.subtract(xf.T, kb, out=y)
        out = []
        for j, (_, inv_f, off_f, lo_f, hi_f, ext, norm) in enumerate(self._pieces):
            # error of x + k - offset, and of its image in unit coordinates
            y_err = 2 * x_err + 4 * _EPS * (xmax + ext + 1)
            guard = 2 * norm * (y_err + (d + 4) * _EPS * (ext + 1))
            # one box of shifts for all points: y + m >= lo - 2 eps ext with y < 1 - 2 y_red + eps
            # xmax / 2 gives m > lo - 1, so m >= floor(lo); likewise m <= hi + 4 y_red
            box = np.floor([lo_f, hi_f + 4 * y_red]).astype(np.int64)
            m = np.array(list(itertools.product(*map(range, box[0], box[1] + 1)))).reshape(-1, d)
            # |t - 1/2| per axis, points x shifts, t = inv @ y + inv @ (m - off): by |y| <= 1,
            # |m - off| <= 2 ext + 2 and norm ext >= 1/2, with 1/2 -+ guard its error is below
            # norm (x_err + (2 d + 11) eps (ext + 1)) < guard, as y_err >= 2 x_err + 4 eps (ext + 1)
            t = np.dot(inv_f, y, out=p)[:, :, None] + (inv_f @ (m - off_f).T - 0.5)[:, None]
            q = np.abs(t, out=t).max(axis=0)
            inside = q <= 0.5 - guard
            i, s = np.nonzero(~inside & (q < 0.5 + guard))  # the pairs inside the band
            if len(i):  # den * t of x + k at the absolute shifts k; t in [0, 1)^d
                k = m[s] - kb[:, i].T.astype(np.int64) - anchor[i]
                nums, den = _numerators(frame(j), np.column_stack([c[i], k]))
                inside[i, s] = [all(sign(ti, den) >= 0 and sign([ti[0] - den, *ti[1:]], den) < 0
                                    for ti in tp) for tp in nums]
            i, s = np.nonzero(inside)
            out.append((i, m[s] - kb[:, i].T.astype(np.int64)))
        if cnt is not None:
            cnt[:] = np.bincount(np.concatenate([i for i, _ in out]), minlength=n)
        return out

    def count(self, base, gens, coeffs, out=None) -> np.ndarray:
        """Per point, the number of (piece, integer shift) pairs that land, into out if given."""
        out = np.empty(len(coeffs), dtype=np.int64) if out is None else out
        if out.shape != (len(coeffs),) or out.dtype != np.int64:
            raise PreconditionError("out takes one int64 entry per point")
        for _ in self._blocks(base, gens, coeffs, out):
            pass
        return out

    def translates(self, base, gens, coeffs) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct (point index, integer shift) with x + shift in the region."""
        out = []
        for start, a, pairs in self._blocks(base, gens, coeffs):
            rows = distinct_rows(np.vstack([np.column_stack([i, k - a[i]]) for i, k in pairs]))[0]
            rows[:, 0] += start  # blocks are contiguous, so the rows stay sorted
            out.append(rows)
        rows = np.concatenate(out)
        return rows[:, 0], rows[:, 1:]


def interval(a: QValue, b: QValue, left_closed: bool = True) -> RegionSet:
    """Semi-closed interval [a,b) or (a,b] with exact endpoints."""
    a, b = join((a, b))[1][0]
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
    """Axis-aligned half-open box [lo_1,hi_1) x ... x [lo_d,hi_d).

    The corners join with ``spec``, which holds them when they are rational.
    """
    lows, highs = join([spec.zero()], lows, highs)[1][1:]
    if any((hi - lo).sign() <= 0 for lo, hi in zip(lows, highs)):
        raise PreconditionError("box corners must satisfy lo < hi on every axis")
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
    represented by the left-closed piece of the same endpoints, so they may
    share no endpoint with another piece: there they would decide a join.
    """
    parts = [p.strip() for p in text.replace("∪", " U ").split(" U ")]
    regions, loose = [], []
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
        elif not allow_closed:
            raise PreconditionError(
                f"window must be semi-closed ([a,b) or (a,b]): {part!r}"
            )
        else:
            loose.append((part, a, b))
            regions.append(interval(a, b, left_closed=True))
    ends = [e for r in regions for e in r.intervals()[0][:2]]
    for part, a, b in loose:
        if ends.count(a) + ends.count(b) > 2:  # each matches itself once
            raise PreconditionError(f"{part!r} shares an endpoint with another piece: "
                                    "write intervals that touch semi-closed")
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


def multiplicity(region: RegionSet, x: Sequence) -> int:
    """Number of integer translates of x landing in the region (exact)."""
    return int(region.membership.count(x, [], np.zeros((1, 0)))[0])


def check_disjoint(region: RegionSet) -> list[tuple[int, int]]:
    """Pairs (i, j) of pieces whose interiors overlap, decided exactly.

    Separating-axis test: two parallelepipeds have disjoint interiors exactly
    when, on some axis, the projections of their corners meet in at most one
    point.  The axes are the face normals of both pieces (the rows of their
    edge inverses) and, in 3-D, the nonzero cross products of an edge of
    each; these suffice up to dimension 3, and beyond it a pair may be
    reported that does not overlap.  Projections are exact and compared by
    sign, so pieces that only touch are disjoint.
    """
    pieces = region.pieces
    corners = [p.corners() for p in pieces]
    normals = [list(p.inverse) for p in pieces]

    def separated(ax: Sequence[QValue], a: list, b: list) -> bool:
        pa, pb = ([sum((u * x for u, x in zip(ax[1:], c[1:])), ax[0] * c[0]) for c in cs]
                  for cs in (a, b))
        return max(pa) <= min(pb) or max(pb) <= min(pa)

    def overlap(i: int, j: int) -> bool:
        axes = normals[i] + normals[j]
        if region.dim == 3:
            for u in pieces[i].edge_columns():
                for v in pieces[j].edge_columns():
                    w = [u[(a + 1) % 3] * v[(a + 2) % 3] - u[(a + 2) % 3] * v[(a + 1) % 3]
                         for a in range(3)]
                    if any(x != 0 for x in w):
                        axes.append(w)
        return not any(separated(ax, corners[i], corners[j]) for ax in axes)

    return [(i, j) for i, j in itertools.combinations(range(len(pieces)), 2) if overlap(i, j)]


# -- constructions certified over Z*alpha + Z^d --------------------------------


def _combo_vector(
    alpha: Sequence[QValue], n: int, m: Sequence[int]
) -> tuple[QValue, ...]:
    return tuple(a * n + int(mi) for a, mi in zip(alpha, m))


def _witnessed_piece(alpha: Sequence[QValue], witnesses: Sequence[Witness],
                     offset: Optional[tuple] = None) -> Piece:
    """The piece offset + edges @ [0,1)^d whose column j is n_j*alpha + m_j,
    certified by the witnesses (n_j, m_j); the offset defaults to the origin.
    Every witnessed parallelepiped is built here, and Piece checks the shape."""
    witnesses = tuple((int(n), tuple(map(int, m))) for n, m in witnesses)
    edges = tuple(zip(*[_combo_vector(alpha, n, m) for n, m in witnesses]))  # the transpose
    return Piece(offset or tuple(a.spec.zero() for a in alpha), edges, witnesses)


def brs_parallelepiped(alpha: Sequence[QValue], generators: Sequence[Witness]) -> RegionSet:
    """Parallelepiped spanned by edges n_i*alpha + m_i, certified per edge
    (:func:`_witnessed_piece`); d generators of d integers m each."""
    return RegionSet(len(alpha), [_witnessed_piece(alpha, generators)])


def _spiral(bound: int) -> list[int]:
    out = [0]
    for v in range(1, bound + 1):
        out.extend((v, -v))
    return out


def _det_coeffs(witnesses: Sequence[Witness], rows: Sequence[int]) -> Iterator[int]:
    """Integer coefficients (c_0, c_1, ..) of the minor on ``rows`` of the edge
    matrix whose column j is n_j*alpha + m_j: the minor is c_0 + sum_k c_k *
    alpha_{rows[k - 1]}.

    Row i of the matrix is alpha_i * n + M_i, with n the row of the n_j and
    M_i the row of the m_j[i].  The determinant is multilinear in the rows,
    and any two rows of the form alpha_i * n are proportional, so the minor
    is det M_rows plus, per row i, alpha_i times det M_rows with row i
    replaced by n.  The coefficients come lazily, so a caller may stop at
    the first one it does not want.
    """
    n = [w[0] for w in witnesses]
    m = [[w[1][i] for w in witnesses] for i in rows]
    yield exact_det(m)
    for k in range(len(m)):
        yield exact_det([*m[:k], n, *m[k + 1:]])


def measure_candidates(
    alpha: Sequence[QValue], gamma: QValue, search_bound: int
) -> Iterable[RegionSet]:
    """Deterministic stream of certified parallelepipeds of measure |gamma|.

    Edges n_j*alpha + m_j enumerate integer (n, m) with entries 0, 1, -1, ..
    up to the bound, lexicographically, and d-subsets come in the induced
    order.  A subset is a hit when its minor coefficients c (:func:`_det_coeffs`)
    are +-dec, gamma = dec_0 + sum dec_i*alpha_i (unique by
    :func:`~quasilab.algebra.admissible_decomposition`).  With W the integer
    matrix of columns (n_j, m_j), [W | w_j] has determinant 0, so n_j*c_0 =
    sum_k c_k*m_j[k-1]: a hit's edges lie on the hyperplane n*dec_0 =
    sum_k dec_k*m[k-1], the only candidates kept.  There c = lambda*dec, so a
    subset is decided by one minor, |c_k| = |det W without row k| = |dec_k|
    at the first nonzero dec_k.  Only a hit is built in the algebra, by
    :func:`_witnessed_piece`, the builder of every witnessed piece.  A gamma
    with no decomposition yields nothing; gamma = 0 or a dependent alpha is
    refused with PreconditionError.
    """
    d = len(alpha)
    dec = admissible_decomposition(alpha, gamma)
    if dec is None:
        return
    if not any(dec):
        raise PreconditionError("measure must be nonzero")
    if d == 1:  # the edge dec_1*alpha + dec_0 is gamma
        yield RegionSet(1, [_witnessed_piece(alpha, [(dec[1], dec[:1])])])
        return
    cands = [(t[0], t[1:]) for t in itertools.product(_spiral(search_bound), repeat=d + 1)
             if any(t) and t[0] * dec[0] == sum(g * x for g, x in zip(dec[1:], t[1:]))]
    k = next(i for i, g in enumerate(dec) if g)
    for combo in itertools.combinations(cands, d):
        w = [[n for n, _ in combo], *zip(*(m for _, m in combo))]
        if abs(exact_det(w[:k] + w[k + 1:])) == abs(dec[k]):
            yield RegionSet(d, [_witnessed_piece(alpha, combo)])


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
    _, alpha, *shifts = join(source.values, alpha, *shifts)[1]
    witnesses = tuple(module_membership(s, alpha) for s in shifts)
    return EquidecompCertificate(tuple(alpha), source, target,
                                 tuple(map(tuple, shifts)), witnesses)


def verify_equidecomposition(cert: EquidecompCertificate) -> Verdict:
    """Check all certificate invariants exactly; report the first violation.
    Equal piece counts and equal edge matrices piece by piece make the volumes equal."""
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
        if _combo_vector(cert.alpha, *wit) != tuple(shift):
            return Verdict(False, f"piece {i}: stored witness does not "
                                  f"reproduce the shift")
    return Verdict(True)


# -- the K subset-of S subset-of U construction ---------------------------------


def _tile_edges(
    alpha: Sequence[QValue], epsilon: float, tile_bound: int
) -> list[tuple[Witness, tuple[QValue, ...]]]:
    """Small independent edge vectors of the form n*alpha + m.

    Scans n = 1..bound, rounding each coordinate of n*alpha to the nearest
    integer, and keeps the first d candidates (by |n|) that are short
    enough and independent of those already kept.  With 1, alpha_1..alpha_d
    independent over Q, which the caller's admissible decomposition proves,
    a set of k edges is independent exactly when some k-row minor has a
    nonzero coefficient vector (:func:`_det_coeffs`), decided on integers.
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
        wits = [w for w, _ in trial]
        if not any(any(_det_coeffs(wits, rows))
                   for rows in itertools.combinations(range(d), len(trial))):
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
    result is safe for closed K and open U inputs.  Each piece of K must lie
    in the closure of one piece of U; in 1-D, pieces of U that overlap or
    abut at a point of U are joined first.  Search exhaustion (no
    small tile, not enough room, residual does not fit) is reported rather
    than silently accepting an approximate answer.
    """
    if not 0 < epsilon < np.inf:
        raise PreconditionError(f"epsilon must be a finite number > 0, not {epsilon}")
    d = region_k.dim
    if region_u.dim != d or len(alpha) != d:
        raise PreconditionError("dimension mismatch between K, U and alpha")
    spec, (_, _, alpha, (gamma,)) = join(region_u.values, region_k.values, alpha, (gamma,))
    if admissible_decomposition(alpha, gamma) is None:
        raise PreconditionError(
            "target measure is not an integer combination of 1, alpha_i"
        )
    if d == 1:  # join the pieces of U, in order of lo, that overlap or abut at a point of U
        joined: list[list] = []
        for lo, hi, _ in sorted(region_u.intervals(), key=lambda v: v[0]):
            if joined and (lo < joined[-1][1] or lo == joined[-1][1] and region_u.contains((lo,))):
                joined[-1][1] = max(joined[-1][1], hi)
            else:
                joined.append([lo, hi])
        region_u = union(*(interval(lo, hi) for lo, hi in joined))
    vol_k, vol_u = region_k.volume(), region_u.volume()
    if not ((gamma - vol_k).sign() > 0 and (vol_u - gamma).sign() > 0):
        raise PreconditionError("need mes K < gamma < mes U")
    for p in region_k.pieces:
        corners = p.corners()
        if not any(all(up.contains(c, closure=True) for c in corners)
                   for up in region_u.pieces):
            raise PreconditionError("K is not contained in U" + (
                "" if d == 1 else ": each piece of K must lie in the closure of one piece of U"))

    witnesses = [w for w, _ in _tile_edges(alpha, epsilon, tile_bound)]
    tile = _witnessed_piece(alpha, witnesses)
    edges, cols, inv, tile_vol = tile.edges, tile.edge_columns(), tile.inverse, tile.volume()

    def tile_piece(j: Sequence[int]) -> Piece:
        return _witnessed_piece(alpha, witnesses, tuple(mat_vec(edges, [int(v) for v in j])))

    def cover(region: RegionSet) -> tuple[list[int], list[int]]:
        """Per axis, the least and the greatest tile index of a corner of the region."""
        coords = [mat_vec(inv, list(c)) for p in region.pieces for c in p.corners()]
        return ([min(c[i].floor() for c in coords) for i in range(d)],
                [max(c[i].floor() for c in coords) for i in range(d)])

    # Tiles meeting K: box cover of K's corners in tile coordinates.
    lo_j, hi_j = cover(region_k)
    a_tiles = sorted(itertools.product(*[
        range(lo_j[i], hi_j[i] + 1) for i in range(d)
    ]))

    # Tiles j inside U over a box cover of U: the tile is inside when its 2^d
    # corners edges @ (j + eps) lie in the interior of one piece of U.  In a
    # piece's unit coordinates the corners edges @ c form the integer-affine
    # batch inv @ (edges @ c - offset), and t is in (0,1)^d exactly when the
    # kernel shifts it by 0 into both [0,1)^d and (0,1]^d.  Each cube tiles
    # space, so the kernel returns one shift per corner and cube.
    ulo, uhi = cover(region_u)
    ulo = [v - 1 for v in ulo]  # tiles ulo .. uhi + 1, corners ulo .. uhi + 2
    shape = tuple(hi - lo + 3 for lo, hi in zip(ulo, uhi))
    grid = np.indices(shape).reshape(d, -1).T + np.array(ulo)
    cube = box_region(spec, [0] * d, [1] * d)
    mirror = RegionSet(d, [Piece((spec.one(),) * d,
                                 tuple(tuple(-v for v in row) for row in cube.pieces[0].edges))])
    inside = np.zeros([n - 1 for n in shape], dtype=bool)
    for up in region_u.pieces:
        base, gens = up.frame([spec.zero()] * d, cols)
        corner_in = np.ones(len(grid), dtype=bool)
        for unit in (cube, mirror):
            corner_in &= ~unit.membership.translates(base, gens, grid)[1].any(axis=1)
        corner_in = corner_in.reshape(shape)
        inside |= np.logical_and.reduce([
            corner_in[tuple(slice(e, e + n - 1) for e, n in zip(eps, shape))]
            for eps in itertools.product((0, 1), repeat=d)
        ])

    if not all(inside[tuple(a - b for a, b in zip(j, ulo))] for j in a_tiles):
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

    # Free tiles inside U, in lexicographic order, preferring contiguity
    # with the block in 1-D.
    a_set = set(a_tiles)
    free = [j for j in map(tuple, (np.argwhere(inside) + ulo).tolist()) if j not in a_set]
    if d == 1:
        right = sorted(j for j in free if j[0] > hi_j[0])
        left = sorted((j for j in free if j[0] < lo_j[0]), reverse=True)
        free = right + left

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
                offset = (host.offset[0] + edges[0][0] - cp.edges[0][0],)
            else:
                offset = tuple(h - v for h, v in zip(host.offset, mat_vec(edges, mins)))
            placed = _witnessed_piece(alpha, cp.witnesses, offset)
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


def _piece_line(spec: AlgebraSpec, rest: str) -> Piece:
    """``offset = v | edges = row; row | witness = n: m,... / ...`` of one piece."""
    pairs = [chunk.partition("=") for chunk in rest.split("|")]
    fields = {key.strip(): val.strip() for key, eq, val in pairs if eq}
    if len(fields) != len(pairs) or fields.keys() - {"witness"} != {"offset", "edges"}:
        raise PreconditionError("a piece has one offset, one edges and at most one witness field")
    offset, witnesses = spec.parse_vector(fields["offset"]), None
    if "witness" in fields:
        wits = [w.partition(":") for w in fields["witness"].split("/")]
        witnesses = tuple((int(n), tuple(int(x) for x in m.split(","))) for n, _, m in wits)
    edges = tuple(spec.parse_vector(row) for row in fields["edges"].split(";"))
    return Piece(offset, edges, witnesses)


def region_from_text(text: str) -> RegionSet:
    _, (dims, pieces) = read_declaration(text, {"dim": declared_int, "piece": _piece_line})
    if len(dims) != 1:
        raise PreconditionError("a region needs one dim line")
    return RegionSet(dims[0], pieces)
