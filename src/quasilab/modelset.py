"""Point-set generators: quasicrystals, dual model sets, periodic variants.

Every generator takes an explicit search range (reproducibility over
convenience) and tags each point with the integer data (m_1..m_d, n) of
the lattice point that produced it, one row of an int64 provenance matrix.
Output order is the lexicographic order of that provenance.  The lattice
generators share one selection: one membership-kernel call over a grid of all
but the free coordinates, which come back as integer translates into the window.

A point set stores float coordinates and provenance only.  The exact
coordinates are ``Lattice.point`` of the provenance: the first d entries
on the lattice Gamma for a quasicrystal, and entry d on Gamma* for a dual
model point (for the special-form generators, rows of the one builder
``special_bases(alpha, beta)``).  Float coordinates come from one integer
affine map of the provenance per call (integer numerators over a common
denominator) under ``float(QValue)``'s fsum rule, so they are bit-identical
to ``float`` of those exact values.  The map runs vectorized in int64 and
float64, with TwoSum sums whose correct rounding is proven; a row that could
overflow 2^53 or whose rounding is not proven is redone in Python ints.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .algebra import QValue, integer_form, join, lift_to
from .errors import PreconditionError
from .lattice import Lattice, check_special_form, special_bases, transform_region
from .regions import RegionSet, interval

__all__ = [
    "PointSet",
    "cut_and_project",
    "special_quasicrystal",
    "dual_model_points",
    "sequence_points",
    "periodic_points",
    "periodic_dual",
    "density_estimate",
    "separation",
]


@dataclass(eq=False)
class PointSet:
    """Finite tagged point set.

    coords is an (n, dim) float array; provenance is an (n, k) int64 matrix
    with the integer data (m_1..m_d, n) of each point (the block index of a
    one-dimensional dual model point is the last column).  Entries outside
    int64 and a row count other than n are refused.
    """

    dim: int
    coords: np.ndarray
    provenance: np.ndarray
    window: str = ""

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=float).reshape(-1, self.dim)
        prov = np.asarray(self.provenance)
        if prov.dtype != np.int64:
            try:  # Python ints outside int64 overflow here
                ints = np.asarray(self.provenance, dtype=np.int64)
            except (OverflowError, TypeError, ValueError):
                ints = None
            if ints is None or not np.array_equal(ints, prov):
                raise PreconditionError("provenance entries must be integers within int64")
            prov = ints
        self.provenance = prov.reshape(0, 0) if prov.ndim == 1 and not prov.size else prov
        if self.provenance.ndim != 2 or len(prov) != len(self.coords):
            raise PreconditionError(
                f"provenance of shape {prov.shape} for {len(self.coords)} points")

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def values(self) -> np.ndarray:
        """1-D coordinates as a flat array."""
        if self.dim != 1:
            raise PreconditionError("values is for 1-D point sets")
        return self.coords[:, 0]

    def take(self, order: Sequence[int]) -> "PointSet":
        order = np.asarray(order, dtype=np.intp)
        return PointSet(self.dim, self.coords[order], self.provenance[order],
                        self.window)

    def restrict_box(self, radius: float) -> "PointSet":
        keep = np.nonzero(np.abs(self.coords).max(axis=1) <= radius)[0]
        return self.take(keep)

    def to_csv(self) -> str:
        """Header line, then one row ``x1,...,xd,prov...`` per point.

        Written by ``_csv_bytes``: ``"%.17g"`` of each distinct coordinate bit
        pattern, formatted once per chunk, and ``str(int)`` of the provenance,
        byte-identical to formatting the rows one by one."""
        header = f"# quasilab pointset v1 dim={self.dim}"
        return _csv_bytes(header, [*self.coords.T, *self.provenance.T]).decode()

    @classmethod
    def from_csv(cls, text: str) -> "PointSet":
        lines = [l for l in text.splitlines() if l.strip()]
        head = "# quasilab pointset v1 dim="
        if not lines or not lines[0].startswith(head):
            raise PreconditionError(f"not a quasilab pointset file: its header is not '{head}<d>'")
        dim = int(lines[0][len(head):])
        coords, prov = [], []
        for line in lines[1:]:
            cells = line.split(",")
            coords.append([float(c) for c in cells[:dim]])
            prov.append(tuple(int(c) for c in cells[dim:]))
        return cls(dim, np.array(coords), prov)


def _csv_bytes(header: str, columns: Sequence) -> bytes:
    return b"".join(_csv_chunks(header, columns))


def _csv_chunks(header: str, columns: Sequence) -> Iterator[bytes]:
    """The header line, then one CSV row per index of the columns, in chunks.

    A float column's cell is ``"%.17g" % v``, formatted once per distinct
    bit pattern of a chunk (``-0.0`` and ``0.0`` stay apart, as do NaN
    payloads); any other column's is ``str(int(v))`` of an int64, its digits
    computed by numpy.  Each column's NUL-padded fixed-width cells, and a
    separator after each, are written into one row matrix per 2^14 rows; the
    rows are its non-NUL bytes, byte-identical to f-strings row by row.
    """
    yield (header + "\n").encode()
    for start in range(0, len(columns[0]) if len(columns) else 0, 1 << 14):
        cells = [_cells(np.asarray(col[start:start + (1 << 14)])) for col in columns]
        text = np.zeros((min(len(columns[0]) - start, 1 << 14), sum(w + 1 for w, _ in cells)),
                        dtype=np.uint8)
        lo = 0
        for width, write in cells:
            write(text[:, lo:lo + width])
            text[:, lo + width] = ord(",")
            lo += width + 1
        text[:, -1] = ord("\n")
        yield text[text != 0].tobytes()


def _cells(a: np.ndarray):
    """(width, write) for a column: write(out), called once, puts the text
    of each entry into the rows of the (len(a), width) view out, NUL-padded,
    on zeros."""
    if a.dtype.kind == "f":
        bits = np.ascontiguousarray(a, dtype=np.float64).view(np.int64)
        uniq = np.sort(bits)  # a sort: np.unique of int64 hashes, several times slower
        uniq = uniq[np.concatenate([[True], uniq[1:] != uniq[:-1]])]
        distinct = len(uniq) == len(bits)  # then format in row order, no gather
        values = tuple((bits if distinct else uniq).view(np.float64).tolist())
        # one padded text, no split: "%.17g" is at most 24 bytes (a sign, 17 digits, "." and e-308)
        text = ("%-24.17g" * len(values) % values).encode().replace(b" ", b"\0")
        table = np.frombuffer(text, dtype=np.uint8).reshape(len(values), 24)
        if distinct:
            return 24, lambda out: np.copyto(out, table)
        table = table[:, :np.count_nonzero(table, axis=1).max()]  # as wide as its widest text
        rows = np.searchsorted(uniq, bits)
        # one memcpy per row: both sides as rows of one void item each
        return table.shape[1], lambda out: np.take(_rows(table), rows, out=_rows(out))
    mag = np.abs(a.astype(np.int64)).astype(np.uint64)  # |-2**63| wraps to 2**63
    top = int(mag.max())
    if top < 1 << 32:  # uint32 division is several times faster
        mag = mag.astype(np.uint32)
    digits = len(str(top))

    def write(out: np.ndarray) -> None:
        out[a < 0, 0] = ord("-")
        rem, live = np.empty_like(mag), np.ones(len(mag), dtype=bool)
        for col in range(digits, 0, -1):  # the units digit is written also for 0
            np.divmod(mag, 10, out=(mag, rem))
            rem += ord("0")
            rem *= live  # NUL once the digits above were all 0
            out[:, col] = rem
            np.greater(mag, 0, out=live)

    return digits + 1, write


def _rows(m: np.ndarray) -> np.ndarray:
    """The rows of a uint8 matrix with contiguous rows, as one void item each."""
    return m.view(np.dtype((np.void, m.shape[1])))[:, 0]


def _window_check(window: RegionSet) -> None:
    if window.dim != 1:
        raise PreconditionError("window must be one-dimensional")


def _grid(box: Sequence, what: str, free: Sequence[int] = ()) -> np.ndarray:
    """Integer points of an inclusive box without its free axes, one per row, in lexicographic
    order.  lo > hi on any axis is refused (a free axis may be None, unbounded), the same way
    for every generator's boxes and ranges."""
    if any(r[0] > r[1] for r in box if r is not None):
        raise PreconditionError(f"empty {what}: lo > hi")
    axes = [np.arange(r[0], r[1] + 1, dtype=np.int64) for i, r in enumerate(box) if i not in free]
    if len(axes) == 1:  # the range itself, as a column
        return axes[0][:, None]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _affine_points(
    mat: Sequence[Sequence[QValue]], prov: np.ndarray, window: str
) -> PointSet:
    """Float points x_a = sum_j prov[:, j] * mat[a][j], one per provenance row.

    The map is taken once as integer numerators over one common denominator
    den.  A coordinate is ``float(QValue)``'s rule on the exact value: the
    fsum of n_l / den * x_l over the basis elements l whose numerator n_l
    (a dot product of the provenance with the map's numerators) is nonzero,
    x_l the basis numerics.  Every row first goes through _affine_floats;
    a row it cannot prove runs that rule on Python ints (no fixed-width
    overflow), so each coordinate is ``float`` of the exact value, bit for bit.
    """
    spec, (vals,) = join(v for row in mat for v in row)
    nums, den = integer_form(vals)
    # per coordinate, per basis element: the numerators over the provenance
    rows = [nums[i:i + len(mat[0])] for i in range(0, len(nums), len(mat[0]))]
    cols = [[[n[l] for n in row] for l in range(spec.dim)] for row in rows]
    coords, exact = _affine_floats(cols, den, spec.numerics, prov)
    for i in np.flatnonzero(exact).tolist():
        c = prov[i].tolist()
        for a, coord_cols in enumerate(cols):
            nums = (sum(map(operator.mul, c, col)) for col in coord_cols)
            # int / int is correctly rounded, so n / den == float(Fraction(n, den))
            coords[i, a] = math.fsum(n / den * x
                                     for n, x in zip(nums, spec.numerics) if n)
    return PointSet(len(mat), coords, prov, window)


# integers of magnitude below 2^53 are exact float64 values
_EXACT_INT = 1 << 53
# a float bound on sum_j |prov_j| * max|num_j| below this proves the true
# one below 2^53 (its rounding is a relative (k + 2) * 2^-53 for k columns)
_ROW_BOUND = _EXACT_INT * (1 - 2.0 ** -40)


def _affine_floats(
    cols: list[list[list[int]]], den: int, numerics: Sequence[float],
    prov: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The (n, d) coordinates of _affine_points in numpy, and the rows to redo.

    With |n| and den below 2^53 both are exact floats, so n / den * x is
    the rule's product.  Numerators are int64 products, trusted on a row
    whose float bound on sum_j |prov_j| * max|num_j| is below 2^53.  A sum
    of at most two nonzero terms is one rounded addition, which is fsum's;
    three or more go through _sum2 and its proof of correct rounding.  A row
    is redone when its bound fails, a sum is not proven, or a coordinate is
    not finite (fsum's overflow behaviour); a map whose den or numerators
    reach 2^53 redoes every row.
    """
    n_pts, dim = len(prov), len(cols)
    flat = [col for coord_cols in cols for col in coord_cols]
    if (not n_pts or den >= _EXACT_INT
            or any(abs(v) >= _EXACT_INT for col in flat for v in col)):
        return np.zeros((n_pts, dim)), np.ones(n_pts, dtype=bool)
    num = np.array(flat, dtype=np.int64).reshape(len(flat), -1).T
    nums = prov @ num  # exact on every row the bound keeps
    bound = np.abs(prov.astype(float)) @ np.abs(num).max(axis=1).astype(float)
    exact = bound >= _ROW_BOUND
    nonzero = nums != 0
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.where(nonzero, nums / den * np.tile(numerics, dim), 0.0)
        terms = terms.reshape(n_pts, dim, -1)
        coords = terms.sum(axis=2)
        many = nonzero.reshape(terms.shape).sum(axis=2) > 2
        coords[many], proven = _sum2(terms[many])
    unsure = np.zeros_like(many)
    unsure[many] = ~proven
    exact |= (unsure | ~np.isfinite(coords)).any(axis=1)
    return coords, exact


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = fl(a + b) and the exact error a + b - s (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _sum2(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums over the last axis, and where each is proven correctly rounded.

    TwoSum passes (Sum2 of Ogita, Rump and Oishi) leave the exact sum as
    p + sigma + delta, where delta is the sum of the TwoSum errors of
    sigma's own accumulation, |delta| <= slack.  s = fl(p + sigma) with
    its error t.  When delta is 0, s is the rounding of the exact sum, ties
    included.  Otherwise s is proven when |t| + 2 * slack is below half the
    float spacing below |s|, the narrower side of s's rounding interval.
    """
    p = terms[..., 0]
    sigma = slack = np.zeros(p.shape)
    for l in range(1, terms.shape[-1]):
        p, err = _two_sum(p, terms[..., l])
        sigma, resid = _two_sum(sigma, err)
        slack = slack + np.abs(resid)
    s, t = _two_sum(p, sigma)
    mag = np.abs(s)
    half_gap = (mag - np.nextafter(mag, 0)) / 2
    return s, np.isfinite(s) & ((slack == 0) | (np.abs(t) + 2 * slack < half_gap))


def _select(window, gens, box, free, mat, text, what) -> PointSet:
    """Points mat @ c in lexicographic order of c, from one kernel call: the columns of c outside
    free run over _grid's grid of box, and those in free are the integer translates of (the
    others) @ gens into the window, trimmed to their ranges in box (None: unbounded)."""
    rest, coeffs = [i for i in range(len(box)) if i not in free], _grid(box, what, free)
    lo, hi = np.array([(-2**63, 2**63 - 1) if box[j] is None else box[j] for j in free]).T
    idx, shift = window.membership.translates((0,) * window.dim, gens, coeffs)
    prov = np.column_stack([coeffs[idx], shift])[:, np.argsort(rest + free)]
    prov = prov[((lo <= shift) & (shift <= hi)).all(axis=1)]
    if free[0] < len(rest):  # the kernel's order, (others, free), is not lexicographic
        prov = prov[np.lexsort(prov.T[::-1])]
    return _affine_points(mat, prov, text)


def cut_and_project(
    gamma: Lattice,
    window: RegionSet,
    search: Sequence[tuple[int, int]],
) -> PointSet:
    """All lattice points in the search box whose last coordinate is in the window.

    The search box gives inclusive ranges for the coordinates c = (m_1..m_d, n).  With e
    the last basis row, p2 = e @ c is in the window I exactly when c_j is an integer translate
    of (e @ c - e_j c_j) / e_j into I / e_j (closed side flipped if e_j < 0): one kernel call
    over a grid of d coordinates.  e_j != 0 with the largest |e_j| times c_j's range width
    gives the fewest translates per grid row.  A point is the basis rows @ provenance.
    """
    _window_check(window)
    d = gamma.dim_d
    if len(search) != d + 1:
        raise PreconditionError(f"search box needs {d + 1} coordinate ranges")
    e = [lift_to(gamma.spec, v) for v in gamma.basis[d]]
    j = max((i for i in range(d + 1) if e[i] != 0),
            key=lambda i: abs(float(e[i])) * (search[i][1] - search[i][0] + 1))
    gens = [(v / e[j],) for v in e[:j] + e[j + 1:]]
    return _select(transform_region(window, [[1 / e[j]]]), gens, search, [j], gamma.basis[:d],
                   window.describe(), "search box")


def special_quasicrystal(
    alpha: Sequence[QValue],
    beta: Sequence[QValue],
    window: RegionSet,
    m_box: Sequence[tuple[int, int]],
) -> PointSet:
    """Cut-and-project points of the special-form lattice over an m-box.

    For each m, the emitted n are the integer translates of -alpha^T m
    that land in the window (p2 = n - alpha^T m, the last row of Gamma's
    basis at (m, n)): cut_and_project's selection with n solved for, whose
    e = 1 leaves the window as it is, and n unbounded.  An emitted point is
    x_i = m_i + beta_i (alpha^T m - n), the first d rows.
    """
    _window_check(window)
    d = len(alpha)
    if len(m_box) != d:
        raise PreconditionError(f"m box needs {d} coordinate ranges")
    gamma = special_bases(alpha, beta)[0]
    return _select(window, [(v,) for v in gamma[d][:d]], [*m_box, None], [d], gamma[:d],
                   window.describe(), "m box")


def dual_model_points(
    alpha: Sequence[QValue],
    beta: Sequence[QValue],
    region: RegionSet,
    n_range: tuple[int, int],
) -> PointSet:
    """One-dimensional dual model set of a special-form lattice.

    For each n in range and each integer m with n*alpha + m in S (the m
    are the integer translates of n*alpha that _select finds over the grid
    of n), emits n + <n alpha + m, beta> with provenance (m_1..m_d, n); the
    block structure is recoverable from the last provenance entry; the point
    is n (1 + <alpha, beta>) + <m, beta>, the last row of Gamma*'s basis at
    the provenance.
    """
    d = len(alpha)
    if region.dim != d:
        raise PreconditionError("region dimension must match alpha")
    return _select(region, [tuple(alpha)], [None] * d + [n_range], list(range(d)),
                   special_bases(alpha, beta)[1][d:], region.describe(), "n range")


def sequence_points(
    alpha: Sequence[QValue],
    beta: Sequence[QValue],
    m_box: Sequence[tuple[int, int]],
) -> PointSet:
    """The explicit sequence m + {alpha^T m} * beta over an integer box.

    Checks the special-form rank conditions first, then runs
    special_quasicrystal on the window (-1, 0], whose one n per m is
    floor(alpha^T m): provenance stores (m_1..m_d, floor(alpha^T m)).
    """
    check_special_form(alpha, beta)
    window = interval(-1, 0, left_closed=False)
    pts = special_quasicrystal(alpha, beta, window, m_box)
    pts.window = "sequence"
    return pts


def periodic_points(
    alpha: Sequence[QValue],
    window: RegionSet,
    n_box: Sequence[tuple[int, int]],
) -> PointSet:
    """Integer points n with <n, alpha> mod 1 in the circle window.

    The window length must lie in (0, 1); membership is decided by the
    window's membership kernel (vectorized, exact inside the guard band).
    """
    _window_check(window)
    d = len(alpha)
    if len(n_box) != d:
        raise PreconditionError(f"n box needs {d} coordinate ranges")
    length = window.volume()
    if not (length.sign() > 0 and (length - 1).sign() < 0):
        raise PreconditionError("window length must lie in (0, 1)")
    ns = _grid(n_box, "n box")
    # the count of integer translates of <n, alpha> into the window is
    # exactly the mod-1 membership indicator for sub-unit windows
    chi = window.membership.count((0,), [(a,) for a in alpha], ns)
    keep = ns[chi > 0]
    return PointSet(d, keep.astype(float), keep, window.describe())


def periodic_dual(
    alpha: Sequence[QValue],
    region: RegionSet,
    m_range: tuple[int, int],
) -> PointSet:
    """Integers m with -m*alpha in S (multiplicity convention on the torus)."""
    d = len(alpha)
    if region.dim != d:
        raise PreconditionError("region dimension must match alpha")
    ms = _grid([m_range], "m range")
    chi = region.membership.count((0,) * d, [tuple(-a for a in alpha)], ms)
    keep = ms[chi > 0]
    return PointSet(1, keep.astype(float), keep, region.describe())


def density_estimate(
    points: PointSet, window_radii: Sequence[float]
) -> list[tuple[float, float, float]]:
    """(radius, lower, upper) of counts over translated windows per radius.

    In one dimension the extrema over all window positions fully inside
    the generated span are exact (counts change only at point events);
    higher dimensions scan a grid of centers and report the sampled range.
    """
    if len(points) == 0:
        raise PreconditionError("empty point set")
    radii = list(window_radii)
    if not all(b > a for a, b in zip([0.0, *radii], radii)):  # also refuses NaN
        raise PreconditionError(f"radii must be positive and increasing, not {radii}")
    out = []
    if points.dim == 1:
        vals = np.sort(points.values)
        for r in radii:
            length = 2.0 * r
            x_lo, x_hi = vals[0], vals[-1] - length
            if x_hi <= x_lo:
                raise PreconditionError(
                    f"radius {r} too large for the generated range"
                )
            events = np.concatenate([vals, vals - length])
            events = np.sort(events[(events >= x_lo) & (events <= x_hi)])
            mids = (events[:-1] + events[1:]) / 2.0 if len(events) > 1 else events
            probes = np.concatenate([[x_lo], events, mids, [x_hi]])
            probes = probes[(probes >= x_lo) & (probes <= x_hi)]
            counts = (
                np.searchsorted(vals, probes + length, side="left")
                - np.searchsorted(vals, probes, side="left")
            )
            out.append((r, counts.min() / length, counts.max() / length))
        return out
    lo, hi = points.coords.min(axis=0), points.coords.max(axis=0)
    for r in radii:
        length = 2.0 * r
        vol = length ** points.dim
        steps = [
            np.linspace(lo[i], hi[i] - length, num=9)
            for i in range(points.dim)
        ]
        if any(s[-1] <= s[0] for s in steps):
            raise PreconditionError(f"radius {r} too large for the generated range")
        counts = []
        grids = np.meshgrid(*steps, indexing="ij")
        centers = np.stack([g.ravel() for g in grids], axis=1)
        for c in centers:
            inside = np.all(
                (points.coords >= c) & (points.coords < c + length), axis=1
            )
            counts.append(int(inside.sum()))
        counts = np.array(counts)
        out.append((r, counts.min() / vol, counts.max() / vol))
    return out


def separation(points: PointSet) -> float:
    """Minimum pairwise gap (uniform discreteness within the range)."""
    n = len(points)
    if n < 2:
        raise PreconditionError("need at least two points")
    if points.dim == 1:
        vals = np.sort(points.values)
        return float(np.diff(vals).min())
    from scipy.spatial import cKDTree

    tree = cKDTree(points.coords)
    dists, _ = tree.query(points.coords, k=2)
    return float(dists[:, 1].min())
