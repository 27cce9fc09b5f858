"""Point-set generators: quasicrystals, dual model sets, periodic variants.

Every generator takes an explicit search range (reproducibility over
convenience), keeps exact coordinates alongside the float embedding when
the data lives in the algebra, and tags each point with the integer data
(m_1..m_d, n) of the lattice point that produced it.  Output order is the
lexicographic order of that provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import QValue, lift_to
from .errors import PreconditionError
from .lattice import Lattice, check_special_form
from .regions import RegionSet

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

    coords is an (n, dim) float array; provenance holds the integer data
    (m_1..m_d, n) per point (the block index of a one-dimensional dual
    model point is the last entry).  qcoords retains exact coordinates
    when the generator worked in the algebra.
    """

    dim: int
    coords: np.ndarray
    provenance: tuple[tuple[int, ...], ...]
    qcoords: Optional[tuple[tuple[QValue, ...], ...]] = None
    window: str = ""

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=float).reshape(
            -1, self.dim
        )
        if len(self.provenance) != len(self.coords):
            raise PreconditionError("provenance length mismatch")

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def values(self) -> np.ndarray:
        """1-D coordinates as a flat array."""
        if self.dim != 1:
            raise PreconditionError("values is for 1-D point sets")
        return self.coords[:, 0]

    def take(self, order: Sequence[int]) -> "PointSet":
        return PointSet(
            self.dim,
            self.coords[list(order)],
            tuple(self.provenance[i] for i in order),
            None if self.qcoords is None else tuple(self.qcoords[i] for i in order),
            self.window,
        )

    def restrict_box(self, radius: float) -> "PointSet":
        keep = np.nonzero(np.abs(self.coords).max(axis=1) <= radius)[0]
        return self.take(keep)

    def to_csv(self) -> str:
        lines = [f"# quasilab pointset v1 dim={self.dim}"]
        for row, prov in zip(self.coords, self.provenance):
            cells = [format(v, ".17g") for v in row]
            cells.extend(str(int(p)) for p in prov)
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "PointSet":
        lines = [l for l in text.splitlines() if l.strip()]
        if not lines or not lines[0].startswith("# quasilab pointset v1"):
            raise PreconditionError("not a quasilab pointset file")
        dim = int(lines[0].split("dim=")[1])
        coords, prov = [], []
        for line in lines[1:]:
            cells = line.split(",")
            coords.append([float(c) for c in cells[:dim]])
            prov.append(tuple(int(c) for c in cells[dim:]))
        return cls(dim, np.array(coords), tuple(prov))


def _window_check(window: RegionSet) -> None:
    if window.dim != 1:
        raise PreconditionError("window must be one-dimensional")


def _grid(box: Sequence[tuple[int, int]]) -> np.ndarray:
    """Integer points of an inclusive box, one per row, in lexicographic order."""
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in box]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(box))


def _pointset(dim: int, pts: list, window: str) -> PointSet:
    coords = np.array([[float(v) for v in q] for _, q in pts]).reshape(-1, dim)
    return PointSet(
        dim, coords, tuple(p for p, _ in pts), tuple(q for _, q in pts), window
    )


def cut_and_project(
    gamma: Lattice,
    window: RegionSet,
    search: Sequence[tuple[int, int]],
) -> PointSet:
    """All lattice points in the search box whose last coordinate is in the window.

    The search box gives inclusive integer ranges for the generator
    coordinates (m_1..m_d, n); membership of p2(gamma) in the semi-closed
    window goes through the window's membership kernel, which is exact at
    the window endpoints.  Exact coordinates are built for emitted points.
    """
    _window_check(window)
    d = gamma.dim_d
    if len(search) != d + 1:
        raise PreconditionError(f"search box needs {d + 1} coordinate ranges")
    if any(lo > hi for lo, hi in search):
        raise PreconditionError("empty search box")
    coeffs = _grid(search)
    idx, shift = window.membership.translates(
        (gamma.spec.zero(),), [(v,) for v in gamma.basis[d]], coeffs
    )
    pts = []
    for i in idx[shift[:, 0] == 0]:
        prov = tuple(int(v) for v in coeffs[i])
        pts.append((prov, gamma.point(prov)[:d]))
    return _pointset(d, pts, window.describe())


def special_quasicrystal(
    alpha: Sequence[QValue],
    beta: Sequence[QValue],
    window: RegionSet,
    m_box: Sequence[tuple[int, int]],
) -> PointSet:
    """Cut-and-project points of the special-form lattice over an m-box.

    For each m, the emitted n are the integer translates of -alpha^T m
    that land in the window (p2 = n - alpha^T m), found by the window's
    membership kernel; this is the same selection as cut_and_project with
    a sufficient box.  Exact coordinates are built for emitted points.
    """
    _window_check(window)
    d = len(alpha)
    if len(m_box) != d:
        raise PreconditionError(f"m box needs {d} coordinate ranges")
    spec = next(
        (v.spec for v in list(alpha) + list(beta) if not v.is_rational()),
        alpha[0].spec,
    )
    alpha = [lift_to(spec, a) for a in alpha]
    beta = [lift_to(spec, b) for b in beta]
    ms = _grid(m_box)
    idx, ns = window.membership.translates((spec.zero(),), [(-a,) for a in alpha], ms)
    pts = []
    for i, n in zip(idx.tolist(), ns[:, 0].tolist()):
        m = ms[i].tolist()
        p2 = n - sum((alpha[j] * m[j] for j in range(1, d)), alpha[0] * m[0])
        point = tuple(spec.from_rational(m[j]) - beta[j] * p2 for j in range(d))
        pts.append((tuple(m) + (n,), point))
    return _pointset(d, pts, window.describe())


def dual_model_points(
    alpha: Sequence[QValue],
    beta: Sequence[QValue],
    region: RegionSet,
    n_range: tuple[int, int],
) -> PointSet:
    """One-dimensional dual model set of a special-form lattice.

    For each n in range and each integer m with n*alpha + m in S (the m
    are the integer translates of n*alpha that the region's membership
    kernel finds), emits n + <n alpha + m, beta> with provenance
    (m_1..m_d, n); the block structure is recoverable from the last
    provenance entry.
    """
    d = len(alpha)
    if region.dim != d:
        raise PreconditionError("region dimension must match alpha")
    spec = region.spec
    alpha = [lift_to(spec, a) for a in alpha]
    beta = [lift_to(spec, b) for b in beta]
    n_lo, n_hi = n_range
    if n_lo > n_hi:
        raise PreconditionError("empty n range")
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    idx, ms = region.membership.translates(
        tuple(spec.zero() for _ in range(d)), [tuple(alpha)], ns[:, None]
    )
    pts = []
    for i, m in zip(idx.tolist(), ms.tolist()):
        n = int(ns[i])
        x = [alpha[j] * n + m[j] for j in range(d)]
        lam = sum((x[j] * beta[j] for j in range(1, d)), x[0] * beta[0]) + n
        pts.append((tuple(m) + (n,), (lam,)))
    pts.sort(key=lambda t: t[0])
    return _pointset(1, pts, region.describe())


def sequence_points(
    alpha: Sequence[QValue],
    beta: Sequence[QValue],
    m_box: Sequence[tuple[int, int]],
) -> PointSet:
    """The explicit sequence m + {alpha^T m} * beta over an integer box.

    Checks the special-form rank conditions first; provenance stores
    (m_1..m_d, floor(alpha^T m)), matching the cut-and-project provenance
    on the window (-1, 0].
    """
    check_special_form(alpha, beta)
    d = len(alpha)
    if len(m_box) != d:
        raise PreconditionError(f"m box needs {d} coordinate ranges")
    spec = next(
        (v.spec for v in list(alpha) + list(beta) if not v.is_rational()),
        alpha[0].spec,
    )
    alpha = [lift_to(spec, a) for a in alpha]
    beta = [lift_to(spec, b) for b in beta]
    pts = []
    for m in _grid(m_box).tolist():
        am = sum((alpha[i] * m[i] for i in range(1, d)), alpha[0] * m[0])
        n = am.floor()
        frac_part = am - n
        point = tuple(
            spec.from_rational(m[i]) + beta[i] * frac_part for i in range(d)
        )
        pts.append((tuple(m) + (n,), point))
    return _pointset(d, pts, "sequence")


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
    spec = window.spec
    ns = _grid(n_box)
    # the count of integer translates of <n, alpha> into the window is
    # exactly the mod-1 membership indicator for sub-unit windows
    chi = window.membership.count(
        (spec.zero(),), [(lift_to(spec, a),) for a in alpha], ns
    )
    keep = ns[chi > 0]
    prov = tuple(zip(*keep.T.tolist()))
    return PointSet(d, keep.astype(float), prov, None, window.describe())


def periodic_dual(
    alpha: Sequence[QValue],
    region: RegionSet,
    m_range: tuple[int, int],
) -> PointSet:
    """Integers m with -m*alpha in S (multiplicity convention on the torus)."""
    d = len(alpha)
    if region.dim != d:
        raise PreconditionError("region dimension must match alpha")
    spec = region.spec
    lo, hi = m_range
    if lo > hi:
        raise PreconditionError("empty m range")
    ms = np.arange(lo, hi + 1, dtype=np.int64)
    chi = region.membership.count(
        tuple(spec.zero() for _ in range(d)),
        [tuple(-lift_to(spec, a) for a in alpha)],
        ms[:, None],
    )
    keep = ms[chi > 0]
    return PointSet(
        1, keep.astype(float).reshape(-1, 1), tuple(zip(keep.tolist())),
        None, region.describe(),
    )


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
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise PreconditionError("radii must be increasing")
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
