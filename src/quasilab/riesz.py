"""Finite-section diagnostics for exponential systems.

Block enumerations of one-dimensional model sets, perturbation sequences
delta_j, the averaged-perturbation basis check on an interval (one scan of
the windowed means of delta_j, which refuses a window the sequence does not
hold rather than dropping it), Gram matrices with closed-form entries (the
complex entry once per bit pattern of a difference, by regions.distinct_rows,
then gathered), and extreme-eigenvalue traces over nested truncations (one
matrix per trace, each truncation a leading submatrix that extreme_eigs
checks and solves; a one-piece region takes a real kernel with the Gram
spectrum, evaluated on every difference).  Verdicts here are evidence, not
theorems: finite sections cannot certify infinite-dimensional basis
properties, so reports carry the thresholds and ranges they used.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .algebra import QValue, admissible_decomposition, join
from .errors import PreconditionError, QuasilabError
from .lattice import make_special_lattice
from .modelset import PointSet, dual_model_points, special_quasicrystal
from .regions import RegionSet, check_disjoint, distinct_rows, ft_indicator

__all__ = [
    "Enumeration",
    "enumerate_blocks",
    "DeltaSequence",
    "AvdoninVerdict",
    "avdonin_check",
    "require_disjoint",
    "gram_matrix",
    "extreme_eigs",
    "BoundsTrace",
    "riesz_bound_trace",
    "DualityReport",
    "duality_experiment",
]

# entries per row block of _from_upper: the block's temporaries stay small
_GRAM_BLOCK = 1 << 18


@dataclass(eq=False)
class Enumeration:
    """Block enumeration lambda_j with its integer ramp s_n.

    Block n occupies indices s_n <= j < s_{n+1}; within a block points are
    ascending by value, and s_0 anchors at the given value (0 by default,
    with lambda_0 the first element of block 0).
    """

    js: np.ndarray
    lambdas: np.ndarray
    blocks: np.ndarray
    ranks: np.ndarray
    n_lo: int
    n_hi: int
    s: np.ndarray  # s[n - n_lo] = s_n for n in [n_lo, n_hi + 1]


def enumerate_blocks(points: PointSet) -> Enumeration:
    """Enumerate a block-tagged 1-D point set as lambda_j.

    The block index is the last provenance entry.  Empty blocks inside the
    generated range are allowed (the ramp stays flat there); the range must
    contain 0 so the anchor s_0 = 0 is meaningful.
    """
    if points.dim != 1:
        raise PreconditionError("enumeration needs a 1-D point set")
    if not len(points):
        raise PreconditionError("cannot enumerate an empty point set")
    blocks = points.provenance[:, -1]
    n_lo, n_hi = int(blocks.min()), int(blocks.max())
    if not (n_lo <= 0 <= n_hi):
        raise PreconditionError("block range must contain 0 for the s_0 anchor")
    values = points.values
    order = np.lexsort((values, blocks))
    values = values[order]
    blocks = blocks[order]
    sizes = np.bincount(blocks - n_lo, minlength=n_hi - n_lo + 1)
    s = np.zeros(n_hi - n_lo + 2, dtype=np.int64)
    s[1:] = np.cumsum(sizes)
    ranks = np.arange(len(values), dtype=np.int64) - s[blocks - n_lo]
    s -= s[-n_lo]  # force s_0 = 0
    js = np.arange(s[0], s[0] + len(values), dtype=np.int64)
    return Enumeration(js, values, blocks, ranks, n_lo, n_hi, s)


@dataclass(eq=False)
class DeltaSequence:
    """delta_j = lambda_j - j / mes S, with the enumeration it came from."""

    js: np.ndarray
    lambdas: np.ndarray
    deltas: np.ndarray
    mes: float


def delta_sequence(enum: Enumeration, mes_s: Union[QValue, float]) -> DeltaSequence:
    mes = float(mes_s)
    if mes <= 0:
        raise PreconditionError("mes S must be positive")
    deltas = enum.lambdas - enum.js / mes
    return DeltaSequence(enum.js, enum.lambdas, deltas, mes)


@dataclass(frozen=True)
class AvdoninVerdict:
    satisfied_at: Optional[int]
    sup_deviation: float
    threshold: float
    margin: float
    c_hat: float
    n_max: int
    k_range: tuple[int, int]
    separation: float

    @property
    def satisfied(self) -> bool:
        return self.satisfied_at is not None

    def as_dict(self) -> dict:
        """The JSON form: every field, k_range as a list."""
        return {**dataclasses.asdict(self), "k_range": list(self.k_range)}


def _check_window_args(n_max: int, k_range: tuple[int, int]) -> None:
    """Refuse an averaged-perturbation check that can hold no window."""
    if n_max < 1:
        raise PreconditionError("n_max must be at least 1")
    if k_range[0] > k_range[1]:
        raise PreconditionError(f"k_range {tuple(k_range)} holds no window")


def avdonin_check(
    deltas: DeltaSequence,
    interval_length: Union[QValue, float],
    n_max: int,
    k_range: tuple[int, int] = (-10000, 10000),
) -> AvdoninVerdict:
    """Averaged-perturbation basis condition on an interval of given length.

    Finds the smallest window length N <= n_max whose windowed means of
    delta_j deviate from the empirical constant by strictly less than
    1/(4|I|) over all window starts in k_range.  Requires the underlying
    sequence to be separated, n_max >= 1 and a k_range that holds a window.
    The window at start k holds delta_{k+1..k+N}; a start below the first
    generated j, and the first N whose windows run past the last one, are
    refused rather than scanned over fewer starts than k_range names.
    """
    _check_window_args(n_max, k_range)
    lam = np.sort(deltas.lambdas)
    if len(lam) < 2:
        raise PreconditionError("need at least two points")
    j_lo, j_hi = int(deltas.js[0]), int(deltas.js[-1])
    k_lo, k_hi = k_range
    if k_lo + 1 < j_lo:
        raise PreconditionError(
            f"the window at k = {k_lo} starts at j = {k_lo + 1}, before the "
            f"first generated j = {j_lo}")
    gap = float(np.diff(lam).min())
    if gap <= 0:
        raise PreconditionError("non-separated input: coincident points")
    length = float(interval_length)
    if length <= 0:
        raise PreconditionError("interval length must be positive")
    threshold = 1.0 / (4.0 * length)
    c_hat = float(deltas.deltas.mean())
    cs = np.concatenate([[0.0], np.cumsum(deltas.deltas)])
    i0 = np.arange(k_lo, k_hi + 1, dtype=np.int64) + 1 - j_lo
    for N in range(1, n_max + 1):
        if k_hi + N > j_hi:
            raise PreconditionError(
                f"the window of length N = {N} at k = {k_hi} ends at j = "
                f"{k_hi + N}, past the last generated j = {j_hi}")
        sup = float(np.abs((cs[i0 + N] - cs[i0]) / N - c_hat).max())
        if sup < threshold:
            break
    else:
        N = None
    return AvdoninVerdict(
        N, sup, threshold, threshold - sup, c_hat, n_max, k_range, gap
    )


def require_disjoint(region: RegionSet) -> RegionSet:
    """The region, refused when two of its pieces overlap.

    mes S and the Gram matrix sum over the pieces, so an overlap would be
    counted twice (a multiplicity function, not L^2(S)).  A separating axis
    proves a pair disjoint in every dimension; beyond 3-D the axes tried by
    check_disjoint may miss one, so a pair it reports there may overlap.
    """
    if pairs := check_disjoint(region):
        i, j = pairs[0]
        a, b = (RegionSet(region.dim, [region.pieces[k]]).describe() for k in (i, j))
        verdict = ("may overlap (disjointness not decided beyond 3-D)" if region.dim > 3
                   else "of the region overlap")
        raise PreconditionError(
            f"pieces {i} ({a}) and {j} ({b}) {verdict}; mes S and the "
            "Gram matrix need disjoint pieces")
    return region


def _coords(points, region: RegionSet) -> np.ndarray:
    """(n, d) floats of a PointSet or an array (a flat one holds 1-D points), d = region.dim."""
    pts = points.coords if isinstance(points, PointSet) else np.asarray(points, dtype=float)
    pts = pts.reshape(-1, 1) if pts.ndim == 1 else pts
    if pts.ndim != 2 or pts.shape[1] != region.dim:
        raise PreconditionError("point dimension does not match the region")
    return pts


def gram_matrix(points, region: RegionSet) -> np.ndarray:
    """Gram matrix of the exponential system on the region.

    entry(j, k) = ft_indicator(S, lambda_k - lambda_j); the diagonal is
    mes S and the lower triangle is the conjugate mirror of the upper, so
    the result is Hermitian by construction.
    """
    pts, d = _coords(points, region), region.dim
    require_disjoint(region)

    def entry(t: np.ndarray) -> np.ndarray:
        # once per distinct bit pattern, gathered back: a Meyer set's block has
        # far fewer distinct differences than pairs, and each complex entry
        # is an exponential sum over the pieces
        distinct, inv = _distinct_rows(t)
        return ft_indicator(region, distinct if d > 1 else distinct[:, 0])[inv]

    return _from_upper(pts, entry)


def _from_upper(pts: np.ndarray, entry) -> np.ndarray:
    """Matrix of entry(lambda_k - lambda_j) for j <= k, mirrored conjugate,
    built in row blocks of at most _GRAM_BLOCK entries (bounded temporaries).
    entry maps the (pairs, d) differences of a block to their entries."""
    n = len(pts)
    rows, g = max(1, _GRAM_BLOCK // max(n, 1)), None
    for j0 in range(0, max(n, 1), rows):  # n = 0: one empty block sets the dtype
        j, k = (i + j0 for i in np.triu_indices(min(rows, n - j0), m=n - j0))
        vals = entry(pts[k] - pts[j])
        if g is None:
            g = np.zeros((n, n), dtype=vals.dtype)
        g[j, k], g[k, j] = vals, np.conj(vals)  # mirror last: the diagonal is conj
    return g


def _distinct_rows(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """regions.distinct_rows of a float64 matrix by bit pattern (-0.0 and 0.0 stay apart)."""
    distinct, inv = distinct_rows(np.ascontiguousarray(t).view(np.int64))
    return distinct.view(np.float64), inv


def _spectral_gram(pts: np.ndarray, region: RegionSet) -> np.ndarray:
    """A matrix with the spectrum of gram_matrix(pts, region), which refuses
    overlapping pieces (one piece is disjoint by itself).

    For one piece o + E[0,1)^d, G = D K D* with D = diag(exp(-2 pi i
    <lambda, o + E 1/2>)) unitary; the real symmetric K_jk = |det E|
    prod_axis sinc((E^T (lambda_k - lambda_j))_axis) is returned.
    """
    if len(region.pieces) != 1:
        return gram_matrix(pts, region)
    e_mat = np.array([[float(v) for v in row] for row in region.pieces[0].edges])
    vol = abs(float(region.pieces[0].det()))
    # on every difference: the sinc product costs less than sorting a block's
    # differences to evaluate each distinct one once, and gives the same bits
    return _from_upper(pts, lambda t: vol * np.prod(np.sinc(t @ e_mat), axis=1))


def extreme_eigs(g: np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues of a non-empty square, exactly Hermitian, complex or real
    matrix (numpy); any other matrix is refused."""
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.size == 0:
        raise PreconditionError("matrix must be square and not empty")
    if not np.array_equal(g, g.conj().T):
        raise PreconditionError("matrix is not exactly Hermitian")
    ev = np.linalg.eigvalsh(g)
    return float(ev[0]), float(ev[-1])


@dataclass(eq=False)
class BoundsTrace:
    rows: list[tuple[float, int, float, float]]  # (R, size, lmin, lmax)

    def lmin(self, radius: float) -> float:
        for r, _, lo, _ in self.rows:
            if r == radius:
                return lo
        raise PreconditionError(f"radius {radius} not in the trace")

    def as_dict(self) -> dict:
        return {
            "rows": [
                {"R": r, "size": n, "lambda_min": lo, "lambda_max": hi}
                for r, n, lo, hi in self.rows
            ]
        }


def riesz_bound_trace(
    points, radii: Sequence[float], region: RegionSet
) -> BoundsTrace:
    """Extreme Gram eigenvalues over nested truncations [-R, R]^d.

    The points, taken as gram_matrix takes them, are sorted stably by
    max-norm and one matrix (_spectral_gram) is built over them; each
    truncation is a leading principal submatrix, checked exactly Hermitian
    and solved by extreme_eigs.  These interlace, so lambda_min must be
    nonincreasing and lambda_max nondecreasing in R; this is asserted (with
    solver slack) on every trace.
    """
    pts = _coords(points, region)
    radii = list(radii)
    if not np.isfinite(radii).all() or any(b <= a for a, b in zip(radii, radii[1:])):
        raise PreconditionError("radii must be finite and increasing")
    norms = np.abs(pts).max(axis=1)
    order = np.argsort(norms, kind="stable")
    sizes = np.searchsorted(norms[order], radii, side="right")
    if radii and sizes[0] == 0:
        raise PreconditionError(f"no points within radius {radii[0]}")
    g = _spectral_gram(pts[order[: sizes.max(initial=0)]], region)
    rows = [(float(r), int(n), *extreme_eigs(g[:n, :n]))
            for r, n in zip(radii, sizes)]
    tol = 1e-9
    for (_, _, lo0, hi0), (_, _, lo1, hi1) in zip(rows, rows[1:]):
        if lo1 > lo0 + tol or hi1 < hi0 - tol:
            raise QuasilabError(
                "interlacing violated along the trace; eigensolve suspect"
            )
    return BoundsTrace(rows)


@dataclass(eq=False)
class DualityReport:
    """Juxtaposed primal/dual finite-section traces with the dual verdict."""

    alpha: list[str]
    beta: list[str]
    window_desc: str
    region_desc: str
    interval_length: float
    region_measure: float
    measures_match: bool
    length_is_admissible: bool
    warning: Optional[str]
    primal: BoundsTrace
    dual: BoundsTrace
    dual_verdict: AvdoninVerdict
    translate: Optional[list[float]] = None

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "window": self.window_desc,
            "region": self.region_desc,
            "interval_length": self.interval_length,
            "region_measure": self.region_measure,
            "measures_match": self.measures_match,
            "length_is_admissible": self.length_is_admissible,
            "warning": self.warning,
            "translate": self.translate,
            "primal_trace": self.primal.as_dict(),
            "dual_trace": self.dual.as_dict(),
            "dual_verdict": self.dual_verdict.as_dict(),
        }


def duality_experiment(
    alpha: Sequence[QValue],
    beta: Sequence[QValue],
    window: RegionSet,
    region: RegionSet,
    radii: Sequence[float],
    n_max: int = 128,
    k_bound: int = 2000,
    translate: Optional[Sequence[QValue]] = None,
) -> DualityReport:
    """Primal and dual finite-section traces for one special-form geometry.

    Generates the quasicrystal for the window and its one-dimensional dual
    model set for the region, checks the averaged-perturbation condition on
    the dual enumeration, then runs the eigenvalue trace on both sides.
    A measure mismatch between the region and the window is a warning (the
    density necessary condition fails), not an error.
    """
    _check_window_args(n_max, (-k_bound, k_bound))
    if (not radii or not np.isfinite(radii).all()
            or any(b <= a for a, b in zip(radii, radii[1:]))):
        raise PreconditionError("radii must name at least one radius, each finite, in increasing order")
    make_special_lattice(alpha, beta)
    _, (alpha, beta) = join(alpha, beta)
    translate_f = None
    if translate is not None:
        region = region.translate(translate)
        translate_f = [float(t) for t in translate]
    # overlapping pieces would count twice in mes S and |I|, as in the traces
    mes_q = require_disjoint(region).volume()
    length_q = require_disjoint(window).volume()
    warning = None
    if length_q != mes_q:
        warning = (
            "mes S != |I|: the uniform densities disagree, so no two-sided "
            "basis bounds are expected"
        )
    admissible = admissible_decomposition(alpha, length_q) is not None

    r_max = max(radii)
    beta_f = [abs(float(b)) for b in beta]
    lo, hi = region.bbox()
    r_region = float(sum(max(abs(l), abs(h)) * b for l, h, b in zip(lo, hi, beta_f)))
    # enough blocks for the points within r_max and for every j-window of
    # the interval check: j grows like n * mes S
    n_pad = max(int(np.ceil(r_max + r_region + 2)),
                int(np.ceil((k_bound + n_max + r_region + 4) / float(mes_q))))
    dual_pts = dual_model_points(alpha, beta, region, (-n_pad, n_pad))
    ds = delta_sequence(enumerate_blocks(dual_pts), mes_q)
    verdict = avdonin_check(ds, length_q, n_max, (-k_bound, k_bound))

    # a point is m - beta * p with p in the window
    lo, hi = window.bbox()
    span = max(beta_f) * max(abs(lo[0]), abs(hi[0])) + 2.0
    m_pad = int(np.ceil(r_max + span))
    primal_pts = special_quasicrystal(alpha, beta, window, [(-m_pad, m_pad)] * len(alpha))
    primal = riesz_bound_trace(primal_pts, radii, region)
    dual = riesz_bound_trace(dual_pts, radii, window)

    return DualityReport(
        [str(a) for a in alpha],
        [str(b) for b in beta],
        window.describe(),
        region.describe(),
        float(length_q),
        float(mes_q),
        length_q == mes_q,
        admissible,
        warning,
        primal,
        dual,
        verdict,
        translate_f,
    )
