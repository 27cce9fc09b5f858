"""Exact arithmetic over a user-declared rational algebra.

A value is a rational linear combination of declared basis symbols
``w0 = 1, w1, ..., wk`` together with a product table expressing each
``wi * wj`` back in the basis.  Coefficients are exact :class:`~fractions.Fraction`
objects, so equality, membership in ``Z*alpha + Z^d`` and determinants are
decidable, while a consistent floating-point embedding is kept for geometry.

The declared rational independence of the basis values is an axiom, not
something the code proves: the constructor checks that the numeric
embedding is consistent with the product table to within ``EMBED_TOL``
relative to the magnitudes of the two sides, and refuses two sqrt elements
with the same squarefree root (``sqrt 2`` and ``sqrt 8``), which would make
a value such as ``2*w1 - w2`` unequal to 0 by its coefficients while its
exact sign is 0.  A sqrt radicand's
numerator times denominator is at most ``RADICAND_MAX`` = 10^15.

Exact decisions (:meth:`QValue.sign`, :meth:`QValue.floor`) take one of
two routes.  A value whose nonzero terms all carry sqrt descriptors is
written as ``sum_r B_r*sqrt(r) / D`` over Python ints with each ``r``
squarefree, and its sign comes from the norm tower (:func:`_tower_sign`),
exactly and at any magnitude; its floor is closed form with ``math.isqrt``
for at most one root and brackets the float guess with signs otherwise.
A value with a ``value``-declared basis element is decided by its float
outside a fixed guard band, or refused.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (
    AlgebraMismatchError,
    PreconditionError,
    SignUndecidableError,
)

EMBED_TOL = 1e-9

RationalLike = int | Fraction

_TERM_RE = re.compile(
    r"""^\s*(?P<sign>[+-])?\s*
        (?P<num>\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?
        \s*(?:\*\s*)?(?P<name>[A-Za-z_][A-Za-z_0-9]*)?\s*$""",
    re.VERBOSE,
)
# a term ending in a number's exponent mark, as in "1e-5": its sign is no split
_EXPONENT_OPEN = re.compile(r"(?:^|[^\w.])(?:\d+\.?\d*|\.\d+)[eE]$")


# the largest integer _squarefree_split takes: its trial division runs to
# the cube root, 10^5 steps here, about 30 ms
RADICAND_MAX = 10**15


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, r) with n = s^2 * r and r squarefree (1 <= n <= RADICAND_MAX).

    Trial division stops at the cube root: what is left then has at most
    two prime factors, so it is squarefree unless it is a perfect square.
    """
    if n > RADICAND_MAX:
        raise PreconditionError(
            f"sqrt radicand {n} exceeds 10^15 (numerator times denominator "
            "for a fraction): its squarefree part is found by trial division"
        )
    s, r = 1, 1
    d = 2
    while d * d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        s *= d ** (e // 2)
        if e % 2:
            r *= d
        d += 1
    t = math.isqrt(n)
    if n > 1 and t * t == n:
        return s * t, r
    return s, r * n


def _squarefree_product(a: int, b: int) -> tuple[int, int]:
    """(s, r) with a * b = s^2 * r for squarefree a and b: s = gcd(a, b) and
    r = (a / s) * (b / s), squarefree as a coprime product (no factoring)."""
    g = math.gcd(a, b)
    return g, (a // g) * (b // g)


def _surd(rad: Fraction) -> tuple[int, int, int]:
    """(s, q, r) over ints with sqrt(rad) = s/q * sqrt(r), r squarefree (r = 1 for a square)."""
    p, q = rad.numerator, rad.denominator
    if p == 0:
        return 0, 1, 1
    s, r = _squarefree_split(p * q)
    return s, q, r


def _tower_sign(terms: dict[int, int]) -> int:
    """Exact sign of sum(b * sqrt(r) for r, b in terms.items()), r >= 1 squarefree.

    Gcd refinement over the radicands picks p > 1 that divides each r or is
    coprime to it, with no factoring.  The sum splits as P + Q*sqrt(p), and
    its sign is that of P or Q when neither is opposite to the other, else
    sign(P) * sign(P^2 - p*Q^2).  P, Q and the norm only have radicands
    coprime to p, so the recursion ends at a single term.  Each step is an
    identity between reals: no independence of the surds is assumed.
    """
    if len(terms) <= 1:  # b * sqrt(r) has the sign of b
        b = next(iter(terms.values()), 0)
        return (b > 0) - (b < 0)
    p = 0
    for r in terms:
        g = math.gcd(p, r)
        if g > 1:
            p = g
    P: dict[int, int] = {}
    Q: dict[int, int] = {}
    for r, b in terms.items():
        if r % p:
            P[r] = b
        else:
            Q[r // p] = b
    sp, sq = _tower_sign(P), _tower_sign(Q)
    if sp * sq >= 0:
        return sp or sq
    norm: dict[int, int] = {}
    for part, scale in ((P, 1), (Q, -p)):
        for a, x in part.items():
            for b, y in part.items():
                g, r = _squarefree_product(a, b)  # sqrt(a) sqrt(b) = g sqrt(r)
                norm[r] = norm.get(r, 0) + scale * g * x * y
    return sp * _tower_sign(norm)


class AlgebraSpec:
    """A finite-dimensional commutative rational algebra with unit w0 = 1.

    Parameters
    ----------
    names:
        Basis symbol names; index 0 is the unit and is always named ``"1"``.
    radicands:
        Per basis element, the rational ``r`` such that the element embeds
        as ``sqrt(r)``, or ``None`` for an element declared only numerically.
        No two non-unit elements may share a squarefree root, and the
        numerator times denominator of each ``r`` is at most RADICAND_MAX.
    numerics:
        Float embedding per element; derived from radicands when omitted.
    products:
        Mapping ``(i, j) -> coefficient tuple`` for ``wi * wj`` with
        ``1 <= i <= j``.  Unit products and squares of sqrt-elements are
        derived automatically; anything else must be declared.
    """

    def __init__(
        self,
        names: Sequence[str],
        radicands: Sequence[Optional[Fraction]],
        numerics: Optional[Sequence[float]] = None,
        products: Optional[dict[tuple[int, int], tuple[Fraction, ...]]] = None,
    ) -> None:
        if not names or names[0] != "1":
            raise PreconditionError("basis element 0 must be the unit '1'")
        if len(set(names)) != len(names):
            raise PreconditionError("duplicate basis names")
        if len(radicands) != len(names):
            raise PreconditionError("radicands/names length mismatch")
        if radicands[0] != 1:
            raise PreconditionError("unit element must have radicand 1")
        self.names = tuple(names)
        self.radicands = tuple(
            None if r is None else Fraction(r) for r in radicands
        )
        if numerics is None:
            numerics = []
            for r in self.radicands:
                if r is None:
                    raise PreconditionError(
                        "numeric value required for a basis element without "
                        "a sqrt descriptor"
                    )
                numerics.append(math.sqrt(r))
        self.numerics = tuple(float(x) for x in numerics)
        if abs(self.numerics[0] - 1.0) > EMBED_TOL:
            raise PreconditionError("unit element must embed as 1.0")

        self._products: dict[tuple[int, int], tuple[Fraction, ...]] = {}
        k = len(self.names)
        for (i, j), coeffs in (products or {}).items():
            i, j = min(i, j), max(i, j)
            if not (1 <= i < k and i <= j < k):
                raise PreconditionError(f"product index out of range: ({i},{j})")
            coeffs = tuple(Fraction(c) for c in coeffs)
            if len(coeffs) != k:
                raise PreconditionError("product coefficient length mismatch")
            self._products[(i, j)] = coeffs
        for i in range(1, k):
            r = self.radicands[i]
            if (i, i) not in self._products and r is not None:
                sq = [Fraction(0)] * k
                sq[0] = r
                self._products[(i, i)] = tuple(sq)
        self._check_embedding()
        self._surds: tuple[Optional[tuple[int, int, int]], ...] = tuple(
            None if rad is None else _surd(rad) for rad in self.radicands
        )
        roots: dict[int, int] = {}
        for i in range(1, k):
            if self._surds[i] is not None:
                j = roots.setdefault(self._surds[i][2], i)
                if j != i:
                    raise PreconditionError(
                        f"'basis {self.names[j]} = sqrt {self.radicands[j]}' and "
                        f"'basis {self.names[i]} = sqrt {self.radicands[i]}' "
                        f"declare the same squarefree root sqrt {self._surds[i][2]}: "
                        "the basis must be independent over Q"
                    )

    @property
    def dim(self) -> int:
        return len(self.names)

    def _check_embedding(self) -> None:
        """Each declared product agrees with the embedding to within EMBED_TOL
        relative to the magnitudes of both sides (absolute below 1)."""
        for (i, j), coeffs in self._products.items():
            direct = self.numerics[i] * self.numerics[j]
            terms = [float(c) * x for c, x in zip(coeffs, self.numerics)]
            via = sum(terms)
            scale = max(1.0, abs(direct), sum(abs(t) for t in terms))
            if abs(direct - via) > EMBED_TOL * scale:
                raise PreconditionError(
                    f"product table for {self.names[i]}*{self.names[j]} is "
                    f"inconsistent with the numeric embedding "
                    f"({direct} vs {via})"
                )

    def product_coeffs(self, i: int, j: int) -> tuple[Fraction, ...]:
        if i == 0 or j == 0:
            unit = [Fraction(0)] * self.dim
            unit[max(i, j)] = Fraction(1)
            return tuple(unit)
        key = (min(i, j), max(i, j))
        try:
            return self._products[key]
        except KeyError:
            raise PreconditionError(
                f"product {self.names[i]}*{self.names[j]} is not declared"
            ) from None

    # -- value constructors -------------------------------------------------

    def zero(self) -> "QValue":
        return QValue(self, (Fraction(0),) * self.dim)

    def one(self) -> "QValue":
        return self.from_rational(1)

    def from_rational(self, x: RationalLike | float | str) -> "QValue":
        coeffs = [Fraction(0)] * self.dim
        coeffs[0] = Fraction(x)
        return QValue(self, tuple(coeffs))

    def basis_element(self, name: str) -> "QValue":
        try:
            idx = self.names.index(name)
        except ValueError:
            raise PreconditionError(f"unknown basis name {name!r}") from None
        coeffs = [Fraction(0)] * self.dim
        coeffs[idx] = Fraction(1)
        return QValue(self, tuple(coeffs))

    def parse(self, text: str) -> "QValue":
        """Parse ``"3/2 + 1*w1 - 2*w2"``, ``"w1 - 1"`` or ``"1e-5"`` (numbers exact)."""
        s = text.strip()
        if not s:
            raise PreconditionError("empty value literal")
        chunks: list[str] = []
        cur = ""
        for ch in s:
            if ch in "+-" and cur.strip() and not _EXPONENT_OPEN.search(cur):
                chunks.append(cur)
                cur = ch
            else:
                cur += ch
        chunks.append(cur)
        total = self.zero()
        for chunk in chunks:
            mobj = _TERM_RE.match(chunk)
            if not mobj or (mobj.group("num") is None and mobj.group("name") is None):
                raise PreconditionError(f"cannot parse term {chunk!r} in {text!r}")
            coef = Fraction(mobj.group("num")) if mobj.group("num") else Fraction(1)
            if mobj.group("sign") == "-":
                coef = -coef
            name = mobj.group("name")
            if name is None:
                total = total + self.from_rational(coef)
            else:
                total = total + coef * self.basis_element(name)
        return total

    def parse_vector(self, text: str) -> tuple["QValue", ...]:
        return tuple(self.parse(part) for part in text.split(","))

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for i in range(1, self.dim):
            r = self.radicands[i]
            if r is not None:
                lines.append(f"basis {self.names[i]} = sqrt {r}")
            else:
                lines.append(f"basis {self.names[i]} = value {self.numerics[i]!r}")
        for (i, j), coeffs in sorted(self._products.items()):
            if i == j and self.radicands[i] is not None:
                continue  # derivable square
            val = QValue(self, coeffs)
            lines.append(f"product {self.names[i]} {self.names[j]} = {val}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "AlgebraSpec":
        """Parse the line format ``basis w1 = sqrt 2`` / ``product w1 w2 = w3``."""
        names = ["1"]
        radicands: list[Optional[Fraction]] = [Fraction(1)]
        numerics = [1.0]
        product_lines: list[tuple[str, str, str]] = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split("=", 1)
            if len(parts) != 2:
                raise PreconditionError(f"bad algebra line: {raw!r}")
            head, rhs = parts[0].split(), parts[1].strip()
            if head[0] == "basis" and len(head) == 2:
                names.append(head[1])
                if rhs.startswith("sqrt"):
                    radicands.append(Fraction(rhs[4:].strip()))
                    numerics.append(math.sqrt(radicands[-1]))
                elif rhs.startswith("value"):
                    radicands.append(None)
                    numerics.append(float(rhs[5:].strip()))
                else:
                    raise PreconditionError(f"bad basis declaration: {raw!r}")
            elif head[0] == "product" and len(head) == 3:
                product_lines.append((head[1], head[2], rhs))
            else:
                raise PreconditionError(f"bad algebra line: {raw!r}")
        spec = cls(names, radicands, numerics)
        if product_lines:
            products = dict(spec._products)
            for ni, nj, rhs in product_lines:
                i, j = names.index(ni), names.index(nj)
                products[(min(i, j), max(i, j))] = spec.parse(rhs).coeffs
            spec = cls(names, radicands, numerics, products)
        return spec

    @classmethod
    def from_sqrt(cls, gens: Iterable[int]) -> "AlgebraSpec":
        """Algebra generated by ``sqrt(n)`` for the given integers.

        The basis is closed under products, e.g. ``from_sqrt([2, 3])`` yields
        basis values ``1, sqrt2, sqrt3, sqrt6`` with a full product table.
        """
        rads = {1}
        for g in gens:
            if g < 2:
                raise PreconditionError("sqrt generators must be >= 2")
            rads.add(_squarefree_split(g)[1])
        changed = True
        while changed:
            changed = False
            for a in sorted(rads):
                for b in sorted(rads):
                    r = _squarefree_product(a, b)[1]
                    if r not in rads:
                        rads.add(r)
                        changed = True
        order = sorted(rads)
        names = ["1"] + [f"w{i}" for i in range(1, len(order))]
        radicands = [Fraction(r) for r in order]
        numerics = [math.sqrt(r) for r in order]
        products: dict[tuple[int, int], tuple[Fraction, ...]] = {}
        for i in range(1, len(order)):
            for j in range(i, len(order)):
                s, r = _squarefree_product(order[i], order[j])
                coeffs = [Fraction(0)] * len(order)
                coeffs[order.index(r)] = Fraction(s)
                products[(i, j)] = tuple(coeffs)
        return cls(names, radicands, numerics, products)

    def _key(self):
        return (
            self.names,
            self.radicands,
            self.numerics,
            tuple(sorted(self._products.items())),
        )

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, AlgebraSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self._key())
            self._hash = h
        return h

    def __repr__(self) -> str:
        return f"AlgebraSpec({', '.join(self.names)})"


def parse_algebra(literal: str) -> AlgebraSpec:
    """Build an algebra from ``"sqrt:2,3"`` shorthand or a declaration text."""
    text = literal.strip()
    if text.startswith("sqrt:"):
        gens = [int(x) for x in text[5:].split(",") if x.strip()]
        return AlgebraSpec.from_sqrt(gens)
    return AlgebraSpec.from_text(text)


RATIONAL = AlgebraSpec(["1"], [Fraction(1)], [1.0])


def lift_to(spec: AlgebraSpec, x: "QValue") -> "QValue":
    """Re-express a value over a compatible algebra declaration.

    Identical declarations transfer coefficientwise; rational values lift
    into any algebra; anything else is a mismatch.
    """
    if x.spec is spec:
        return x
    if x.spec == spec:
        return QValue(spec, x.coeffs)
    if x.is_rational():
        return spec.from_rational(x.coeffs[0])
    raise AlgebraMismatchError(
        "cannot combine values from different algebra declarations"
    )


class QValue:
    """Immutable element of an :class:`AlgebraSpec`.

    Equality is exact coefficient equality; comparisons go through
    :meth:`sign`, which is exact whenever every contributing basis element
    carries a sqrt descriptor (the norm tower over Python ints) and
    otherwise falls back to a guarded float test that refuses to decide
    inside the guard band.
    """

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: AlgebraSpec, coeffs: Sequence[Fraction]) -> None:
        if len(coeffs) != spec.dim:
            raise PreconditionError("coefficient length mismatch")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *args) -> None:  # pragma: no cover
        raise AttributeError("QValue is immutable")

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other) -> "QValue":
        if isinstance(other, QValue):
            if other.spec is self.spec or other.spec == self.spec:
                return lift_to(self.spec, other)
            if other.is_rational():
                return self.spec.from_rational(other.coeffs[0])
            if self.is_rational():
                return other  # handled by caller swapping roles
            raise AlgebraMismatchError(
                "cannot combine values from different algebra declarations"
            )
        if isinstance(other, (int, Fraction)):
            return self.spec.from_rational(other)
        return NotImplemented  # type: ignore[return-value]

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def is_integer(self) -> bool:
        return self.is_rational() and self.coeffs[0].denominator == 1

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "QValue":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.spec is not self.spec:
            return o + self  # self is rational, lift into o's algebra
        return QValue(self.spec, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "QValue":
        return QValue(self.spec, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "QValue":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "QValue":
        return (-self) + other

    def __mul__(self, other) -> "QValue":
        if isinstance(other, (int, Fraction)):
            return QValue(self.spec, tuple(c * other for c in self.coeffs))
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.spec is not self.spec:
            return o * self
        spec = self.spec
        out = [Fraction(0)] * spec.dim
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b == 0:
                    continue
                ab = a * b
                for l, c in enumerate(spec.product_coeffs(i, j)):
                    if c != 0:
                        out[l] += ab * c
        return QValue(spec, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QValue":
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if f == 0:
                raise ZeroDivisionError("division by zero")
            return QValue(self.spec, tuple(c / f for c in self.coeffs))
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def inverse(self) -> "QValue":
        """Multiplicative inverse via exact linear solve.

        Fails cleanly when the value is a zero divisor in the algebra.
        """
        spec = self.spec
        k = spec.dim
        cols = []
        for i in range(k):
            e = [Fraction(0)] * k
            e[i] = Fraction(1)
            cols.append((QValue(spec, tuple(e)) * self).coeffs)
        mat = [[cols[j][l] for j in range(k)] for l in range(k)]
        rhs = [Fraction(1)] + [Fraction(0)] * (k - 1)
        status, sol = solve_rational(mat, rhs)
        if status != "unique":
            raise PreconditionError(
                "value is not invertible in the declared algebra"
            )
        return QValue(spec, tuple(sol))

    # -- comparisons and embedding --------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, QValue):
            if other.spec is self.spec or other.spec == self.spec:
                return self.coeffs == other.coeffs
            return (
                self.is_rational()
                and other.is_rational()
                and self.coeffs[0] == other.coeffs[0]
            )
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.spec, self.coeffs))

    def __float__(self) -> float:
        return math.fsum(
            float(c) * x for c, x in zip(self.coeffs, self.spec.numerics) if c != 0
        )

    def _terms(self) -> Optional[tuple[dict[int, int], int]]:
        """(terms, D) over ints with self = sum(B * sqrt(r) for r, B in terms) / D.

        Each r is squarefree, square radicands join the rational part r = 1,
        every B is nonzero and D > 0; None when a ``value``-declared basis
        element contributes.
        """
        parts = []
        for c, surd in zip(self.coeffs, self.spec._surds):
            if c:
                if surd is None:
                    return None
                s, q, r = surd
                parts.append((c.numerator * s, c.denominator * q, r))
        den = math.lcm(*(q for _, q, _ in parts))
        terms: dict[int, int] = {}
        for b, q, r in parts:
            terms[r] = terms.get(r, 0) + b * (den // q)
        return {r: b for r, b in terms.items() if b}, den

    def sign(self) -> int:
        """Exact sign: -1, 0 or 1.

        A value whose terms all carry sqrt descriptors is decided by the
        norm tower over its integer terms (:func:`_tower_sign`); for one
        root that is the closed form sign(A) or sign(B) when they agree,
        else sign(A) * sign(A^2 - B^2 r).  A value with a ``value``-declared
        basis element is decided by its float only outside a 1e-9 guard band.
        """
        form = self._terms()
        if form is not None:
            return _tower_sign(form[0])
        f = float(self)
        if abs(f) > EMBED_TOL:
            return 1 if f > 0 else -1
        raise SignUndecidableError(
            f"|{self}| ~ {f} is inside the 1e-9 guard band and has no exact "
            "descriptor; declare the basis element via sqrt to decide"
        )

    def __lt__(self, other) -> bool:
        o = self._coerce(other)
        diff = self - o
        return diff.sign() < 0

    def __le__(self, other) -> bool:
        o = self._coerce(other)
        return (self - o).sign() <= 0

    def __gt__(self, other) -> bool:
        return not self <= other

    def __ge__(self, other) -> bool:
        return not self < other

    def floor(self) -> int:
        """Exact floor.

        A value (A + B*sqrt(r))/D with at most one root takes the closed
        form floor(X / D) with X = A + isqrt(B^2 r) for B >= 0 and
        X = A - isqrt(B^2 r) - 1 for B < 0 (B^2 r is not a square, as r > 1
        is squarefree).  Other values start from a guess: for two or more
        roots, (A + sum of sign(B) isqrt(B^2 r)) // D, within a few units at
        any magnitude; with a ``value``-declared element, the float's floor.
        Steps of 1, 2, 4, ... away from it bracket the floor between
        lo <= self and hi > self, then bisection closes the bracket, so a
        guess off by d costs O(log d) sign() calls.
        """
        form = self._terms()
        if form is None:
            guess = math.floor(float(self))
        else:
            terms, den = form
            a = terms.pop(1, 0)
            if len(terms) <= 1:
                r, b = next(iter(terms.items()), (1, 0))
                root = math.isqrt(b * b * r)
                return (a + root if b >= 0 else a - root - 1) // den
            guess = (a + sum(math.isqrt(b * b * r) * (1 if b > 0 else -1)
                             for r, b in terms.items())) // den
        step = 1
        if (self - guess).sign() >= 0:
            lo = guess
            while (self - (guess + step)).sign() >= 0:
                lo = guess + step
                step *= 2
            hi = guess + step
        else:
            hi = guess
            while (self - (guess - step)).sign() < 0:
                hi = guess - step
                step *= 2
            lo = guess - step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if (self - mid).sign() >= 0:
                lo = mid
            else:
                hi = mid
        return lo

    def frac(self) -> "QValue":
        """Exact fractional part, in [0, 1)."""
        return self - self.floor()

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            body = str(abs(c)) if i == 0 else f"{abs(c)}*{self.spec.names[i]}"
            terms.append((c < 0, body))
        if not terms:
            return "0"
        neg, body = terms[0]
        out = ("-" if neg else "") + body
        for neg, body in terms[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __repr__(self) -> str:
        return f"QValue({self})"


# -- exact linear algebra over the rationals ----------------------------------


def solve_rational(
    mat: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[str, Optional[list[Fraction]]]:
    """Solve an exact rational linear system.

    Returns ``("unique", x)``, ``("none", None)`` or ``("many", x0)`` where
    ``x0`` is one particular solution.
    """
    m, n = len(mat), len(mat[0]) if mat else 0
    a = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    pivots: list[int] = []
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, m) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [v * inv for v in a[row]]
        for r in range(m):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if a[r][n] != 0:
            return "none", None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = a[r][n]
    return ("unique" if len(pivots) == n else "many"), x


def rational_rank(vectors: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q of a list of coefficient vectors."""
    rows = [list(v) for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def coeff_rank(values: Sequence[QValue]) -> int:
    """Rank over Q of the coefficient vectors of the given values."""
    return rational_rank([v.coeffs for v in values])


# -- membership in Z*alpha + Z^d ----------------------------------------------


def module_membership(
    v: Sequence[QValue], alpha: Sequence[QValue]
) -> Optional[tuple[int, tuple[int, ...]]]:
    """Decide whether ``v = n*alpha + m`` for integers n and m in Z^d.

    Returns the witness ``(n, m)`` or ``None``.  The decision is exact
    rational linear algebra on the coefficient vectors; absence is a valid
    answer, not an error.
    """
    if len(v) != len(alpha):
        raise PreconditionError("v and alpha must have the same length")
    spec = next((x.spec for x in list(v) + list(alpha) if not x.is_rational()), None)
    if spec is None:
        spec = v[0].spec if v else RATIONAL
    v = [lift_to(spec, x) for x in v]
    alpha = [lift_to(spec, x) for x in alpha]
    k = spec.dim

    # Irrational coordinates (l >= 1) pin n: v_i^(l) = n * alpha_i^(l).
    n_val: Optional[Fraction] = None
    for vi, ai in zip(v, alpha):
        for l in range(1, k):
            av, vv = ai.coeffs[l], vi.coeffs[l]
            if av == 0:
                if vv != 0:
                    return None
                continue
            cand = vv / av
            if n_val is None:
                n_val = cand
            elif n_val != cand:
                return None
    if n_val is not None:
        if n_val.denominator != 1:
            return None
        n = int(n_val)
        m = []
        for vi, ai in zip(v, alpha):
            mi = vi.coeffs[0] - n * ai.coeffs[0]
            if mi.denominator != 1:
                return None
            m.append(int(mi))
        return n, tuple(m)

    # All alpha coordinates rational: scan n modulo the lcm of denominators.
    dens = [ai.coeffs[0].denominator for ai in alpha] or [1]
    lcm = 1
    for d in dens:
        lcm = lcm * d // math.gcd(lcm, d)
    for n in range(lcm):
        m = []
        ok = True
        for vi, ai in zip(v, alpha):
            mi = vi.coeffs[0] - n * ai.coeffs[0]
            if mi.denominator != 1:
                ok = False
                break
            m.append(int(mi))
        if ok:
            return n, tuple(m)
    return None


def admissible_decomposition(
    alpha: Sequence[QValue], gamma: QValue
) -> Optional[tuple[int, ...]]:
    """Write ``gamma = n0 + n1*alpha_1 + ... + nd*alpha_d`` with integer n.

    Returns ``(n0, n1, ..., nd)`` or ``None`` if no integer combination
    exists.  Requires the coefficient vectors of ``1, alpha_1..alpha_d`` to
    be linearly independent over Q (which the special-form rank check
    certifies).
    """
    spec = gamma.spec if not gamma.is_rational() else (
        next((a.spec for a in alpha if not a.is_rational()), gamma.spec)
    )
    gamma = lift_to(spec, gamma)
    basis = [spec.one()] + [lift_to(spec, a) for a in alpha]
    mat = [[b.coeffs[l] for b in basis] for l in range(spec.dim)]
    status, sol = solve_rational(mat, list(gamma.coeffs))
    if status == "none":
        return None
    if status == "many":
        raise PreconditionError(
            "1, alpha_1..alpha_d are rationally dependent; decomposition "
            "is not unique"
        )
    if any(c.denominator != 1 for c in sol):
        return None
    return tuple(int(c) for c in sol)


# -- small exact matrices ------------------------------------------------------

QMatrix = Sequence[Sequence[QValue]]


def exact_det(mat: QMatrix) -> QValue:
    """Exact determinant by cofactor expansion in the algebra."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise PreconditionError("matrix must be square")
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    det = None
    for j in range(n):
        a = mat[0][j]
        if all(c == 0 for c in a.coeffs):
            continue
        minor = [
            [mat[r][c] for c in range(n) if c != j] for r in range(1, n)
        ]
        term = a * exact_det(minor)
        if j % 2:
            term = -term
        det = term if det is None else det + term
    if det is None:
        spec = mat[0][0].spec
        return spec.zero()
    return det


def mat_identity(spec: AlgebraSpec, n: int) -> list[list[QValue]]:
    return [
        [spec.one() if i == j else spec.zero() for j in range(n)] for i in range(n)
    ]


def mat_mul(a: QMatrix, b: QMatrix) -> list[list[QValue]]:
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise PreconditionError("matrix shape mismatch")
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for l in range(1, k):
                acc = acc + a[i][l] * b[l][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(a: QMatrix, v: Sequence[QValue]) -> list[QValue]:
    return [row[0] for row in mat_mul(a, [[x] for x in v])]


def mat_transpose(a: QMatrix) -> list[list[QValue]]:
    return [list(col) for col in zip(*a)]


def mat_scale(a: QMatrix, s: QValue) -> list[list[QValue]]:
    return [[x * s for x in row] for row in a]


def mat_adjugate(mat: QMatrix) -> list[list[QValue]]:
    n = len(mat)
    if n == 1:
        spec = mat[0][0].spec
        return [[spec.one()]]
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [
                [mat[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            cof = exact_det(minor)
            if (i + j) % 2:
                cof = -cof
            row.append(cof)
        adj.append(row)
    return adj


def mat_inverse(mat: QMatrix) -> list[list[QValue]]:
    """Exact inverse via adjugate over determinant."""
    det = exact_det(mat)
    det_inv = det.inverse()
    return mat_scale(mat_adjugate(mat), det_inv)

