"""Exact arithmetic over a user-declared rational algebra.

A value is a rational linear combination of declared basis symbols
``w0 = 1, w1, ..., wk`` together with a product table expressing each
``wi * wj`` back in the basis.  A :class:`QValue` stores it in one integer
form, numerators ``nums`` over one denominator ``den`` (den > 0 and
gcd(den, *nums) = 1), so equality, membership in ``Z*alpha + Z^d`` and
determinants are decidable on Python ints, while a consistent
floating-point embedding is kept for geometry.  Each algebra keeps its
product table as sparse integers over the lcm of its product coefficients'
denominators, and a product sums integer terms with one gcd at the end.

The declared rational independence of the basis values is an axiom, not
something the code proves: the constructor checks that the numeric
embedding is consistent with the product table to within ``EMBED_TOL``
relative to the magnitudes of the two sides, and refuses two sqrt elements
with the same squarefree root (``sqrt 2`` and ``sqrt 8``), which would make
a value such as ``2*w1 - w2`` unequal to 0 by its coefficients while its
exact sign is 0.  A sqrt radicand's
numerator times denominator is at most ``RADICAND_MAX`` = 10^15.

Exact decisions (:meth:`AlgebraSpec.sign_of`, :meth:`AlgebraSpec.floor_of`)
take a value's integer form as it is stored; batches of values share one
denominator through :func:`integer_form`.  A value whose nonzero terms all
carry sqrt descriptors is ``sum_r B_r*sqrt(r) / D`` over Python ints, each
``r`` squarefree, and its sign comes from the norm tower (:func:`_tower_sign`),
exactly at any magnitude.  A value with a ``value``-declared element is
decided by its float outside a guard band scaled by its terms, or refused.
Every floor is one bisection with signs, over ``math.isqrt`` bounds of the
terms or over [g - 1, g + 1] around the float's floor g.

Values from different declarations meet by one rule, :func:`join`: a group
of values (QValues, ints, Fractions) combines in the algebra of its first
irrational value, else of its first QValue, else in ``RATIONAL``, and two
algebras that both hold irrational values raise AlgebraMismatchError.
Every entry that mixes inputs goes through it: the membership kernel
(orbits, ``multiplicity`` and the point generators), ``RegionSet.spec`` and
``translate``, ``interval``, ``box_region``, ``Lattice.spec``, the
special-form lattice, ``transform_region``, ``make_certificate``,
``construct_brs_between``, ``duality_experiment``,
:func:`module_membership` and :func:`admissible_decomposition`; QValue
arithmetic applies it to each pair.

Linear questions over Q go through one fraction-free elimination of
integer rows, :func:`_eliminate` (Bareiss): :meth:`QValue.inverse`,
:func:`coeff_rank` and :func:`admissible_decomposition`.  Matrices over the
algebra are inverted by Gauss-Jordan of [M | I] (:func:`mat_inverse`), and
determinants are cofactor expansions (:func:`exact_det`).
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    AlgebraMismatchError,
    PreconditionError,
    SignUndecidableError,
)

EMBED_TOL = 1e-9

RationalLike = int | Fraction

_TERM_RE = re.compile(
    r"""^\s*(?P<sign>[+-])?\s*
        (?P<num>\d+/0*[1-9]\d*|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?  # no n/0
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
                self._products[(i, i)] = (r, *[Fraction(0)] * (k - 1))
        self._check_embedding()
        surds = [None if rad is None else _surd(rad) for rad in self.radicands]
        roots: dict[int, int] = {}
        for i in range(1, k):
            if surds[i] is not None:
                j = roots.setdefault(surds[i][2], i)
                if j != i:
                    raise PreconditionError(
                        f"'basis {self.names[j]} = sqrt {self.radicands[j]}' and "
                        f"'basis {self.names[i]} = sqrt {self.radicands[i]}' "
                        f"declare the same squarefree root sqrt {surds[i][2]}: "
                        "the basis must be independent over Q"
                    )
        # per element, (r, m) with w_l * _qden = m * sqrt(r); None for a value-declared one
        self._qden = math.lcm(*(s[1] for s in surds if s is not None))
        self._roots = tuple(None if s is None else (s[2], s[0] * (self._qden // s[1]))
                            for s in surds)
        # _table[i][j]: ((l, c), ...) with w_i * w_j = sum(c * w_l) / _T, T the lcm of the
        # product coefficients' denominators, never empty; None for an undeclared product
        self._T = T = math.lcm(*(c.denominator for cs in self._products.values() for c in cs))
        self._table = [[((i + j, T),) if i * j == 0 else None for j in range(k)] for i in range(k)]
        for (i, j), cs in self._products.items():
            self._table[i][j] = self._table[j][i] = tuple(
                (l, c.numerator * (T // c.denominator)) for l, c in enumerate(cs) if c) or ((0, 0),)
        self._zeros = (0,) * (k - 1)

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
            return tuple(Fraction(l == max(i, j)) for l in range(self.dim))
        key = (min(i, j), max(i, j))
        try:
            return self._products[key]
        except KeyError:
            raise PreconditionError(
                f"product {self.names[i]}*{self.names[j]} is not declared"
            ) from None

    # -- exact decisions on integer numerators ---------------------------------

    def _tower_terms(self, nums: Sequence[int]) -> Optional[dict[int, int]]:
        """{r: B} with sum(n_l * w_l) * _qden = sum(B * sqrt(r)), r squarefree and
        every B nonzero; None when a ``value``-declared element has n_l != 0."""
        terms: dict[int, int] = {}
        for n, root in zip(nums, self._roots):
            if n:
                if root is None:
                    return None
                r, m = root
                terms[r] = terms.get(r, 0) + n * m
        return {r: b for r, b in terms.items() if b}

    def sign_of(self, nums: Sequence[int], den: int) -> int:
        """Exact sign of sum(n_l * w_l) / den, for integers n_l and den > 0.

        With sqrt descriptors throughout it is the norm tower's over the
        integer terms (:func:`_tower_sign`).  A value with a ``value``-declared
        element is decided by its float (``float(QValue)``'s rule) only
        outside a guard band of EMBED_TOL times the magnitude of its terms,
        max(1, sum |n_l / den * x_l|), the scale ``_check_embedding`` uses.
        """
        terms = self._tower_terms(nums)
        if terms is not None:
            return _tower_sign(terms)
        parts = [n / den * x for n, x in zip(nums, self.numerics) if n]
        f = math.fsum(parts)
        band = EMBED_TOL * max(1.0, sum(abs(t) for t in parts))
        if abs(f) > band:
            return 1 if f > 0 else -1
        value = _value(self, nums, den)
        raise SignUndecidableError(
            f"|{value}| ~ {f} is inside the guard band {band:.3g} and has no exact "
            "descriptor; declare the basis element via sqrt to decide"
        )

    def floor_of(self, nums: Sequence[int], den: int) -> int:
        """Exact floor of sum(n_l * w_l) / den, for integers n_l and den > 0.

        One bisection with sign_of() closes a bracket.  With sqrt descriptors the
        value is (A + sum_r B_r sqrt(r)) / T over ints, and B sqrt(r) lies strictly
        between consecutive integers from math.isqrt(B^2 r) (r > 1 is squarefree):
        the bracket is the floors of the bounds of the sum, equal for at most one
        root.  With a ``value``-declared element it is [g - 1, g + 1] around g =
        q + floor(float(rest)), q = nums[0] // den exact, so it probes g, then g + 1.
        """

        def at_least(m: int) -> bool:
            return self.sign_of([nums[0] - m * den, *nums[1:]], den) >= 0

        terms = self._tower_terms(nums)
        if terms is None:  # sign_of's band dwarfs the float's error: g is the floor or refused
            q, r = divmod(nums[0], den)
            g = q + math.floor(float(_value(self, (r, *nums[1:]), den)))
            lo, hi = g - 1, g + 1
        else:  # value * total is low, or in (low, low + len(terms)); ~i is -i - 1
            total = den * self._qden
            low = terms.pop(1, 0) + sum(math.isqrt(b * b * r) if b > 0 else ~math.isqrt(b * b * r)
                                        for r, b in terms.items())
            lo, hi = low // total, (low + max(len(terms) - 1, 0)) // total
        while lo < hi:  # lo <= value < hi + 1
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if at_least(mid) else (lo, mid - 1)
        return lo

    # -- value constructors -------------------------------------------------

    def zero(self) -> "QValue":
        return _new(self, (0, *self._zeros), 1)

    def one(self) -> "QValue":
        return self.from_rational(1)

    def from_rational(self, x: RationalLike | float | str) -> "QValue":
        x = x if type(x) is int else Fraction(x)  # a numpy int keeps its type as a numerator
        return _new(self, (int(x.numerator), *self._zeros), x.denominator)

    def basis_element(self, name: str) -> "QValue":
        try:
            idx = self.names.index(name)
        except ValueError:
            raise PreconditionError(f"unknown basis name {name!r}") from None
        return _new(self, tuple(int(i == idx) for i in range(self.dim)), 1)

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
        coeffs = [Fraction(0)] * self.dim
        for chunk in chunks:
            mobj = _TERM_RE.match(chunk)
            if not mobj or (mobj.group("num") is None and mobj.group("name") is None):
                raise PreconditionError(f"cannot parse term {chunk!r} in {text!r}")
            coef = Fraction(mobj.group("num") or 1)
            name = mobj.group("name")
            l = 0 if name is None else self.basis_element(name).nums.index(1)
            coeffs[l] += -coef if mobj.group("sign") == "-" else coef
        return QValue(self, coeffs)

    def parse_vector(self, text: str) -> tuple["QValue", ...]:
        return tuple(self.parse(part) for part in text.split(","))

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"basis {n} = sqrt {r}" if r is not None else f"basis {n} = value {x!r}"
                 for n, r, x in zip(self.names[1:], self.radicands[1:], self.numerics[1:])]
        for (i, j), coeffs in sorted(self._products.items()):
            if i == j and self.radicands[i] is not None:
                continue  # derivable square
            val = QValue(self, coeffs)
            lines.append(f"product {self.names[i]} {self.names[j]} = {val}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "AlgebraSpec":
        """Parse the line format ``basis w1 = sqrt 2`` / ``product w1 w2 = w3``."""
        return read_declaration(text, {})[0]

    @classmethod
    def from_sqrt(cls, gens: Iterable[int]) -> "AlgebraSpec":
        """Algebra generated by ``sqrt(n)`` for the given integers.

        The basis is closed under products, e.g. ``from_sqrt([2, 3])`` yields
        basis values ``1, sqrt2, sqrt3, sqrt6`` with a full product table.
        """
        rads = {1}  # the squarefree parts of every subset product of the generators
        for g in gens:
            if g < 2:
                raise PreconditionError("sqrt generators must be >= 2")
            r = _squarefree_split(g)[1]
            rads |= {_squarefree_product(r, a)[1] for a in rads}
        order = sorted(rads)
        names = ["1"] + [f"w{i}" for i in range(1, len(order))]
        radicands = [Fraction(r) for r in order]
        numerics = [math.sqrt(r) for r in order]
        products: dict[tuple[int, int], tuple[Fraction, ...]] = {}
        for i in range(1, len(order)):
            for j in range(i, len(order)):
                s, r = _squarefree_product(order[i], order[j])
                products[(i, j)] = tuple(Fraction(s if x == r else 0) for x in order)
        return cls(names, radicands, numerics, products)

    def _key(self):
        return self.names, self.radicands, self.numerics, tuple(sorted(self._products.items()))

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


def _assignment(rest: str, names: int) -> tuple[list[str], str]:
    """The ``names`` words before the ``=`` of ``rest``, and the value after it."""
    lhs, eq, rhs = rest.partition("=")
    if not eq or len(lhs.split()) != names:
        raise PreconditionError(f"expected {names} name(s), '=' and a value")
    return lhs.split(), rhs.strip()


def declared_int(spec: AlgebraSpec, rest: str) -> int:
    """The ``d`` of a ``dim = d`` line."""
    return int(_assignment(rest, 0)[1])


def read_declaration(text: str, parsers: dict) -> tuple[AlgebraSpec, list[list]]:
    """Read a declaration text: the algebra of its ``basis`` and ``product``
    lines and, per keyword of ``parsers`` in order, ``parsers[keyword](spec,
    rest)`` of its lines, ``rest`` being a line after its keyword.  ``#``
    starts a comment.  An unknown keyword, or a line its reader refuses,
    raises PreconditionError naming the line.
    """
    lines: dict[str, list] = {k: [] for k in ("basis", "product", *parsers)}
    for n, raw in enumerate(text.splitlines(), 1):
        key, rest = re.match(r"(\w*)\s*(.*)", raw.split("#", 1)[0].strip()).groups()
        if key in lines:
            lines[key].append((n, raw.strip(), rest))
        elif key or rest:
            raise PreconditionError(f"line {n} {raw.strip()!r}: a keyword is one of {list(lines)}")

    def read(key: str, parse) -> Iterator:
        for n, raw, rest in lines[key]:
            try:
                yield parse(rest)
            except (PreconditionError, ValueError, ArithmeticError) as exc:
                raise PreconditionError(f"line {n} {raw!r}: {exc}") from None

    def basis(rest: str) -> tuple[str, Optional[Fraction], float]:
        (name,), rhs = _assignment(rest, 1)
        kind, _, num = rhs.partition(" ")
        if kind == "sqrt":
            return name, Fraction(num), math.sqrt(Fraction(num))
        if kind == "value" and math.isfinite(value := float(num)):
            return name, None, value
        raise PreconditionError("a basis element is 'sqrt <rational>' or 'value <finite float>'")

    names, radicands, numerics = zip(("1", Fraction(1), 1.0), *read("basis", basis))
    spec = AlgebraSpec(names, radicands, numerics)

    def product(rest: str) -> tuple[tuple[int, int], tuple[Fraction, ...]]:
        (a, b), rhs = _assignment(rest, 2)
        i, j = sorted(spec.basis_element(x).nums.index(1) for x in (a, b))  # checks each name
        return (i, j), spec.parse(rhs).coeffs

    products = dict(read("product", product))
    if products:
        spec = AlgebraSpec(names, radicands, numerics, {**spec._products, **products})
    return spec, [list(read(k, functools.partial(f, spec))) for k, f in parsers.items()]


def parse_algebra(literal: str) -> AlgebraSpec:
    """Build an algebra from ``"sqrt:2,3"`` shorthand or a declaration text."""
    text = literal.strip()
    if text.startswith("sqrt:"):
        gens = [int(x) for x in text[5:].split(",") if x.strip()]
        return AlgebraSpec.from_sqrt(gens)
    return AlgebraSpec.from_text(text)


RATIONAL = AlgebraSpec(["1"], [Fraction(1)], [1.0])


def lift_to(spec: AlgebraSpec, x: "QValue | RationalLike | float") -> "QValue":
    """Re-express a value over a compatible algebra declaration.

    Rational values (and ints, Fractions and floats, as their exact
    rationals) lift into any algebra; identical declarations transfer
    coefficientwise; anything else is a mismatch.
    """
    if not isinstance(x, QValue):
        return spec.from_rational(x)
    if x.spec is spec:
        return x
    if x.is_rational():
        return _new(spec, (x.nums[0], *spec._zeros), x.den)
    if x.spec == spec:
        return _new(spec, x.nums, x.den)
    raise AlgebraMismatchError(
        "cannot combine values from different algebra declarations"
    )


def join(*groups: Iterable) -> tuple[AlgebraSpec, list[list["QValue"]]]:
    """The algebra in which groups of values combine, and each group lifted into it.

    This is the library's one rule for mixing algebras.  The algebra is
    that of the first value holding an irrational part (a nonzero
    coefficient past the unit), else the first QValue's, else RATIONAL;
    ints, Fractions and floats count as rationals.  An irrational value
    from a second algebra raises AlgebraMismatchError.
    """
    groups = [list(g) for g in groups]
    qvalues = [v for g in groups for v in g if isinstance(v, QValue)]
    spec = next((v.spec for v in qvalues if not v.is_rational()),
                qvalues[0].spec if qvalues else RATIONAL)
    return spec, [[lift_to(spec, v) for v in g] for g in groups]


def integer_form(values: Sequence["QValue"]) -> tuple[list[list[int]], int]:
    """Coefficient numerators of each value over one positive denominator den,
    the lcm of the values' own: value = sum(n_l * w_l for each l) / den."""
    den = math.lcm(*(v.den for v in values))
    return [[n * (den // v.den) for n in v.nums] for v in values], den


class QValue:
    """Immutable element of an :class:`AlgebraSpec`: sum(nums[l] * w_l) / den.

    The form is canonical, den > 0 and gcd(den, *nums) == 1, so equality is
    equality of ``nums`` and ``den``.  ``QValue(spec, coeffs)`` takes rational
    coefficients; ``coeffs`` gives them back as Fractions.  Comparisons go
    through :meth:`sign`, which is exact whenever every contributing basis
    element carries a sqrt descriptor (the norm tower over Python ints) and
    otherwise falls back to a guarded float test that refuses to decide
    inside the guard band.
    """

    __slots__ = ("spec", "nums", "den")

    def __init__(self, spec: AlgebraSpec, coeffs: Sequence[RationalLike]) -> None:
        if len(coeffs) != spec.dim:
            raise PreconditionError("coefficient length mismatch")
        cs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))  # canonical: each c is in lowest terms
        _set_spec(self, spec)
        _set_nums(self, tuple(int(c.numerator) * (den // c.denominator) for c in cs))
        _set_den(self, den)

    def __setattr__(self, *args) -> None:  # pragma: no cover
        raise AttributeError("QValue is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other) -> "QValue":
        # join's rule for a pair: other lifted into self's algebra, unless self
        # is rational and other irrational in another, where the caller swaps roles
        if isinstance(other, QValue):
            if (other.spec is not self.spec and self.is_rational()
                    and not other.is_rational()):
                return other
            return lift_to(self.spec, other)
        if isinstance(other, (int, Fraction)):
            return self.spec.from_rational(other)
        return NotImplemented  # type: ignore[return-value]

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def is_integer(self) -> bool:
        return self.den == 1 and self.is_rational()

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "QValue":
        if type(other) is int:  # adding an integer keeps the form canonical
            return _new(self.spec, (self.nums[0] + other * self.den, *self.nums[1:]), self.den)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.spec is not self.spec:
            return o + self  # self is rational, lift into o's algebra
        a, b = self.den, o.den
        return _value(self.spec, [x * b + y * a for x, y in zip(self.nums, o.nums)], a * b)

    __radd__ = __add__

    def __neg__(self) -> "QValue":
        return _new(self.spec, tuple(-n for n in self.nums), self.den)

    def __sub__(self, other) -> "QValue":
        return self + -other

    def __rsub__(self, other) -> "QValue":
        return (-self) + other

    def __mul__(self, other) -> "QValue":
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _value(self.spec, [n * p for n in self.nums], self.den * other.denominator)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.spec is not self.spec:
            return o * self
        spec = self.spec
        out = [0] * spec.dim
        for i, a in enumerate(self.nums):
            if a:
                row = spec._table[i]
                for j, b in enumerate(o.nums):
                    if b:
                        ab = a * b
                        for l, c in row[j] or spec.product_coeffs(i, j):  # raises if undeclared
                            out[l] += ab * c
        return _value(spec, out, self.den * o.den * spec._T)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QValue":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            q = other.denominator
            return _value(self.spec, [n * q for n in self.nums], self.den * other.numerator)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> "QValue":
        return other * self.inverse()

    def inverse(self) -> "QValue":
        """Multiplicative inverse, by one fraction-free elimination (:func:`_eliminate`)
        of the integer multiplication matrix; a zero divisor is refused."""
        spec, k = self.spec, self.spec.dim
        # column j: the numerators of w_j * self over den * T; the last column is e_0
        a = [[0] * k + [int(l == 0)] for l in range(k)]
        for i, n in enumerate(self.nums):
            if n:
                for j in range(k):
                    for l, c in spec._table[i][j] or spec.product_coeffs(j, i):  # w_j * self
                        a[l][j] += n * c
        if _eliminate(a) != list(range(k)):
            raise PreconditionError(
                "value is not invertible in the declared algebra"
            )
        scale = self.den * spec._T
        return _value(spec, [row[k] * scale for row in a], a[0][0])

    # -- comparisons and embedding --------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return (self.nums[0] == other.numerator and self.den == other.denominator
                    and self.is_rational())
        if isinstance(other, QValue):
            if other.spec is self.spec or other.spec == self.spec:
                return self.nums == other.nums and self.den == other.den
            return (self.is_rational() and other.is_rational()
                    and self.nums[0] == other.nums[0] and self.den == other.den)
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():  # the hash of the equal int or Fraction
            return hash(self.nums[0] if self.den == 1 else Fraction(self.nums[0], self.den))
        return hash((self.spec, self.nums, self.den))

    def __float__(self) -> float:
        # int / int is correctly rounded, as float(Fraction) is
        den = self.den
        return math.fsum(n / den * x for n, x in zip(self.nums, self.spec.numerics) if n)

    def sign(self) -> int:
        """Exact sign: -1, 0 or 1 (:meth:`AlgebraSpec.sign_of`)."""
        return self.spec.sign_of(self.nums, self.den)

    def __lt__(self, other) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other) -> bool:
        return not self <= other

    def __ge__(self, other) -> bool:
        return not self < other

    def floor(self) -> int:
        """Exact floor (:meth:`AlgebraSpec.floor_of`)."""
        return self.spec.floor_of(self.nums, self.den)

    def frac(self) -> "QValue":
        """Exact fractional part, in [0, 1)."""
        return self - self.floor()

    def __str__(self) -> str:
        out = ""
        for i, c in enumerate(self.coeffs):
            if c:
                sign = (" - " if c < 0 else " + ") if out else ("-" if c < 0 else "")
                out += sign + (f"{abs(c)}*{self.spec.names[i]}" if i else str(abs(c)))
        return out or "0"

    def __repr__(self) -> str:
        return f"QValue({self})"


_alloc = object.__new__
_set_spec, _set_nums, _set_den = QValue.spec.__set__, QValue.nums.__set__, QValue.den.__set__


def _new(spec: AlgebraSpec, nums: tuple, den: int) -> QValue:
    """The QValue sum(nums[l] * w_l) / den of a form that is already canonical."""
    v = _alloc(QValue)
    _set_spec(v, spec)
    _set_nums(v, nums)
    _set_den(v, den)
    return v


def _value(spec: AlgebraSpec, nums: Sequence[int], den: int) -> QValue:
    """The QValue sum(nums[l] * w_l) / den, den != 0, in canonical form."""
    g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
    return _new(spec, tuple(n // g for n in nums) if g != 1 else tuple(nums), den // g)


# -- exact linear algebra over Q: one fraction-free elimination ----------------


def _eliminate(a: list[list[int]]) -> list[int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of the integer rows ``a``
    in place, over every column.

    Each step multiplies the other rows by the pivot, subtracts the pivot row
    and divides by the previous pivot; every entry stays a minor of the input,
    so the division is exact.  Returns the pivot columns; row r then holds the
    same value D != 0 in column ``pivots[r]`` and zeros there in every other
    row, and the rows past the pivots are zero.
    """
    m, prev = len(a), 1
    pivots: list[int] = []
    for col in range(len(a[0]) if a else 0):
        row = len(pivots)
        if row == m:
            break
        piv = next((r for r in range(row, m) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        top, p = a[row], a[row][col]
        for r in range(m):
            f = a[r][col]
            if r != row and (f or p != prev):
                a[r] = [(p * v - f * w) // prev for v, w in zip(a[r], top)]
        prev = p
        pivots.append(col)
    return pivots


def coeff_rank(values: Sequence[QValue]) -> int:
    """Rank over Q of the coefficient vectors of the given values."""
    return len(_eliminate([list(v.nums) for v in values]))


# -- membership in Z*alpha + Z^d ----------------------------------------------


def module_membership(
    v: Sequence[QValue], alpha: Sequence[QValue]
) -> Optional[tuple[int, tuple[int, ...]]]:
    """Decide whether ``v = n*alpha + m`` for integers n and m in Z^d.

    Returns the witness ``(n, m)`` or ``None``.  The decision is exact
    integer arithmetic on the coefficient numerators; absence is a valid
    answer, not an error.
    """
    if len(v) != len(alpha):
        raise PreconditionError("v and alpha must have the same length")
    spec, (v, alpha) = join(v, alpha)
    nums, den = integer_form([*v, *alpha])
    vn, an = nums[:len(v)], nums[len(v):]
    # Irrational coordinates (l >= 1) pin n: v_i^(l) = n * alpha_i^(l).
    pairs = [(a[l], b[l]) for b, a in zip(vn, an) for l in range(1, spec.dim)]
    a0, b0 = next(((a, b) for a, b in pairs if a), (0, 0))
    if a0 == 0:  # nothing pins n: scan it over a period of the integrality of m
        if any(b for _, b in pairs):
            return None
        ns = range(math.lcm(*(den // math.gcd(den, a[0]) for a in an)))
    elif b0 % a0 or any(b * a0 != b0 * a for a, b in pairs):
        return None
    else:
        ns = [b0 // a0]
    for n in ns:
        m = [b[0] - n * a[0] for b, a in zip(vn, an)]
        if all(x % den == 0 for x in m):
            return n, tuple(x // den for x in m)
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
    spec, ((gamma,), alpha) = join((gamma,), alpha)
    (g, *an), den = integer_form([gamma, *alpha])
    n = len(an) + 1  # the columns are 1 = den / den, alpha_1..alpha_d, and then gamma
    a = [[den * (l == 0), *(x[l] for x in an), g[l]] for l in range(spec.dim)]
    pivots = _eliminate(a)
    if pivots and pivots[-1] == n:
        return None
    if len(pivots) < n:
        raise PreconditionError(
            "1, alpha_1..alpha_d are rationally dependent; decomposition "
            "is not unique"
        )
    if any(row[n] % row[r] for r, row in enumerate(a[:n])):
        return None
    return tuple(row[n] // row[r] for r, row in enumerate(a[:n]))


# -- small exact matrices ------------------------------------------------------

QMatrix = Sequence[Sequence[QValue]]


def exact_det(mat: Sequence[Sequence]):
    """Exact determinant by cofactor expansion along the first row.

    The entries may lie in any exact ring: QValues or Python ints.  Zero
    entries are skipped at every level, and a matrix with no nonzero term
    gives ``mat[0][0] * 0``, the zero of its ring.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise PreconditionError("matrix must be square")
    return _cofactor(mat)


def _cofactor(mat: Sequence[Sequence]):
    if len(mat) == 1:
        return mat[0][0]
    det = None
    for j, a in enumerate(mat[0]):
        if a == 0:
            continue
        term = a * _cofactor([[*row[:j], *row[j + 1:]] for row in mat[1:]])
        if j % 2:
            term = -term
        det = term if det is None else det + term
    return mat[0][0] * 0 if det is None else det


def mat_mul(a: QMatrix, b: QMatrix) -> list[list[QValue]]:
    if len(a[0]) != len(b):
        raise PreconditionError("matrix shape mismatch")
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def mat_vec(a: QMatrix, v: Sequence[QValue]) -> list[QValue]:
    return [row[0] for row in mat_mul(a, [[x] for x in v])]


def mat_transpose(a: QMatrix) -> list[list[QValue]]:
    return [list(col) for col in zip(*a)]


def mat_inverse(mat: QMatrix) -> list[list[QValue]]:
    """Exact inverse by Gauss-Jordan elimination of [M | I] over the algebra."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise PreconditionError("matrix must be square")
    a = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise PreconditionError("matrix is not invertible in the declared algebra")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        top = a[col] = [v * inv for v in a[col]]
        for r in range(n):
            f = a[r][col]
            if r != col and f != 0:
                a[r] = [v - f * w for v, w in zip(a[r], top)]
    return [row[n:] for row in a]
