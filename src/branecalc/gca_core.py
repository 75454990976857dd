"""Free graded-commutative algebras over the rationals.

Generators carry an integer degree >= 1.  A monomial is a sorted tuple of
(generator id, exponent) pairs; odd-degree generators square to zero and
reordering factors accumulates the Koszul sign (-1)^(|a||b|) per
transposition.  An element is a sparse rational linear combination of
canonical monomials, held as nonzero int numerators over one denominator
in lowest terms, so equality of elements is equality of those fields and
all arithmetic runs on ints.  A Fraction is built only where a coefficient
enters (``GradedAlgebra.element``, ``scalar``, scalar factors) or leaves
(``Element.coefficient``, ``repr``, class and table coordinates).

Monomials are ordered by generator id (creation order), which stays stable
when an algebra is extended with new generators.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]
Monomial = tuple  # tuple[tuple[int, int], ...], sorted by generator id

#: The empty monomial, i.e. the algebra unit.
ONE: Monomial = ()


class ModelError(Exception):
    """A model-level failure (bad shape, d² ≠ 0, unstable ideal, ...)."""


class Provenance(namedtuple("Provenance", "kind shift origin factor",
                            defaults=("base", 0, None, None))):
    """How a generator arose; within an algebra it identifies the generator.

    kind is "base" for generators of the underlying algebra V and "susp"
    for suspended copies; shift is the suspension amount (s^shift); origin
    is the name of the generator of V being suspended or copied; factor
    tags the tensor factor ("L"/"R") of a copy whose label would clash.
    An immutable record, equal and hashed by value: the algebra keys its
    generators by it.
    """

    __slots__ = ()

    @property
    def name(self) -> str:
        """The generator's label: origin or s<shift>_origin, then @factor."""
        name = self.origin if self.kind == "base" else f"s{self.shift}_{self.origin}"
        return name if self.factor is None else f"{name}@{self.factor}"

    def tagged(self, factor: str) -> "Provenance":
        """The copy in tensor factor factor; an earlier tag joins the origin."""
        if self.factor is None:
            return self._replace(factor=factor)
        return self._replace(origin=f"{self.origin}@{self.factor}", factor=factor)

    def clash(self) -> ModelError:
        """The error for adding a generator of this provenance whose label is taken."""
        source = "" if self.origin == self.name else f" (derived from {self.origin!r})"
        return ModelError(f"generator name {self.name!r}{source} collides with another "
                          "generator; model generator names must not look like derived "
                          "ones (s<k>_NAME, NAME@L, NAME@R)")


class Generator(namedtuple("Generator", "gid name degree prov")):
    """A generator of a GradedAlgebra: its id (creation order), label,
    degree and provenance, as an immutable record."""

    __slots__ = ()

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1


class GradedAlgebra:
    """A free graded-commutative algebra on named generators."""

    def __init__(self, name: str = ""):
        self.name = name
        self._gens: list[Generator] = []
        #: the parity of each generator, by id (True for odd degree)
        self.odd: list[bool] = []
        # each generator under its label and under its provenance
        self._by_key: dict[str | Provenance, Generator] = {}
        # basis(n) by n, and monomials' suffix tables by gids tuple
        self._basis_cache: dict = {}

    # ------------------------------------------------------------------
    # construction

    def add_generator(self, key: str | Provenance, degree: int) -> Generator:
        """Add the generator with provenance key; a str names a base one."""
        prov = Provenance("base", 0, key) if isinstance(key, str) else key
        name = prov.name
        if degree < 1:
            raise ValueError(f"generator {name!r} has degree {degree} < 1")
        if name in self._by_key:
            raise prov.clash()
        g = Generator(len(self._gens), name, degree, prov)
        self._gens.append(g)
        self.odd.append(g.is_odd)
        self._by_key[name] = g
        self._by_key[prov] = g
        self._basis_cache.clear()
        return g

    @property
    def generators(self) -> tuple[Generator, ...]:
        return tuple(self._gens)

    def gen(self, key: str | int | Provenance) -> Generator:
        """The generator with this id, label or provenance."""
        if isinstance(key, int):
            return self._gens[key]
        try:
            return self._by_key[key]
        except KeyError:
            raise KeyError(f"unknown generator {key!r}") from None

    def has_gen(self, key: str | Provenance) -> bool:
        return key in self._by_key

    # ------------------------------------------------------------------
    # monomial arithmetic

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(self._gens[gid].degree * e for gid, e in mono)

    def normalize(self, raw: Sequence[tuple[int, int]]) -> tuple[int, Monomial]:
        """Sort a raw factor list into canonical form.

        Returns (sign, monomial); the sign is the Koszul sign of the
        permutation, or 0 when an odd generator ends up with exponent >= 2
        (in which case the monomial slot is the unit and must be ignored).
        """
        odd = self.odd
        word: list[int] = []
        for gid, e in raw:
            if not 0 <= gid < len(self._gens):
                raise KeyError(f"unknown generator id {gid}")
            if e < 0:
                raise ValueError("negative exponent")
            word.extend([gid] * e)
        sign = 1
        # insertion sort, counting odd-odd transpositions
        for i in range(1, len(word)):
            j = i
            while j > 0 and word[j - 1] > word[j]:
                if odd[word[j - 1]] and odd[word[j]]:
                    sign = -sign
                word[j - 1], word[j] = word[j], word[j - 1]
                j -= 1
        factors: list[tuple[int, int]] = []
        for gid in word:
            if factors and factors[-1][0] == gid:
                if odd[gid]:
                    return 0, ONE
                factors[-1] = (gid, factors[-1][1] + 1)
            else:
                factors.append((gid, 1))
        return sign, tuple(factors)

    def mul_monomials(self, a: Monomial, b: Monomial) -> tuple[int, Monomial]:
        """Concatenate two canonical monomials and renormalize.

        a and b are each sorted, and an odd factor of either has exponent 1,
        so the Koszul sign is counted while merging: an odd factor of b
        passes the odd factors of a not merged yet.
        """
        if not a:
            return 1, b
        if not b:
            return 1, a
        odd = self.odd
        sign = 1
        # parity of a's odd factors not merged yet, counted when b's first
        # odd factor is merged
        rest = None
        merged: list[tuple[int, int]] = []
        ia = ib = 0
        while ia < len(a) and ib < len(b):
            ga, gb = a[ia][0], b[ib][0]
            if ga < gb:
                merged.append(a[ia]); ia += 1
                if rest is not None and odd[ga]:
                    rest ^= 1
            elif ga > gb:
                merged.append(b[ib]); ib += 1
                if odd[gb]:
                    if rest is None:
                        rest = sum(odd[g] for g, _ in a[ia:]) % 2
                    if rest:
                        sign = -sign
            else:
                if odd[ga]:
                    return 0, ONE
                merged.append((ga, a[ia][1] + b[ib][1]))
                ia += 1; ib += 1
        merged.extend(a[ia:])
        merged.extend(b[ib:])
        return sign, tuple(merged)

    def mul_terms(self, acc: dict[Monomial, int], a: Mapping[Monomial, int],
                  b: Mapping[Monomial, int], scale: int = 1) -> dict[Monomial, int]:
        """acc plus scale·a·b, for int terms a and b, summed into acc in
        place: the one product of two term dicts, a's terms outermost."""
        mul = self.mul_monomials
        for ma, ca in a.items():
            ca *= scale
            for mb, cb in b.items():
                sign, m = mul(ma, mb)
                if sign:
                    acc[m] = acc.get(m, 0) + sign * ca * cb
        return acc

    # ------------------------------------------------------------------
    # basis enumeration

    def basis(self, n: int) -> tuple[Monomial, ...]:
        """All canonical monomials of degree n, in lexicographic order of their
        exponent vectors over all generators, as monomials lists them."""
        cached = self._basis_cache.get(n)
        if cached is None:
            cached = self._basis_cache[n] = self.monomials(range(len(self._gens)), n)
        return cached

    def monomials(self, gids: Sequence[int], n: int) -> tuple[Monomial, ...]:
        """The degree-n monomials in the ascending generators gids alone, their
        exponent vectors in lexicographic order: gids[0]'s outermost, each
        ascending.  Suffix tables T_i[m], the degree-m monomials in gids[i:],
        are cached per gids in _basis_cache (add_generator clears it) and grow
        together: T_i[m] is T_{i+1}[m], then g_i^e·s for s in T_{i+1}[m - e|g_i|],
        e = 1, 2, ... (e = 1 only if g_i is odd), skipping the empty rows."""
        if n < 0:
            return ()
        key = tuple(gids)
        tables = self._basis_cache.get(key)
        if tables is None:
            tables = self._basis_cache[key] = [[(ONE,)] for _ in range(len(key) + 1)]
        top = len(tables[0])
        if n >= top:
            tables[-1] += [()] * (n + 1 - top)
            for i in range(len(key) - 1, -1, -1):
                gid, step, rest = key[i], self._gens[key[i]].degree, tables[i + 1]
                for m in range(top, n + 1):
                    out = list(rest[m])
                    for e in range(1, min(m // step, 1 if self.odd[gid] else m) + 1):
                        suffixes = rest[m - e * step]
                        if suffixes:
                            head = ((gid, e),)
                            out += [head + s for s in suffixes]
                    tables[i].append(tuple(out))
        return tables[0][n]

    # ------------------------------------------------------------------
    # element factories

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return Element(self, {ONE: 1})

    def scalar(self, c: Scalar) -> "Element":
        return self.monomial_element(ONE, c)

    def generator_element(self, key: str | int | Provenance) -> "Element":
        g = self.gen(key)
        return Element(self, {((g.gid, 1),): 1})

    def element(self, terms: dict[Monomial, Scalar]) -> "Element":
        """The element Σ c·m of rational coefficients c."""
        den = lcm(*(c.denominator for c in terms.values()))
        return Element(self, {m: c.numerator * (den // c.denominator)
                              for m, c in terms.items()}, den)

    def monomial_element(self, mono: Monomial, coeff: Scalar = 1) -> "Element":
        return Element(self, {mono: coeff.numerator}, coeff.denominator)

    def monomial_string(self, mono: Monomial) -> str:
        if not mono:
            return "1"
        parts = []
        for gid, e in mono:
            name = self._gens[gid].name
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = self.name or "GCA"
        return f"<{tag} on {[g.name for g in self._gens]}>"


class Element:
    """A sparse rational combination Σ (c/den)·m of canonical monomials.

    terms maps each monomial to its nonzero int numerator c over the one
    denominator den > 0, and gcd(den, every c) = 1, so zero is {} over 1
    and two equal elements have equal fields.  The constructor brings any
    int terms over any nonzero den to that form.
    """

    __slots__ = ("algebra", "terms", "den")

    def __init__(self, algebra: GradedAlgebra, terms: dict[Monomial, int], den: int = 1):
        terms = {m: c for m, c in terms.items() if c}
        if den != 1:
            g = gcd(den, *terms.values())
            if den < 0:
                g = -g
            if g != 1:
                terms = {m: c // g for m, c in terms.items()}
                den //= g
        self.algebra = algebra
        self.terms = terms
        self.den = den

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Degree of a homogeneous element; None for zero; error if mixed."""
        degs = {self.algebra.monomial_degree(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def coefficient(self, mono: Monomial) -> Fraction:
        return Fraction(self.terms.get(mono, 0), self.den)

    # -- ring operations -----------------------------------------------

    def _check(self, other: "Element") -> None:
        if self.algebra is not other.algebra:
            raise ValueError("elements live in different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return linear_combination(self.algebra, ((1, self), (1, other)))

    def __neg__(self) -> "Element":
        return Element(self.algebra, {m: -c for m, c in self.terms.items()}, self.den)

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return linear_combination(self.algebra, ((1, self), (-1, other)))

    def __mul__(self, other: Union["Element", Scalar]) -> "Element":
        if isinstance(other, (int, Fraction)):
            k = other.numerator
            return Element(self.algebra, {m: c * k for m, c in self.terms.items()},
                           self.den * other.denominator)
        self._check(other)
        return Element(self.algebra, self.algebra.mul_terms({}, self.terms, other.terms),
                       self.den * other.den)

    def __rmul__(self, other: Scalar) -> "Element":
        return self.__mul__(other)

    def __truediv__(self, other: Scalar) -> "Element":
        return self * (1 / Fraction(other))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (self.algebra is other.algebra and self.den == other.den
                and self.terms == other.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items()):
            if self.den != 1:
                c = Fraction(c, self.den)
            ms = self.algebra.monomial_string(m)
            if c == 1 and m:
                parts.append(ms)
            elif c == -1 and m:
                parts.append(f"-{ms}")
            elif m:
                parts.append(f"{c}*{ms}")
            else:
                parts.append(str(c))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def linear_combination(alg: GradedAlgebra, parts: Iterable[tuple[int, Element]]) -> Element:
    """Σ c·e over the (int c, element e) in parts, summed on ints over the
    lcm of the e.den."""
    terms: dict[Monomial, int] = {}
    top = 1  # the sum so far is terms / top
    for c, e in parts:
        if top % e.den:
            k = e.den // gcd(top, e.den)
            terms = {m: x * k for m, x in terms.items()}
            top *= k
        k = c * (top // e.den)
        for m, x in e.terms.items():
            terms[m] = terms.get(m, 0) + k * x
    return Element(alg, terms, top)


def over_lcm(values: Mapping[int | Monomial, Element]) -> tuple[dict, int]:
    """({key: den·value as int terms} over the nonzero values, den), den the
    lcm of the values' denominators."""
    den = lcm(*(v.den for v in values.values()))
    return {k: {m: c * (den // v.den) for m, c in v.terms.items()}
            for k, v in values.items() if v.terms}, den


def add_tagged(
    out: GradedAlgebra, left: Sequence[Generator], right: Sequence[Generator]
) -> tuple[dict[int, int], dict[int, int]]:
    """Add copies of two generator families to out, left then right.

    Copies whose labels clash get the factor tags "L" and "R" (see
    Provenance.tagged); the others keep their provenance.  Returns the
    generator-id maps of the two families into out.
    """
    clash = {g.name for g in left} & {g.name for g in right}

    def copy(gens: Sequence[Generator], factor: str) -> dict[int, int]:
        return {
            g.gid: out.add_generator(
                g.prov.tagged(factor) if g.name in clash else g.prov, g.degree
            ).gid
            for g in gens
        }

    return copy(left, "L"), copy(right, "R")


def translate(e: Element, target: GradedAlgebra, gid_map: dict[int, int]) -> Element:
    """Push an element through a generator-id translation (degree 0, 1:1)."""
    terms: dict[Monomial, int] = {}
    for m, c in e.terms.items():
        sign, mono = target.normalize([(gid_map[gid], exp) for gid, exp in m])
        if sign:
            terms[mono] = terms.get(mono, 0) + c * sign
    return Element(target, terms, e.den)
