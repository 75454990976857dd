"""Free graded-commutative algebras over the rationals.

Generators carry an integer degree >= 1.  A monomial is one int, a packed
exponent vector (Monagan and Pearce, CASC 2007): generator gid's exponent
sits in the FIELD_BITS-wide field at bit gid·FIELD_BITS, whose top bit is a
guard, so adding a generator moves no monomial.  A product is one integer
addition, and a guard bit it sets is an exponent past its field: a
ModelError, never a wrap.  Odd generators square to zero, an odd clash is
a & b & oddmask, and the Koszul sign is one int.bit_count() (koszul_mask).
A monomial's edge form, its Factors, is the sorted tuple of its (gid,
exponent) pairs (pack, unpack), as labels, the model parser and monomials
built from provenance use it.

An element holds nonzero int numerators over one denominator in lowest
terms, so equal elements have equal fields and all arithmetic runs on ints;
a Fraction is built only where a coefficient enters (``element``, scalar
factors) or leaves (``coefficient``, ``repr``, class and table
coordinates).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]
Monomial = int  # a packed exponent vector
Factors = tuple  # tuple[tuple[int, int], ...]: (gid, exponent) pairs by ascending gid

#: The bits of each exponent field, the top one the guard; read when an
#: algebra is built.
FIELD_BITS = 16

#: The empty monomial, i.e. the algebra unit.
ONE: Monomial = 0


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
        #: the field width, the largest exponent, each generator's monomial
        #: by id, the odd generators' bits and every field's guard bit
        self.width = FIELD_BITS
        self.max_exponent = (1 << FIELD_BITS - 1) - 1
        self.units: list[Monomial] = []
        self.oddmask = self.guard = 0
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
        gid = len(self._gens)
        g = Generator(gid, name, degree, prov)
        unit = 1 << gid * self.width
        self._gens.append(g)
        self.odd.append(degree % 2 == 1)
        self.units.append(unit)
        if degree % 2:
            self.oddmask |= unit
        self.guard |= unit << self.width - 1
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

    def pack(self, factors: Factors) -> Monomial:
        """The monomial with these canonical (gid, exponent) pairs."""
        return self.normalize(factors)[1]

    def unpack(self, mono: Monomial) -> Factors:
        """The (gid, exponent) pairs of mono, by ascending gid."""
        width, field, out, gid = self.width, (1 << self.width) - 1, [], 0
        while mono:
            if mono & field:
                out.append((gid, mono & field))
            mono >>= width
            gid += 1
        return tuple(out)

    def mask(self, gids: Iterable[int]) -> int:
        """The bits of the fields of the distinct gids."""
        return sum(map(self.units.__getitem__, gids)) * ((1 << self.width) - 1)

    def generator_of(self, mono: Monomial) -> int | None:
        """The gid of g when mono is g to the first power, else None."""
        gid, r = divmod(mono.bit_length() - 1, self.width)
        return gid if not r and mono == 1 << mono.bit_length() - 1 else None

    def signed_generator(self, e: "Element") -> tuple[int, int] | None:
        """(s, gid) when e is s·g for s = ±1 and g the generator gid, else None."""
        if e.den == 1 and len(e.terms) == 1:
            [(mono, s)] = e.terms.items()
            gid = self.generator_of(mono)
            if gid is not None and s in (1, -1):
                return s, gid
        return None

    def _overflow(self, bits: int) -> ModelError:
        """The error for an exponent past its field, bits in that field."""
        g = self._gens[((bits & -bits).bit_length() - 1) // self.width]
        return ModelError(f"the exponent of generator {g.name!r} exceeds "
                          f"{self.max_exponent}, the largest its field holds")

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(self._gens[gid].degree * e for gid, e in self.unpack(mono))

    def normalize(self, raw: Iterable[tuple[int, int]]) -> tuple[int, Monomial]:
        """The product of the raw (gid, exponent) factors, in their order, as
        (sign, monomial): the sign is the Koszul sign of sorting them, or 0
        when an odd generator ends up with exponent >= 2 (in which case the
        monomial slot is the unit and must be ignored).  Each odd factor
        passes the odd factors placed so far with a larger gid."""
        odd, units, width, guard = self.odd, self.units, self.width, self.guard
        sign = 1
        mono = placed = 0  # placed: the odd factors' bits so far
        for gid, e in raw:
            if not 0 <= gid < len(units):
                raise KeyError(f"unknown generator id {gid}")
            if e < 0:
                raise ValueError("negative exponent")
            if e and odd[gid]:
                if e > 1 or placed & units[gid]:
                    return 0, ONE
                if (placed >> gid * width).bit_count() & 1:
                    sign = -sign
                placed |= units[gid]
            mono += min(e, self.max_exponent + 1) << gid * width
            if mono & guard:
                raise self._overflow(mono & guard)
        return sign, mono

    def relabel(self, source: GradedAlgebra, mono: Monomial,
                gid_map: Mapping[int, int]) -> tuple[int, Monomial]:
        """normalize's (sign, monomial) of source's monomial mono with each
        generator id sent through gid_map, in one pass over its factors."""
        width, field, guard = source.width, (1 << source.width) - 1, self.guard
        odd, units, sign, out, placed = self.odd, self.units, 1, 0, 0
        while mono:
            shift = ((mono & -mono).bit_length() - 1) // width * width
            e = mono >> shift & field
            mono ^= e << shift
            g = gid_map[shift // width]
            if odd[g]:
                if placed & units[g]:
                    return 0, ONE
                if (placed >> g * self.width).bit_count() & 1:
                    sign = -sign
                placed |= units[g]
            out += e * units[g]
            if out & guard:
                raise self._overflow(out & guard)
        return sign, out

    def koszul_mask(self, mono: Monomial) -> int:
        """The odd generators' bits below an odd number of mono's odd
        factors: mono·m = (-1)^((m & koszul_mask(mono)).bit_count())·(mono + m)
        for m with no odd factor of mono."""
        out, bits = 0, mono & self.oddmask
        while bits:
            out ^= (bits & -bits) - 1
            bits &= bits - 1
        return out & self.oddmask

    def mul_monomials(self, a: Monomial, b: Monomial) -> tuple[int, Monomial]:
        """(sign, a·b) with the Koszul sign, or (0, ONE) on an odd clash."""
        if a & b & self.oddmask:
            return 0, ONE
        m = a + b
        if m & self.guard:
            raise self._overflow(m & self.guard)
        return -1 if (b & self.koszul_mask(a)).bit_count() & 1 else 1, m

    def mul_terms(self, acc: dict[Monomial, int], a: Mapping[Monomial, int],
                  b: Mapping[Monomial, int], scale: int = 1) -> dict[Monomial, int]:
        """acc plus scale·a·b, for int terms a and b, summed into acc in
        place: the one product of two term dicts, a's terms outermost."""
        oddmask, guard = self.oddmask, self.guard
        for ma, ca in a.items():
            ca *= scale
            odd = ma & oddmask
            k = odd and self.koszul_mask(ma)
            for mb, cb in b.items():
                if mb & odd:
                    continue
                m = ma + mb
                if m & guard:
                    raise self._overflow(m & guard)
                c = ca * cb
                acc[m] = acc.get(m, 0) + (-c if k and (mb & k).bit_count() & 1 else c)
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
        e = 1, 2, ... (e = 1 only if g_i is odd).  For an even g_i those
        g_i^e·s are g_i·t for t in T_i[m - |g_i|], and g_i·t is unit(g_i) + t."""
        if n < 0:
            return ()
        key = tuple(gids)
        tables = self._basis_cache.get(key)
        if tables is None:
            tables = self._basis_cache[key] = [[(ONE,)] for _ in range(len(key) + 1)]
        top, emax = len(tables[0]), self.max_exponent
        if n >= top:
            tables[-1] += [()] * (n + 1 - top)
            for i in range(len(key) - 1, -1, -1):
                gid, step, rest = key[i], self._gens[key[i]].degree, tables[i + 1]
                unit, odd, row = self.units[gid], self.odd[gid], tables[i]
                for m in range(top, n + 1):
                    if m // step > emax and not odd and any(
                            rest[m - e * step] for e in range(emax + 1, m // step + 1)):
                        del self._basis_cache[key]  # with its half-grown tables
                        raise self._overflow(unit)
                    new = (rest if odd else row)[m - step] if m >= step else ()
                    row.append(rest[m] + tuple([unit + t for t in new]) if new else rest[m])
        return tables[0][n]

    # ------------------------------------------------------------------
    # element factories

    def zero(self) -> "Element":
        return Element._adopt(self, {})

    def one(self) -> "Element":
        return Element._adopt(self, {ONE: 1})

    def generator_element(self, key: str | int | Provenance) -> "Element":
        g = self.gen(key)
        return Element._adopt(self, {self.units[g.gid]: 1})

    def element(self, terms: dict[Monomial, Scalar]) -> "Element":
        """The element Σ c·m of rational coefficients c."""
        den = lcm(*(c.denominator for c in terms.values()))
        return Element._adopt(self, {m: c.numerator * (den // c.denominator)
                                     for m, c in terms.items()}, den)

    def monomial_element(self, mono: Monomial, coeff: Scalar = 1) -> "Element":
        return Element._adopt(self, {mono: coeff.numerator}, coeff.denominator)

    def monomial_string(self, mono: Monomial) -> str:
        return self._label(mono)[1]

    def _label(self, mono: Monomial) -> tuple[Factors, str]:
        """(mono's (gid, exponent) pairs, its string), in one pass over its
        fields: the pairs order printed terms as the edge form does."""
        factors, parts, width, field, gid = [], [], self.width, (1 << self.width) - 1, 0
        while mono:
            e = mono & field
            if e:
                name = self._gens[gid].name
                factors.append((gid, e))
                parts.append(name if e == 1 else f"{name}^{e}")
            mono >>= width
            gid += 1
        return factors, "*".join(parts) or "1"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = self.name or "GCA"
        return f"<{tag} on {[g.name for g in self._gens]}>"


class Element:
    """A sparse rational combination Σ (c/den)·m of canonical monomials.

    terms maps each monomial to its nonzero int numerator c over the one
    denominator den > 0, and gcd(den, every c) = 1, so zero is {} over 1
    and two equal elements have equal fields.  The constructor brings any
    int terms over any nonzero den to that form, in a dict of its own.
    """

    __slots__ = ("algebra", "terms", "den")

    def __init__(self, algebra: GradedAlgebra, terms: Mapping[Monomial, int], den: int = 1):
        terms = {m: c for m, c in terms.items() if c}
        if den != 1:
            terms, den = _lowest_terms(terms, den)
        self.algebra = algebra
        self.terms = terms
        self.den = den

    @classmethod
    def _adopt(cls, algebra: GradedAlgebra, terms: dict[Monomial, int],
               den: int = 1) -> "Element":
        """Element(algebra, terms, den) for a terms dict that no one else
        holds, as the package's kernels make them: the dict is kept, not
        copied, when it has no zero and nothing to cancel."""
        if 0 in terms.values():
            terms = {m: c for m, c in terms.items() if c}
        if den != 1:
            terms, den = _lowest_terms(terms, den)
        e = object.__new__(cls)
        e.algebra = algebra
        e.terms = terms
        e.den = den
        return e

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
        return Element._adopt(self.algebra, {m: -c for m, c in self.terms.items()}, self.den)

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return linear_combination(self.algebra, ((1, self), (-1, other)))

    def __mul__(self, other: Union["Element", Scalar]) -> "Element":
        if isinstance(other, (int, Fraction)):
            k = other.numerator
            return Element._adopt(self.algebra, {m: c * k for m, c in self.terms.items()},
                                  self.den * other.denominator)
        self._check(other)
        return Element._adopt(self.algebra, self.algebra.mul_terms({}, self.terms, other.terms),
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
        label = self.algebra._label
        items = [(*label(m), m, c) for m, c in self.terms.items()]
        for _, ms, m, c in sorted(items) if len(items) > 1 else items:
            if self.den != 1:
                c = Fraction(c, self.den)
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


def _lowest_terms(terms: dict[Monomial, int], den: int) -> tuple[dict[Monomial, int], int]:
    """terms over den (nonzero) as the same fraction over a positive den
    coprime to every coefficient."""
    g = gcd(den, *terms.values())
    if den < 0:
        g = -g
    if g != 1:
        return {m: c // g for m, c in terms.items()}, den // g
    return terms, den


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
    return Element._adopt(alg, terms, top)


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
        sign, mono = target.relabel(e.algebra, m, gid_map)
        if sign:
            terms[mono] = terms.get(mono, 0) + c * sign
    return Element._adopt(target, terms, e.den)
