"""Differentials, DGA morphisms, and the mapping-space model constructors.

The constructors build, on top of a minimal Sullivan algebra (∧V, d):

* ``sphere_model(V, k)``  — (∧V ⊗ ∧s^(k-1)V, d̄) with
  d̄(s^(k-1)v) = (-1)^(k-1) s^(k-1)(dv), where s^(k-1) is the degree
  -(k-1) derivation sending v to s^(k-1)v and suspensions to 0;
* ``disk_model(V, k)``    — adds s^k V with
  d(s^k v) = s^(k-1)v + (-1)^k s^(k)(dv);
* ``path_model(V)``       — (∧V⊗² ⊗ ∧sV, d) with
  d(sv) = 1⊗v - v⊗1 - Σ_{i≥1} (sd)^i/i! (v⊗1),
  the s-derivation sending both v⊗1 and 1⊗v to sv and sv to 0.

Every generator carries a Provenance (kind, shift, origin, factor), by which
the constructors and the shriek builders find it; its name is only the
label Provenance.name derives from that, e.g. "s1_x" for s¹x and "x@L" for
the left copy of x when the two copies of a tensor square would clash.

Every constructor but ``make_model`` assembles its model from parts by one
copy-and-translate step: it copies the generators of its inputs by
``add_tagged`` (one family alone as its left one, with no clash to tag),
takes d on the copies from the inputs' d translated (``_d_images``), adds
what is new (suspensions through ``_suspend``, a path model's twisting
series), and builds and checks the model in ``_model``.  d on a generator
is read from ``d.images``; the Leibniz kernel runs only on products.

Models are glued by ``relative_tensor`` (M ⊗_B N over a shared base) and
collapsed by ``quotient``: base change along a map that kills generators
is a quotient, so no general base change is kept; d on a quotient is its
projection applied to d.

Both kernels work on int terms and packed monomials, where each product
of two monomials is one integer addition: ``Derivation.leibniz`` for d, and
``_apply_algebra_map`` for every algebra map (DgaMorphism, section, the
pairing's base-action check), which multiplies a monomial's factor images
by ``GradedAlgebra.mul_terms``, as Element and module-map products do, and
sums into one accumulator per call.  Leibniz keeps its own loop, where each
product has one monomial factor (mul_terms measured slower there).  The d²
check and the path model's twisting series sum Leibniz rows, with no Element
per step.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .gca_core import (
    ONE,
    Element,
    Factors,
    Generator,
    GradedAlgebra,
    ModelError,
    Monomial,
    Provenance,
    add_tagged,
    over_lcm,
    translate,
)


# ---------------------------------------------------------------------------
# derivations and morphisms


class Derivation(namedtuple("Derivation", "algebra degree images den ints")):
    """A degree-r map defined on generators, extended by the Leibniz rule.

    A record, fixed when it is built: images is a read-only copy of the
    dict it was given, and assigning a field raises AttributeError.  Build
    a new map to change one; ``_replace`` and ``_make`` skip ``__new__``,
    which computes den, the lcm of the images' denominators, and ints,
    {gid: den·images[gid] as {monomial: int}} over the nonzero images by
    gid.  ``leibniz`` returns den·d(mono) from ints as int terms: the rows
    ``cohomology._d_stream`` feeds to elimination.
    """

    __slots__ = ()

    def __new__(cls, algebra: GradedAlgebra, degree: int,
                images: Mapping[int, Element]) -> "Derivation":
        images = MappingProxyType(dict(images))
        ints, den = over_lcm(images)
        return super().__new__(cls, algebra, degree, images, den,
                               dict(sorted(ints.items())) if len(ints) > 1 else ints)

    def leibniz(self, mono: Monomial) -> dict[Monomial, int]:
        """den·d(mono), as {monomial: nonzero int}."""
        alg = self.algebra
        width, oddmask, guard = alg.width, alg.oddmask, alg.guard
        out: dict[Monomial, int] = {}
        for gid, img in self.ints.items():
            exp = mono >> gid * width & (1 << width) - 1
            if not exp:
                continue
            unit, odd = alg.units[gid], alg.odd[gid]
            # d(pre·g^e·suf) = (-1)^(r|pre|) e·pre·dg·g^(e-1)·suf; as
            # |dg| = |g| + r, moving dg's terms m to the front turns the
            # sign into (-1)^(|pre||g|) times that of m·rest
            rest = mono - unit
            c0 = -exp if odd and (mono & oddmask & unit - 1).bit_count() & 1 else exp
            for m, c in img.items():
                c *= c0
                if m & oddmask:
                    if rest & m & oddmask:
                        continue
                    if (rest & alg.koszul_mask(m)).bit_count() & 1:
                        c = -c
                prod = m + rest
                if prod & guard:
                    raise alg._overflow(prod & guard)
                out[prod] = out.get(prod, 0) + c
        return {m: c for m, c in out.items() if c}

    def _sum(self, terms: Mapping[Monomial, int]) -> dict[Monomial, int]:
        """den·d(Σ a·mono) over the int terms {mono: a}, as {monomial: nonzero int}."""
        out: dict[Monomial, int] = {}
        for mono, a in terms.items():
            for m, c in self.leibniz(mono).items():
                out[m] = out.get(m, 0) + a * c
        return {m: c for m, c in out.items() if c}

    def __call__(self, e: Element) -> Element:
        if e.algebra is not self.algebra:
            raise ValueError("element not in this derivation's algebra")
        return Element._adopt(self.algebra, self._sum(e.terms), e.den * self.den)


def _apply_algebra_map(
    e: Element, images: Mapping[int, Element], target: GradedAlgebra
) -> Element:
    """The algebra map with generator images images, applied to e: each
    monomial goes to the product of its factors' images.

    An int kernel, as ``Derivation.leibniz`` is: a monomial's factor images
    are multiplied by mul_terms over the product of their denominators,
    and each product is added into one int accumulator over the lcm of
    those, as ``linear_combination`` sums; one Element is built per call.
    Zero terms are dropped after every factor, so the terms come out in the
    order that Element products from the unit give them.
    """
    mul, unpack = target.mul_terms, e.algebra.unpack
    acc: dict[Monomial, int] = {}
    top = 1  # the sum so far is acc / top
    for mono, a in e.terms.items():
        # the product so far is terms / den; None before the first factor
        terms, den = None, 1
        for gid, exp in unpack(mono):
            try:
                img = images[gid]
            except KeyError:
                raise ModelError(f"no image for generator id {gid}") from None
            for _ in range(exp):
                if terms is None:
                    terms = img.terms
                else:
                    prod = mul({}, terms, img.terms)
                    if 0 in prod.values():
                        prod = {m: c for m, c in prod.items() if c}
                    terms = prod
                den *= img.den
            if not terms:
                break
        if terms is None:  # the unit monomial
            terms = {ONE: 1}
        elif not terms:
            continue
        if top % den:
            k = den // math.gcd(top, den)
            acc = {m: x * k for m, x in acc.items()}
            top *= k
        k = a * (top // den)
        for m, x in terms.items():
            acc[m] = acc.get(m, 0) + k * x
    return Element._adopt(target, acc, top * e.den)


class DgaMorphism(namedtuple("DgaMorphism", "source target images")):
    """A degree-0 multiplicative map between models, given on generators.

    A record, fixed when it is built as a Derivation is: images is a
    read-only copy, and assigning a field raises AttributeError.
    """

    __slots__ = ()

    def __new__(cls, source: DgaModel, target: DgaModel,
                images: Mapping[int, Element]) -> "DgaMorphism":
        return super().__new__(cls, source, target, MappingProxyType(dict(images)))

    def __call__(self, e: Element) -> Element:
        return _apply_algebra_map(e, self.images, self.target.algebra)

    def chain_defects(self, gens: Iterable[Generator] | None = None) -> list[str]:
        """The generators, of gens or else all, where f∘d ≠ d∘f.

        Both f∘d and d∘f extend from generators as f-derivations, so
        agreement on generators is agreement everywhere.
        """
        src, d, zero = self.source, self.target.d, self.source.algebra.zero()
        bad = []
        for g in src.algebra.generators if gens is None else gens:
            if g.gid not in self.images:
                raise ModelError(f"no image for generator id {g.gid}")
            if self(src.d.images.get(g.gid, zero)) != d(self.images[g.gid]):
                bad.append(g.name)
        return bad

    def check_chain(self) -> None:
        bad = self.chain_defects()
        if bad:
            raise ModelError(f"not a chain map on generators: {bad}")


def compose(g: DgaMorphism, f: DgaMorphism) -> DgaMorphism:
    """g∘f, with images g(f.images): the rule of ``shriek.compose_module``."""
    if f.target is not g.source:
        raise ModelError("composition mismatch")
    return DgaMorphism(f.source, g.target, {gid: g(img) for gid, img in f.images.items()})


# ---------------------------------------------------------------------------
# models


class DgaModel:
    """A free GCA with a square-zero degree +1 differential.

    base_gids marks the distinguished base subalgebra for semifree shapes
    (e.g. the sphere model inside a disk model); cohomology_cache holds what
    ``cohomology`` computes on the model.
    """

    __slots__ = ("algebra", "d", "base_gids", "cohomology_cache")

    def __init__(self, algebra: GradedAlgebra, d: Derivation,
                 base_gids: tuple[int, ...] = ()) -> None:
        self.algebra = algebra
        self.d = d
        self.base_gids = base_gids
        self.cohomology_cache = {}

    @property
    def fiber_gids(self) -> tuple[int, ...]:
        base = set(self.base_gids)
        return tuple(g.gid for g in self.algebra.generators if g.gid not in base)

    def d_squared_witnesses(self) -> list[str]:
        """Generators with d(d(g)) ≠ 0; empty iff d² = 0 everywhere.

        d² is a derivation (degree +2), so vanishing on generators is
        vanishing on the whole algebra.
        """
        d = self.d  # den·d(den·dg) on ints, from the Leibniz rows
        return [g.name for g in self.algebra.generators
                if d._sum(d.ints.get(g.gid, {}))]

    def check(self) -> None:
        bad = self.d_squared_witnesses()
        if bad:
            raise ModelError(f"d² ≠ 0 on generators: {bad}")

    def signature(self) -> tuple:
        """Structural fingerprint: generators plus differential images."""
        zero = self.algebra.zero()
        return tuple(
            (g.name, g.degree, repr(self.d.images.get(g.gid, zero)))
            for g in self.algebra.generators
        )


def make_model(
    gens: Sequence[tuple[str, int]],
    diffs: dict[str, dict[Factors, Fraction]] | None = None,
    name: str = "",
) -> DgaModel:
    """Convenience constructor for a base Sullivan algebra (∧V, d), each
    d given by its terms {Factors: coefficient}, the factors in their
    written order, read by the model file's rule (``written_image``)."""
    alg = GradedAlgebra(name)
    for nm, deg in gens:
        alg.add_generator(nm, deg)
    images = {}
    for nm, terms in (diffs or {}).items():
        image, error = written_image(alg, nm, [(c, m) for m, c in terms.items()])
        if error:
            raise ModelError(error)
        if image is not None:
            images[alg.gen(nm).gid] = image
    return DgaModel(alg, Derivation(alg, 1, images), tuple(range(len(gens))))


def base_copy(V: DgaModel) -> DgaModel:
    """V with each generator a base generator of its label, degree and d,
    as ``cli.parse_model`` reads ``cli.print_model`` of V; V itself when
    each already is one.  A pipeline finds a generator's role by its
    provenance, so a constructor's model enters it as this copy."""
    gens = V.algebra.generators
    if all(g.prov == Provenance("base", 0, g.name) for g in gens):
        return V
    alg = GradedAlgebra(V.algebra.name)
    gid_map = {g.gid: alg.add_generator(g.name, g.degree).gid for g in gens}
    return DgaModel(alg, Derivation(alg, 1, _d_images(V, alg, gid_map)), tuple(gid_map.values()))


def written_image(alg: GradedAlgebra, name: str,
                  terms: Sequence[tuple[Fraction, Factors]]) -> tuple[Element | None, str]:
    """d name's image from its terms as written, each (coefficient, raw
    (gid, exponent) factors in their order): the rule of model files and
    ``make_model``.  Every term's degree is checked from its raw factors,
    before any is packed or summed, so no stray term cancels or vanishes
    unchecked; the literal 0, with no factor, is the zero differential and
    has no degree.  Then each term is packed with its Koszul sign by
    ``GradedAlgebra.normalize`` and like terms are summed.

    Returns (the image, or None when it is zero, and ""), or (None, the
    degree error), which the parser reports at the expression and
    ``make_model`` raises as a ModelError."""
    want = alg.gen(name).degree + 1
    degrees = {sum(alg.gen(g).degree * e for g, e in raw) for c, raw in terms if raw or c}
    if degrees and degrees != {want}:
        got = f", got degree {degrees.pop()}" if len(degrees) == 1 else ""
        return None, f"d {name} must be homogeneous of degree {want}{got}"
    image: dict = {}  # packed monomial -> nonzero sum
    for c, raw in terms:
        sign, mono = alg.normalize(raw)
        image[mono] = image.get(mono, 0) + sign * c
        if not image[mono]:
            del image[mono]
    return (alg.element(image) if image else None), ""


def _d_images(M: DgaModel, alg: GradedAlgebra, gid_map: dict[int, int]) -> dict[int, Element]:
    """M's d on the generators copied into alg by gid_map: read from
    M.d.images, translated, nonzero images only."""
    images: dict[int, Element] = {}
    for gid, new in gid_map.items():
        img = M.d.images.get(gid)
        if img is not None:
            img = translate(img, alg, gid_map)
            if not img.is_zero():
                images[new] = img
    return images


def _model(alg: GradedAlgebra, images: dict[int, Element], base: Iterable[int]) -> DgaModel:
    """The model (alg, d) with d given by images on generators, checked."""
    model = DgaModel(alg, Derivation(alg, 1, images), tuple(base))
    model.check()
    return model


def _suspension(
    V: DgaModel, alg: GradedAlgebra, copies: Sequence[dict[int, int]], shift: int
) -> tuple[dict[int, int], Derivation]:
    """Add s^shift V to alg, whose copies of V are the gid maps in copies.

    Returns the map from V's generator ids to those of the s^shift v, and
    the degree -shift derivation s^shift sending each copy of v to s^shift v
    and every other generator to 0.
    """
    susp = {
        g.gid: alg.add_generator(
            Provenance("susp", shift, g.name), g.degree - shift
        ).gid
        for g in V.algebra.generators
    }
    s = Derivation(alg, -shift, {
        copy[v]: alg.generator_element(sv)
        for copy in copies for v, sv in susp.items()
    })
    return susp, s


def _suspend(
    V: DgaModel, alg: GradedAlgebra, base_map: dict[int, int], shift: int,
    images: dict[int, Element],
) -> dict[int, int]:
    """Add s^shift V over the copy base_map of V, whose d is in images, and
    d(s^shift v) = (-1)^shift s^shift(dv) to images.

    Returns the map from V's generator ids to those of the s^shift v.
    """
    susp, s = _suspension(V, alg, [base_map], shift)
    sign = -1 if shift % 2 else 1
    for v, sv in susp.items():
        dv = images.get(base_map[v])
        if dv is not None:
            sdv = s(dv) * sign
            if not sdv.is_zero():
                images[sv] = sdv
    return susp


def is_minimal(V: DgaModel) -> bool:
    """No linear part: every monomial of every d(v) has word length ≥ 2."""
    alg = V.algebra
    return not any(mono == ONE or alg.generator_of(mono) is not None
                   for img in V.d.images.values() for mono in img.terms)


def sphere_model(V: DgaModel, k: int) -> DgaModel:
    """Model of the space of maps from a (k-1)-sphere: ∧V ⊗ ∧s^(k-1)V."""
    if k < 1:
        raise ModelError("k must be ≥ 1")
    if any(g.degree < k for g in V.algebra.generators):
        raise ModelError(f"sphere model needs all generator degrees ≥ k={k}")
    alg = GradedAlgebra(f"sphere[{k - 1}]({V.algebra.name})")
    base_map, _ = add_tagged(alg, V.algebra.generators, ())
    images = _d_images(V, alg, base_map)
    _suspend(V, alg, base_map, k - 1, images)
    return _model(alg, images, base_map.values())


def disk_model(V: DgaModel, k: int) -> DgaModel:
    """Model of the space of maps from a k-disk: ∧V ⊗ ∧s^(k-1)V ⊗ ∧s^kV."""
    if k < 1:
        raise ModelError("k must be ≥ 1")
    if any(g.degree < k + 1 for g in V.algebra.generators):
        raise ModelError(f"disk model needs all generator degrees ≥ k+1={k + 1}")
    alg = GradedAlgebra(f"disk[{k}]({V.algebra.name})")
    base_map, _ = add_tagged(alg, V.algebra.generators, ())
    images = _d_images(V, alg, base_map)
    susp_lo = _suspend(V, alg, base_map, k - 1, images)
    susp_hi = _suspend(V, alg, base_map, k, images)
    for v, sv in susp_hi.items():
        images[sv] = alg.generator_element(susp_lo[v]) + images.get(sv, alg.zero())
    return _model(alg, images, [*base_map.values(), *susp_lo.values()])


MAX_SERIES_ITERATIONS = 64  # path_model's bound on a twisting series


def path_model(V: DgaModel) -> DgaModel:
    """Relative model ∧V⊗² ⊗ ∧sV of the multiplication ∧V⊗² → ∧V."""
    if any(g.degree < 2 for g in V.algebra.generators):
        raise ModelError("path model needs all generator degrees ≥ 2")
    if not is_minimal(V):
        raise ModelError("path model needs a minimal input (no linear part)")
    alg = GradedAlgebra(f"path({V.algebra.name})")
    left, right = add_tagged(alg, V.algebra.generators, V.algebra.generators)
    susp, s_der = _suspension(V, alg, [left, right], 1)
    images = {**_d_images(V, alg, left), **_d_images(V, alg, right)}
    # d(sv) needs d on lower-degree suspensions: fill in ascending degree,
    # with d rebuilt from the images found so far.  On int terms, (sd)^i (v⊗1)
    # is u / d.den^i and the sum is total / top, top = d.den^i·i! (s.den = 1)
    for g in sorted(V.algebra.generators, key=lambda h: (h.degree, h.gid)):
        d_partial = Derivation(alg, 1, images)
        total = {alg.units[right[g.gid]]: 1, alg.units[left[g.gid]]: -1}
        u, top = {alg.units[left[g.gid]]: 1}, 1
        for i in range(1, MAX_SERIES_ITERATIONS + 1):
            u = s_der._sum(d_partial._sum(u))
            if not u:
                break
            scale = d_partial.den * i
            top *= scale
            # total·scale - u, its nonzero terms in the order Element sums keep
            total = {m: c for m in {**total, **u} if (c := total.get(m, 0) * scale - u.get(m, 0))}
        else:
            raise ModelError(f"path-model twisting series for {g.name} did not terminate "
                             f"within {MAX_SERIES_ITERATIONS} iterations")
        if total:
            images[susp[g.gid]] = Element._adopt(alg, total, top)
    return _model(alg, images, [*left.values(), *right.values()])


# ---------------------------------------------------------------------------
# gluing, quotients and canonical morphisms


def relative_tensor(
    M: DgaModel, N: DgaModel
) -> tuple[DgaModel, dict[int, int], dict[int, int]]:
    """M ⊗_B N for two semifree models over the same base B.

    The bases are matched by provenance; fiber generators whose labels
    collide are tagged with their factor (see add_tagged).  Returns the
    glued model and the gid maps of M and N into it: an element crosses
    an inclusion by ``translate(e, glued.algebra, gid_map)``.
    """
    m_base = [M.algebra.gen(g) for g in M.base_gids]
    n_base = {N.algebra.gen(g).prov: g for g in N.base_gids}
    if {g.prov for g in m_base} != set(n_base):
        raise ModelError("relative tensor: base generators differ")
    for g in m_base:
        if N.algebra.gen(n_base[g.prov]).degree != g.degree:
            raise ModelError(f"base generator {g.name} has mismatched degrees")
    alg = GradedAlgebra(f"({M.algebra.name})⊗_B({N.algebra.name})")
    m_map, _ = add_tagged(alg, m_base, ())
    n_map = {n_base[g.prov]: m_map[g.gid] for g in m_base}
    m_fiber, n_fiber = add_tagged(
        alg,
        [M.algebra.gen(g) for g in M.fiber_gids],
        [N.algebra.gen(g) for g in N.fiber_gids],
    )
    m_map.update(m_fiber)
    n_map.update(n_fiber)
    m_images = _d_images(M, alg, m_map)
    n_images = _d_images(N, alg, n_map)
    for g in m_base:
        new = m_map[g.gid]
        if m_images.get(new) != n_images.get(new):
            raise ModelError(
                f"relative tensor: differentials disagree on base generator {g.name}"
            )
    result = _model(alg, {**n_images, **m_images}, [m_map[g.gid] for g in m_base])
    return result, m_map, n_map


def tensor_model(M: DgaModel, N: DgaModel) -> tuple[DgaModel, dict[int, int], dict[int, int]]:
    """Plain tensor product of models (over the ground field), with the gid
    maps of M and N into it, applied by ``translate`` as relative_tensor's."""
    alg = GradedAlgebra(f"{M.algebra.name}(x){N.algebra.name}")
    left, right = add_tagged(alg, M.algebra.generators, N.algebra.generators)
    images = {**_d_images(M, alg, left), **_d_images(N, alg, right)}
    base = [left[g] for g in M.base_gids] + [right[g] for g in N.base_gids]
    result = _model(alg, images, base)
    return result, left, right


def quotient(
    M: DgaModel, kill_keys: Sequence[int | str | Provenance]
) -> tuple[DgaModel, DgaMorphism]:
    """Quotient by the ideal generated by a set of generators, each given
    by id, label or provenance, and its projection.

    Requires the ideal to be d-stable: every monomial of d(g) for a killed
    generator must itself contain a killed generator.
    """
    kill = {M.algebra.gen(key).gid for key in kill_keys}
    alg = GradedAlgebra(f"({M.algebra.name})/I")
    gid_map, _ = add_tagged(alg, [g for g in M.algebra.generators if g.gid not in kill], ())
    proj_images = {
        g.gid: (alg.generator_element(gid_map[g.gid]) if g.gid in gid_map
                else alg.zero())
        for g in M.algebra.generators
    }
    images: dict[int, Element] = {}
    for g in M.algebra.generators:
        img = _apply_algebra_map(M.d.images.get(g.gid, M.algebra.zero()), proj_images, alg)
        if img.terms:
            if g.gid in kill:
                raise ModelError(
                    f"ideal not d-stable: d({g.name}) has a term outside the "
                    f"ideal in degree {g.degree + 1}"
                )
            images[gid_map[g.gid]] = img
    result = _model(alg, images, [gid_map[g] for g in M.base_gids if g in gid_map])
    return result, DgaMorphism(M, result, proj_images)


# ---------------------------------------------------------------------------
# transpositions


def transposition(M: DgaModel) -> DgaMorphism:
    """The factor swap on a tensor square or a path model, checked to be a
    chain map: each generator tagged L or R goes to its copy in the other
    factor, a⊗b ↦ (-1)^(|a||b|) b⊗a, and each untagged suspension sv of
    the path model to -sv."""
    alg = M.algebra
    images: dict[int, Element] = {}
    for g in alg.generators:
        other = {"L": "R", "R": "L"}.get(g.prov.factor)
        if other is not None:
            images[g.gid] = alg.generator_element(g.prov._replace(factor=other))
        elif g.prov.kind == "susp":
            images[g.gid] = -alg.generator_element(g.gid)
        else:
            raise ModelError(f"generator {g.name!r} has no tensor-factor tag")
    t = DgaMorphism(M, M, images)
    t.check_chain()
    return t
