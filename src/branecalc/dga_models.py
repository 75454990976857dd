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
copy-and-translate step: it copies the generators of its inputs, takes d on
the copies from the inputs' d translated (``_d_images``), adds what is new
(suspensions through ``_suspend``, a path model's twisting series), and
builds and checks the model in ``_model``.  d on a generator is read from
``d.images``; the Leibniz kernel runs only on products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from types import MappingProxyType
from typing import ClassVar, Iterable, Mapping, Sequence

from .gca_core import (
    Element,
    Generator,
    GradedAlgebra,
    ModelError,
    Monomial,
    Provenance,
    add_tagged,
    linear_combination,
    tensor,
    translate,
)


# ---------------------------------------------------------------------------
# derivations and morphisms


@dataclass(frozen=True)
class Derivation:
    """A degree-r map defined on generators, extended by the Leibniz rule.

    A Derivation is fixed when it is built: images is a read-only copy of
    the dict it was given.  ``leibniz`` works on the images' numerators over
    one common denominator den, the lcm of the images' denominators, and
    returns den·d(mono) as int terms: the rows ``cohomology._d_rows`` feeds
    to elimination.
    """

    algebra: GradedAlgebra
    degree: int
    images: Mapping[int, Element]
    #: the common denominator of the images
    den: int = field(init=False, compare=False)
    # gid -> den·images[gid] as {monomial: int}, nonzero images only
    _ints: dict[int, dict[Monomial, int]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        images = MappingProxyType(dict(self.images))
        den = math.lcm(*(img.den for img in images.values()))
        ints = {gid: {m: c * (den // img.den) for m, c in img.terms.items()}
                for gid, img in images.items() if img.terms}
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_ints", ints)

    def leibniz(self, mono: Monomial) -> dict[Monomial, int]:
        """den·d(mono), as {monomial: nonzero int}."""
        alg = self.algebra
        odd, mul, ints = alg.odd, alg.mul_monomials, self._ints
        out: dict[Monomial, int] = {}
        pre_odd = False  # the parity of the factors before position i
        for i, (gid, exp) in enumerate(mono):
            img = ints.get(gid)
            if img is not None:
                # d(pre·g^e·suf) = (-1)^(r|pre|) e·pre·dg·g^(e-1)·suf; as
                # |dg| = |g| + r, moving dg's terms m to the front turns
                # the sign into (-1)^(|pre||g|) times that of m·rest
                kept = ((gid, exp - 1),) if exp > 1 else ()
                rest = mono[:i] + kept + mono[i + 1:]
                c0 = -exp if pre_odd and odd[gid] else exp
                for m, c in img.items():
                    sign, prod = mul(m, rest)
                    if sign:
                        out[prod] = out.get(prod, 0) + sign * c0 * c
            if odd[gid] and exp % 2:
                pre_odd = not pre_odd
        return {m: c for m, c in out.items() if c}

    def __call__(self, e: Element) -> Element:
        alg = self.algebra
        if e.algebra is not alg:
            raise ValueError("element not in this derivation's algebra")
        terms: dict[Monomial, int] = {}
        for mono, a in e.terms.items():
            for m, c in self.leibniz(mono).items():
                terms[m] = terms.get(m, 0) + a * c
        return Element(alg, terms, e.den * self.den)


def _apply_algebra_map(
    e: Element, images: Mapping[int, Element], target: GradedAlgebra
) -> Element:
    """The algebra map with generator images images, applied to e: each
    monomial goes to the product of its factors' images."""
    one = target.one()

    def image(mono: Monomial) -> Element:
        out = one
        for gid, exp in mono:
            try:
                img = images[gid]
            except KeyError:
                raise ModelError(f"no image for generator id {gid}") from None
            for _ in range(exp):
                out = out * img
            if not out.terms:
                break
        return out

    return linear_combination(
        target, ((c, image(m)) for m, c in e.terms.items()), e.den)


@dataclass(frozen=True)
class DgaMorphism:
    """A degree-0 multiplicative map between models, given on generators.

    A DgaMorphism is fixed when it is built, as a Derivation is: images is
    a read-only copy of the dict it was given.
    """

    source: "DgaModel"
    target: "DgaModel"
    images: Mapping[int, Element]
    degree: ClassVar[int] = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", MappingProxyType(dict(self.images)))

    def __call__(self, e: Element) -> Element:
        return _apply_algebra_map(e, self.images, self.target.algebra)

    def chain_defects(self) -> list[str]:
        """Generators where f∘d ≠ d∘f.

        Both f∘d and d∘f extend from generators as f-derivations, so
        agreement on generators is agreement everywhere.
        """
        bad = []
        src = self.source
        for g in src.algebra.generators:
            lhs = self(src.d.images.get(g.gid, src.algebra.zero()))
            rhs = self.target.d(self(src.algebra.generator_element(g.gid)))
            if lhs != rhs:
                bad.append(g.name)
        return bad

    def check_chain(self) -> None:
        bad = self.chain_defects()
        if bad:
            raise ModelError(f"not a chain map on generators: {bad}")


def compose(g: DgaMorphism, f: DgaMorphism) -> DgaMorphism:
    if f.target is not g.source:
        raise ModelError("composition mismatch")
    images = {
        gen.gid: g(f(f.source.algebra.generator_element(gen.gid)))
        for gen in f.source.algebra.generators
    }
    return DgaMorphism(f.source, g.target, images)


# ---------------------------------------------------------------------------
# models


@dataclass
class DgaModel:
    """A free GCA with a square-zero degree +1 differential.

    base_gids marks the distinguished base subalgebra for semifree shapes
    (e.g. the sphere model inside a disk model).
    """

    algebra: GradedAlgebra
    d: Derivation
    base_gids: tuple[int, ...] = ()
    cohomology_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def fiber_gids(self) -> tuple[int, ...]:
        base = set(self.base_gids)
        return tuple(g.gid for g in self.algebra.generators if g.gid not in base)

    def gen_elem(self, name: str) -> Element:
        return self.algebra.generator_element(name)

    def d_squared_witnesses(self) -> list[str]:
        """Generators with d(d(g)) ≠ 0; empty iff d² = 0 everywhere.

        d² is a derivation (degree +2), so vanishing on generators is
        vanishing on the whole algebra.
        """
        bad = []
        zero = self.algebra.zero()
        for g in self.algebra.generators:
            if not self.d(self.d.images.get(g.gid, zero)).is_zero():
                bad.append(g.name)
        return bad

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
    diffs: dict[str, dict[Monomial, Fraction]] | None = None,
    name: str = "",
) -> DgaModel:
    """Convenience constructor for a base Sullivan algebra (∧V, d)."""
    alg = GradedAlgebra(name)
    for nm, deg in gens:
        alg.add_generator(nm, deg)
    images: dict[int, Element] = {}
    for nm, terms in (diffs or {}).items():
        images[alg.gen(nm).gid] = alg.element(terms)
    model = DgaModel(alg, Derivation(alg, 1, images), tuple(range(len(gens))))
    return model


def _copy_generators(gens: Iterable[Generator], dst: GradedAlgebra) -> dict[int, int]:
    return {g.gid: dst.add_generator(g.prov, g.degree).gid for g in gens}


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


def _inclusion(M: DgaModel, result: DgaModel, gid_map: dict[int, int]) -> DgaMorphism:
    """The map M → result sending each generator to its copy under gid_map."""
    alg = result.algebra
    return DgaMorphism(
        M, result, {gid: alg.generator_element(new) for gid, new in gid_map.items()}
    )


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
    for img in V.d.images.values():
        for mono in img.terms:
            if sum(e for _, e in mono) < 2:
                return False
    return True


def sphere_model(V: DgaModel, k: int) -> DgaModel:
    """Model of the space of maps from a (k-1)-sphere: ∧V ⊗ ∧s^(k-1)V."""
    if k < 1:
        raise ModelError("k must be ≥ 1")
    if any(g.degree < k for g in V.algebra.generators):
        raise ModelError(f"sphere model needs all generator degrees ≥ k={k}")
    alg = GradedAlgebra(f"sphere[{k - 1}]({V.algebra.name})")
    base_map = _copy_generators(V.algebra.generators, alg)
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
    base_map = _copy_generators(V.algebra.generators, alg)
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
    # with d rebuilt from the images found so far
    for g in sorted(V.algebra.generators, key=lambda h: (h.degree, h.gid)):
        d_partial = Derivation(alg, 1, images)
        total = (alg.generator_element(right[g.gid])
                 - alg.generator_element(left[g.gid]))
        u = alg.generator_element(left[g.gid])
        for i in range(1, MAX_SERIES_ITERATIONS + 1):
            u = s_der(d_partial(u))
            if u.is_zero():
                break
            total = total - u * Fraction(1, math.factorial(i))
        else:
            raise ModelError(
                f"path-model twisting series for {g.name} did not terminate "
                f"within {MAX_SERIES_ITERATIONS} iterations"
            )
        if not total.is_zero():
            images[susp[g.gid]] = total
    return _model(alg, images, [*left.values(), *right.values()])


# ---------------------------------------------------------------------------
# sub-models and canonical morphisms


def sub_model(M: DgaModel, gids: Iterable[int], name: str = "") -> tuple[DgaModel, dict[int, int]]:
    """The sub-DGA on a d-closed subset of generators.

    Returns the model and the gid translation from M into it.
    """
    keep = list(gids)
    keep_set = set(keep)
    for gid in keep:
        for mono in M.d.images.get(gid, M.algebra.zero()).terms:
            if any(f not in keep_set for f, _ in mono):
                raise ModelError(
                    f"generators do not span a sub-DGA: d({M.algebra.gen(gid).name}) "
                    "leaves the span"
                )
    alg = GradedAlgebra(name or f"sub({M.algebra.name})")
    gid_map = _copy_generators(map(M.algebra.gen, keep), alg)
    base = [gid_map[g] for g in M.base_gids if g in keep_set]
    return _model(alg, _d_images(M, alg, gid_map), base), gid_map


def base_model(M: DgaModel) -> tuple[DgaModel, dict[int, int]]:
    return sub_model(M, M.base_gids, name=f"base({M.algebra.name})")


def morphism_phi(M: DgaModel) -> DgaMorphism:
    """φ: sphere model → ∧V, or ε̃: disk model → ∧V; identity on V, zero on
    every suspension: the projection onto the quotient by the suspensions."""
    _, f = quotient(M, [g.gid for g in M.algebra.generators if g.prov.kind == "susp"])
    f.check_chain()
    return f


morphism_eps_tilde = morphism_phi


def base_change(M: DgaModel, f: DgaMorphism) -> tuple[DgaModel, DgaMorphism]:
    """A ⊗_B M for M semifree over B and f: B → A.

    The result is free on A's generators plus M's fiber generators; M's
    differential is rewritten through f.  Returns the model and the induced
    map M → A ⊗_B M.
    """
    base_provs = {M.algebra.gen(gid).prov for gid in M.base_gids}
    if base_provs != {g.prov for g in f.source.algebra.generators}:
        raise ModelError("morphism source does not match the base of M")
    alg = GradedAlgebra(f"({f.target.algebra.name})⊗({M.algebra.name})")
    a_map = _copy_generators(f.target.algebra.generators, alg)
    fiber_map = _copy_generators(map(M.algebra.gen, M.fiber_gids), alg)
    # the algebra map ρ: M → result (base through f, fiber to itself)
    rho: dict[int, Element] = {}
    for gid in M.base_gids:
        g = M.algebra.gen(gid)
        img = f.images.get(f.source.algebra.gen(g.prov).gid)
        if img is None:
            raise ModelError(f"morphism lacks an image for base generator {g.name}")
        rho[gid] = translate(img, alg, a_map)
    for gid in M.fiber_gids:
        rho[gid] = alg.generator_element(fiber_map[gid])
    images = _d_images(f.target, alg, a_map)
    for gid in M.fiber_gids:
        img = _apply_algebra_map(M.d.images.get(gid, M.algebra.zero()), rho, alg)
        if not img.is_zero():
            images[fiber_map[gid]] = img
    result = _model(alg, images, a_map.values())
    return result, DgaMorphism(M, result, rho)


def relative_tensor(
    M: DgaModel, N: DgaModel
) -> tuple[DgaModel, DgaMorphism, DgaMorphism]:
    """M ⊗_B N for two semifree models over the same base B.

    The bases are matched by provenance; fiber generators whose labels
    collide are tagged with their factor (see add_tagged).  Returns the
    glued model and the two inclusion morphisms.
    """
    m_base = [M.algebra.gen(g) for g in M.base_gids]
    n_base = {N.algebra.gen(g).prov: g for g in N.base_gids}
    if {g.prov for g in m_base} != set(n_base):
        raise ModelError("relative tensor: base generators differ")
    alg = GradedAlgebra(f"({M.algebra.name})⊗_B({N.algebra.name})")
    m_map: dict[int, int] = {}
    n_map: dict[int, int] = {}
    for g in m_base:
        other = N.algebra.gen(n_base[g.prov])
        if other.degree != g.degree:
            raise ModelError(f"base generator {g.name} has mismatched degrees")
        new = alg.add_generator(g.prov, g.degree).gid
        m_map[g.gid] = new
        n_map[other.gid] = new
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
    return result, _inclusion(M, result, m_map), _inclusion(N, result, n_map)


def tensor_model(M: DgaModel, N: DgaModel) -> tuple[DgaModel, DgaMorphism, DgaMorphism]:
    """Plain tensor product of models (over the ground field)."""
    alg, left, right = tensor(M.algebra, N.algebra)
    images = {**_d_images(M, alg, left), **_d_images(N, alg, right)}
    base = [left[g] for g in M.base_gids] + [right[g] for g in N.base_gids]
    result = _model(alg, images, base)
    return result, _inclusion(M, result, left), _inclusion(N, result, right)


def quotient(
    M: DgaModel, kill_keys: Sequence[int | str | Provenance]
) -> tuple[DgaModel, DgaMorphism]:
    """Quotient by the ideal generated by a set of generators, each given
    by id, label or provenance.

    Requires the ideal to be d-stable: every monomial of d(g) for a killed
    generator must itself contain a killed generator.
    """
    kill = {M.algebra.gen(key).gid for key in kill_keys}
    for gid in kill:
        dg = M.d.images.get(gid, M.algebra.zero())
        for mono in dg.terms:
            if not any(f in kill for f, _ in mono):
                g = M.algebra.gen(gid)
                raise ModelError(
                    f"ideal not d-stable: d({g.name}) has a term outside the "
                    f"ideal in degree {g.degree + 1}"
                )
    keep = [g.gid for g in M.algebra.generators if g.gid not in kill]
    alg = GradedAlgebra(f"({M.algebra.name})/I")
    gid_map = _copy_generators(map(M.algebra.gen, keep), alg)
    images: dict[int, Element] = {}
    for gid in keep:
        dg = M.d.images.get(gid, M.algebra.zero())
        kept_terms = {
            mono: c for mono, c in dg.terms.items()
            if not any(f in kill for f, _ in mono)
        }
        if kept_terms:
            images[gid_map[gid]] = translate(
                Element(M.algebra, kept_terms, dg.den), alg, gid_map
            )
    result = _model(alg, images, [gid_map[g] for g in M.base_gids if g in gid_map])
    proj_images = {
        g.gid: (alg.generator_element(gid_map[g.gid]) if g.gid in gid_map
                else alg.zero())
        for g in M.algebra.generators
    }
    proj = DgaMorphism(M, result, proj_images)
    return result, proj


# ---------------------------------------------------------------------------
# transpositions


def _factor_swap(alg: GradedAlgebra, g: Generator) -> Element:
    """The copy of g in the other tensor factor."""
    other = {"L": "R", "R": "L"}.get(g.prov.factor)
    if other is None:
        raise ModelError(f"generator {g.name!r} has no tensor-factor tag")
    return alg.generator_element(replace(g.prov, factor=other))


def square_transposition(square: DgaModel) -> DgaMorphism:
    """The factor swap a⊗b ↦ (-1)^(|a||b|) b⊗a on a tensor square."""
    alg = square.algebra
    images = {g.gid: _factor_swap(alg, g) for g in alg.generators}
    t = DgaMorphism(square, square, images)
    t.check_chain()
    return t


def loop_transposition(path: DgaModel) -> DgaMorphism:
    """The swap on ∧V⊗² extended to the path model by sv ↦ -sv."""
    alg = path.algebra
    images: dict[int, Element] = {}
    for g in alg.generators:
        if g.prov.kind == "susp":
            images[g.gid] = -alg.generator_element(g.gid)
        else:
            images[g.gid] = _factor_swap(alg, g)
    t = DgaMorphism(path, path, images)
    t.check_chain()
    return t
