"""Shriek maps for pure / semi-pure minimal Sullivan models.

A ModuleMap is linear over the base of a semifree model with the Koszul
sign F(b·m) = (-1)^(deg F · |b|) b·F(m), and is recorded by its values on
the fiber monomials.  One unshuffle with that sign serves F, which sums
ρ(b_f)·F(f) into one int accumulator, the fold's ``graded_parts`` and
``on_product``, and the evaluation pairing's cocycle check.  The hom-complex
differential is D(F) = d_target∘F - (-1)^(deg F) F∘d_source, summed into
one such accumulator by cocycle_defects.

Two shrieks are constructed:

* the constant-maps shriek γ! (disk model D over sphere model, k = 2):
  value Π s1_x_i on the full product of the odd suspensions Π s2_y_j,
  zero elsewhere; gamma_value checks γ! and reads its degree alone;
* the diagonal shriek δ! = f (path model over ∧V⊗²): leading value
  Π_j (1⊗y_j - y_j⊗1) + u on Π_i s_x_i with the correction u supported in
  the ideal (y_1⊗y_1, ..., y_q⊗y_q), every other value solved from
  D(f) = 0 by one exact linear solve through fiber degree |Π s_x_i| + 1,
  the smallest that holds the leading monomial (free variables pinned to
  0 in echelon order, which makes the table deterministic), whose
  equations are built on int terms from the Leibniz rows, the leading
  value's fixed part an unknown whose column is the right side.  The solve
  depends on the model alone, and its result is certified a cocycle by
  cocycle_defects, which checks D(f) wherever it can be nonzero.  The
  brane product reads δ! only through its class, which the leading value
  fixes.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Container, Mapping, Sequence

from . import _linalg as la
from .gca_core import Element, GradedAlgebra, Monomial, ONE, Provenance, over_lcm
from .cohomology import class_vector
from .dga_models import (
    DgaModel,
    DgaMorphism,
    ModelError,
    _model,
    disk_model,
    is_minimal,
    path_model,
    quotient,
    sphere_model,
    tensor_model,
    transposition,
)


# ---------------------------------------------------------------------------
# module maps


class ModuleMap(namedtuple("ModuleMap", "source target degree base_images images")):
    """A base-linear map from a semifree model into a module (a model whose
    algebra receives the base through base_images).  The base is the set of
    base_images' keys: source.base_gids for a shriek, and for F⊗id
    (brane_ops._shriek_tensor_id) also every generator of its second factor.

    F(b·f) = (-1)^(deg F · |b|) ρ(b)·F(f) for a base monomial b and a fiber
    monomial f, where ρ is the algebra map given by base_images and F(f) is
    images[f], 0 if absent.  ``_unshuffle`` applies that rule, with ρ a
    relabelling: a base image that is not ± one generator or 0 raises
    ModelError there.  compose_module stores nonzero values only, so a
    composite with no images is zero.

    A record, fixed when it is built as a DgaMorphism is: base_images and
    images are read-only copies, and assigning a field raises
    AttributeError, so the caches it fills on first use cannot go stale.
    """

    def __new__(cls, source: DgaModel, target: DgaModel, degree: int,
                base_images: Mapping[int, Element],  # source base gid -> target element
                images: Mapping[Monomial, Element] | None = None) -> "ModuleMap":
        return super().__new__(cls, source, target, degree, MappingProxyType(dict(base_images)),
                               MappingProxyType(dict(images or {})))

    @cached_property
    def _relabel(self) -> dict[int, tuple[int, int | None]]:
        """ρ as {base gid: (s, g)} with ρ(b) = s·g, s = ±1, or s = 0 for 0."""
        out, tgt = {}, self.target.algebra
        for b, img in self.base_images.items():
            signed = tgt.signed_generator(img)
            if img.terms and signed is None:
                raise ModelError(f"the base image of {self.source.algebra.gen(b).name}"
                                 f" is {img!r}, not ± one generator or 0")
            out[b] = signed or (0, None)
        return out

    @cached_property
    def _base(self) -> tuple[int, int, int, dict]:
        """(the bits of the base fields, of the fields ρ kills, the unit bits
        of those it negates, ρ's gid map on the others)."""
        src, rho = self.source.algebra, self._relabel
        return (src.mask(rho), src.mask(b for b in rho if not rho[b][0]),
                sum(src.units[b] for b in rho if rho[b][0] < 0),
                {b: g for b, (s, g) in rho.items() if s})

    def _unshuffle(
        self, terms: Mapping[Monomial, int], fibers: Container[Monomial] | None = None
    ) -> dict[Monomial, dict[Monomial, int]]:
        """{f: ρ(b_f) as int terms, some maybe 0} over the fiber parts f of
        the int terms Σ c·mono (those in fibers, when given): the terms with
        fiber part f sum to ±b_f·f, and F(Σ c·mono) = Σ_f ρ(b_f)·F(f).

        Each term is unshuffled into its base part b and fiber part f by the
        base fields' bits, with the Koszul sign of moving b's odd factors
        past f's, and F passes b, (-1)^(deg F · |b|); parities and that
        Koszul sign are bit counts over the source's odd bits.  A b with a
        factor that ρ kills is 0, the factors ρ negates give a sign of
        their bit count, and one relabel gives ρ(b)'s monomial and sign.
        """
        base, kill, neg, gid_map = self._base
        src, relabel = self.source.algebra, self.target.algebra.relabel
        parts: dict[Monomial, dict[Monomial, int]] = {}
        for mono, c in terms.items():
            b = mono & base
            f = mono ^ b
            if fibers is None or f in fibers:
                part = parts.setdefault(f, {})
                if b & kill:
                    continue
                s, t = relabel(src, b, gid_map)
                odd = b & src.oddmask
                if ((b & neg).bit_count() + odd.bit_count() * self.degree
                        + (odd and (f & src.koszul_mask(b)).bit_count())) % 2:
                    s = -s
                if s:
                    part[t] = part.get(t, 0) + s * c
        return parts

    def graded_parts(self, e: Element) -> tuple[list, int]:
        """([(f, |f|, den·ρ(b_f) as int terms) over e's fiber parts f], den),
        den = e.den: _unshuffle's parts, with F(e) = Σ_f ρ(b_f)·F(f)."""
        deg = self.source.algebra.monomial_degree
        return [(f, deg(f), b) for f, b in self._unshuffle(e.terms).items()], e.den

    @cached_property
    def _key_degrees(self) -> frozenset[int]:
        """The degrees of images' keys; f·f' is a key only if |f|+|f'| is one."""
        return frozenset(map(self.source.algebra.monomial_degree, self.images))

    def on_product(self, x: tuple[list, int], y: tuple[list, int], y_degree: int) -> Element:
        """F(X·Y) from x = graded_parts(X) and y = graded_parts(Y), for Y
        homogeneous of degree y_degree, with no product formed in the source.

        With X = Σ ±b·f and Y = Σ ±b'·f' over their fiber parts,
        X·Y = Σ ±(-1)^(|f|·|b'|) b·b'·f·f', so F(X·Y) is the sum of
        ε·x[f]·y[f']·images[g] over the f, f' with f·f' = s·g, s ≠ 0 and g
        a key of images, where ε = s·(-1)^(|f|·(y_degree - |f'|)); the
        parts of graded_parts carry the sign (-1)^(deg F · |b|).  The sum
        runs on int terms, as __call__'s, and one Element is built.
        """
        (x, x_den), (y, y_den) = x, y
        (ints, den), degrees = self._image_ints, self._key_degrees
        mul, mul_terms = self.source.algebra.mul_monomials, self.target.algebra.mul_terms
        acc: dict[Monomial, int] = {}
        for f, d, b in x:
            for f2, d2, b2 in y:
                if d + d2 not in degrees:
                    continue
                s, g = mul(f, f2)
                if s and g in ints:
                    if d % 2 and (y_degree - d2) % 2:
                        s = -s
                    mul_terms(acc, mul_terms({}, b, b2), ints[g], s)
        return Element._adopt(self.target.algebra, acc, den * x_den * y_den)

    @cached_property
    def _image_ints(self) -> tuple[dict[Monomial, dict[Monomial, int]], int]:
        """(the nonzero images as int terms over den, den): over_lcm(images)."""
        return over_lcm(self.images)

    def _add_value(self, acc: dict[Monomial, int], terms: Mapping[Monomial, int],
                   scale: int = 1) -> dict[Monomial, int]:
        """acc plus scale·den·F(Σ c·mono) over the int terms, den the images' one."""
        ints, _ = self._image_ints
        mul_terms = self.target.algebra.mul_terms
        for f, part in self._unshuffle(terms, ints).items():
            mul_terms(acc, part, ints[f], scale)
        return acc

    def __call__(self, e: Element) -> Element:
        """F(e) from _add_value over e.den; one Element is built."""
        return Element._adopt(self.target.algebra, self._add_value({}, e.terms),
                              self._image_ints[1] * e.den)


def compose_module(g: DgaMorphism, F: ModuleMap) -> ModuleMap:
    """g∘F for an algebra map g out of F.target.

    g is multiplicative, so g(F(b·m)) = ±g(F(b))·g(F(m)): g∘F is again
    base-linear, with base images g(F.base_images) and values g(F.images),
    of which only the nonzero ones are stored.
    """
    if F.target is not g.source:
        raise ModelError("composition mismatch")
    images = {m: g(img) for m, img in F.images.items()}
    return ModuleMap(F.source, g.target, F.degree,
                     {b: g(img) for b, img in F.base_images.items()},
                     {m: v for m, v in images.items() if v.terms})


def fiber_basis(M: DgaModel, n: int) -> tuple[Monomial, ...]:
    """Degree-n monomials in the fiber generators only, in basis order."""
    return M.algebra.monomials(M.fiber_gids, n)


def cocycle_defects(F: ModuleMap) -> list[str]:
    """The fiber monomials on which D(F) ≠ 0, in order; [] proves D(F) = 0.

    With L the largest fiber degree among F.images' keys and top the largest
    fiber generator degree, D(F) vanishes on every fiber monomial of degree
    above L + top: F is 0 there, and every fiber part of d(mono) has degree
    at least |mono| - top > L.  So D(F) is checked through L + top only.
    """
    if not F.images:
        return []
    alg, d_source, d_target = F.source.algebra, F.source.d, F.target.d
    top = max((alg.gen(g).degree for g in F.source.fiber_gids), default=0)
    # acc: d_target∘F and F∘d_source on mono in one int accumulator, that is
    # den·d_source.den·d_target.den·D(F)(mono), den that of F's values
    scale = -d_target.den if F.degree % 2 == 0 else d_target.den
    defects = []
    for n in range(max(map(alg.monomial_degree, F.images)) + top + 1):
        for mono in fiber_basis(F.source, n):
            acc = d_target._sum(F._add_value({}, {mono: d_source.den}))
            if any(F._add_value(acc, d_source.leibniz(mono), scale).values()):
                defects.append(mono)
    return [alg.monomial_string(m) for m in sorted(defects, key=alg.unpack)]


# ---------------------------------------------------------------------------
# purity


def is_pure(V: DgaModel) -> bool:
    """d(V^even) = 0 and d(V^odd) ⊆ ∧V^even."""
    odd, oddmask = V.algebra.odd, V.algebra.oddmask
    return all(odd[g] and not any(m & oddmask for m in dg.terms)
               for g, dg in V.d.images.items() if dg.terms)


def is_semi_pure(V: DgaModel) -> bool:
    """The ideal generated by V^even is d-stable."""
    odd, oddmask = V.algebra.odd, V.algebra.oddmask
    return all(m & ~oddmask
               for g, dg in V.d.images.items() if not odd[g] for m in dg.terms)


def _suspension_product(alg: GradedAlgebra, V: DgaModel, shift: int, odd: bool) -> Monomial:
    """Π s^shift g over V's generators g of parity odd, in V's order, as
    alg's monomial: every model adds its suspensions in V's order, so that
    product has sign +1."""
    sign, mono = alg.normalize((alg.gen(Provenance("susp", shift, g.name)).gid, 1)
                               for g in V.algebra.generators if g.is_odd == odd)
    assert sign == 1
    return mono


# ---------------------------------------------------------------------------
# γ! — the constant-maps shriek (k = 2)


def gamma_value(V: DgaModel) -> int:
    """γ!'s degree after shriek_gamma_pure's checks in its order, D's degree
    bound among them (M_{S^1} would accept a generator of degree 2), then the
    name clash that building M_{S^1} would raise, read off s¹V's labels."""
    if not is_pure(V):
        raise ModelError("γ! requires a pure model")
    if not is_minimal(V):
        raise ModelError("γ! requires a minimal model")
    if any(g.degree < 3 for g in V.algebra.generators):
        raise ModelError("disk model needs all generator degrees ≥ k+1=3")
    for prov in (Provenance("susp", 1, g.name) for g in V.algebra.generators):
        if V.algebra.has_gen(prov.name):
            raise prov.clash()
    return sum(2 - g.degree if g.is_odd else g.degree - 1 for g in V.algebra.generators)


def shriek_gamma_pure(V: DgaModel) -> ModuleMap:
    """γ! from the disk model D to the sphere model M_{S^1}, of degree gamma_value(V).

    Nonzero only on the full product of the odd suspensions:
    γ!(s2_y_1 ⋯ s2_y_q) = s1_x_1 ⋯ s1_x_p; fiber monomials with an s2_x
    factor (or missing some s2_y) go to zero.
    """
    degree = gamma_value(V)
    sphere, disk = sphere_model(V, 2), disk_model(V, 2)
    value = _suspension_product(sphere.algebra, V, 1, False)
    key = _suspension_product(disk.algebra, V, 2, True)
    base_images = {gid: sphere.algebra.generator_element(disk.algebra.gen(gid).prov)
                   for gid in disk.base_gids}
    return ModuleMap(disk, sphere, degree, base_images, {key: Element(sphere.algebra, {value: 1})})


# ---------------------------------------------------------------------------
# δ! — the diagonal shriek


def delta_degree(V: DgaModel) -> int:
    """δ!'s degree m = Σ|y_j| - Σ(|x_i| - 1), y odd and x even generators:
    the formal dimension of ∧V and the brane product's shift."""
    return sum(g.degree if g.is_odd else 1 - g.degree for g in V.algebra.generators)


def shriek_delta_semipure(V: DgaModel) -> ModuleMap:
    """δ! from the path model to ∧V⊗², solved from D(f) = 0 through fiber
    degree |Π s1_x| + 1 and certified a cocycle by cocycle_defects."""
    if not is_semi_pure(V):
        raise ModelError("δ! requires a semi-pure model")
    if not is_minimal(V):
        raise ModelError("δ! requires a minimal model")
    path = path_model(V)
    square, _, _ = tensor_model(V, V)
    alg = path.algebra
    sq = square.algebra
    r = delta_degree(V)

    lead = _suspension_product(alg, V, 1, False)
    # the two copies y⊗1 and 1⊗y of each odd y in ∧V⊗², and minus their
    # product, -Π_j (1⊗y_j - y_j⊗1) as int terms
    odd_copies = [(sq.gen(g.prov.tagged("L")).gid, sq.gen(g.prov.tagged("R")).gid)
                  for g in V.algebra.generators if g.is_odd]
    known = {ONE: -1}
    for left, right in odd_copies:
        known = sq.mul_terms({}, known, {sq.units[right]: 1, sq.units[left]: -1})
    pairs = [sq.units[left] | sq.units[right] for left, right in odd_copies]

    def in_correction_ideal(mono: Monomial) -> bool:
        return any(mono & both == both for both in pairs)

    base_images = {gid: sq.generator_element(alg.gen(gid).prov) for gid in path.base_gids}

    # D(f) = 0 is written on fiber monomials through |lead|, which reach
    # f's values through |lead| + 1
    fiber_cut = alg.monomial_degree(lead) + 1
    fiber_monos = [(n, mono) for n in range(fiber_cut + 1) for mono in fiber_basis(path, n)]

    # f(mono) = Σ x_i·t_i over the (i, int terms t_i) in unknowns[mono],
    # each t_i one target monomial, and f(lead) has Π_j (1⊗y_j - y_j⊗1) too:
    # unknowns[lead] lists known = -Π first, in column n_vars, the right side
    unknowns: dict[Monomial, list[tuple[int, dict[Monomial, int]]]] = {}
    n_vars = 0
    for n, mono in fiber_monos:
        for tmono in sq.basis(n + r):
            if mono != lead or in_correction_ideal(tmono):
                unknowns.setdefault(mono, []).append((n_vars, {tmono: 1}))
                n_vars += 1
    unknowns.setdefault(lead, []).insert(0, (n_vars, known))

    # one sparse equation per fiber monomial and target monomial t: the
    # coefficient of t in D(f)(mono), with the constant part moved to the
    # right side, column n_vars
    rows: list[la.Row] = []
    sgn_r = -1 if r % 2 else 1
    # f with no values yet: its base images and Koszul signs
    unsolved = ModuleMap(path, square, r, base_images, {})
    for n, mono in fiber_monos:
        if n == fiber_cut:
            continue
        eqs: dict[Monomial, la.Row] = {}

        def add(col: int, terms: dict[Monomial, int], den: int, scale) -> None:
            if den != 1:
                scale = Fraction(scale, den)
            for t, c in terms.items():
                if c:  # b·known may cancel; a zero opens no equation
                    row = eqs.setdefault(t, {})
                    row[col] = row.get(col, 0) + c * scale

        # d_target ∘ f on mono, the Leibniz rows over square.d.den
        for vi, t in unknowns.get(mono, ()):
            add(vi, square.d._sum(t), square.d.den, 1)
        # -(-1)^r f ∘ d_source on mono, d_source over path.d.den
        for f_part, b in unsolved._unshuffle(path.d.leibniz(mono)).items():
            for vi, t in unknowns.get(f_part, ()):
                add(vi, sq.mul_terms({}, b, t), path.d.den, -sgn_r)
        for row in eqs.values():
            row = {j: c for j, c in row.items() if c}
            if row:
                rows.append(row)

    sol = la.solve(rows, n_vars)
    if sol is None:
        raise ModelError("no cocycle with the prescribed leading term")
    images: dict[Monomial, Element] = {}
    for _, mono in fiber_monos:
        val = sq.element({tmono: sol[vi] for vi, t in unknowns.get(mono, ())
                          if vi in sol for tmono in t})
        if mono == lead:
            val = val - Element(sq, known)
        if not val.is_zero():
            images[mono] = val
    f = ModuleMap(path, square, r, base_images, images)
    defects = cocycle_defects(f)
    if defects:
        raise ModelError(f"the solved δ! is not a cocycle: D(δ!) ≠ 0 on {defects[0]}")
    return f


# ---------------------------------------------------------------------------
# evaluation pairings


def evaluation_pairing(
    F: ModuleMap, z: Element, to_quotient: DgaMorphism
) -> tuple[Element, list[Fraction]]:
    """The value G(z) of G = to_quotient∘F and its class in H(Q), Q the
    target of to_quotient, certifying nontriviality of [F].

    Two certificates are checked, each raising ModelError:

    * ρ, the composite base → F.target → Q (G's base action), is a chain
      map: ρ∘d = d∘ρ on every base generator;
    * z is a cocycle after base change along ρ: with dz = Σ_f ±b_f·f over
      its fiber parts f, every ρ(b_f) is 0.
    """
    G = compose_module(to_quotient, F)
    src, Q, rho = F.source, to_quotient.target, G.base_images
    bad = DgaMorphism(src, Q, rho).chain_defects(map(src.algebra.gen, rho))
    if bad:
        raise ModelError(f"base action is not a chain map on {bad[0]}")
    if any(any(b.values()) for b in G._unshuffle(src.d(z).terms).values()):
        raise ModelError("evaluation cycle is not a cocycle after base change")
    ev = G(z)
    n = ev.degree()
    if n is None:
        return ev, []
    return ev, class_vector(Q, n, ev)


def _square_to_quotient(square: DgaModel) -> tuple[DgaModel, DgaMorphism]:
    """ε ⊗ pr: ∧V⊗² → ∧V/(V^even), the quotient by the left copy of V and
    the right copy's even generators."""
    return quotient(square, [g.gid for g in square.algebra.generators
                             if g.prov.factor == "L" or not g.is_odd])


def delta_evaluation(
    V: DgaModel, F: ModuleMap | None = None
) -> tuple[Element, list[Fraction], DgaModel]:
    """Pair δ! against [Π s1_x_i]; expected class [y_1⋯y_q] ≠ 0."""
    f = shriek_delta_semipure(V) if F is None else F
    VQ, to_q = _square_to_quotient(f.target)
    z = f.source.algebra.monomial_element(_suspension_product(f.source.algebra, V, 1, False))
    ev, vec = evaluation_pairing(f, z, to_q)
    return ev, vec, VQ


# ---------------------------------------------------------------------------
# sign laws


def _sign(v: Sequence[Fraction], w: Sequence[Fraction], what: str) -> int:
    """The scalar c = ±1 with w = c v, for v ≠ 0 proportional vectors; a
    c that is not a sign is the error "what: c"."""
    if not any(v):
        raise ModelError("reference evaluation vanishes; pairing degenerate")
    i = next(j for j, c in enumerate(v) if c)
    c = w[i] / v[i]
    if [c * x for x in v] != list(w):
        raise ModelError("evaluations are not proportional")
    if c.denominator != 1 or abs(c.numerator) != 1:
        raise ModelError(f"{what}: {c}")
    return int(c)


def _conjugate(F: ModuleMap, t_source: DgaMorphism, t_target: DgaMorphism) -> ModuleMap:
    """t_target∘F∘t_source on F's keys, with F's base action: conjugation by
    involutions covering each other keeps base-linearity with that action."""
    src = F.source.algebra
    return ModuleMap(F.source, F.target, F.degree, F.base_images,
                     {m: t_target(F(t_source(src.monomial_element(m)))) for m in F.images})


def transposition_sign_loop(V: DgaModel) -> int:
    """ev([t∘f∘t̃] ⊗ [Π s_x_i]) / ev([f] ⊗ [Π s_x_i]); equals (-1)^(p+q)."""
    f = shriek_delta_semipure(V)
    g = _conjugate(f, transposition(f.source), transposition(f.target))
    _, vec_f, _ = delta_evaluation(V, F=f)
    _, vec_g, _ = delta_evaluation(V, F=g)
    return _sign(vec_f, vec_g, "transposition conjugate is not a sign multiple")


def one_generator_ext_sign(gen_degree: int, k: int) -> int:
    """The conjugation sign on the one-generator complex ∧a ⊗ ∧b, d(b) = a.

    a = s^(k-1)v, b = s^k v.  The generator of the relevant Ext is
    f(1) = a when |a| is odd and f(b) = 1 when |a| is even; conjugating by
    the suspension negations gives -f in both cases.
    """
    if k < 2:
        raise ModelError("k must be ≥ 2")
    if gen_degree < k + 1:
        raise ModelError("generator degree must exceed k")
    deg_a = gen_degree - (k - 1)
    deg_b = gen_degree - k
    alg = GradedAlgebra("one-generator")
    a = alg.add_generator(Provenance("susp", k - 1, "v"), deg_a)
    b = alg.add_generator(Provenance("susp", k, "v"), deg_b)
    M = _model(alg, {b.gid: alg.generator_element(a.gid)}, (a.gid,))
    talg = GradedAlgebra("target")
    ta = talg.add_generator(a.prov, deg_a)
    T = _model(talg, {}, (ta.gid,))
    base_images = {a.gid: talg.generator_element(ta.gid)}
    if deg_a % 2:
        f = ModuleMap(M, T, deg_a, base_images, {ONE: talg.generator_element(ta.gid)})
    else:
        f = ModuleMap(M, T, -deg_b, base_images, {alg.units[b.gid]: talg.one()})
    if cocycle_defects(f):
        raise ModelError("internal: the one-generator f is not a cocycle")
    t_bar = DgaMorphism(T, T, {ta.gid: -talg.generator_element(ta.gid)})
    t_hat = DgaMorphism(
        M, M,
        {a.gid: -alg.generator_element(a.gid), b.gid: -alg.generator_element(b.gid)},
    )
    t_hat.check_chain()
    g = _conjugate(f, t_hat, t_bar)
    # t̂ sends each monomial to ± itself, so the conjugate t̄∘f∘t̂ vanishes
    # wherever f does, and the ratio is read on f's values alone
    v, w = [], []
    for mono, fv in f.images.items():
        gv = g.images[mono]
        for m in {**fv.terms, **gv.terms}:
            v.append(fv.coefficient(m))
            w.append(gv.coefficient(m))
    return _sign(v, w, "conjugation scalar is not a sign")
