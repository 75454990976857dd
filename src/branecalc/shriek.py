"""Shriek maps for pure / semi-pure minimal Sullivan models.

A ModuleMap is linear over the base of a semifree model with the Koszul
sign F(b·m) = (-1)^(deg F · |b|) b·F(m), and is recorded by its values on
the fiber monomials.  The hom-complex differential is
D(F) = d_target∘F - (-1)^(deg F) F∘d_source.

Two shrieks are constructed:

* the constant-maps shriek γ! (disk model over sphere model, k = 2):
  value Π s1_x_i on the full product of the odd suspensions Π s2_y_j,
  zero on every other fiber monomial;
* the diagonal shriek δ! = f (path model over ∧V⊗²): leading value
  Π_j (1⊗y_j - y_j⊗1) + u on Π_i s_x_i with the correction u supported in
  the ideal (y_1⊗y_1, ..., y_q⊗y_q), every other value solved from
  D(f) = 0 by a global exact linear solve (free variables pinned to 0 in
  echelon order, which makes the table deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from types import MappingProxyType
from typing import Container, Mapping, Sequence

from . import _linalg as la
from .gca_core import (
    Element, GradedAlgebra, Monomial, ONE, Provenance, linear_combination)
from .cohomology import class_vector
from .dga_models import (
    Derivation,
    DgaModel,
    DgaMorphism,
    ModelError,
    _apply_algebra_map,
    base_change,
    base_model,
    disk_model,
    is_minimal,
    loop_transposition,
    path_model,
    quotient,
    sphere_model,
    square_transposition,
    tensor_model,
)


# ---------------------------------------------------------------------------
# Gorenstein bookkeeping


@dataclass(frozen=True)
class GorensteinInfo:
    """Formal dimensions: p/q even/odd generator counts, m, and m̄."""

    p: int
    q: int
    m: int
    m_bar: int


def gorenstein_info(
    V: DgaModel, k: int, m: int | None = None, m_bar: int | None = None
) -> GorensteinInfo:
    """Derive (p, q, m, m̄) for ∧V, with parity checks on overrides.

    Defaults: m = Σ|y_j| - Σ(|x_i| - 1) over odd generators y and even
    generators x; m̄ = Σ_v c(v) with c(v) = a when a := |v| - (k-1) is odd
    and 1 - a otherwise.  Only the parities of m and m̄ are pinned by the
    theory (m ≡ p+q, m̄ ≡ dim V mod 2), so both may be overridden.
    """
    evens = [g for g in V.algebra.generators if not g.is_odd]
    odds = [g for g in V.algebra.generators if g.is_odd]
    p, q = len(evens), len(odds)
    m_default = sum(g.degree for g in odds) - sum(g.degree - 1 for g in evens)
    contrib = []
    for g in V.algebra.generators:
        a = g.degree - (k - 1)
        contrib.append(a if a % 2 else 1 - a)
    m_bar_default = sum(contrib)
    if m is None:
        m = m_default
    elif (m - (p + q)) % 2:
        raise ModelError(f"m={m} has the wrong parity (p+q={p + q})")
    if m_bar is None:
        m_bar = m_bar_default
    elif (m_bar - (p + q)) % 2:
        raise ModelError(f"m̄={m_bar} has the wrong parity (dim V={p + q})")
    return GorensteinInfo(p, q, m, m_bar)


# ---------------------------------------------------------------------------
# module maps


@dataclass
class ModuleMap:
    """A base-linear map from a semifree model into a module (a model whose
    algebra receives the base through base_images).  The base is the set of
    base_images' keys: source.base_gids for a shriek, and for F⊗id
    (brane_ops._shriek_tensor_id) also every generator of its second factor.

    F(b·f) = (-1)^(deg F · |b|) ρ(b)·F(f) for a base monomial b and a fiber
    monomial f, where ρ is the algebra map given by base_images (a read-only
    copy, fixed when the map is built) and F(f) is images[f], 0 if absent.
    ``by_fiber`` is where that rule is applied.
    """

    source: DgaModel
    target: DgaModel
    degree: int
    base_images: Mapping[int, Element]  # source base gid -> target element
    images: dict[Monomial, Element] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.base_images = MappingProxyType(dict(self.base_images))

    def by_fiber(
        self, e: Element, fibers: Container[Monomial] | None = None
    ) -> dict[Monomial, Element]:
        """{f: ρ(b_f)} over the fiber parts f of e's terms (those in fibers,
        when given), where e's terms with fiber part f sum to ±b_f·f and
        the signs make F(e) = Σ_f ρ(b_f)·F(f).

        Each term is unshuffled into its base part b and fiber part f (the
        Koszul sign of moving b's odd factors past f's), and F passes b,
        (-1)^(deg F · |b|); parities are read from the algebra's odd.
        """
        odd, base = self.source.algebra.odd, self.base_images
        parts: dict[Monomial, dict[Monomial, int]] = {}
        for mono, c in e.terms.items():
            b: list[tuple[int, int]] = []
            f: list[tuple[int, int]] = []
            b_odd = f_odd = False
            for gid, exp in mono:
                if gid in base:
                    b.append((gid, exp))
                    if odd[gid]:
                        b_odd = not b_odd
                        if f_odd:
                            c = -c
                else:
                    f.append((gid, exp))
                    if odd[gid]:
                        f_odd = not f_odd
            fiber = tuple(f)
            if fibers is None or fiber in fibers:
                parts.setdefault(fiber, {})[tuple(b)] = (
                    -c if b_odd and self.degree % 2 else c)
        src, tgt = self.source.algebra, self.target.algebra
        return {f: _apply_algebra_map(Element(src, b, e.den), base, tgt)
                for f, b in parts.items()}

    def __call__(self, e: Element) -> Element:
        return linear_combination(self.target.algebra, (
            (1, b * self.images[f])
            for f, b in self.by_fiber(e, self.images).items()))


def compose_module(g: DgaMorphism, F: ModuleMap) -> ModuleMap:
    """g∘F for an algebra map g out of F.target.

    g is multiplicative, so g(F(b·m)) = ±g(F(b))·g(F(m)): g∘F is again
    base-linear, with base images g(F.base_images) and values g(F.images).
    """
    if F.target is not g.source:
        raise ModelError("composition mismatch")
    return ModuleMap(F.source, g.target, F.degree,
                     {b: g(img) for b, img in F.base_images.items()},
                     {m: g(img) for m, img in F.images.items()})


def fiber_basis(M: DgaModel, n: int) -> tuple[Monomial, ...]:
    """Degree-n monomials in the fiber generators only."""
    base = set(M.base_gids)
    return tuple(
        m for m in M.algebra.basis(n) if all(g not in base for g, _ in m)
    )


def hom_differential(F: ModuleMap, max_fiber_degree: int) -> ModuleMap:
    """D(F) = d∘F - (-1)^deg F F∘d, tabulated on fiber monomials."""
    r = F.degree
    sgn = -1 if r % 2 else 1
    images: dict[Monomial, Element] = {}
    for n in range(max_fiber_degree + 1):
        for mono in fiber_basis(F.source, n):
            val = (
                F.target.d(F(F.source.algebra.monomial_element(mono)))
                - F(F.source.d(F.source.algebra.monomial_element(mono))) * sgn
            )
            if not val.is_zero():
                images[mono] = val
    return ModuleMap(F.source, F.target, r + 1, F.base_images, images)


def cocycle_defects(F: ModuleMap, max_fiber_degree: int) -> list[str]:
    D = hom_differential(F, max_fiber_degree)
    return [F.source.algebra.monomial_string(m) for m in sorted(D.images)]


# ---------------------------------------------------------------------------
# purity


def is_pure(V: DgaModel) -> bool:
    """d(V^even) = 0 and d(V^odd) ⊆ ∧V^even."""
    alg = V.algebra
    for g in alg.generators:
        dg = V.d.images.get(g.gid, alg.zero())
        if not g.is_odd:
            if not dg.is_zero():
                return False
        else:
            for mono in dg.terms:
                if any(alg.gen(f).is_odd for f, _ in mono):
                    return False
    return True


def is_semi_pure(V: DgaModel) -> bool:
    """The ideal generated by V^even is d-stable."""
    alg = V.algebra
    for g in alg.generators:
        if g.is_odd:
            continue
        dg = V.d.images.get(g.gid, alg.zero())
        for mono in dg.terms:
            if not any(not alg.gen(f).is_odd for f, _ in mono):
                return False
    return True


# ---------------------------------------------------------------------------
# γ! — the constant-maps shriek (k = 2)


def shriek_gamma_pure(V: DgaModel) -> ModuleMap:
    """γ! from the disk model to the sphere model (k = 2 shape).

    Nonzero only on the full product of the odd suspensions:
    γ!(s2_y_1 ⋯ s2_y_q) = s1_x_1 ⋯ s1_x_p; fiber monomials containing any
    s2_x factor (or missing some s2_y) go to zero.
    """
    if not is_pure(V):
        raise ModelError("γ! requires a pure model")
    if not is_minimal(V):
        raise ModelError("γ! requires a minimal model")
    disk = disk_model(V, 2)
    sphere = sphere_model(V, 2)
    evens = [g for g in V.algebra.generators if not g.is_odd]
    odds = [g for g in V.algebra.generators if g.is_odd]
    key_raw = [(disk.algebra.gen(Provenance("susp", 2, g.name)).gid, 1) for g in odds]
    sign, key = disk.algebra.normalize(key_raw)
    assert sign == 1
    value = sphere.algebra.one()
    for g in evens:
        value = value * sphere.algebra.generator_element(Provenance("susp", 1, g.name))
    degree = (
        sum(g.degree - 1 for g in evens) - sum(g.degree - 2 for g in odds)
    )
    base_images = {
        gid: sphere.algebra.generator_element(disk.algebra.gen(gid).prov)
        for gid in disk.base_gids
    }
    return ModuleMap(disk, sphere, degree, base_images, {key: value})


# ---------------------------------------------------------------------------
# δ! — the diagonal shriek


def delta_cutoff(V: DgaModel, max_degree: int) -> int:
    """The δ! solve's cutoff for tables through max_degree.

    δ! has degree r and leading fiber monomial Π s1_x; the solve covers one
    fiber degree past both the table and that monomial, so that every
    D(f) = 0 equation the table depends on is written.
    """
    lead = sum(g.degree - 1 for g in V.algebra.generators if not g.is_odd)
    r = sum(g.degree for g in V.algebra.generators if g.is_odd) - lead
    return max(r, 0) + max(max_degree, lead) + 1


def shriek_delta_semipure(V: DgaModel, cutoff: int) -> ModuleMap:
    """δ! from the path model to ∧V⊗², solved from D(f) = 0 up to cutoff."""
    if not is_semi_pure(V):
        raise ModelError("δ! requires a semi-pure model")
    if not is_minimal(V):
        raise ModelError("δ! requires a minimal model")
    path = path_model(V)
    square, _, _ = tensor_model(V, V)
    alg = path.algebra
    sq = square.algebra
    evens = [g for g in V.algebra.generators if not g.is_odd]
    odds = [g for g in V.algebra.generators if g.is_odd]
    r = sum(g.degree for g in odds) - sum(g.degree - 1 for g in evens)

    lead_raw = [(alg.gen(Provenance("susp", 1, g.name)).gid, 1) for g in evens]
    sign, lead = alg.normalize(lead_raw)
    assert sign == 1
    # the two copies y⊗1 and 1⊗y of each odd y in ∧V⊗²
    odd_copies = [
        (sq.gen(g.prov.tagged("L")).gid, sq.gen(g.prov.tagged("R")).gid)
        for g in odds
    ]
    known = sq.one()
    for left, right in odd_copies:
        known = known * (sq.generator_element(right) - sq.generator_element(left))

    def in_correction_ideal(mono: Monomial) -> bool:
        gids = {g for g, _ in mono}
        return any(left in gids and right in gids for left, right in odd_copies)

    base_images = {
        gid: sq.generator_element(alg.gen(gid).prov) for gid in path.base_gids
    }

    fiber_cut = max(cutoff - max(r, 0), 0)
    fiber_monos: list[Monomial] = []
    for n in range(fiber_cut + 1):
        fiber_monos.extend(fiber_basis(path, n))
    if lead not in fiber_monos:
        raise ModelError("cutoff too small to hold the leading fiber monomial")

    # f(mono) = fixed[mono] + Σ x_i·tmono over (i, tmono) in unknowns[mono]
    fixed: dict[Monomial, Element] = {lead: known}
    unknowns: dict[Monomial, list[tuple[int, Monomial]]] = {}
    n_vars = 0
    for mono in fiber_monos:
        for tmono in sq.basis(alg.monomial_degree(mono) + r):
            if mono != lead or in_correction_ideal(tmono):
                unknowns.setdefault(mono, []).append((n_vars, tmono))
                n_vars += 1

    def image_as_linear(mono: Monomial):
        return fixed.get(mono, sq.zero()), unknowns.get(mono, [])

    # one sparse equation per fiber monomial and target monomial t: the
    # coefficient of t in D(f)(mono), with the constant part moved to the
    # right side, column n_vars
    rows: list[la.Row] = []
    sgn_r = -1 if r % 2 else 1
    # f with no values yet: its base images and Koszul signs
    unsolved = ModuleMap(path, square, r, base_images, {})
    for mono in fiber_monos:
        n = alg.monomial_degree(mono)
        if n + 1 > fiber_cut:
            # d(mono) can reach fiber degree n+1, beyond the table
            continue
        eqs: dict[Monomial, la.Row] = {}

        def add(col: int, e: Element, scale) -> None:
            if e.den != 1:
                scale = Fraction(scale, e.den)
            for t, c in e.terms.items():
                row = eqs.setdefault(t, {})
                row[col] = row.get(col, 0) + c * scale

        # d_target ∘ f on mono
        const, vlist = image_as_linear(mono)
        if not const.is_zero():
            add(n_vars, square.d(const), -1)
        for vi, tmono in vlist:
            add(vi, square.d(sq.monomial_element(tmono)), 1)
        # -(-1)^r f ∘ d_source on mono
        dmono = path.d(alg.monomial_element(mono))
        for f_part, b_elem in unsolved.by_fiber(dmono).items():
            if alg.monomial_degree(f_part) > fiber_cut:
                # cannot happen: |f_part| <= n+1 <= fiber_cut by construction
                raise ModelError("internal: fiber monomial outside the table")
            const_f, vlist_f = image_as_linear(f_part)
            if not const_f.is_zero():
                add(n_vars, b_elem * const_f, sgn_r)
            for vi, tmono in vlist_f:
                add(vi, b_elem * sq.monomial_element(tmono), -sgn_r)
        for row in eqs.values():
            row = {j: c for j, c in row.items() if c}
            if row:
                rows.append(row)

    sol = la.solve(rows, n_vars)
    if sol is None:
        raise ModelError(
            "no cocycle with the prescribed leading term within the cutoff; "
            "either the model is not semi-pure/minimal or the cutoff is too small"
        )
    images: dict[Monomial, Element] = {}
    for mono in fiber_monos:
        val = fixed.get(mono, sq.zero()) + sq.element(
            {tmono: sol[vi] for vi, tmono in unknowns.get(mono, []) if vi in sol})
        if not val.is_zero():
            images[mono] = val
    return ModuleMap(path, square, r, base_images, images)


# ---------------------------------------------------------------------------
# evaluation pairings


def evaluation_pairing(
    F: ModuleMap,
    z: Element,
    to_quotient: DgaMorphism,
    Q: DgaModel,
) -> tuple[Element, list[Fraction]]:
    """Class of (F ⊗_B id)(z) in H(Q), certifying nontriviality of [F].

    z must be a cocycle after base change along the composite
    base(F.source) → F.target → Q; this is verified.
    """
    base, gid_map = base_model(F.source)
    images = {
        gid_map[gid]: to_quotient(F.base_images[gid]) for gid in F.source.base_gids
    }
    to_q = DgaMorphism(base, Q, images)
    to_q.check_chain()
    changed, push = base_change(F.source, to_q)
    zbar = push(z)
    if not changed.d(zbar).is_zero():
        raise ModelError("evaluation cycle is not a cocycle after base change")
    ev = to_quotient(F(z))
    n = ev.degree()
    if n is None:
        return ev, []
    return ev, class_vector(Q, n, ev)


def gamma_evaluation(V: DgaModel) -> tuple[Element, list[Fraction], DgaModel]:
    """Pair γ! against [Π s2_y_j ⊗ 1] in ∧s1V^even = sphere/(V, s1V^odd)."""
    gs = shriek_gamma_pure(V)
    odds = [g.name for g in V.algebra.generators if g.is_odd]
    kill = [g.prov for g in V.algebra.generators]
    kill += [Provenance("susp", 1, nm) for nm in odds]
    Q, proj = quotient(gs.target, kill)
    z = gs.source.algebra.one()
    for nm in odds:
        z = z * gs.source.algebra.generator_element(Provenance("susp", 2, nm))
    ev, vec = evaluation_pairing(gs, z, proj, Q)
    return ev, vec, Q


def _square_to_quotient(square: DgaModel, V: DgaModel) -> tuple[DgaMorphism, DgaModel]:
    """ε ⊗ pr: ∧V⊗² → ∧V/(V^even)."""
    VQ, _ = quotient(V, [g.prov for g in V.algebra.generators if not g.is_odd])
    images: dict[int, Element] = {}
    for g in square.algebra.generators:
        v = replace(g.prov, factor=None)
        images[g.gid] = (
            VQ.algebra.generator_element(v)
            if g.prov.factor == "R" and VQ.algebra.has_gen(v)
            else VQ.algebra.zero()
        )
    to_q = DgaMorphism(square, VQ, images)
    to_q.check_chain()
    return to_q, VQ


def delta_evaluation(
    V: DgaModel, cutoff: int, F: ModuleMap | None = None
) -> tuple[Element, list[Fraction], DgaModel]:
    """Pair δ! against [Π s1_x_i]; expected class [y_1⋯y_q] ≠ 0."""
    f = shriek_delta_semipure(V, cutoff) if F is None else F
    square = f.target
    to_q, VQ = _square_to_quotient(square, V)
    z = f.source.algebra.one()
    for g in V.algebra.generators:
        if not g.is_odd:
            z = z * f.source.algebra.generator_element(Provenance("susp", 1, g.name))
    ev, vec = evaluation_pairing(f, z, to_q, VQ)
    return ev, vec, VQ


# ---------------------------------------------------------------------------
# sign laws


def _ratio(v: Sequence[Fraction], w: Sequence[Fraction]) -> Fraction:
    """The scalar c with w = c v, for v ≠ 0 proportional vectors."""
    if not any(v):
        raise ModelError("reference evaluation vanishes; pairing degenerate")
    i = next(j for j, c in enumerate(v) if c)
    c = w[i] / v[i]
    if [c * x for x in v] != list(w):
        raise ModelError("evaluations are not proportional")
    return c


def transposition_sign_loop(V: DgaModel, cutoff: int) -> int:
    """ev([t∘f∘t̃] ⊗ [Π s_x_i]) / ev([f] ⊗ [Π s_x_i]); equals (-1)^(p+q)."""
    f = shriek_delta_semipure(V, cutoff)
    t = square_transposition(f.target)
    t_tilde = loop_transposition(f.source)
    g_images = {
        mono: t(f(t_tilde(f.source.algebra.monomial_element(mono))))
        for mono in f.images
    }
    # conjugation by involutions covering each other keeps base-linearity
    # with the same identity base action
    g = ModuleMap(f.source, f.target, f.degree, f.base_images, g_images)
    _, vec_f, _ = delta_evaluation(V, cutoff, F=f)
    _, vec_g, _ = delta_evaluation(V, cutoff, F=g)
    c = _ratio(vec_f, vec_g)
    if c.denominator != 1 or abs(c.numerator) != 1:
        raise ModelError(f"transposition conjugate is not a sign multiple: {c}")
    return int(c)


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
    d = Derivation(alg, 1, {b.gid: alg.generator_element(a.gid)})
    M = DgaModel(alg, d, (a.gid,))
    M.check()
    talg = GradedAlgebra("target")
    ta = talg.add_generator(a.prov, deg_a)
    T = DgaModel(talg, Derivation(talg, 1, {}), (ta.gid,))
    base_images = {a.gid: talg.generator_element(ta.gid)}
    if deg_a % 2:
        f = ModuleMap(M, T, deg_a, base_images, {ONE: talg.generator_element(ta.gid)})
    else:
        f = ModuleMap(M, T, -deg_b, base_images, {((b.gid, 1),): talg.one()})
    bound = 4 * max(deg_b, 1)
    if cocycle_defects(f, bound):
        raise ModelError("internal: the one-generator f is not a cocycle")
    t_bar = DgaMorphism(T, T, {ta.gid: -talg.generator_element(ta.gid)})
    t_hat = DgaMorphism(
        M, M,
        {a.gid: -alg.generator_element(a.gid), b.gid: -alg.generator_element(b.gid)},
    )
    t_hat.check_chain()
    ratios = []
    for n in range(bound + 1):
        for mono in fiber_basis(M, n):
            fv = f(alg.monomial_element(mono))
            gv = t_bar(f(t_hat(alg.monomial_element(mono))))
            if fv.is_zero() and gv.is_zero():
                continue
            if fv.is_zero():
                raise ModelError("conjugate is not a scalar multiple of f")
            m0 = min(fv.terms)
            c = gv.coefficient(m0) / fv.coefficient(m0)
            if gv != fv * c:
                raise ModelError("conjugate is not a scalar multiple of f")
            ratios.append(c)
    if len(set(ratios)) != 1:
        raise ModelError("conjugate is not a scalar multiple of f")
    c = ratios[0]
    if c.denominator != 1 or abs(c.numerator) != 1:
        raise ModelError(f"conjugation scalar is not a sign: {c}")
    return int(c)
