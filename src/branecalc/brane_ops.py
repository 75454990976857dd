"""The brane product/coproduct pipelines and the diagram checkers.

Each operation is a zigzag of maps between gluing models.  Write M_{S^k}
for the sphere model, D for the 2-disk model (semifree over M_{S^1}),
G = D ⊗_{M_{S^1}} D for the glued double disk and P for the path model of
∧V over ∧V⊗².  Then, with ← marking the one backward arrow of each,

* product μ∨ (k ≥ 2):
  M_{S^k} →pinch M_{S^k} ⊗_{∧V} M_{S^k}
  ←collapse P ⊗_{∧V⊗²} M_{S^k}⊗² →δ!⊗id M_{S^k}⊗²,
  where the pinch S^k → S^k ∨ S^k sends v ↦ v and s^k v ↦ s^k v@L + s^k v@R;
* coproduct δ∨ (k = 2), on pairs a⊗b of state classes:
  M_{S^k} ⇉left,right M_{S^k} ⊗_{∧V} M_{S^k} ←collapse D ⊗_{M_{S^1}} G
  →γ!⊗id G →glue M_{S^k},
  where left and right are identify∘(the inclusions of M_{S^k}⊗²), so
  a⊗b goes to left(a)·right(b) and the square is never built, and γ!
  exists because M → M^{S^1} has finite codimension.

The coproduct's middle model, ∧V ⊗_{M_{S^1}} G, is the quotient of G by
s¹V, generator for generator the product's M_{S^k} ⊗_{∧V} M_{S^k}: both
pipelines glue through one model, relative_tensor(state, state), which
the coproduct builds only when it evaluates a pair.

The backward arrow f is a surjective quasi-isomorphism onto a Sullivan
algebra, so it has a section σ, a chain map with f∘σ = id
(cohomology.section, the lifting lemma), and H(σ) = H(f)⁻¹.  With f
replaced by σ, an operation is one composite of chain maps, applied to
cocycles, and classes are read only at its two ends: the state model's
class basis, and at the square end pairs of state classes, as
H(M_{S^k}⊗²) = H⊗H (Künneth) is never computed.  The product
applies its composite to each state representative and reads the value of
δ!⊗id off with π⊗π (Kunneth.coordinates).  The coproduct takes the class in
the state model of the image of each pair a⊗b, and forms no product per
pair.  left, right and the collapse section are algebra maps, so a⊗b goes
to the product of two per-class images; glue is an algebra map too, so
glue∘(γ!⊗id) is one module map F (shriek.compose_module), built once.
Each class image is split into its fiber parts, int terms over its
denominator, once (ModuleMap.graded_parts), and F of the product is summed
on ints off the pairs of parts whose product is a fiber monomial where F
has a value (ModuleMap.on_product).  The shift r is
γ!'s degree.  As (γ!⊗id)(a·b) = γ!(a)·b, F has a value exactly when glue
keeps γ!'s one value Π s1_x, x over the even generators, which glue sends
to 0: so only when ∧V has no even generator are M_{S^1}, D, γ! and F
built.  Otherwise δ∨ is 0, shriek.gamma_value checks γ! and reads r, and
the table's keys come from the state's Betti numbers (cohomology.betti).
With a fold, a pair of total degree n is evaluated only when H^(n+r) of
the state is nonzero, and the pair maps (the middle model, the collapse
section, left and right) are built for the first pair evaluated.  No
model in between gets a cohomology basis.

Every morphism is fixed by generator provenance alone (see _gluing_map).

Sign conventions fixed here (and verified by the chain-map checks and the
golden tests):

* every identification between the glued double-disk object and a standard
  sphere-type model reverses the orientation of the second hemisphere,
  i.e. carries -1 on the right copy's top suspension generators;
* the transposition on a tensor square includes the Koszul swap sign,
  while the transposition on the mapping-space model itself acts as the
  identity on cohomology;
* dualizing to (shifted) homology uses H_n = (H^n)^dual, the evaluation
  pairing <α⊗β, a⊗b> = (-1)^(|β||a|) α(a)β(b), dual maps with the sign
  (-1)^(|f||ψ|) ψ∘f, and a degree shift by m; _signed puts the sign on each
  entry.  The shifts are the tables' own: m = δ!'s degree for μ∨ and
  r = m̄ = γ!'s degree for δ∨.  In the shifted degree ‖a‖ = |a| - m, μ has
  degree 0 and δ degree -(m + r), even as r ≡ m (mod 2); so every law on
  signed tables is sign-free but for the Koszul swap, _swap.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from typing import Callable

from .gca_core import Element, linear_combination, translate
from .cohomology import betti, class_vector, cohomology_basis, projection, section
from .dga_models import (
    DgaModel,
    DgaMorphism,
    ModelError,
    compose,
    relative_tensor,
    sphere_model,
    tensor_model,
)
from .shriek import (
    ModuleMap,
    compose_module,
    gamma_value,
    shriek_delta_semipure,
    shriek_gamma_pure,
)

F0 = Fraction(0)

Label = tuple[int, int]  # (degree, index) into H^degree of the state model
Pair = tuple[Label, Label]


# ---------------------------------------------------------------------------
# Künneth bookkeeping on the tensor square


class Kunneth:
    """Pairs of H(A)-classes as classes of square, for (square, left, right)
    = tensor_model(A, A), with no cohomology of the square: coordinates
    reads them as π⊗π, π the monomial-to-class map CohomologyBasis.projection
    of A.  The gid maps left and right are checked, not kept: tensor_model
    puts A's gid g at g in the left copy and at n + g in the right, n the
    number of A's generators, so a square monomial is the product, with no
    sign, of its low n fields (its left half) and the fields above; π has
    degree 0, so π⊗π adds no Koszul sign either.
    """

    # shift: the bits of the left copy's fields, low: their mask; _pi: state
    # monomial -> projection(state, it), cached
    __slots__ = ("state", "square", "shift", "low", "_pi")

    def __init__(self, state: DgaModel, square: DgaModel,
                 left: dict[int, int], right: dict[int, int]) -> None:
        n = len(state.algebra.odd)
        if any(left[g] != g or right[g] != n + g for g in range(n)):
            raise ModelError("the square's generators are not the left copy, then the right")
        self.state = state
        self.square = square
        self.shift = n * square.algebra.width
        self.low = (1 << self.shift) - 1
        self._pi = {}

    def coordinates(self, z: Element) -> dict[Pair, Fraction]:
        """(π⊗π)(z): the pair coordinates of the class of a square cocycle,
        summed on ints; a pair of degrees (da, db) has the denominator
        z.den times those of π on H^da and H^db."""
        if not self.square.d(z).is_zero():
            raise ModelError(f"element is not a cocycle of the square: {z!r}")
        low, shift, pi, dens = self.low, self.shift, self._pi, {}
        acc: dict[Pair, int] = {}
        for mono, c in z.terms.items():
            (da, pa, qa), (db, pb, qb) = (
                pi.get(h) or pi.setdefault(h, projection(self.state, h))
                for h in (mono & low, mono >> shift))
            dens[da], dens[db] = qa, qb
            for ia, ca in pa.items():
                ca *= c
                for ib, cb in pb.items():
                    key = ((da, ia), (db, ib))
                    acc[key] = acc.get(key, 0) + ca * cb
        return {(a, b): Fraction(x, dens[a[0]] * dens[b[0]] * z.den)
                for (a, b), x in acc.items() if x}


def class_pairs(dims: list[int], n: int) -> list[Pair]:
    """The pairs of state classes of total degree n, in (left degree,
    indices) order, with dims[d] = dim H^d of the state for d ≤ n."""
    return [((da, ia), (n - da, ib)) for da in range(n + 1)
            for ia in range(dims[da]) for ib in range(dims[n - da])]


# ---------------------------------------------------------------------------
# zigzags as chain maps


# Where _gluing_map sends a copy of the top suspension s^k v, by its factor
# ("L", "R", or None for a sphere's one copy): to the sum of the listed
# target copies with their signs, or to 0 when absent.  _IDENTIFY reverses
# the second hemisphere; _PINCH models the pinch S^k → S^k ∨ S^k.
_IDENTIFY = {"L": (("L", 1),), "R": (("R", -1),)}
_COLLAPSE = {"L": (("L", 1),), "R": (("R", 1),)}
_GLUE = {"R": ((None, -1),)}
_PINCH = {None: (("L", 1), ("R", 1))}


def _gluing_map(src: DgaModel, dst: DgaModel, top: int, tops: dict) -> DgaMorphism:
    """The chain map src → dst fixed by generator provenance.

    A base generator goes to dst's base generator of the same origin, so
    the two copies of ∧V in ∧V⊗² multiply together; the copies of s^top v
    go where tops says; every other suspension (lower shifts, the path
    model's sV, a fresh disk's s^top V) goes to 0.
    """
    gen = dst.algebra.generator_element
    images: dict[int, Element] = {}
    for g in src.algebra.generators:
        p = g.prov
        if p.kind == "base":
            images[g.gid] = gen(p._replace(factor=None))
            continue
        targets = tops.get(p.factor, ()) if p.shift == top else ()
        images[g.gid] = linear_combination(dst.algebra, (
            (sign, gen(p._replace(factor=factor))) for factor, sign in targets))
    f = DgaMorphism(src, dst, images)
    f.check_chain()
    return f


def _shriek_tensor_id(F: ModuleMap, N: DgaModel) -> ModuleMap:
    """F ⊗ id: F.source ⊗_B N → N, linear over all of N.

    F is a shriek over its base B, and N is semifree over a copy of
    F.target: each generator of F.target is the generator of N with its
    provenance.  The base (base_images' keys) is every generator from N,
    so the images are F's own values: (F ⊗ id)(a·b) = F(a)·b.
    """
    glued, f_gid, n_gid = relative_tensor(F.source, N)
    to_n = {g.gid: N.algebra.gen(g.prov).gid for g in F.target.algebra.generators}
    base_images = {new: N.algebra.generator_element(g) for g, new in n_gid.items()}
    images = {}
    for a, value in F.images.items():
        sign, mono = glued.algebra.relabel(F.source.algebra, a, f_gid)
        images[mono] = translate(value, N.algebra, to_n) * sign
    return ModuleMap(glued, N, F.degree, base_images, images)


# ---------------------------------------------------------------------------
# operations


class BraneOperation(namedtuple("BraneOperation", (
    "kind",  # "product-dual" | "coproduct-dual"
    "shift", "max_degree", "state",
    # product-dual:  table[c][(a, b)] = coefficient of a⊗b in μ∨(c)
    # coproduct-dual: table[(a, b)][c] = coefficient of c in δ∨(a⊗b)
    "table",
))):
    __slots__ = ()

    def rep_string(self, label: Label) -> str:
        n, i = label
        return repr(cohomology_basis(self.state, n).representatives[i])


def brane_product_dual(V: DgaModel, k: int, max_degree: int = 8) -> BraneOperation:
    """The dual brane product μ∨: H^n(M_{S^k}) → H^(n+m)(M_{S^k}⊗²)."""
    if k < 2:
        raise ModelError("the product pipeline needs k ≥ 2")
    if any(g.degree <= k for g in V.algebra.generators):
        # sphere_model checks this too; the product's message names k
        raise ModelError(f"the product at k={k} needs every generator degree ≥ {k + 1}")
    state = sphere_model(V, k + 1)
    kun = Kunneth(state, *tensor_model(state, state))
    delta = shriek_delta_semipure(V)
    shriek = _shriek_tensor_id(delta, kun.square)
    (to_path,) = _collapse_lifts(state, shriek.source, k, "path-model quasi-isomorphism",
                                 [_PINCH])
    table: dict[Label, dict[Pair, Fraction]] = {}
    for n in range(max_degree + 1):
        for i, rep in enumerate(cohomology_basis(state, n).representatives):
            table[(n, i)] = kun.coordinates(shriek(to_path(rep)))
    return BraneOperation("product-dual", delta.degree, max_degree, state, table)


def _coproduct_fold(gamma: ModuleMap, state: DgaModel, k: int) -> ModuleMap:
    """The fold glue∘(γ!⊗id), one module map D ⊗_{M_{S^1}} G → M_{S^k}
    of γ!'s degree, the shift r of δ∨.  brane_coproduct_dual builds it only
    when glue keeps γ!'s value, that is, when ∧V has no even generator."""
    double, _, _ = relative_tensor(gamma.source, gamma.source)
    shriek = _shriek_tensor_id(gamma, double)
    glue = _gluing_map(double, state, k, _GLUE)
    return compose_module(glue, shriek)


def _collapse_lifts(state: DgaModel, source: DgaModel, k: int, stage: str,
                    tables: list[dict]) -> list[DgaMorphism]:
    """The lifts through the collapse, one per gluing table: the section of
    the collapse source → M_{S^k} ⊗_{∧V} M_{S^k}, built once, after each
    gluing map out of the state that a table fixes.  The product lifts the
    pinch; the coproduct lifts left and right, each identify∘(an inclusion
    of M_{S^k}⊗²), so that δ∨(a⊗b) is the class of folded(left(a)·right(b))
    and the square is never built."""
    spheres, _, _ = relative_tensor(state, state)
    collapse = section(_gluing_map(source, spheres, k, _COLLAPSE), stage)
    return [compose(collapse, _gluing_map(state, spheres, k, table)) for table in tables]


def _class_parts(f: DgaMorphism, F: ModuleMap) -> Callable[[Label], tuple]:
    """label ↦ F.graded_parts(f(its representative)), computed on first use."""

    @cache
    def parts(label: Label) -> tuple:
        n, i = label
        return F.graded_parts(f(cohomology_basis(f.source, n).representatives[i]))
    return parts


def brane_coproduct_dual(V: DgaModel, k: int, max_degree: int = 8) -> BraneOperation:
    """The dual brane coproduct δ∨: H^n(M_{S^k}⊗²) → H^(n+m̄)(M_{S^k})."""
    if k != 2:
        raise ModelError("the coproduct pipeline is implemented for k = 2 only "
                         "(closed-form constant-maps shriek)")
    if all(g.is_odd for g in V.algebra.generators):
        gamma = shriek_gamma_pure(V)
        r, state = gamma.degree, sphere_model(V, k + 1)
        folded = _coproduct_fold(gamma, state, k)
    else:  # glue kills γ!'s value Π s1_x
        r, state, folded = gamma_value(V), sphere_model(V, k + 1), None
    # the pair maps are built for the first pair evaluated; each class image
    # is split into fiber parts once, and a pair is read off the parts whose
    # products are keys of folded.images
    left = right = None
    dims = [betti(state, d) for d in range(max_degree + 1)]
    table: dict[Pair, dict[Label, Fraction]] = {}
    for n in range(max_degree + 1):
        # with no value, or nothing in the target degree, δ∨ vanishes
        # without evaluation
        if folded is None or not betti(state, n + r):
            table.update((lab, {}) for lab in class_pairs(dims, n))
            continue
        for a, b in class_pairs(dims, n):
            if left is None:
                left, right = (_class_parts(f, folded) for f in _collapse_lifts(
                    state, folded.source, k, "disk-factor quasi-isomorphism",
                    [{None: _IDENTIFY[h]} for h in "LR"]))
            z = folded.on_product(left(a), right(b), b[0])
            out = class_vector(state, n + r, z) if z.terms else []
            table[(a, b)] = {(n + r, i): c for i, c in enumerate(out) if c}
    return BraneOperation("coproduct-dual", r, max_degree, state, table)


# ---------------------------------------------------------------------------
# dualization to shifted homology


class HomologyOperation(namedtuple("HomologyOperation", (
    "kind",  # "homology-product" | "homology-coproduct"
    # product: table[(a, b)][c] = coefficient of σc∨ in σa∨ · σb∨
    # coproduct: table[c][(a, b)] = coefficient of σa∨⊗σb∨ in δ(σc∨)
    "table", "source",
))):
    __slots__ = ()


def _signed(op: BraneOperation) -> dict:
    """op.table in its own layout, each entry times its dualization sign,
    (-1)^(m|b| + |a||b| + m) on a⊗b in μ∨(c) and (-1)^(m̄|c| + |a||b| + m|a|)
    on c in δ∨(a⊗b), m and m̄ the shifts of μ∨ and δ∨.  A table carries its
    own shift only, which is enough: m ≡ m̄ ≡ dim V (mod 2).  Empty rows are
    kept: each is an identity to check."""
    m = op.shift
    product = op.kind == "product-dual"
    out: dict = {}
    for key, row in op.table.items():
        out[key] = signed = {}
        for other, coeff in row.items():
            c, (a, b) = (key, other) if product else (other, key)
            e = m * (b[0] + 1) if product else m * (c[0] + a[0])
            signed[other] = -coeff if (e + a[0] * b[0]) % 2 else coeff
    return out


def _swap(a: Label, b: Label, m: int) -> int:
    """The Koszul swap sign (-1)^(‖a‖‖b‖), ‖a‖ = |a| - m the shifted degree:
    the one sign the laws carry on signed tables."""
    return -1 if (a[0] - m) * (b[0] - m) % 2 else 1


def dualize_to_homology(op: BraneOperation) -> HomologyOperation:
    """The m-shifted homology operation: the transpose of _signed(op)."""
    kinds = {"product-dual": "homology-product", "coproduct-dual": "homology-coproduct"}
    if op.kind not in kinds:
        raise ModelError(f"cannot dualize operation of kind {op.kind!r}")
    table: dict = {}
    for key, row in _signed(op).items():
        for other, coeff in row.items():
            table.setdefault(other, {})[key] = coeff
    return HomologyOperation(kinds[op.kind], table, op)


# ---------------------------------------------------------------------------
# diagram checkers


class Report(namedtuple("Report", "name ok checked failures")):
    __slots__ = ()

    def __str__(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        out = f"{self.name}: {status} ({self.checked} identities)"
        for f in self.failures[:10]:
            out += f"\n  {f}"
        return out


def _add(acc: dict, key, val: Fraction) -> None:
    s = acc.get(key, F0) + val
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def check_associativity(prod: BraneOperation, max_degree: int | None = None) -> Report:
    """μ(μ⊗1) = μ(1⊗μ) on the signed table: for each class c, the
    coefficients of c in μ(μ(u⊗v)⊗b) and in μ(a⊗μ(u⊗v)) agree."""
    table = _signed(prod)
    top = max_degree if max_degree is not None else prod.max_degree
    checked = 0
    failures = []
    for c, row in sorted(table.items()):
        if c[0] > top:
            continue
        needed = {a for (a, _b) in row} | {b for (_a, b) in row}
        if any(lab not in table for lab in needed):
            continue  # outside the computed range
        lhs: dict = {}
        rhs: dict = {}
        for (a, b), coeff in row.items():
            for (u, v), c2 in table[a].items():
                _add(lhs, (u, v, b), coeff * c2)
            for (u, v), c2 in table[b].items():
                _add(rhs, (a, u, v), coeff * c2)
        checked += 1
        if lhs != rhs:
            failures.append(f"associativity fails on H^{c[0]} class #{c[1]}")
    return Report("associativity", not failures, checked, failures)


def check_commutativity(op: BraneOperation) -> Report:
    """τ-equivariance on the signed table, τ the Koszul swap _swap:
    μ(b⊗a) = (-1)^(‖a‖‖b‖) μ(a⊗b) for the product, and the coefficients of
    a⊗b and of b⊗a in δ(c) differ by the same sign for the coproduct; m is
    the table's shift, whose parity is m's."""
    m = op.shift
    checked = 0
    failures = []
    if op.kind == "product-dual":
        for c, row in sorted(_signed(op).items()):
            swapped: dict = {}
            for (a, b), coeff in row.items():
                _add(swapped, (b, a), coeff * _swap(a, b, m))
            checked += 1
            if swapped != row:
                failures.append(f"commutativity fails on H^{c[0]} class #{c[1]}")
        return Report("commutativity (product)", not failures, checked, failures)
    if op.kind == "coproduct-dual":
        table = _signed(op)
        for (a, b), row in sorted(table.items()):
            if (b, a) not in table:
                continue
            s = _swap(a, b, m)
            checked += 1
            if {k: v * s for k, v in table[(b, a)].items()} != row:
                failures.append(f"cocommutativity fails on pair {a}⊗{b}")
        return Report("commutativity (coproduct)", not failures, checked, failures)
    raise ModelError(f"cannot check commutativity of {op.kind!r}")


def check_frobenius(
    prod: BraneOperation,
    coprod: BraneOperation,
    max_degree: int | None = None,
) -> Report:
    """δμ = (1⊗μ)(δ⊗1) on the signed tables: for each pair a⊗b, its
    coefficients in δ(μ(u⊗v)) and in (1⊗μ)(δ(c)⊗v) agree."""
    ptab, ctab = _signed(prod), _signed(coprod)
    top = max_degree if max_degree is not None else min(prod.max_degree, coprod.max_degree)
    checked = 0
    failures = []
    for (a, b), row in sorted(ctab.items()):
        if a[0] + b[0] > top:
            continue
        if b not in ptab or any(c not in ptab for c in row):
            continue
        lhs: dict = {}
        for c, coeff in row.items():
            for (u, v), c2 in ptab[c].items():
                _add(lhs, (u, v), coeff * c2)
        rhs: dict = {}
        complete = True
        for (u, v), c2 in ptab[b].items():
            if (a, u) not in ctab:
                complete = False
                break
            for c, c3 in ctab[(a, u)].items():
                _add(rhs, (c, v), c2 * c3)
        if not complete:
            continue
        checked += 1
        if lhs != rhs:
            failures.append(f"Frobenius fails on pair {a}⊗{b}")
    return Report("Frobenius", not failures, checked, failures)
