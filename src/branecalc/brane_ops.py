"""The brane product/coproduct pipelines and the diagram checkers.

Each operation is a zigzag of maps between gluing models.  Write M_{S^k}
for the sphere model, D for the k-disk model (semifree over M_{S^(k-1)}),
G = D ⊗_{M_{S^(k-1)}} D for the glued double disk and P for the path model
of ∧V over ∧V⊗².  Then, with ← marking the backward arrows,

* product μ∨ (k ≥ 2):
  M_{S^k} ←glue G →identify M_{S^k} ⊗_{∧V} M_{S^k}
  ←collapse P ⊗_{∧V⊗²} M_{S^k}⊗² →δ!⊗id M_{S^k}⊗²;
* coproduct δ∨ (k = 2):
  M_{S^k}⊗² →identify ∧V ⊗_{M_{S^1}} G ←collapse D ⊗_{M_{S^1}} G
  →γ!⊗id G →glue M_{S^k},
  where γ! exists because M → M^{S^1} has finite codimension.

Every backward arrow f is a surjective quasi-isomorphism onto a Sullivan
algebra, so it has a section σ, a chain map with f∘σ = id
(cohomology.section, the lifting lemma), and H(σ) = H(f)⁻¹.  With each
backward arrow replaced by its section, an operation is one composite of
chain maps, applied to cocycles, and classes are read only at its two
ends: the state model's class basis, and at the square end pairs of state
classes, as H(M_{S^k}⊗²) = H⊗H (Künneth) is never computed.  The product
applies its composite to each state representative and reads the value of
δ!⊗id off with π⊗π (Kunneth.coordinates).  The coproduct takes the class in
the state model of the image of each pair cocycle a⊗b.  It reads each pair
off two per-class images and one folded module map: identify and the
collapse section are algebra maps, so their composite sends a⊗b to the
product of the images of a⊗1 and 1⊗b, each computed once per class; glue
is an algebra map too, so glue∘(γ!⊗id) is one module map
(shriek.compose_module), built once.  No model in between gets a
cohomology basis.

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
  (-1)^(|f||ψ|) ψ∘f, and a degree shift by m.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

from .gca_core import Element, translate
from .cohomology import class_vector, cohomology_basis, projection, section
from .dga_models import (
    DgaModel,
    DgaMorphism,
    ModelError,
    base_change,
    compose,
    disk_model,
    morphism_phi,
    relative_tensor,
    sphere_model,
    tensor_model,
)
from .shriek import (
    GorensteinInfo,
    ModuleMap,
    compose_module,
    delta_cutoff,
    gorenstein_info,
    shriek_delta_semipure,
    shriek_gamma_pure,
)

F0 = Fraction(0)

Label = tuple[int, int]  # (degree, index) into H^degree of the state model
Pair = tuple[Label, Label]


# ---------------------------------------------------------------------------
# Künneth bookkeeping on the tensor square


@dataclass
class Kunneth:
    """Pairs of H(A)-classes as classes of (square, left, right) =
    tensor_model(A, A), with coordinates = π⊗π for CohomologyBasis.projection
    and no cohomology of the square.  tensor_model adds all left generators
    before the right ones, each copy in A's order, so a square monomial is its
    left part times its right part, both canonical, with no sign; π has
    degree 0, so π⊗π adds no Koszul sign either.
    """

    state: DgaModel
    square: DgaModel
    left: DgaMorphism
    right: DgaMorphism
    # square gid -> (half, state gid): 0 for the left copy, 1 for the right
    side: dict[int, tuple[int, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.side = {_gid(img): (half, g)
                     for half, f in enumerate((self.left, self.right))
                     for g, img in f.images.items()}

    def pairs(self, n: int) -> list[Pair]:
        """The pairs of total degree n, in (left degree, indices) order."""
        dims = [cohomology_basis(self.state, d).dimension for d in range(n + 1)]
        return [((da, ia), (n - da, ib)) for da in range(n + 1)
                for ia in range(dims[da]) for ib in range(dims[n - da])]

    def element(self, pair: Pair) -> Element:
        """The square cocycle a⊗b of the representatives of the pair.  The
        coproduct builds its image from per-class images instead; this is
        the per-pair reference the tests check it against."""
        (da, ia), (db, ib) = pair
        ra = cohomology_basis(self.state, da).representatives[ia]
        rb = cohomology_basis(self.state, db).representatives[ib]
        return self.left(ra) * self.right(rb)

    def coordinates(self, z: Element) -> dict[Pair, Fraction]:
        """(π⊗π)(z): the pair coordinates of the class of a square cocycle."""
        if not self.square.d(z).is_zero():
            raise ModelError(f"element is not a cocycle of the square: {z!r}")
        side = self.side
        out: dict[Pair, Fraction] = {}
        for mono, c in z.terms.items():
            halves: tuple[list, list] = ([], [])
            for gid, e in mono:
                half, g = side[gid]
                halves[half].append((g, e))
            (da, pa), (db, pb) = (projection(self.state, tuple(h)) for h in halves)
            c = Fraction(c, z.den)
            for ia, ca in pa.items():
                for ib, cb in pb.items():
                    _add(out, ((da, ia), (db, ib)), c * ca * cb)
        return out


# ---------------------------------------------------------------------------
# zigzags as chain maps


# Where _gluing_map sends the left ("L") and right ("R") copies of the top
# suspension s^k v: to (factor of the target generator, sign), or to 0 when
# absent.  _IDENTIFY reverses the orientation of the second hemisphere.
_IDENTIFY = {"L": ("L", 1), "R": ("R", -1)}
_COLLAPSE = {"L": ("L", 1), "R": ("R", 1)}
_GLUE = {"R": (None, -1)}


def _gluing_map(src: DgaModel, dst: DgaModel, top: int, tops: dict) -> DgaMorphism:
    """The chain map src → dst fixed by generator provenance.

    A base generator goes to dst's base generator of the same origin, so
    the two copies of ∧V in ∧V⊗² multiply together; the tensor copies of
    s^top v go where tops says; every other suspension (lower shifts, the
    path model's sV, a fresh disk's s^top V) goes to 0.
    """
    images: dict[int, Element] = {}
    for g in src.algebra.generators:
        p = g.prov
        if p.kind == "base":
            target, sign = replace(p, factor=None), 1
        elif p.shift == top and p.factor in tops:
            factor, sign = tops[p.factor]
            target = replace(p, factor=factor)
        else:
            images[g.gid] = dst.algebra.zero()
            continue
        images[g.gid] = dst.algebra.generator_element(target) * sign
    f = DgaMorphism(src, dst, images)
    f.check_chain()
    return f


def _gid(e: Element) -> int:
    """The generator id of a generator element."""
    return next(iter(e.terms))[0][0]


def _shriek_tensor_id(F: ModuleMap, N: DgaModel) -> ModuleMap:
    """F ⊗ id: F.source ⊗_B N → N, linear over all of N.

    F is a shriek over its base B: F.base_images sends each base generator
    of F.source to a generator of F.target, and N is semifree over a copy of
    F.target.  The inclusions of relative_tensor carry each base generator
    into the glued model and into N, which fixes the translation
    F.target → N.  The base (base_images' keys) is every generator from N,
    so the images are F's own values: (F ⊗ id)(a·b) = F(a)·b.
    """
    glued, inc_f, inc_n = relative_tensor(F.source, N)
    f_gid = {g: _gid(img) for g, img in inc_f.images.items()}
    glued_to_n = {_gid(img): g for g, img in inc_n.images.items()}
    to_n = {
        _gid(F.base_images[b]): glued_to_n[f_gid[b]] for b in F.source.base_gids
    }
    base_images = {new: N.algebra.generator_element(g) for new, g in glued_to_n.items()}
    images = {}
    for a, value in F.images.items():
        sign, mono = glued.algebra.normalize([(f_gid[g], e) for g, e in a])
        images[mono] = translate(value, N.algebra, to_n) * sign
    return ModuleMap(glued, N, F.degree, base_images, images)


def _sphere_and_double_disk(
    V: DgaModel, disk: DgaModel, k: int
) -> tuple[Kunneth, DgaModel, DgaMorphism]:
    """M_{S^k}⊗²'s Künneth helper, the double disk G and glue: G → M_{S^k}."""
    state = sphere_model(V, k + 1)
    double, _, _ = relative_tensor(disk, disk)
    kun = Kunneth(state, *tensor_model(state, state))
    return kun, double, _gluing_map(double, state, k, _GLUE)


# ---------------------------------------------------------------------------
# operations


@dataclass
class BraneOperation:
    kind: str  # "product-dual" | "coproduct-dual"
    info: GorensteinInfo
    shift: int
    max_degree: int
    state: DgaModel
    # product-dual:  table[c][(a, b)] = coefficient of a⊗b in μ∨(c)
    # coproduct-dual: table[(a, b)][c] = coefficient of c in δ∨(a⊗b)
    table: dict

    def rep_string(self, label: Label) -> str:
        n, i = label
        return repr(cohomology_basis(self.state, n).representatives[i])


def brane_product_dual(
    V: DgaModel,
    k: int,
    info: GorensteinInfo | None = None,
    max_degree: int = 8,
) -> BraneOperation:
    """The dual brane product μ∨: H^n(M_{S^k}) → H^(n+m)(M_{S^k}⊗²)."""
    if k < 2:
        raise ModelError("the product pipeline needs k ≥ 2")
    info = info or gorenstein_info(V, k)
    kun, double, glue = _sphere_and_double_disk(V, disk_model(V, k), k)
    state = kun.state
    spheres, _, _ = relative_tensor(state, sphere_model(V, k + 1))
    delta = shriek_delta_semipure(V, delta_cutoff(V, max_degree))
    shriek = _shriek_tensor_id(delta, kun.square)
    to_path = compose(
        section(_gluing_map(shriek.source, spheres, k, _COLLAPSE),
                "path-model quasi-isomorphism"),
        compose(_gluing_map(double, spheres, k, _IDENTIFY),
                section(glue, "double disk vs sphere identification")))
    table: dict[Label, dict[Pair, Fraction]] = {}
    for n in range(max_degree + 1):
        for i, rep in enumerate(cohomology_basis(state, n).representatives):
            table[(n, i)] = kun.coordinates(shriek(to_path(rep)))
    return BraneOperation(
        "product-dual", info, delta.degree, max_degree, state, table
    )


def _coproduct_maps(
    V: DgaModel, k: int
) -> tuple[Kunneth, DgaMorphism, ModuleMap, DgaMorphism]:
    """(kun, to_source, γ!⊗id, glue): δ∨(a⊗b) is the class of
    glue(γ!⊗id(to_source(a⊗b))) for the pair cocycles a⊗b of kun."""
    gamma = shriek_gamma_pure(V)
    kun, double, glue = _sphere_and_double_disk(V, gamma.source, k)
    collapsed, _ = base_change(double, morphism_phi(gamma.target))
    shriek = _shriek_tensor_id(gamma, double)
    to_source = compose(
        section(_gluing_map(shriek.source, collapsed, k, _COLLAPSE),
                "disk-factor quasi-isomorphism"),
        _gluing_map(kun.square, collapsed, k, _IDENTIFY))
    return kun, to_source, shriek, glue


def _class_images(f: DgaMorphism, state: DgaModel) -> Callable[[Label], Element]:
    """label ↦ f(representative of label), each computed on first use."""
    memo: dict[Label, Element] = {}

    def image(label: Label) -> Element:
        if label not in memo:
            n, i = label
            memo[label] = f(cohomology_basis(state, n).representatives[i])
        return memo[label]
    return image


def brane_coproduct_dual(
    V: DgaModel,
    k: int,
    info: GorensteinInfo | None = None,
    max_degree: int = 8,
) -> BraneOperation:
    """The dual brane coproduct δ∨: H^n(M_{S^k}⊗²) → H^(n+m̄)(M_{S^k})."""
    if k != 2:
        raise ModelError(
            "the coproduct pipeline is implemented for k = 2 only "
            "(closed-form constant-maps shriek)"
        )
    info = info or gorenstein_info(V, k)
    kun, to_source, shriek, glue = _coproduct_maps(V, k)
    state, r = kun.state, shriek.degree
    # to_source(a⊗b) = to_source(a⊗1)·to_source(1⊗b), and glue∘(γ!⊗id) is
    # one module map
    left = _class_images(compose(to_source, kun.left), state)
    right = _class_images(compose(to_source, kun.right), state)
    folded = compose_module(glue, shriek)
    table: dict[Pair, dict[Label, Fraction]] = {}
    for n in range(max_degree + 1):
        # with nothing in the target degree, δ∨ vanishes without evaluation
        if not cohomology_basis(state, n + r).dimension:
            table.update((lab, {}) for lab in kun.pairs(n))
            continue
        for a, b in kun.pairs(n):
            out = class_vector(state, n + r, folded(left(a) * right(b)))
            table[(a, b)] = {(n + r, i): c for i, c in enumerate(out) if c}
    return BraneOperation(
        "coproduct-dual", info, r, max_degree, state, table
    )


# ---------------------------------------------------------------------------
# dualization to shifted homology


@dataclass
class HomologyOperation:
    kind: str  # "homology-product" | "homology-coproduct"
    info: GorensteinInfo
    # product: table[(a, b)][c] = coefficient of σc∨ in σa∨ · σb∨
    # coproduct: table[c][(a, b)] = coefficient of σa∨⊗σb∨ in δ(σc∨)
    table: dict
    source: BraneOperation


def dualize_to_homology(op: BraneOperation) -> HomologyOperation:
    """Transpose a dual-level operation to the m-shifted homology.

    With the Koszul conventions in the module docstring, the signs work out
    to (-1)^(m|b| + |a||b| + m) per product entry and
    (-1)^(m̄|c| + |a||b| + m|a|) per coproduct entry.
    """
    info = op.info
    m, mb = info.m, info.m_bar
    if op.kind == "product-dual":
        table: dict[Pair, dict[Label, Fraction]] = {}
        for c, row in op.table.items():
            for (a, b), coeff in row.items():
                da, db = a[0], b[0]
                sign = -1 if (m * db + da * db + m) % 2 else 1
                table.setdefault((a, b), {})[c] = coeff * sign
        return HomologyOperation("homology-product", info, table, op)
    if op.kind == "coproduct-dual":
        table2: dict[Label, dict[Pair, Fraction]] = {}
        for (a, b), row in op.table.items():
            for c, coeff in row.items():
                da, db, dc = a[0], b[0], c[0]
                sign = -1 if (mb * dc + da * db + m * da) % 2 else 1
                table2.setdefault(c, {})[(a, b)] = coeff * sign
        return HomologyOperation("homology-coproduct", info, table2, op)
    raise ModelError(f"cannot dualize operation of kind {op.kind!r}")


# ---------------------------------------------------------------------------
# diagram checkers


@dataclass
class Report:
    name: str
    ok: bool
    checked: int
    failures: list[str]

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
    """(μ∨⊗id)∘μ∨ = (-1)^m (id⊗̂μ∨)∘μ∨, with (id⊗̂F)(a⊗b) = (-1)^(m|a|) a⊗F(b)."""
    m = prod.info.m
    top = max_degree if max_degree is not None else prod.max_degree
    checked = 0
    failures = []
    for c, row in sorted(prod.table.items()):
        if c[0] > top:
            continue
        needed = {a for (a, _b) in row} | {b for (_a, b) in row}
        if any(lab not in prod.table for lab in needed):
            continue  # outside the computed range
        lhs: dict = {}
        rhs: dict = {}
        for (a, b), coeff in row.items():
            for (u, v), c2 in prod.table[a].items():
                _add(lhs, (u, v, b), coeff * c2)
            s = -1 if (m * a[0]) % 2 else 1
            for (u, v), c2 in prod.table[b].items():
                _add(rhs, (a, u, v), coeff * c2 * s)
        sgn = -1 if m % 2 else 1
        rhs = {k: v * sgn for k, v in rhs.items()}
        checked += 1
        if lhs != rhs:
            failures.append(f"associativity fails on H^{c[0]} class #{c[1]}")
    return Report("associativity", not failures, checked, failures)


def check_commutativity(op: BraneOperation) -> Report:
    """τ-equivariance: sign (-1)^m for the product, (-1)^m̄ for the coproduct."""
    info = op.info
    checked = 0
    failures = []
    if op.kind == "product-dual":
        sgn = -1 if info.m % 2 else 1
        for c, row in sorted(op.table.items()):
            swapped: dict = {}
            for (a, b), coeff in row.items():
                s = -1 if (a[0] * b[0]) % 2 else 1
                _add(swapped, (b, a), coeff * s)
            expected = {k: v * sgn for k, v in row.items()}
            checked += 1
            if swapped != expected:
                failures.append(f"commutativity fails on H^{c[0]} class #{c[1]}")
        return Report("commutativity (product)", not failures, checked, failures)
    if op.kind == "coproduct-dual":
        sgn = -1 if info.m_bar % 2 else 1
        for (a, b), row in sorted(op.table.items()):
            if ((b, a)) not in op.table:
                continue
            s = -1 if (a[0] * b[0]) % 2 else 1
            lhs = {k: v * s for k, v in op.table[(b, a)].items()}
            rhs = {k: v * sgn for k, v in row.items()}
            checked += 1
            if lhs != rhs:
                failures.append(f"cocommutativity fails on pair {a}⊗{b}")
        return Report("commutativity (coproduct)", not failures, checked, failures)
    raise ModelError(f"cannot check commutativity of {op.kind!r}")


def check_frobenius(
    prod: BraneOperation,
    coprod: BraneOperation,
    max_degree: int | None = None,
) -> Report:
    """μ∨∘δ∨ = (-1)^(m·m̄) (δ∨⊗id)∘(id⊗̂μ∨) on the tensor square."""
    m, mb = prod.info.m, prod.info.m_bar
    top = max_degree if max_degree is not None else min(prod.max_degree, coprod.max_degree)
    sgn = -1 if (m * mb) % 2 else 1
    checked = 0
    failures = []
    for (a, b), row in sorted(coprod.table.items()):
        if a[0] + b[0] > top:
            continue
        if any(c not in prod.table for c in row):
            continue
        if b not in prod.table:
            continue
        lhs: dict = {}
        for c, coeff in row.items():
            for (u, v), c2 in prod.table[c].items():
                _add(lhs, (u, v), coeff * c2)
        rhs: dict = {}
        s_a = -1 if (m * a[0]) % 2 else 1
        complete = True
        for (u, v), c2 in prod.table[b].items():
            if (a, u) not in coprod.table:
                complete = False
                break
            for c, c3 in coprod.table[(a, u)].items():
                _add(rhs, (c, v), c2 * c3 * s_a)
        if not complete:
            continue
        rhs = {k: val * sgn for k, val in rhs.items()}
        checked += 1
        if lhs != rhs:
            failures.append(f"Frobenius fails on pair {a}⊗{b}")
    return Report("Frobenius", not failures, checked, failures)


def coproduct_double_composite(coprod: BraneOperation) -> dict:
    """δ∨ ∘ (δ∨⊗id) on triples; nonzero output witnesses (δ⊗1)∘δ ≠ 0."""
    out: dict = {}
    # triples (a, b, c): first δ∨ on a⊗b, then δ∨ on (result)⊗c
    for (a, b), row in coprod.table.items():
        for u, coeff in row.items():
            for (u2, c), row2 in coprod.table.items():
                if u2 != u:
                    continue
                for w, c2 in row2.items():
                    _add(out, ((a, b, c), w), coeff * c2)
    return out
