"""Degreewise exact cohomology: bases, class vectors, π, and sections of
surjective quasi-isomorphisms.

Cochains are sparse rows {position: coefficient} over the canonical
monomial basis of a degree, found through a cached {monomial: position}
map, and all elimination goes through ``_linalg.Echelon``.  d is applied to
a basis monomial by the integer Leibniz kernel ``Derivation.leibniz``: the
rows are den·d, integer rows with den the common denominator of d's images,
and go into ``Echelon`` as they are.  A common nonzero scale changes no
kernel and no span, so nothing downstream sees den.  ``cohomology_basis``
and ``section`` read the rows of d on degree n from one list, made once per
model, and they serve twice: transposed, they are the matrix whose kernel
(``Echelon.kernel``, in free-column form) gives the cocycles of Hⁿ; as they
are, they are the coboundaries of Hⁿ⁺¹.

``cohomology_basis`` inserts the coboundaries, then reduces each kernel
cocycle modulo the coboundaries and the representatives chosen so far; a
nonzero normal form, an integer row, over its lead is the next
representative and is inserted in turn.  Kernel bases and normal forms are
unique, so the representatives are deterministic (echelon pivots in
monomial order) and reproducible bit-for-bit.

The same reductions give a projection π: Cⁿ → Hⁿ, and the
``CohomologyBasis`` keeps only the representatives and π, the one class
map of this module.  A cocycle z is Σ_f z[f]·v_f over the kernel vectors
(v_f is 1 at free column f, else only on pivot columns), so π sends the
monomial at f to the class of v_f and each pivot-column monomial to 0: π is
the class map on cocycles and kills coboundaries.  On π's int numerators
over one denominator per degree, ``class_vector`` reads a cocycle's class
as Σ_m z[m]·π(m) and π⊗π reads Künneth pair coordinates off tensor
products.  ``betti`` gives dim Hⁿ alone, for callers that need no
representative, from the ranks of dₙ and dₙ₋₁.  It streams its rows: each
rank is one ``Echelon`` fed the rows as ``Derivation.leibniz`` makes them,
and only the rank is kept, so a model asked for both Betti numbers and
bases applies d at most twice per monomial.

``section`` turns a backward arrow of a zigzag, a surjective
quasi-isomorphism f, into a forward one: a chain map σ with f∘σ = id, so
H(σ) = H(f)⁻¹ without the cohomology of either model.  Generator by
generator, in degree order, σ(g) is g's generator preimage under f, which
is a gluing map, plus a correction; the correction is one sparse solve
(``_linalg.solve``) over the cached d rows of one degree of f.source and
the images of f, made only where the preimage is not already a lift.
Each lift is checked once.  The tests check every section the pipelines
build against an independent reference in ``tests/oracles.py``, which
computes the same inverse degree by degree from both models' cohomology.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm
from typing import Callable, Iterator

from . import _linalg as la
from .gca_core import Element, Monomial
from .dga_models import DgaModel, DgaMorphism, ModelError, _apply_algebra_map

F0 = Fraction(0)


def _cached(M: DgaModel, key: tuple, make: Callable):
    """M.cohomology_cache[key], made on first use.  add_generator changes
    every cochain space, so the key gets the generator count too."""
    key = (*key, len(M.algebra.odd))
    if key not in M.cohomology_cache:
        M.cohomology_cache[key] = make()
    return M.cohomology_cache[key]


def _index(M: DgaModel, n: int) -> dict:
    """{monomial: position} over the degree-n basis."""
    return _cached(M, ("index", n),
                   lambda: {m: i for i, m in enumerate(M.algebra.basis(n))})


def _d_stream(M: DgaModel, n: int, index: dict) -> Iterator[dict[int, int]]:
    """den·d of each degree-n basis monomial, as a sparse integer row over
    basis(n+1) through its {monomial: position} map index, where den is
    M.d.den; each row is made as it is asked for.

    Every row of dₙ is scaled by the same nonzero den, which changes neither
    the kernel nor the span of the coboundaries, and Echelon keeps primitive
    rows, so the representatives, π and every table are those of d itself.
    """
    leibniz = M.d.leibniz
    return ({index[m]: c for m, c in leibniz(mono).items()}
            for mono in M.algebra.basis(n))


def _d_rows(M: DgaModel, n: int) -> list[dict[int, int]]:
    """The rows of _d_stream, kept for cohomology_basis and section."""
    return _cached(M, ("d", n), lambda: list(_d_stream(M, n, _index(M, n + 1))))


def _transpose(rows) -> dict:
    """The columns {i: {j: c}} of the sparse rows {i: c}, j counting rows."""
    cols: dict = {}
    for j, row in enumerate(rows):
        for i, c in row.items():
            cols.setdefault(i, {})[j] = c
    return cols


def section(f: DgaMorphism, stage: str) -> DgaMorphism:
    """A chain map σ: f.target → f.source with f∘σ = id, so H(σ) = H(f)⁻¹.

    f must be a surjective quasi-isomorphism onto a Sullivan algebra; then
    σ exists by the lifting lemma (Félix–Halperin–Thomas, GTM 205, §12).
    It is built generator by generator of f.target in (degree, gid) order,
    so each dg lies in generators that already have images.  σ(g) starts
    from the preimage w₀: ±h for the first generator h of f.source, in gid
    order, that f sends to ±g, else 0.  When the residuals s = σ(dg) − d w₀
    and t = g − f(w₀) are both 0, σ(g) = w₀; otherwise σ(g) = w₀ + c, with
    c ∈ f.sourceⁿ (n = |g|) the solution of d c = s and f(c) = t with free
    variables set to 0.  Each degree's system is built on its first
    correction, and its d equations are the cached rows of den·d, so their
    right side is den·s.  Each lift is checked once: zero residuals, read
    over final images, are the check σ(dg) = dσ(g), f(σ(g)) = g of an
    uncorrected one, and the corrected ones are checked once σ is built;
    every error names the stage.
    """
    A, B = f.source, f.target
    preimage: dict[int, Element] = {}
    for h in A.algebra.generators:
        signed = B.algebra.signed_generator(f.images[h.gid])
        if signed is not None:
            c, g = signed
            preimage.setdefault(g, A.algebra.monomial_element(A.algebra.units[h.gid], c))
    images: dict[int, Element] = {}
    systems: dict[int, tuple] = {}
    corrected: set[int] = set()
    for g in sorted(B.algebra.generators, key=lambda h: (h.degree, h.gid)):
        n = g.degree
        w = preimage.get(g.gid, A.algebra.zero())
        dg = B.d.images.get(g.gid, B.algebra.zero())
        s = _apply_algebra_map(dg, images, A.algebra) - A.d(w)
        t = B.algebra.generator_element(g.gid) - f(w)
        if s.terms or t.terms:
            if n not in systems:
                # the coefficient rows of degree n: d c over A^{n+1}, f(c) over B^n
                basis = A.algebra.basis(n)
                f_rows = ({m: Fraction(c, v.den) for m, c in v.terms.items()}
                          for v in map(f, map(A.algebra.monomial_element, basis)))
                systems[n] = basis, _transpose(_d_rows(A, n)), _transpose(f_rows)
            basis, d_eqs, f_eqs = systems[n]
            ncols, index = len(basis), _index(A, n + 1)
            d_right = {index[m]: Fraction(c * A.d.den, s.den) for m, c in s.terms.items()}
            f_right = {m: Fraction(c, t.den) for m, c in t.terms.items()}
            rows = []
            for eqs, right in ((d_eqs, d_right), (f_eqs, f_right)):
                # an equation with a right side but no coefficients reads 0 = c
                for key in [*eqs, *(k for k in right if k not in eqs)]:
                    row = eqs.get(key, {})
                    rows.append({**row, ncols: right[key]} if key in right else row)
            sol = la.solve(rows, ncols)
            if sol is None:
                raise ModelError(f"{stage}: {g.name} has no lift; "
                                 "not a surjective quasi-isomorphism")
            w = w + A.algebra.element({basis[j]: sol[j] for j in sorted(sol)})
            corrected.add(g.gid)
        images[g.gid] = w
    sigma = DgaMorphism(B, A, images)
    gens = [g for g in B.algebra.generators if g.gid in corrected]
    bad = sigma.chain_defects(gens) + [
        g.name for g in gens if f(images[g.gid]) != B.algebra.generator_element(g.gid)]
    if bad:
        raise ModelError(f"{stage}: the section is not a chain map with "
                         f"f∘σ = id on generators {bad}")
    return sigma


class CohomologyBasis(namedtuple("CohomologyBasis", (
    "representatives",
    # π as {monomial: {class index: numerator}} over den, nonzero entries
    # only: a free column of d_n goes to its kernel vector's class, a pivot
    # column to 0, as those span a complement of the cocycles; so π∘d = 0
    "projection", "den",
))):
    __slots__ = ()

    @property
    def dimension(self) -> int:
        return len(self.representatives)


def _rank(M: DgaModel, n: int) -> int:
    """The rank of dₙ: Cⁿ → Cⁿ⁺¹, from one Echelon fed the rows of dₙ as
    they are made; only the rank is kept."""
    def make():
        target = M.algebra.basis(n + 1)
        ech = la.Echelon(len(target))
        for row in _d_stream(M, n, {m: i for i, m in enumerate(target)}):
            ech.insert(row)
        return len(ech.rows)
    return _cached(M, ("rank", n), make)


def betti(M: DgaModel, n: int) -> int:
    """dim Hⁿ = dim Cⁿ − rank dₙ − rank dₙ₋₁, with no representative or π."""
    return len(M.algebra.basis(n)) - _rank(M, n) - _rank(M, n - 1)


def cohomology_basis(M: DgaModel, n: int) -> CohomologyBasis:
    return _cached(M, (n,), lambda: _cohomology_basis(M, n))


def _cohomology_basis(M: DgaModel, n: int) -> CohomologyBasis:
    basis = M.algebra.basis(n)
    dim = len(basis)
    # the cocycles: the kernel of d_n, whose matrix rows are the transposed
    # d rows of the degree-n monomials
    matrix = _transpose(_d_rows(M, n))
    d_n = la.Echelon(dim)
    for i in sorted(matrix):
        d_n.insert(matrix[i])
    ech = la.Echelon(dim)
    if dim:
        for row in _d_rows(M, n - 1):  # the coboundaries
            ech.insert(row)
    # a cocycle's normal form modulo coboundaries + earlier representatives,
    # over its lead, is the next representative j, inserted with its lead in
    # tail column dim + j; minus the tail is the cocycle's class in the
    # earlier ones
    reps: list[Element] = []
    classes = []  # (monomial, its class numerators, their denominator)
    for f, (z, den) in d_n.kernel().items():
        red, rden = ech._reduce(z)  # z / den reduces to red / (den·rden)
        cls = {j - dim: -c for j, c in red.items() if j >= dim}
        head = [j for j in red if j < dim]
        if head:
            lead = red[min(head)]
            ech.insert({**{j: red[j] for j in head}, dim + len(reps): lead})
            cls[len(reps)] = lead
            reps.append(Element._adopt(M.algebra, {basis[j]: red[j] for j in sorted(head)}, lead))
        if cls:
            classes.append((basis[f], cls, den * rden))
    top = lcm(*(den for *_, den in classes))  # π's one denominator on Hⁿ
    projection = {m: cls if den == top else {i: c * (top // den) for i, c in cls.items()}
                  for m, cls, den in classes}
    return CohomologyBasis(reps, projection, top)


def projection(M: DgaModel, mono: Monomial) -> tuple[int, dict[int, int], int]:
    """π of a monomial: its degree n, {class index: numerator}, denominator."""
    n = M.algebra.monomial_degree(mono)
    h = cohomology_basis(M, n)
    return n, h.projection.get(mono, {}), h.den


def class_vector(M: DgaModel, n: int, e: Element) -> list[Fraction]:
    """Coordinates of a cocycle's class in the chosen representative basis:
    Σ_m (c_m / den)·π(m) over e = Σ_m (c_m / den)·m, summed on ints."""
    if not M.d(e).is_zero():
        raise ModelError(f"element is not a cocycle in degree {n}: {e!r}")
    index = _index(M, n)
    if any(m not in index for m in e.terms):
        raise ValueError("element has terms outside the requested degree")
    h = cohomology_basis(M, n)
    acc: dict[int, int] = {}
    for m, c in e.terms.items():
        for i, x in h.projection.get(m, {}).items():
            acc[i] = acc.get(i, 0) + c * x
    # most coordinates are 0: build a Fraction only for the others
    coords = [F0] * h.dimension
    for i, x in acc.items():
        if x:
            coords[i] = Fraction(x, h.den * e.den)
    return coords
