"""Degreewise exact cohomology: bases, class vectors, induced maps, π, and
sections of surjective quasi-isomorphisms.

Cochains are sparse rows {position: coefficient} over the canonical
monomial basis of a degree, found through a cached {monomial: position}
map, and all elimination goes through ``_linalg.Echelon``.  Per model, d is
applied once to each basis monomial of each degree, by the integer Leibniz
kernel ``Derivation.leibniz``: the rows are den·d, integer rows with den the
common denominator of d's images, and go into ``Echelon`` as they are.  A
common nonzero scale changes no kernel and no span, so nothing downstream
sees den.  The rows of d on degree n serve twice: transposed, they are the
matrix whose kernel (``Echelon.kernel``, in free-column form) gives the
cocycles of Hⁿ; as they are, they are the coboundaries of Hⁿ⁺¹.

``cohomology_basis`` inserts the coboundaries, then reduces each kernel
cocycle modulo the coboundaries and the representatives chosen so far; a
nonzero normal form, scaled to lead with 1, is the next representative and
is inserted in turn.  Kernel bases and normal forms are unique, so the
representatives are deterministic (echelon pivots in monomial order) and
reproducible bit-for-bit.

The pivot map is kept in the ``CohomologyBasis``.  Each representative's row
carries a coordinate column, so ``class_vector`` reduces a cocycle against
it and reads the class's coordinates off what is left.

The same reductions give a projection π: Cⁿ → Hⁿ.  A cocycle z is
Σ_f z[f]·v_f over the kernel vectors (v_f is 1 at free column f, else only
on pivot columns), so π sends the monomial at f to the class of v_f and each
pivot-column monomial to 0: π is the class map on cocycles, kills
coboundaries, and π⊗π reads Künneth pair coordinates off tensor products.

``section`` turns a backward arrow of a zigzag, a surjective
quasi-isomorphism f, into a forward one: a chain map σ with f∘σ = id, so
H(σ) = H(f)⁻¹ without the cohomology of either model.  Generator by
generator, in degree order, σ(g) is one sparse solve (``_linalg.solve``)
over the cached d rows of one degree of f.source and the images of f.
``induced_map``, ``invert_on_cohomology`` and ``is_quasi_iso`` compute the
same inverse degree by degree from both models' cohomology, the inverse
read off the tail of one ``Echelon`` fed [H(f) | I]; the tests use them as
the reference for every section the pipelines build.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import _linalg as la
from .gca_core import Element, Monomial
from .dga_models import DgaModel, DgaMorphism, ModelError, _apply_algebra_map

F0 = Fraction(0)


def _cached(M: DgaModel, key: tuple, make: Callable):
    """M.cohomology_cache[key], made on first use.  add_generator changes
    every cochain space, so the key gets the generator count too."""
    key = (*key, len(M.algebra.generators))
    if key not in M.cohomology_cache:
        M.cohomology_cache[key] = make()
    return M.cohomology_cache[key]


def _index(M: DgaModel, n: int) -> dict:
    """{monomial: position} over the degree-n basis."""
    return _cached(M, ("index", n),
                   lambda: {m: i for i, m in enumerate(M.algebra.basis(n))})


def _d_rows(M: DgaModel, n: int) -> list[dict[int, int]]:
    """den·d of each degree-n basis monomial, as a sparse integer row over
    basis(n+1), where den is M.d.den.

    Every row of dₙ is scaled by the same nonzero den, which changes neither
    the kernel nor the span of the coboundaries, and Echelon keeps primitive
    rows, so the representatives, π and every table are those of d itself.
    """
    def make():
        index, leibniz = _index(M, n + 1), M.d.leibniz
        return [{index[m]: c for m, c in leibniz(mono).items()}
                for mono in M.algebra.basis(n)]
    return _cached(M, ("d", n), make)


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
    It is solved generator by generator of f.target in (degree, gid) order,
    so each dg lies in generators that already have images: σ(g) is the
    solution w ∈ f.sourceⁿ (n = |g|) of d w = σ(dg) and f(w) = g with free
    variables set to 0.  The d equations are the cached rows of den·d, so
    their right side is den·σ(dg), where σ is the partial map of the images
    found so far.  σ is built once the solve is done and checked then;
    every error names the stage.
    """
    A, B = f.source, f.target
    images: dict[int, Element] = {}
    systems: dict[int, tuple] = {}
    for g in sorted(B.algebra.generators, key=lambda h: (h.degree, h.gid)):
        n = g.degree
        if n not in systems:
            # the coefficient rows of degree n: d w over A^{n+1}, f(w) over B^n
            basis = A.algebra.basis(n)
            f_rows = ({t: Fraction(c, v.den) for t, c in v.terms.items()}
                      for v in map(f, map(A.algebra.monomial_element, basis)))
            systems[n] = basis, _transpose(_d_rows(A, n)), _transpose(f_rows)
        basis, d_eqs, f_eqs = systems[n]
        ncols, index = len(basis), _index(A, n + 1)
        dg = B.d.images.get(g.gid, B.algebra.zero())
        s = _apply_algebra_map(dg, images, A.algebra)
        rhs = {index[m]: Fraction(c * A.d.den, s.den) for m, c in s.terms.items()}
        rows = []
        for eqs, right in ((d_eqs, rhs), (f_eqs, {((g.gid, 1),): la.F1})):
            # an equation with a right side but no coefficients reads 0 = c
            for key in [*eqs, *(k for k in right if k not in eqs)]:
                row = eqs.get(key, {})
                rows.append({**row, ncols: right[key]} if key in right else row)
        sol = la.solve(rows, ncols)
        if sol is None:
            raise ModelError(f"{stage}: {g.name} has no lift; "
                             "not a surjective quasi-isomorphism")
        images[g.gid] = A.algebra.element({basis[j]: sol[j] for j in sorted(sol)})
    sigma = DgaMorphism(B, A, images)
    bad = sigma.chain_defects() + [
        g.name for g in B.algebra.generators
        if f(images[g.gid]) != B.algebra.generator_element(g.gid)]
    if bad:
        raise ModelError(f"{stage}: the section is not a chain map with "
                         f"f∘σ = id on generators {bad}")
    return sigma


@dataclass
class CohomologyBasis:
    degree: int
    representatives: list[Element]
    # pivot map of the coboundaries plus the representatives; a
    # representative's row carries 1 in tail column dim + j, so every row's
    # tail holds its coordinates in the representatives
    _echelon: la.Echelon
    # π as {position: {class index: coefficient}}, nonzero entries only: a
    # free column of d_n goes to its kernel vector's class, a pivot column
    # to 0, as those span a complement of the cocycles; so π∘d = 0
    projection: dict[int, dict[int, Fraction]]

    @property
    def dimension(self) -> int:
        return len(self.representatives)


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
    # scaled to lead with 1, is the next representative; minus the tail is
    # the cocycle's class in the earlier ones
    reps: list[la.Row] = []
    projection: dict[int, dict[int, Fraction]] = {}
    for f, z in d_n.kernel().items():
        red = ech.reduce(z)
        cls = {j - dim: -c for j, c in red.items() if j >= dim}
        head = [j for j in red if j < dim]
        if head:
            lead = red[min(head)]
            rep = {j: red[j] / lead for j in head}
            ech.insert({**rep, dim + len(reps): la.F1})
            cls[len(reps)] = lead
            reps.append(rep)
        if cls:
            projection[f] = cls
    elements = [M.algebra.element({basis[j]: r[j] for j in sorted(r)}) for r in reps]
    return CohomologyBasis(n, elements, ech, projection)


def projection(M: DgaModel, mono: Monomial) -> tuple[int, dict[int, Fraction]]:
    """π of a monomial: its degree n and {class index: coefficient} in Hⁿ."""
    n = M.algebra.monomial_degree(mono)
    return n, cohomology_basis(M, n).projection.get(_index(M, n)[mono], {})


def class_vector(M: DgaModel, n: int, e: Element) -> list[Fraction]:
    """Coordinates of a cocycle's class in the chosen representative basis."""
    if not M.d(e).is_zero():
        raise ModelError(f"element is not a cocycle in degree {n}: {e!r}")
    h = cohomology_basis(M, n)
    dim, index = h._echelon.ncols, _index(M, n)
    try:
        row = {index[m]: c for m, c in e.terms.items()}
    except KeyError:
        raise ValueError("element has terms outside the requested degree") from None
    # row is den·e, and den·e - Σ c_p row_p leaves 0 below dim and
    # -den·(coordinates of e) in the tail
    coords = [F0] * h.dimension
    for j, c in h._echelon.reduce(row).items():
        if j < dim:
            raise ModelError("cocycle does not lie in boundaries + representatives span")
        coords[j - dim] = -c / e.den
    return coords


def induced_map(
    apply: Callable[[Element], Element],
    src: DgaModel,
    tgt: DgaModel,
    n: int,
) -> list[list[Fraction]]:
    """Matrix of the induced map H^n(src) -> H^n(tgt)."""
    hs = cohomology_basis(src, n)
    ht = cohomology_basis(tgt, n)
    cols = [class_vector(tgt, n, apply(rep)) for rep in hs.representatives]
    return [
        [cols[j][i] for j in range(hs.dimension)] for i in range(ht.dimension)
    ]


def invert_on_cohomology(
    apply: Callable[[Element], Element],
    src: DgaModel,
    tgt: DgaModel,
    n: int,
) -> list[list[Fraction]]:
    """Inverse of the induced map H^n(src) -> H^n(tgt) of a quasi-iso.

    When the induced map is not invertible, the ModelError names the degree,
    the matrix shape (dim H^n(tgt) × dim H^n(src)) and its rank.
    """
    m = induced_map(apply, src, tgt, n)
    rows = cohomology_basis(tgt, n).dimension
    cols = cohomology_basis(src, n).dimension
    # for an invertible m the RREF of [m | I] is [I | m⁻¹]
    ech = la.Echelon(cols)
    for i, row in enumerate(m):
        ech.insert({**{j: x for j, x in enumerate(row) if x}, cols + i: la.F1})
    rank = len(ech.rows)
    if rows == cols == rank:
        view = ech.fraction_rows()
        return [[view[p].get(cols + j, F0) for j in range(rows)] for p in range(cols)]
    raise ModelError(
        f"induced map on H^{n} is not invertible (shape {rows}×{cols}, "
        f"rank {rank}); not a quasi-isomorphism"
    )


def is_quasi_iso(f, max_degree: int) -> bool:
    """Check a DgaMorphism induces isomorphisms on H^n for n <= max_degree."""
    try:
        for n in range(max_degree + 1):
            invert_on_cohomology(f, f.source, f.target, n)
    except ModelError:
        return False
    return True
