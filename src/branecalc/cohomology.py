"""Degreewise exact cohomology: bases, class vectors, induced maps.

Cochains are sparse rows over the canonical monomial basis of a degree, and
all elimination goes through ``_linalg.Echelon``.  ``cohomology_basis``
makes one pass: it inserts the coboundaries, then reduces each cocycle of
the kernel basis modulo the coboundaries and the representatives chosen so
far; a nonzero normal form, scaled to lead with 1, is the next
representative and is inserted in turn.  Normal forms are unique, so the
representatives are deterministic (echelon pivots in monomial order) and
reproducible bit-for-bit.

The pivot map is kept in the ``CohomologyBasis``.  Each representative's row
carries a coordinate column, so ``class_vector`` reduces a cocycle against
it and reads the class's coordinates off what is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import _linalg as la
from .gca_core import Element
from .dga_models import DgaModel, ModelError

F0 = Fraction(0)


def element_vector(M: DgaModel, n: int, e: Element) -> list[Fraction]:
    basis = M.algebra.basis(n)
    index = {m: i for i, m in enumerate(basis)}
    v = [F0] * len(basis)
    for mono, c in e.terms.items():
        if M.algebra.monomial_degree(mono) != n:
            raise ValueError("element has terms outside the requested degree")
        v[index[mono]] = c
    return v


def d_matrix(M: DgaModel, n: int) -> list[list[Fraction]]:
    """Matrix of d: degree n -> degree n+1 (rows: target basis)."""
    src = M.algebra.basis(n)
    tgt = M.algebra.basis(n + 1)
    index = {m: i for i, m in enumerate(tgt)}
    cols = []
    for mono in src:
        img = M.d(M.algebra.monomial_element(mono))
        col = [F0] * len(tgt)
        for m, c in img.terms.items():
            col[index[m]] = c
        cols.append(col)
    return [[cols[j][i] for j in range(len(src))] for i in range(len(tgt))]


@dataclass
class CohomologyBasis:
    degree: int
    representatives: list[Element]
    # pivot map of the coboundaries plus the representatives; a
    # representative's row carries 1 in tail column dim + j, so every row's
    # tail holds its coordinates in the representatives
    _echelon: la.Echelon

    @property
    def dimension(self) -> int:
        return len(self.representatives)


def cohomology_basis(M: DgaModel, n: int) -> CohomologyBasis:
    # add_generator changes every cochain space, so entries are keyed on the
    # generator count too
    key = (n, len(M.algebra.generators))
    cached = M.cohomology_cache.get(key)
    if cached is not None:
        return cached
    basis = M.algebra.basis(n)
    dim = len(basis)
    cocycles = la.nullspace(d_matrix(M, n), dim) if dim else []
    ech = la.Echelon(dim)
    if n >= 1 and dim:
        for mono in M.algebra.basis(n - 1):
            img = M.d(M.algebra.monomial_element(mono))
            ech.insert(la.sparse(element_vector(M, n, img)))
    # a cocycle's normal form modulo coboundaries + earlier representatives,
    # scaled to lead with 1, is the next representative
    reps: list[la.Row] = []
    for z in cocycles:
        red = ech.reduce(la.sparse(z))
        head = [j for j in red if j < dim]
        if head:
            lead = red[min(head)]
            rep = {j: red[j] / lead for j in head}
            ech.insert({**rep, dim + len(reps): la.F1})
            reps.append(rep)
    h = CohomologyBasis(
        n,
        [Element(M.algebra, {basis[j]: r[j] for j in sorted(r)}) for r in reps],
        ech,
    )
    M.cohomology_cache[key] = h
    return h


def class_vector(M: DgaModel, n: int, e: Element) -> list[Fraction]:
    """Coordinates of a cocycle's class in the chosen representative basis."""
    if not M.d(e).is_zero():
        raise ModelError(f"element is not a cocycle in degree {n}: {e!r}")
    h = cohomology_basis(M, n)
    dim = h._echelon.ncols
    # e - Σ c_p row_p leaves 0 below dim and -(coordinates of e) in the tail
    red = h._echelon.reduce(la.sparse(element_vector(M, n, e)))
    coords = [F0] * h.dimension
    for j, c in red.items():
        if j < dim:
            raise ModelError("cocycle does not lie in boundaries + representatives span")
        coords[j - dim] = -c
    return coords


def induced_map(
    apply: Callable[[Element], Element],
    src: DgaModel,
    tgt: DgaModel,
    n: int,
    shift: int = 0,
) -> list[list[Fraction]]:
    """Matrix of the induced map H^n(src) -> H^(n+shift)(tgt)."""
    hs = cohomology_basis(src, n)
    ht = cohomology_basis(tgt, n + shift)
    cols = [class_vector(tgt, n + shift, apply(rep)) for rep in hs.representatives]
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
    if rows == cols:
        try:
            return la.inverse(m)
        except ValueError:
            pass
    rank = len(la.rref(m, cols)[1])
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
