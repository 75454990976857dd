"""Degreewise exact cohomology: bases, class vectors, induced maps.

Everything is plain rational Gaussian elimination on the canonical monomial
bases, so representative choices are deterministic (echelon pivots in
monomial order) and reproducible bit-for-bit.
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


def vector_element(M: DgaModel, n: int, v: list[Fraction]) -> Element:
    basis = M.algebra.basis(n)
    return Element(
        M.algebra, {m: Fraction(c) for m, c in zip(basis, v) if c}
    )


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
    # echelon of the coboundary space plus internal solve data
    _boundary_rows: list[list[Fraction]]
    _rep_vectors: list[list[Fraction]]
    _dim_cochains: int

    @property
    def dimension(self) -> int:
        return len(self.representatives)


def cohomology_basis(M: DgaModel, n: int) -> CohomologyBasis:
    cached = M.cohomology_cache.get(n)
    if cached is not None:
        return cached
    dim = len(M.algebra.basis(n))
    dn = d_matrix(M, n)
    cocycles = la.nullspace(dn, dim) if dim else []
    boundaries: list[list[Fraction]] = []
    if n >= 1 and dim:
        prev = M.algebra.basis(n - 1)
        for mono in prev:
            img = M.d(M.algebra.monomial_element(mono))
            if not img.is_zero():
                boundaries.append(element_vector(M, n, img))
    b_ech, _ = la.rref(boundaries, dim)
    # pick cocycles independent modulo the boundaries, echelon-reduced
    span = [list(r) for r in b_ech]
    reps: list[list[Fraction]] = []
    for z in cocycles:
        red = _reduce_against(z, span)
        if any(red):
            lead = next(i for i, c in enumerate(red) if c)
            red = [c / red[lead] for c in red]
            span.append(red)
            span, _ = la.rref(span, dim)
            reps.append(red)
    basis = CohomologyBasis(
        n,
        [vector_element(M, n, r) for r in reps],
        [list(r) for r in b_ech],
        reps,
        dim,
    )
    M.cohomology_cache[n] = basis
    return basis


def _reduce_against(v: list[Fraction], echelon: list[list[Fraction]]) -> list[Fraction]:
    out = list(v)
    for row in echelon:
        lead = next((i for i, c in enumerate(row) if c), None)
        if lead is not None and out[lead]:
            f = out[lead] / row[lead]
            out = [a - f * b for a, b in zip(out, row)]
    return out


def class_vector(M: DgaModel, n: int, e: Element) -> list[Fraction]:
    """Coordinates of a cocycle's class in the chosen representative basis."""
    if not M.d(e).is_zero():
        raise ModelError(f"element is not a cocycle in degree {n}: {e!r}")
    h = cohomology_basis(M, n)
    v = element_vector(M, n, e)
    if not any(v):
        return [F0] * h.dimension
    ncols = len(h._boundary_rows) + h.dimension
    # solve [boundaries | representatives] * c = v
    rows = []
    for i in range(h._dim_cochains):
        row = [b[i] for b in h._boundary_rows] + [r[i] for r in h._rep_vectors]
        rows.append(row)
    sol = la.solve(rows, v)
    if sol is None:
        raise ModelError("cocycle does not lie in boundaries + representatives span")
    return sol[len(h._boundary_rows):]


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
