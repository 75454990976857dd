"""Exact sparse Gaussian elimination, fraction-free, on integer rows.

A sparse row is a dict {column: nonzero coefficient}.  Rows go in with
``int`` or ``fractions.Fraction`` coefficients; inside, the one
elimination routine, ``Echelon``, keeps a pivot map {pivot column: row} of
a row space whose rows are primitive integer rows: integer entries with
gcd 1, positive at the pivot, and 0 at every other pivot column.  Such a
row is the reduced row echelon form's row times the lcm of that row's
denominators, so the pivots and every result are those of exact rational
elimination, while the arithmetic runs on plain ints (which stay small on
branecalc's models) rather than on ``Fraction`` objects, each of which
takes a gcd to build.  The elimination is fraction-free in the sense of
Bareiss (1968); dividing each row by its content keeps the entries from
growing.

* ``_reduce`` brings a row to integers over one common denominator, clears
  each pivot column with out ← b·out − a·row_p (a/b = out[p]/row_p[p] in
  lowest terms) and gives the normal form modulo the space, zero at every
  pivot column, and unique, because two such forms differ by a vector of
  the space that vanishes on all pivot columns;
* ``insert`` reduces a row and, when something is left, makes its first
  nonzero column a new pivot, divides the row by its content, makes the
  pivot entry positive and clears that column from the other rows the same
  way, keeping each of them primitive; ``kernel`` reads the nullspace off
  the rows, one primitive integer row per free column.

Only columns below ``ncols`` may become pivots.  Columns from ``ncols`` on
ride along as a tail: an augmented row [a | b] records b for every
combination of rows, which is how ``cohomology_basis`` records coordinates.
``solve`` instead lets its right-hand-side column, ``ncols``, be a pivot
column too: its sparse equations go into ``Echelon(ncols + 1)``, a pivot
there means 0 = 1, and otherwise each pivot row reads off one variable.

The RREF of a row space is unique, so ``Echelon`` and ``solve`` return
exactly what a dense column-by-column reduction would, whatever order the
rows arrive in.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Row = dict  # {column: nonzero int or Fraction}

F1 = Fraction(1)


def _integral(row: Row) -> tuple[dict[int, int], int]:
    """(out, den) with out an integer row and row = out / den."""
    den = 1
    for x in row.values():
        q = x.denominator
        if den % q:
            den = den // gcd(den, q) * q
    return {j: x.numerator * (den // x.denominator) for j, x in row.items()}, den


def _clear(out: dict[int, int], p: int, row: dict[int, int]) -> int:
    """out ← b·out − a·row in place, with a/b = out[p]/row[p] in lowest
    terms and b > 0 (row[p] > 0), which clears column p; returns b."""
    a, b = out[p], row[p]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if b != 1:
        for j in out:
            out[j] *= b
    for j, x in row.items():
        v = out.get(j, 0) - a * x
        if v:
            out[j] = v
        else:
            del out[j]
    return b


def _primitive(row: dict[int, int], p: int) -> dict[int, int]:
    """row divided by its content, signed so that row[p] > 0."""
    g = gcd(*row.values())
    if row[p] < 0:
        g = -g
    return row if g == 1 else {j: x // g for j, x in row.items()}


class Echelon:
    """A row space as a pivot map {pivot column: primitive integer row}."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {}

    def _reduce(self, row: Row) -> tuple[dict[int, int], int]:
        """(out, den) with out / den the normal form of row modulo the space."""
        # an int row is copied (d rows are cached; _clear edits out in place)
        if all(type(x) is int for x in row.values()):
            out, den = dict(row), 1
        else:
            out, den = _integral(row)
        rows = self.rows
        # clearing a pivot column touches no other pivot column (each row is
        # 0 there), so one pass over the pivot columns row starts with is
        # enough
        for p in [j for j in out if j in rows]:
            den *= _clear(out, p, rows[p])
        return out, den

    def insert(self, row: Row) -> None:
        """Add row to the space; a row that reduces to zero in the columns
        below ncols adds no pivot."""
        if not row:
            return
        out, _ = self._reduce(row)
        head = [j for j in out if j < self.ncols]
        if not head:
            return
        p = min(head)
        new = _primitive(out, p)
        rows = self.rows
        for q, other in rows.items():
            if p in other:
                _clear(other, p, new)
                rows[q] = _primitive(other, q)
        rows[p] = new

    def kernel(self) -> dict[int, tuple[dict[int, int], int]]:
        """Basis of the vectors over columns below ncols that every row
        kills, {free column f: (w, den)}: w / den has 1 at f and
        -row_p[f] / row_p[p] at each pivot p, and w is primitive."""
        parts = {f: [] for f in range(self.ncols) if f not in self.rows}
        for p, row in self.rows.items():
            for f, x in row.items():
                if f in parts:
                    g = gcd(x, row[p])
                    parts[f].append((p, -x // g, row[p] // g))
        basis = {}
        for f, entries in parts.items():
            den = lcm(*(b for _, _, b in entries))
            basis[f] = {f: den, **{p: x * (den // b) for p, x, b in entries}}, den
        return basis


def solve(rows: list[Row], ncols: int) -> Row | None:
    """One solution {column: nonzero value} of a system with free variables
    set to 0, or None if there is none.

    Each row is a sparse equation over columns below ncols, augmented by its
    right-hand side in column ncols.  The system is inconsistent exactly
    when that column becomes a pivot: some combination of the equations
    reads 0 = 1.
    """
    ech = Echelon(ncols + 1)
    for row in rows:
        ech.insert(row)
    if ncols in ech.rows:
        return None
    return {p: Fraction(row[ncols], row[p])
            for p, row in ech.rows.items() if ncols in row}
