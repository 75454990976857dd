"""Exact sparse Gaussian elimination over fractions.Fraction.

A sparse row is a dict {column: nonzero Fraction}.  The one elimination
routine is ``Echelon``: a pivot map {pivot column: row} of a row space,
grown one row at a time.  Every row in it has 1 at its pivot and 0 at every
other pivot column (the rows are fully reduced), so

* ``reduce`` gives a row's normal form modulo the space: zero at every pivot
  column, and unique, because two such forms differ by a vector of the space
  that vanishes on all pivot columns;
* ``insert`` reduces a row and, when something is left, makes its first
  nonzero column a new pivot, scales it to 1 and clears that column from the
  other rows.

Only columns below ``ncols`` may become pivots.  Columns from ``ncols`` on
ride along as a tail: an augmented row [a | b] records b for every
combination of rows, which is how ``solve`` and ``inverse`` read their
answers and how the cohomology code records coordinates.

The RREF of a row space is unique, so the dense interface below (lists of
rows of Fraction, as the callers use it) returns exactly what a dense
column-by-column reduction would, whatever order the rows arrive in.
"""

from __future__ import annotations

from fractions import Fraction

Vec = list
Mat = list
Row = dict  # {column: nonzero Fraction}

F0 = Fraction(0)
F1 = Fraction(1)


def sparse(v: Vec) -> Row:
    return {j: Fraction(x) for j, x in enumerate(v) if x}


def _sub_multiple(out: Row, f: Fraction, row: Row) -> None:
    """out -= f * row, in place, keeping out free of zeros."""
    for j, x in row.items():
        cur = out.get(j)
        if cur is None:
            out[j] = -f * x
        else:
            v = cur - f * x
            if v:
                out[j] = v
            else:
                del out[j]


class Echelon:
    """A row space as a pivot map {pivot column: fully reduced row}."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, Row] = {}

    def reduce(self, row: Row) -> Row:
        """The normal form of row modulo the space, as a new row."""
        out = dict(row)
        rows = self.rows
        # subtracting a fully reduced row touches no other pivot column, so
        # one pass over the pivot columns row starts with is enough
        for p in [j for j in row if j in rows]:
            _sub_multiple(out, out[p], rows[p])
        return out

    def insert(self, row: Row) -> None:
        """Add row to the space; a row that reduces to zero in the columns
        below ncols adds no pivot."""
        red = self.reduce(row)
        head = [j for j in red if j < self.ncols]
        if not head:
            return
        p = min(head)
        inv = F1 / red[p]
        if inv != F1:
            red = {j: x * inv for j, x in red.items()}
        for other in self.rows.values():
            f = other.get(p)
            if f:
                _sub_multiple(other, f, red)
        self.rows[p] = red

    def kernel(self) -> list[Row]:
        """Basis of the vectors over columns below ncols that every row
        kills, one per free column f: v[f] = 1, v[p] = -row_p[f]."""
        basis = {f: {f: F1} for f in range(self.ncols) if f not in self.rows}
        for p, row in self.rows.items():
            for f, x in row.items():
                v = basis.get(f)
                if v is not None:
                    v[p] = -x
        return list(basis.values())


def mat_mul(a: Mat, b: Mat) -> Mat:
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = [[F0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def mat_vec(a: Mat, v: Vec) -> Vec:
    return [sum((c * x for c, x in zip(row, v) if c and x), F0) for row in a]


def rref(rows: Mat, ncols: int | None = None) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (rref rows, pivot column list).

    Pivots are sought in the first ncols columns only (default: all)."""
    width = len(rows[0]) if rows else 0
    ech = Echelon(width if ncols is None else ncols)
    for r in rows:
        ech.insert(sparse(r))
    pivots = sorted(ech.rows)
    return [[ech.rows[p].get(j, F0) for j in range(width)] for p in pivots], pivots


def nullspace(rows: Mat, ncols: int) -> list[Vec]:
    """Basis of the kernel of the matrix (rows act on column vectors)."""
    ech = Echelon(ncols)
    for r in rows:
        ech.insert(sparse(r))
    return [[v.get(j, F0) for j in range(ncols)] for v in ech.kernel()]


def solve(a: Mat, b: Vec) -> Vec | None:
    """One solution of A x = b with free variables set to 0; None if none."""
    ncols = len(a[0]) if a else 0
    eqs = [sparse(row) for row in a]
    ech = Echelon(ncols)
    for eq, rhs in zip(eqs, b):
        ech.insert({**eq, ncols: Fraction(rhs)} if rhs else eq)
    x = [F0] * ncols
    for p, row in ech.rows.items():
        x[p] = row.get(ncols, F0)
    # pivots stop at column ncols, so an inconsistent system shows up only
    # when the candidate is substituted back
    for eq, rhs in zip(eqs, b):
        if sum((c * x[j] for j, c in eq.items()), F0) != rhs:
            return None
    return x


def inverse(a: Mat) -> Mat:
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("not square")
    ech = Echelon(n)
    for i, row in enumerate(a):
        ech.insert({**sparse(row), n + i: F1})
    if len(ech.rows) != n:
        raise ValueError("singular matrix")
    return [[ech.rows[p].get(n + j, F0) for j in range(n)] for p in range(n)]
