"""Plain rational-pivot Gaussian elimination over fractions.Fraction.

Matrices are lists of rows; rows are lists of Fraction.  Everything here is
exact and deterministic (first nonzero pivot in column order).
"""

from __future__ import annotations

from fractions import Fraction

Vec = list
Mat = list

F0 = Fraction(0)
F1 = Fraction(1)


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
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    m = [list(map(Fraction, r)) for r in rows]
    if ncols is None:
        ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = F1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def nullspace(rows: Mat, ncols: int) -> list[Vec]:
    """Basis of the kernel of the matrix (rows act on column vectors)."""
    red, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Vec] = []
    for f in free:
        v = [F0] * ncols
        v[f] = F1
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return basis


def solve(a: Mat, b: Vec) -> Vec | None:
    """One solution of A x = b with free variables set to 0; None if none."""
    n = len(a)
    ncols = len(a[0]) if a else 0
    aug = [list(a[i]) + [Fraction(b[i])] for i in range(n)]
    red, pivots = rref(aug, ncols)
    x = [F0] * ncols
    for i, p in enumerate(pivots):
        x[p] = red[i][ncols]
    # rref() stops scanning at ncols, so an inconsistent system shows up
    # only when the candidate is substituted back
    for i in range(n):
        s = sum((c * v for c, v in zip(a[i], x) if c and v), F0)
        if s != b[i]:
            return None
    return x


def inverse(a: Mat) -> Mat:
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("not square")
    aug = [list(row) + [F1 if j == i else F0 for j in range(n)]
           for i, row in enumerate(a)]
    red, pivots = rref(aug, n)
    if len(pivots) != n:
        raise ValueError("singular matrix")
    return [row[n:] for row in red]
