"""The sparse elimination kernel against sympy's exact linear algebra.

``Echelon`` and the sparse ``solve`` are the whole interface: the RREF is
an ``Echelon``'s rows scaled by ``oracles.rref_rows``, the nullspace
``kernel()`` (integer rows over their denominators, read back as
Fractions), a normal form ``_reduce`` read back by ``oracles.reduce``, and
an inverse the tail of an ``Echelon`` fed [A | I].
Matrices are seeded random sparse rationals, plus the shapes where an
eliminator tends to slip: empty, 0×k, all-zero and rank-deficient, entries
whose numerators and denominators pass 2**70, and rows whose denominators
share no factor.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from branecalc import _linalg as la

from oracles import kernel as fraction_kernel, reduce, rref_rows

sympy = pytest.importorskip("sympy")


def to_fraction(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def to_sympy(rows, ncols):
    return sympy.Matrix(len(rows), ncols, [sympy.Rational(x.numerator, x.denominator)
                                           for row in rows for x in row])


def sparse(v):
    """A dense row as a sparse row {column: nonzero Fraction}."""
    return {j: Fraction(x) for j, x in enumerate(v) if x}


def echelon(rows, ncols):
    ech = la.Echelon(ncols)
    for r in rows:
        ech.insert(sparse(r))
    return ech


def rref(rows, ncols):
    """(RREF rows as dense lists, pivot columns), read off rref_rows."""
    view = rref_rows(echelon(rows, ncols))
    pivots = sorted(view)
    return [[view[p].get(j, Fraction(0)) for j in range(ncols)] for p in pivots], pivots


def inverse(a):
    """A⁻¹ off the tail of an Echelon fed [A | I], or None when A is singular:
    then fewer than n columns of A become pivots."""
    n = len(a)
    ech = la.Echelon(n)
    for i, row in enumerate(a):
        ech.insert({**sparse(row), n + i: Fraction(1)})
    if len(ech.rows) != n:
        return None
    view = rref_rows(ech)
    return [[view[p].get(n + j, Fraction(0)) for j in range(n)] for p in range(n)]


def mat_mul(a, b):
    if not a or not b:
        return []
    return [[sum((ai[t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for ai in a]


def mat_vec(a, v):
    return [sum((c * x for c, x in zip(row, v)), Fraction(0)) for row in a]


def solve(rows, b, ncols):
    """la.solve on the dense system A x = b, as sparse rows with the right
    side in column ncols; the solution comes back as a dense vector."""
    aug = [{**sparse(row), ncols: Fraction(c)} if c else sparse(row)
           for row, c in zip(rows, b)]
    sol = la.solve(aug, ncols)
    if sol is None:
        return None
    assert all(sol.values()) and all(0 <= j < ncols for j in sol)
    return [sol.get(j, Fraction(0)) for j in range(ncols)]


def random_matrix(rng, nrows, ncols, density=0.2):
    return [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < density
             else Fraction(0) for _ in range(ncols)] for _ in range(nrows)]


def low_rank(rng, nrows, ncols, rank):
    left = random_matrix(rng, nrows, rank, 0.5)
    right = random_matrix(rng, rank, ncols, 0.5)
    return mat_mul(left, right) if rank else [[Fraction(0)] * ncols
                                                 for _ in range(nrows)]


def cases():
    rng = random.Random(20180213)
    out = [("empty", [], 0), ("0x4", [], 4), ("zero 3x5", [[Fraction(0)] * 5] * 3, 5),
           ("1x1", [[Fraction(3, 2)]], 1)]
    for i in range(30):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        out.append((f"sparse {i}", random_matrix(rng, nrows, ncols), ncols))
    for i in range(15):
        nrows, ncols = rng.randint(2, 10), rng.randint(2, 10)
        rank = rng.randint(0, min(nrows, ncols) - 1)
        out.append((f"rank-deficient {i}", low_rank(rng, nrows, ncols, rank), ncols))
    rng = random.Random(1968)
    for i in range(6):
        nrows, ncols = rng.randint(2, 6), rng.randint(2, 6)
        out.append((f"huge {i}", huge_matrix(rng, nrows, ncols), ncols))
    for i in range(4):
        nrows, ncols = rng.randint(2, 7), rng.randint(2, 7)
        out.append((f"coprime denominators {i}", coprime_matrix(rng, nrows, ncols), ncols))
    return out


def huge_matrix(rng, nrows, ncols):
    """Entries with numerators and denominators above 2**70; every third
    row is a combination of two earlier ones, so elimination must cancel."""
    def big():
        return rng.choice([-1, 1]) * rng.randint(2**70, 2**80)
    rows = []
    for i in range(nrows):
        if i >= 2 and i % 3 == 2:
            a, b = Fraction(big(), big()), Fraction(big(), big())
            rows.append([a * x + b * y for x, y in zip(rows[i - 2], rows[i - 1])])
        else:
            rows.append([Fraction(big(), big()) if rng.random() < 0.6 else Fraction(0)
                         for _ in range(ncols)])
    return rows


def coprime_matrix(rng, nrows, ncols):
    """Every entry over its own prime: no two denominators share a factor."""
    primes = iter(rng.sample(list(sympy.primerange(2, 230)), nrows * ncols))
    return [[Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), next(primes))
             for _ in range(ncols)] for _ in range(nrows)]


CASES = cases()
IDS = [name for name, _, _ in CASES]


@pytest.mark.parametrize("name, rows, ncols", CASES, ids=IDS)
def test_rref_and_rank_match_sympy(name, rows, ncols):
    red, pivots = rref(rows, ncols)
    want, want_pivots = to_sympy(rows, ncols).rref()
    assert pivots == list(want_pivots)
    assert len(pivots) == to_sympy(rows, ncols).rank()
    assert red == [[to_fraction(want[i, j]) for j in range(ncols)]
                   for i in range(len(pivots))]


@pytest.mark.parametrize("name, rows, ncols", CASES, ids=IDS)
def test_rref_does_not_depend_on_row_order(name, rows, ncols):
    shuffled = list(rows)
    random.Random(len(rows) * 31 + ncols).shuffle(shuffled)
    assert rref(shuffled, ncols) == rref(rows, ncols)


@pytest.mark.parametrize("name, rows, ncols", CASES, ids=IDS)
def test_echelon_rows_are_primitive_and_order_free(name, rows, ncols):
    """Each stored row is a primitive integer row, positive at its pivot, its
    first column, and 0 at every other pivot column; the Fraction view is
    the same whatever order the rows arrive in."""
    rng = random.Random(len(rows) * 13 + ncols)
    views = []
    for _ in range(3):
        order = list(rows)
        rng.shuffle(order)
        ech = echelon(order, ncols)
        for p, row in ech.rows.items():
            assert all(type(x) is int and x for x in row.values())
            assert gcd(*row.values()) == 1 and row[p] > 0 and min(row) == p
            assert not any(q in row for q in ech.rows if q != p)
        views.append(rref_rows(ech))
    assert views[0] == views[1] == views[2]


@pytest.mark.parametrize("name, rows, ncols", CASES, ids=IDS)
def test_reduce_is_the_projection_off_the_pivot_columns(name, rows, ncols):
    """reduce(v) = v − Σ_p v[p]·R_p over sympy's RREF rows R_p: zero at every
    pivot column, and equal to v modulo the row space."""
    ech = echelon(rows, ncols)
    rng = random.Random(ncols * 7 + len(rows))
    red, pivots = to_sympy(rows, ncols).rref() if rows else (None, ())
    for v in random_matrix(rng, 3, ncols, 0.7) + rows[:1]:
        want = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in v]])
        for i, p in enumerate(pivots):
            want -= want[0, p] * red[i, :]
        got = reduce(ech, sparse(v))
        assert got == {j: to_fraction(x) for j, x in enumerate(want) if x}


@pytest.mark.parametrize("name, rows, ncols", CASES, ids=IDS)
def test_nullspace_matches_sympy(name, rows, ncols):
    ech = echelon(rows, ncols)
    kernel = ech.kernel()
    for f, (w, den) in kernel.items():  # primitive integer rows over w[f]
        assert all(type(x) is int and x for x in w.values())
        assert den == w[f] > 0 and gcd(*w.values()) == 1
    got = [[Fraction(w.get(j, 0), den) for j in range(ncols)]
           for w, den in (kernel[f] for f in sorted(kernel))]
    assert got == [[v.get(j, Fraction(0)) for j in range(ncols)]
                   for v in (fraction_kernel(ech)[f] for f in sorted(kernel))]
    want = to_sympy(rows, ncols).nullspace()
    assert got == [[to_fraction(x) for x in v] for v in want]
    for v in got:
        assert mat_vec(rows, v) == [0] * len(rows)


@pytest.mark.parametrize("name, rows, ncols", CASES, ids=IDS)
def test_solve_recovers_consistent_systems(name, rows, ncols):
    rng = random.Random(ncols * 97 + len(rows))
    x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
    b = mat_vec(rows, x)
    sol = solve(rows, b, ncols)
    assert sol is not None and mat_vec(rows, sol) == b
    if len(echelon(rows, ncols).rows) == ncols:  # full column rank: x is the only solution
        assert sol == x


@pytest.mark.parametrize("name, rows, ncols", CASES, ids=IDS)
def test_solve_rejects_inconsistent_systems(name, rows, ncols):
    rng = random.Random(ncols * 89 + len(rows))
    for _ in range(5):
        b = [Fraction(rng.randint(-3, 3)) for _ in rows]
        aug = [list(row) + [c] for row, c in zip(rows, b)]
        consistent = (to_sympy(aug, ncols + 1).rank() == to_sympy(rows, ncols).rank()
                      if rows else True)
        sol = solve(rows, b, ncols)
        assert (sol is not None) == consistent
        if sol is not None:
            assert mat_vec(rows, sol) == b


def test_solve_on_a_zero_row_with_nonzero_right_side():
    assert la.solve([{0: Fraction(1), 2: Fraction(1)}, {2: Fraction(1)}], 2) is None


def test_inverse_matches_sympy():
    rng = random.Random(7)
    checked = 0
    while checked < 15:
        n = rng.randint(1, 8)
        a = random_matrix(rng, n, n, 0.4)
        m = to_sympy(a, n)
        if m.det() == 0:
            assert inverse(a) is None
            continue
        inv = inverse(a)
        assert inv == [[to_fraction(x) for x in m.inv().row(i)] for i in range(n)]
        checked += 1
    assert inverse([]) == []


@pytest.mark.parametrize("a", [
    [[Fraction(0)]],
    [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
    [[Fraction(0)] * 3] * 3,
])
def test_inverse_rejects_singular_matrices(a):
    assert inverse(a) is None
